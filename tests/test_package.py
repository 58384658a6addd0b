"""The package namespace: ``__all__`` lists exactly the names it exports."""

import inspect

import fuzzybvp


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from fuzzybvp import *", namespace)  # raises if a listed name is missing
    del namespace["__builtins__"]
    assert len(fuzzybvp.__all__) == len(set(fuzzybvp.__all__))
    assert set(namespace) == set(fuzzybvp.__all__)
    for name, value in namespace.items():
        assert value is getattr(fuzzybvp, name)


def test_every_public_import_is_exported():
    public = {name for name, value in vars(fuzzybvp).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(fuzzybvp.__all__)
