import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from fuzzybvp.fuzzy import (
    Interval,
    ParametricFuzzyNumber,
    TriangularFuzzyNumber,
    add,
    fuzzy_from_json,
    scale,
    split_crisp,
)

moderate = st.floats(min_value=-100.0, max_value=100.0)


@st.composite
def triangulars(draw):
    a, b, c = sorted(draw(st.tuples(moderate, moderate, moderate)))
    return TriangularFuzzyNumber(a, b, c)


@st.composite
def parametrics(draw):
    num = draw(st.integers(min_value=3, max_value=9))
    vertex = draw(moderate)
    gaps_lo = draw(st.lists(st.floats(0.0, 10.0), min_size=num - 1, max_size=num - 1))
    gaps_hi = draw(st.lists(st.floats(0.0, 10.0), min_size=num - 1, max_size=num - 1))
    suffix = lambda gaps: np.append(np.cumsum(gaps[::-1])[::-1], 0.0)
    alphas = np.linspace(0.0, 1.0, num)
    return ParametricFuzzyNumber(alphas, vertex - suffix(gaps_lo), vertex + suffix(gaps_hi))


fuzzy_numbers = st.one_of(triangulars(), parametrics())


class TestInterval:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)


class TestTriangularCuts:
    def test_support_cut(self):
        cut = TriangularFuzzyNumber(1.5, 2.0, 3.0).alpha_cut(0.0)
        assert cut == Interval(1.5, 3.0)

    def test_vertex_cut(self):
        assert TriangularFuzzyNumber(1.5, 2.0, 3.0).alpha_cut(1.0) == Interval(2.0, 2.0)

    def test_interpolated_cut(self):
        cut = TriangularFuzzyNumber(-1.0, 0.0, 0.5).alpha_cut(0.6)
        assert cut.lo == pytest.approx(-0.4, abs=1e-15)
        assert cut.hi == pytest.approx(0.2, abs=1e-15)

    @pytest.mark.parametrize("alpha", [-0.1, 1.1, 2.0])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(ValueError):
            TriangularFuzzyNumber(0.0, 1.0, 2.0).alpha_cut(alpha)

    def test_unordered_fields_rejected(self):
        with pytest.raises(ValueError):
            TriangularFuzzyNumber(2.0, 1.0, 3.0)


class TestParametricCuts:
    def test_matches_triangular_on_two_levels(self):
        tri = TriangularFuzzyNumber(1.5, 2.0, 3.0)
        par = ParametricFuzzyNumber([0.0, 1.0], [1.5, 2.0], [3.0, 2.0])
        assert par.alpha_cut(0.5) == Interval(1.75, 2.5)
        assert par.alpha_cut(0.5) == tri.alpha_cut(0.5)

    def test_vertex_cut_is_degenerate(self):
        par = ParametricFuzzyNumber([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], [3.0, 2.0, 1.0])
        cut = par.alpha_cut(1.0)
        assert cut.lo == cut.hi == 1.0

    def test_quadratic_branches_on_dense_grid(self):
        alphas = np.linspace(0.0, 1.0, 101)
        par = ParametricFuzzyNumber(alphas, alphas**2 - 1.0, 1.0 - alphas**2)
        cut = par.alpha_cut(0.5)
        assert cut.lo == pytest.approx(-0.75, abs=1e-4)
        assert cut.hi == pytest.approx(0.75, abs=1e-4)

    def test_alpha_out_of_range(self):
        par = ParametricFuzzyNumber([0.0, 1.0], [0.0, 1.0], [2.0, 1.0])
        with pytest.raises(ValueError):
            par.alpha_cut(1.5)

    def test_stored_levels_cut_to_the_stored_values_bit_for_bit(self):
        # a stored -0.0 included: the cut adds no +0.0 to it
        alphas = [0.0, 0.3, 0.7, 1.0]
        lower, upper = [-1.0, -0.0, -0.0, -0.0], [2.0, 1.5, 0.1, 0.0]
        par = ParametricFuzzyNumber(alphas, lower, upper)
        for alpha, lo, hi in zip(alphas, lower, upper):
            cut = par.alpha_cut(alpha)
            assert np.array([cut.lo, cut.hi]).tobytes() == np.array([lo, hi]).tobytes()


class TestParametricEquality:
    def test_equal_arrays_compare_equal(self):
        par = ParametricFuzzyNumber([0.0, 1.0], [1.0, 2.0], [3.0, 2.0])
        assert par == ParametricFuzzyNumber(np.array([0, 1]), (1, 2), [3.0, 2.0])
        assert par != ParametricFuzzyNumber([0.0, 1.0], [1.5, 2.0], [3.0, 2.0])

    def test_triangular_number_compares_unequal(self):
        par = ParametricFuzzyNumber([0.0, 1.0], [1.0, 2.0], [3.0, 2.0])
        assert par != TriangularFuzzyNumber(1.0, 2.0, 3.0)
        assert TriangularFuzzyNumber(1.0, 2.0, 3.0) != par


class TestParametricValidation:
    def test_trapezoid_rejected(self):
        with pytest.raises(ValueError, match="unique vertex"):
            ParametricFuzzyNumber([0.0, 1.0], [0.0, 1.0], [3.0, 2.0])

    def test_decreasing_lower_branch_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            ParametricFuzzyNumber([0.0, 0.5, 1.0], [0.0, -0.5, 1.0], [2.0, 1.5, 1.0])

    def test_increasing_upper_branch_rejected(self):
        with pytest.raises(ValueError, match="non-increasing"):
            ParametricFuzzyNumber([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], [2.0, 2.5, 1.0])

    def test_tiny_monotonicity_noise_tolerated(self):
        ParametricFuzzyNumber([0.0, 0.5, 1.0], [0.0, 0.5 - 1e-13, 1.0], [2.0, 1.5, 1.0])

    def test_grid_must_cover_unit_interval(self):
        with pytest.raises(ValueError, match="start at 0"):
            ParametricFuzzyNumber([0.1, 1.0], [0.0, 1.0], [2.0, 1.0])

    def test_branch_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="match the alpha grid"):
            ParametricFuzzyNumber([0.0, 0.5, 1.0], [0.0, 1.0], [2.0, 1.0])


class TestMembership:
    def test_right_branch(self):
        assert TriangularFuzzyNumber(1.5, 2.0, 3.0).membership(2.5) == pytest.approx(0.5)

    def test_vertex(self):
        assert TriangularFuzzyNumber(2.0, 3.0, 4.0).membership(3.0) == 1.0

    def test_outside_support(self):
        assert TriangularFuzzyNumber(2.0, 3.0, 4.0).membership(5.0) == 0.0

    def test_degenerate_crisp_number(self):
        crisp = TriangularFuzzyNumber(5.0, 5.0, 5.0)
        assert crisp.membership(5.0) == 1.0
        assert crisp.membership(5.0 + 1e-9) == 0.0

    def test_parametric_agrees_with_triangular(self):
        tri = TriangularFuzzyNumber(1.5, 2.0, 3.0)
        par = ParametricFuzzyNumber.from_triangular(tri, num_levels=11)
        for x in (1.5, 1.9, 2.0, 2.5, 3.0, 3.5):
            assert par.membership(x) == pytest.approx(tri.membership(x), abs=1e-12)

    def test_parametric_flat_segment(self):
        # lower branch flat at 1.0 between alpha 0.25 and 0.75
        par = ParametricFuzzyNumber([0.0, 0.25, 0.75, 1.0],
                                    [0.0, 1.0, 1.0, 2.0],
                                    [4.0, 3.5, 3.0, 2.0])
        assert par.membership(1.0) == pytest.approx(0.75)

    @pytest.mark.parametrize("u", [
        TriangularFuzzyNumber(1.5, 2.0, 3.0),
        TriangularFuzzyNumber(5.0, 5.0, 5.0),
        ParametricFuzzyNumber([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], [3.0, 2.0, 1.0]),
    ], ids=["triangular", "crisp", "parametric"])
    def test_nan_has_zero_membership(self, u):
        assert u.membership(float("nan")) == 0.0


class TestScale:
    def test_positive(self):
        assert scale(2.0, TriangularFuzzyNumber(1.0, 2.0, 3.0)) == \
            TriangularFuzzyNumber(2.0, 4.0, 6.0)

    def test_negative_reflects(self):
        assert scale(-1.0, TriangularFuzzyNumber(-0.5, 0.0, 1.0)) == \
            TriangularFuzzyNumber(-1.0, 0.0, 0.5)

    def test_zero_collapses(self):
        out = scale(0.0, TriangularFuzzyNumber(-0.5, 0.0, 1.0))
        assert (out.left, out.peak, out.right) == (0.0, 0.0, 0.0)

    def test_parametric_negative(self):
        par = ParametricFuzzyNumber([0.0, 1.0], [-1.0, 0.0], [2.0, 0.0])
        out = scale(-2.0, par)
        assert out.alpha_cut(0.0) == Interval(-4.0, 2.0)

    def test_operator_sugar(self):
        tri = TriangularFuzzyNumber(1.0, 2.0, 3.0)
        assert 2.0 * tri == scale(2.0, tri)


class TestAdd:
    def test_triangular_sum(self):
        out = add(TriangularFuzzyNumber(1.0, 2.0, 3.0), TriangularFuzzyNumber(0.0, 1.0, 2.0))
        assert out == TriangularFuzzyNumber(1.0, 3.0, 5.0)

    def test_additive_identity(self):
        u = TriangularFuzzyNumber(-0.5, 0.0, 1.0)
        assert add(u, TriangularFuzzyNumber(0.0, 0.0, 0.0)) == u

    def test_uncertain_parts_sum(self):
        out = add(TriangularFuzzyNumber(-0.5, 0.0, 1.0), TriangularFuzzyNumber(-1.0, 0.0, 1.0))
        assert out == TriangularFuzzyNumber(-1.5, 0.0, 2.0)

    def test_mixed_promotes_to_parametric(self):
        tri = TriangularFuzzyNumber(0.0, 1.0, 2.0)
        par = ParametricFuzzyNumber([0.0, 0.5, 1.0], [0.0, 0.25, 1.0], [2.0, 1.5, 1.0])
        out = add(tri, par)
        assert isinstance(out, ParametricFuzzyNumber)
        assert out.alpha_cut(0.0) == Interval(0.0, 4.0)
        assert out.alpha_cut(1.0) == Interval(2.0, 2.0)

    def test_mixed_promotes_the_right_operand(self):
        par = ParametricFuzzyNumber([0.0, 0.5, 1.0], [0.0, 0.25, 1.0], [2.0, 1.5, 1.0])
        out = add(par, TriangularFuzzyNumber(0.0, 1.0, 2.0))
        assert out == ParametricFuzzyNumber([0.0, 0.5, 1.0], [0.0, 0.75, 2.0], [4.0, 3.0, 2.0])

    def test_union_grid_resampling(self):
        a = ParametricFuzzyNumber([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], [2.0, 1.5, 1.0])
        b = ParametricFuzzyNumber([0.0, 0.25, 1.0], [0.0, 0.25, 1.0], [2.0, 1.75, 1.0])
        out = add(a, b)
        assert list(out.alphas) == [0.0, 0.25, 0.5, 1.0]
        # piecewise-linear resampling is exact, so cuts add level-wise
        for alpha in (0.0, 0.25, 0.5, 0.7, 1.0):
            ca, cb, cs = a.alpha_cut(alpha), b.alpha_cut(alpha), out.alpha_cut(alpha)
            assert cs.lo == pytest.approx(ca.lo + cb.lo, abs=1e-12)
            assert cs.hi == pytest.approx(ca.hi + cb.hi, abs=1e-12)


class TestSplitCrisp:
    def test_example_boundary_values(self):
        assert split_crisp(TriangularFuzzyNumber(1.5, 2.0, 3.0)) == \
            (2.0, TriangularFuzzyNumber(-0.5, 0.0, 1.0))
        assert split_crisp(TriangularFuzzyNumber(2.0, 3.0, 4.0)) == \
            (3.0, TriangularFuzzyNumber(-1.0, 0.0, 1.0))

    def test_crisp_number_has_zero_uncertain_part(self):
        vertex, uncertain = split_crisp(TriangularFuzzyNumber(5.0, 5.0, 5.0))
        assert vertex == 5.0
        assert uncertain == TriangularFuzzyNumber(0.0, 0.0, 0.0)

    def test_parametric_split(self):
        par = ParametricFuzzyNumber([0.0, 1.0], [1.0, 2.0], [4.0, 2.0])
        vertex, uncertain = split_crisp(par)
        assert vertex == 2.0
        assert uncertain.alpha_cut(0.0) == Interval(-1.0, 2.0)
        assert abs(uncertain.vertex) == 0.0


class TestJsonRoundTrip:
    def test_triangular(self):
        tri = fuzzy_from_json({"type": "triangular", "l": 1.5, "m": 2, "r": 3.0})
        assert tri == TriangularFuzzyNumber(1.5, 2.0, 3.0)

    def test_parametric(self):
        par = fuzzy_from_json({"type": "parametric", "alphas": [0, 0.5, 1],
                               "lower": [0.0, 0.5, 1], "upper": [3, 2.0, 1.0]})
        assert np.array_equal(par.alphas, [0.0, 0.5, 1.0])
        assert np.array_equal(par.lower, [0.0, 0.5, 1.0])
        assert np.array_equal(par.upper, [3.0, 2.0, 1.0])

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown fuzzy number type"):
            fuzzy_from_json({"type": "gaussian", "mu": 0, "sigma": 1})

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="missing fields"):
            fuzzy_from_json({"type": "triangular", "l": 1, "m": 2})

    @pytest.mark.parametrize("field, value, message", [
        ("l", None, "field l must be a number"),
        ("l", [1], "field l must be a number"),
        ("m", True, "field m must be a number"),
        ("r", "4", "field r must be a number"),
        pytest.param("r", 10**400, "field r must be a number", id="r-beyond-float-range"),
        ("alphas", {"a": 1}, "field alphas must be a list of numbers"),
        ("alphas", [[0], [1]], "field alphas must be a list of numbers"),
        ("lower", [1.5, True], "field lower must be a list of numbers"),
        ("upper", [3, None], "field upper must be a list of numbers"),
        ("upper", "3, 2", "field upper must be a list of numbers"),
    ])
    def test_non_number_field_rejected_with_its_name(self, field, value, message):
        if field in ("l", "m", "r"):
            obj = {"type": "triangular", "l": 1, "m": 2, "r": 4}
        else:
            obj = {"type": "parametric", "alphas": [0, 1], "lower": [1, 2], "upper": [3, 2]}
        obj[field] = value
        with pytest.raises(ValueError, match=message):
            fuzzy_from_json(obj)

    @pytest.mark.parametrize("obj, unknown", [
        ({"type": "triangular", "l": 1.5, "m": 2, "r": 3, "rr": 3}, "rr"),
        ({"type": "parametric", "alphas": [0, 1], "lower": [1, 2], "upper": [3, 2],
          "uper": [9, 9]}, "uper"),
        ({"type": "triangular", "l": 1.5, "m": 2, "r": 3, "x": 0, "y": 1}, "x, y"),
    ])
    def test_unknown_field_rejected_with_its_name(self, obj, unknown):
        with pytest.raises(ValueError) as info:
            fuzzy_from_json(obj)
        assert str(info.value) == f"{obj['type']} fuzzy number has unknown fields: {unknown}"

    def test_unhashable_type_rejected(self):
        with pytest.raises(ValueError, match="unknown fuzzy number type"):
            fuzzy_from_json({"type": ["triangular"], "l": 1, "m": 2, "r": 3})


@pytest.mark.parametrize("u", [TriangularFuzzyNumber(1.0, 2.0, 3.0),
                               ParametricFuzzyNumber([0.0, 1.0], [1.0, 2.0], [3.0, 2.0])],
                         ids=["triangular", "parametric"])
@pytest.mark.parametrize("call, name", [
    (lambda u: scale(2, 3.0), "float"),
    (lambda u: add(3.0, u), "float"),
    (lambda u: add(u, 3.0), "float"),
    (lambda u: u + 3.0, "float"),
    (lambda u: split_crisp("x"), "str"),
], ids=["scale", "add-left", "add-right", "operator", "split_crisp"])
def test_operand_that_is_not_a_fuzzy_number_is_a_type_error(u, call, name):
    with pytest.raises(TypeError) as info:
        call(u)
    assert str(info.value) == f"not a fuzzy number: {name}"


# --- properties ----------------------------------------------------------

alphas_unit = st.floats(min_value=0.0, max_value=1.0)


@given(fuzzy_numbers, alphas_unit, alphas_unit)
def test_cuts_nest_with_increasing_alpha(u, a1, a2):
    lo_level, hi_level = min(a1, a2), max(a1, a2)
    outer = u.alpha_cut(lo_level)
    inner = u.alpha_cut(hi_level)
    assert outer.lo <= inner.lo + 1e-9
    assert inner.hi <= outer.hi + 1e-9


@given(triangulars(), alphas_unit)
def test_triangular_and_parametric_cuts_agree_exactly(tri, alpha):
    par = ParametricFuzzyNumber([0.0, 1.0], [tri.left, tri.peak], [tri.right, tri.peak])
    assert par.alpha_cut(alpha) == tri.alpha_cut(alpha)


@given(parametrics(), alphas_unit)
def test_cut_between_levels_is_within_two_eps_of_the_exact_interpolation(u, alpha):
    j = int(np.searchsorted(u.alphas, alpha, side="right")) - 1
    assume(u.alphas[j] != alpha)  # off the stored levels
    cut = u.alpha_cut(alpha)
    a0, a1 = Fraction(u.alphas[j]), Fraction(u.alphas[j + 1])
    for end, values in ((cut.lo, u.lower), (cut.hi, u.upper)):
        v0, v1 = Fraction(values[j]), Fraction(values[j + 1])
        top = max(abs(v0), abs(v1))
        assume(top == 0 or top >= 1e-300)  # subnormal steps round on an absolute scale
        exact = v0 + (Fraction(alpha) - a0) * (v1 - v0) / (a1 - a0)
        assert abs(Fraction(end) - exact) <= 2 * Fraction(np.finfo(float).eps) * top


@given(parametrics(), st.lists(alphas_unit, max_size=5))
def test_resample_onto_a_refinement_keeps_every_stored_level_bit_for_bit(u, extra):
    grid = np.union1d(u.alphas, extra)
    out = u.resample(grid)
    kept = np.isin(grid, u.alphas)
    assert out.lower[kept].tobytes() == u.lower.tobytes()
    assert out.upper[kept].tobytes() == u.upper.tobytes()


@given(fuzzy_numbers, moderate, alphas_unit)
def test_membership_alpha_cut_duality(u, x, alpha):
    grade = u.membership(x)
    assume(abs(grade - alpha) > 1e-6)
    cut = u.alpha_cut(alpha)
    # skip razor-edge draws where x sits on a cut endpoint
    tol = 1e-9 * max(1.0, abs(cut.lo), abs(cut.hi))
    assume(abs(x - cut.lo) > tol and abs(x - cut.hi) > tol)
    assert (cut.lo <= x <= cut.hi) == (grade >= alpha)


@given(fuzzy_numbers, moderate, st.floats(min_value=-50.0, max_value=50.0))
def test_scale_preserves_membership(u, x, c):
    assume(abs(c) > 1e-6)
    assert scale(c, u).membership(c * x) == pytest.approx(u.membership(x), abs=1e-9)


@given(moderate, moderate)
def test_add_on_crisp_numbers_is_real_addition(a, b):
    out = add(TriangularFuzzyNumber(a, a, a), TriangularFuzzyNumber(b, b, b))
    assert out == TriangularFuzzyNumber(a + b, a + b, a + b)


@given(fuzzy_numbers)
def test_split_crisp_round_trip(u):
    vertex, uncertain = split_crisp(u)
    levels = (u.alphas if isinstance(u, ParametricFuzzyNumber) else [0.0, 0.5, 1.0])
    scale_bound = max(1.0, abs(vertex)) * 1e-12
    for alpha in levels:
        original = u.alpha_cut(float(alpha))
        part = uncertain.alpha_cut(float(alpha))
        assert vertex + part.lo == pytest.approx(original.lo, abs=scale_bound)
        assert vertex + part.hi == pytest.approx(original.hi, abs=scale_bound)


# every finite float down to the subnormals, bounded so that each difference of
# two stays finite: a side wider than the float max overflows the closed form
reals = st.floats(min_value=-8e307, max_value=8e307)


@st.composite
def triangles_and_points(draw, reals=reals):
    """(left, peak, right, x): either side may be degenerate; x is a corner, a
    neighbour of one, a point of the support, any of ``reals`` or nan."""
    left, peak, right = sorted(draw(st.tuples(reals, reals, reals)))
    left = draw(st.sampled_from([left, peak]))
    right = draw(st.sampled_from([right, peak]))
    corners = [left, peak, right]
    x = draw(st.one_of(
        st.sampled_from(corners + [float("nan")]),
        st.sampled_from(corners).flatmap(
            lambda c: st.sampled_from([math.nextafter(c, -math.inf),
                                       math.nextafter(c, math.inf)])),
        st.floats(0.0, 1.0).map(lambda s: left + s * (right - left)),
        reals))
    return left, peak, right, x


@given(triangles_and_points())
def test_triangular_membership_is_its_closed_form_bit_for_bit(drawn):
    left, peak, right, x = drawn
    if not left <= x <= right:
        expected = 0.0
    elif x == peak:
        expected = 1.0
    elif x < peak:
        expected = (x - left) / (peak - left)
    else:
        expected = (right - x) / (right - peak)
    assert TriangularFuzzyNumber(left, peak, right).membership(x).hex() == expected.hex()


# every finite float, with a share of either sign past half the float max
MAX = sys.float_info.max
whole = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.floats(MAX / 2, MAX), st.floats(-MAX, -MAX / 2))


@given(triangles_and_points(whole), st.floats(0.0, 1.0))
def test_triangular_membership_over_the_whole_float_range(drawn, s):
    # a side wider than the float max is read on halved values, exact at that
    # size: the closed form on them, bit for bit, and within the 1.5 eps of its
    # three roundings of the exact ratio (plus the smallest subnormal)
    left, peak, right, x = drawn
    u = TriangularFuzzyNumber(left, peak, right)
    for x in (x, 2 * (left / 2 + s * (right / 2 - left / 2))):
        got = u.membership(x)
        if not left <= x <= right or x == peak:
            assert got == (x == peak)
            continue
        ends = (x, left, peak) if x < peak else (-x, -right, -peak)
        h = 0.5 if math.isinf(ends[2] - ends[1]) else 1.0
        a, b, c = (h * e for e in ends)
        assert got.hex() == (0.0 + (a - b) / (c - b)).hex()  # alpha 0 plus the ratio
        a, b, c = map(Fraction, ends)
        exact = (a - b) / (c - b)
        eps = Fraction(np.finfo(float).eps)
        assert abs(Fraction(got) - exact) <= Fraction(3, 2) * eps * exact + Fraction(2.0 ** -1074)


@given(triangulars())
def test_membership_is_one_only_at_vertex(u):
    assume(u.right - u.left > 1e-6)
    assert u.membership(u.peak) == 1.0
    if u.peak - u.left > 1e-6:
        assert u.membership(u.left + 0.25 * (u.peak - u.left)) < 1.0


def test_split_requires_unique_vertex():
    # trapezoids cannot even be constructed
    with pytest.raises(ValueError, match="unique vertex"):
        ParametricFuzzyNumber([0.0, 1.0], [0.0, 0.5], [2.0, 1.5])


# --- validation messages -------------------------------------------------

INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("build, message", [
    (lambda: Interval(0.0, INF), "interval endpoints must be finite, got [0.0, inf]"),
    (lambda: Interval(NAN, 1.0), "interval endpoints must be finite, got [nan, 1.0]"),
    (lambda: TriangularFuzzyNumber(0.0, 1.0, INF),
     "triangular fuzzy number requires finite left, peak, right"),
    (lambda: ParametricFuzzyNumber([[0.0, 1.0]], [[0.0, 1.0]], [[2.0, 1.0]]),
     "alpha grid must be one-dimensional with at least 2 levels"),
    (lambda: ParametricFuzzyNumber([1.0], [1.0], [1.0]),
     "alpha grid must be one-dimensional with at least 2 levels"),
    (lambda: ParametricFuzzyNumber([0.0, 1.0], [NAN, 1.0], [2.0, 1.0]),
     "alpha grid and branches must be finite"),
    (lambda: ParametricFuzzyNumber([0.0, 0.0, 1.0], [0.0, 0.5, 1.0], [2.0, 1.5, 1.0]),
     "alpha grid must be strictly increasing"),
    # each step down stays inside the monotonicity tolerance, yet the lower
    # branch ends up above the upper one at alpha = 0.25
    (lambda: ParametricFuzzyNumber([0.0, 0.25, 0.5, 0.75, 1.0],
                                   [0.0, 1 + 2.7e-12, 1 + 1.8e-12, 1 + 0.9e-12, 1.0],
                                   [2.0, 1.0, 1.0, 1.0, 1.0]),
     "lower branch must not exceed upper branch"),
])
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_cut_of_crossing_branches_collapses_to_their_midpoint():
    # inside the vertex tolerance the branches may cross by 5e-13 at alpha = 1
    u = ParametricFuzzyNumber([0.0, 1.0], [0.0, 1.0 + 5e-13], [2.0, 1.0])
    middle = 0.5 * ((1.0 + 5e-13) + 1.0)
    assert u.alpha_cut(1.0) == Interval(middle, middle)


# halving is exact for these floats and their sum stays below the float max
normal_range = st.floats(min_value=-8e307, max_value=8e307).filter(
    lambda x: x == 0.0 or abs(x) >= 4 * np.finfo(float).tiny)


@given(normal_range, st.floats(min_value=-1e-12, max_value=1e-12))
def test_vertex_equals_the_halved_sum_bit_for_bit(top, gap):
    lower_top, upper_top = top, top + gap
    assume(abs(upper_top) <= 8e307 and abs(lower_top - upper_top) <= 1e-12)
    assume(upper_top == 0.0 or abs(upper_top) >= 4 * np.finfo(float).tiny)
    u = ParametricFuzzyNumber([0.0, 1.0], [min(lower_top, upper_top) - 1.0, lower_top],
                              [max(lower_top, upper_top) + 1.0, upper_top])
    assert np.float64(u.vertex).tobytes() == np.float64(0.5 * (lower_top + upper_top)).tobytes()


def test_vertex_of_branches_meeting_near_the_float_max_is_finite():
    u = ParametricFuzzyNumber([0.0, 1.0], [1e308, 1.5e308], [1.7e308, 1.5e308])
    assert u.vertex == 1.5e308
