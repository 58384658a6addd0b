import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from fuzzybvp.expressions import (
    EvaluationError,
    ExpressionSyntaxError,
    UnknownIdentifierError,
    _tokenize,
    is_constant,
    parse,
)


class TestParseAndEvaluate:
    @pytest.mark.parametrize("text, t, expected", [
        ("4*t - 6", 2.0, 2.0),
        ("47 - 8*t^2", 2.0, 15.0),
        ("sin(4*t)", 0.0, 0.0),
        ("-3", 7.0, -3.0),
        ("t", 1.25, 1.25),
        ("2 + 3*4", 0.0, 14.0),
        ("2*3^2", 0.0, 18.0),
        ("-2^2", 0.0, -4.0),
        ("2^3^2", 0.0, 512.0),
        ("(2+3)*4", 0.0, 20.0),
        ("2^-1", 0.0, 0.5),
        ("10/4/5", 0.0, 0.5),
        ("1 - 2 - 3", 0.0, -4.0),
        ("sqrt(t)", 9.0, 3.0),
        ("log(e)", 0.0, 1.0),
        ("cos(0)", 5.0, 1.0),
        ("exp(0)", 5.0, 1.0),
        ("1.5e2 + 1", 0.0, 151.0),
        ("2.5E-1", 0.0, 0.25),
        ("  4 * t\t- 6 ", 2.0, 2.0),
    ])
    def test_value(self, text, t, expected):
        assert parse(text).evaluate(t) == pytest.approx(expected, abs=1e-12)

    def test_euler_constant(self):
        assert parse("e^t").evaluate(1.0) == pytest.approx(math.e ** 1.0, abs=1e-9)

    def test_pi_constant(self):
        assert parse("sin(pi)").evaluate(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_deterministic(self):
        expr = parse("sin(4*t) * exp(t) - t^3")
        assert expr.evaluate(0.7) == expr.evaluate(0.7)


class TestSyntaxErrors:
    def test_dangling_operator(self):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse("4*")
        assert info.value.position == 2

    def test_missing_close_paren(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("(2 + 3")

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as info:
            parse("2 + foo(3)")
        assert info.value.position == 4

    def test_unknown_variable(self):
        with pytest.raises(UnknownIdentifierError):
            parse("x + 1")

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("2 + 3 5")

    def test_unexpected_character(self):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse("2 % 3")
        assert info.value.position == 2

    def test_double_star_is_not_power(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("2**3")

    def test_function_requires_parentheses(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("sin 4")

    def test_position_reported_in_message(self):
        with pytest.raises(ExpressionSyntaxError, match="column 3"):
            parse("4*")

    @pytest.mark.parametrize("text, position", [("1e400", 0), ("2*t + 1.5E+309", 6)])
    def test_literal_beyond_float_range(self, text, position):
        # the literal would parse to inf, whose printed text does not parse back
        with pytest.raises(ExpressionSyntaxError, match="too large for a float") as info:
            parse(text)
        assert info.value.position == position


class TestEvaluationErrors:
    def test_division_by_zero(self):
        expr = parse("1/(t-1)")
        with pytest.raises(EvaluationError, match="division by zero"):
            expr.evaluate(1.0)
        assert expr.evaluate(2.0) == 1.0

    def test_log_of_non_positive(self):
        with pytest.raises(EvaluationError, match="log"):
            parse("log(t)").evaluate(-1.0)

    def test_sqrt_of_negative(self):
        with pytest.raises(EvaluationError, match="sqrt"):
            parse("sqrt(t)").evaluate(-4.0)

    def test_overflowing_power(self):
        with pytest.raises(EvaluationError):
            parse("10^t").evaluate(400.0)

    def test_error_names_offending_node_and_t(self):
        with pytest.raises(EvaluationError, match=r"t = 1"):
            parse("2 + 1/(t-1)").evaluate(1.0)


PRINTER_CORPUS = [
    "4*t - 6",
    "47 - 8*t^2",
    "sin(4*t)",
    "-2^2",
    "2^3^2",
    "e^t - pi",
    "-t*(t - 1)/(t^2 + 1)",
    "sqrt(t^2 + 1) + exp(-t)",
    "cos(t)*sin(t) - log(t^2 + 1)",
    "1.5e-2*t + 2.5E1",
    "-(-t)",
    "t/2^t",
]


@pytest.mark.parametrize("text", PRINTER_CORPUS)
def test_printer_round_trip_on_random_points(text):
    expr = parse(text)
    reparsed = parse(expr.to_text())
    rng = random.Random(20240817)
    for _ in range(100):
        t = rng.uniform(-10.0, 10.0)
        assert reparsed.evaluate(t) == expr.evaluate(t)


@given(st.floats(min_value=-50.0, max_value=50.0))
def test_printer_round_trip_property(t):
    expr = parse("t^2 - 3*t + sin(2*t)/(t^2 + 1)")
    assert parse(expr.to_text()).evaluate(t) == expr.evaluate(t)


def test_printer_emits_parseable_text():
    text = parse("-(4*t - 6)^2").to_text()
    assert parse(text).evaluate(2.0) == -4.0


@pytest.mark.parametrize("text", PRINTER_CORPUS)
def test_array_evaluation_matches_scalar(text):
    expr = parse(text)
    times = np.linspace(-3.0, 3.0, 61)
    values = expr.evaluate(times)
    assert values.shape == times.shape
    scalars = [expr.evaluate(float(t)) for t in times]
    assert all(isinstance(v, float) for v in scalars)
    np.testing.assert_allclose(values, scalars, rtol=1e-14, atol=1e-14)


def test_constant_is_a_read_only_view_of_the_times_shape():
    # the RK4 scan evaluates on a 2-D lattice; a constant fills no array
    values = parse("2").evaluate(np.zeros((3, 4)))
    assert values.shape == (3, 4) and np.all(values == 2.0)
    assert not values.flags.writeable
    assert isinstance(parse("2").evaluate(0.5), float)
    assert parse("-2").evaluate(np.zeros((3, 4))).shape == (3, 4)


@pytest.mark.parametrize("text, times, message, first", [
    ("1/(t-1)", np.linspace(0.0, 2.0, 5), "division by zero", 1.0),
    ("log(t)", [2.0, 1.0, -1.0, 0.0], "log of non-positive", -1.0),
    ("sqrt(t)", [4.0, 0.0, -4.0, -9.0], "sqrt of negative", -4.0),
    ("10^t", [1.0, 2.0, 400.0, 500.0], "invalid power", 400.0),
])
def test_array_errors_name_the_first_offending_t(text, times, message, first):
    with pytest.raises(EvaluationError, match=message) as info:
        parse(text).evaluate(np.array(times))
    assert info.value.t == first
    assert f"at t = {first:g}" in str(info.value)


# Decimal digits (ASCII and Arabic-Indic), letters, the number and operator
# characters, white space and a character outside the grammar; "²" and "½"
# are numeric without being decimal digits.
TOKENIZER_ALPHABET = "0123456789٣xté_.eE+-*/^() \t $²½"


def tokens_or_error(tokenize, text):
    try:
        return [tuple(token) for token in tokenize(text)]
    except ExpressionSyntaxError as exc:
        return type(exc), str(exc)


@given(st.text(TOKENIZER_ALPHABET, max_size=12))
def test_tokenizer_matches_the_character_loop(text):
    if any(c.isnumeric() and not c.isdecimal() for c in text):
        # the character loop read "²" into a number that float() rejects
        with pytest.raises(ExpressionSyntaxError, match=r"\(column \d+\)$"):
            parse(text)
    else:
        assert tokens_or_error(_tokenize, text) == tokens_or_error(reference.tokenize, text)


@pytest.mark.parametrize("text, error, message", [
    ("2²", ExpressionSyntaxError, "unexpected trailing input '²' (column 2)"),
    ("x²", UnknownIdentifierError, "unknown identifier 'x²' (column 1)"),
    (".²", ExpressionSyntaxError, "unexpected character '.' (column 1)"),
    ("1e²", ExpressionSyntaxError, "unexpected trailing input 'e²' (column 2)"),
    ("½", UnknownIdentifierError, "unknown identifier '½' (column 1)"),
    ("t + ²", UnknownIdentifierError, "unknown identifier '²' (column 5)"),
])
def test_digit_that_is_not_decimal_is_a_syntax_error_with_a_column(text, error, message):
    with pytest.raises(error) as info:
        parse(text)
    assert type(info.value) is error and str(info.value) == message


def test_decimal_digits_of_any_script_are_numbers():
    assert parse("٣*t").evaluate(2.0) == 6.0
    assert parse("١.٥e١").evaluate(0.0) == 15.0


@pytest.mark.parametrize("text, constant", [
    ("-3", True), ("2*pi - sin(1)/e", True), ("(1 + 2)^-0.5", True), ("1/0", True),
    ("t", False), ("0*t + 1", False), ("exp(-t)", False), ("-(2 - sqrt(1 + t^2))", False),
])
def test_is_constant_finds_t_anywhere_in_the_tree(text, constant):
    # the scan takes its constant-coefficient path on this verdict
    assert is_constant(parse(text)) is constant
