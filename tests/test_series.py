"""Truncated power series and Riordan arrays."""

import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpaths.errors import TruncationExceeded, ZeroConstantTerm
from gpaths.series import (
    RiordanArray,
    TruncatedSeries,
    big_schroder_series,
    catalan_series,
    guvu_series_at,
    little_schroder_series,
    named_series,
    one_over_1px_series,
    parse_series_expr,
    square_coeff,
)
from gpaths.weights import Polynomial

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
SCHRODER = [1, 2, 6, 22, 90, 394, 1806, 8558, 41586, 206098, 1037718]
LITTLE = [1, 1, 3, 11, 45, 197, 903, 4279, 20793, 103049, 518859]

short_series = st.lists(st.integers(-9, 9), min_size=1, max_size=6).map(
    lambda c: TruncatedSeries(c, 8)
)


def test_coeff_access_and_truncation():
    f = TruncatedSeries([1, 2, 3], 5)
    assert [f.coeff(n) for n in range(6)] == [1, 2, 3, 0, 0, 0]
    assert f.coeff(-1) == 0
    with pytest.raises(TruncationExceeded):
        f.coeff(6)
    assert f.truncate(1).coeff(1) == 2
    with pytest.raises(TruncationExceeded):
        f.truncate(1).coeff(2)


def test_arithmetic_literals():
    x = TruncatedSeries([0, 1], 4)
    one = TruncatedSeries([1], 4)
    geom = (one - x).recip()
    assert [geom.coeff(n) for n in range(5)] == [1, 1, 1, 1, 1]
    assert [(geom * geom).coeff(n) for n in range(5)] == [1, 2, 3, 4, 5]
    assert [(one + x) ** 3] and [(one + x) ** 3][0].coeff(2) == 3
    assert (x * 2).coeff(1) == 2
    assert (geom - geom).coeff(3) == 0


def test_xmul_shifts():
    f = TruncatedSeries([1, 1], 3)
    g = f.xmul(2)
    assert [g.coeff(n) for n in range(4)] == [0, 0, 1, 1]


def test_recip_needs_invertible_constant_term():
    with pytest.raises(ZeroConstantTerm):
        TruncatedSeries([0, 1], 3).recip()
    f = TruncatedSeries([2, 1], 3).recip()
    assert f.coeff(0) == Fraction(1, 2)


@given(short_series)
def test_recip_is_a_right_inverse(f):
    if f.coeff(0) == 0:
        return
    product = f * f.recip()
    assert product.coeff(0) == 1
    assert all(product.coeff(n) == 0 for n in range(1, 9))


@given(short_series, short_series, short_series)
def test_multiplication_is_associative(f, g, h):
    assert (f * g) * h == f * (g * h)


def _coefficient(kind, n: int, m: int):
    """A coefficient of type kind from two small ints; zero when both are."""
    if kind is Polynomial:
        return Polynomial({(0, 0, 0): n, (1, 0, 1): m})
    if kind is Fraction:
        return Fraction(n, abs(m) + 1)
    return n + 10 * m


@st.composite
def _operand(draw, kind):
    """A series of order 0..8 whose coefficients all have type kind: with
    0..3 leading zeros, or only a constant term, or zero."""
    order = draw(st.integers(0, 8))
    pair = st.tuples(st.integers(-9, 9), st.integers(-9, 9))
    coeffs = [_coefficient(kind, *p) for p in draw(st.lists(pair, min_size=order + 1, max_size=order + 1))]
    zero = _coefficient(kind, 0, 0)
    shape = draw(st.sampled_from(["leading zeros", "constant", "zero"]))
    if shape == "zero":
        coeffs = [zero] * (order + 1)
    elif shape == "constant":
        coeffs[1:] = [zero] * order
    else:
        zeros = draw(st.integers(0, 3))
        coeffs[:zeros] = [zero] * zeros
    return TruncatedSeries(coeffs, order)


def _convolution(f, g) -> list:
    """[x^n] f g as the plain sum of f_k g_(n-k) over k = 0..n, through the
    smaller order."""
    a, b = f.coeffs, g.coeffs
    return [
        sum((a[k] * b[n - k] for k in range(1, n + 1)), a[0] * b[n])
        for n in range(min(f.order, g.order) + 1)
    ]


@given(
    st.sampled_from([int, Fraction, Polynomial]).flatmap(
        lambda kind: st.tuples(_operand(kind), _operand(kind))
    )
)
def test_product_is_the_plain_convolution(operands):
    # the product starts each sum at the operands' valuations; it must give
    # the full convolution's coefficients, each of the same type, whichever
    # operand has the larger valuation
    for f, g in (operands, operands[::-1]):
        want = _convolution(f, g)
        got = f * g
        assert got.order == min(f.order, g.order)
        assert [(type(c), c) for c in got.coeffs] == [(type(c), c) for c in want]


@pytest.mark.parametrize("coeffs", [[2, -1, 3, 0, 1], [0, 0, 1, -2, 5]], ids=["val0", "val2"])
def test_power_is_the_repeated_product(coeffs):
    f = TruncatedSeries(coeffs, 12)
    want = TruncatedSeries([1], 12)
    for n in range(10):
        got = f**n
        assert (got.order, got.coeffs) == (want.order, want.coeffs), n
        want = TruncatedSeries(_convolution(want, f), 12)


def test_catalan_series():
    f = catalan_series(10)
    assert [f.coeff(n) for n in range(11)] == CATALAN
    # defining equation C = 1 + x C^2
    g = (f * f).xmul(1) + TruncatedSeries([1], 10)
    assert g == f


def test_schroder_series():
    S = big_schroder_series(10)
    s = little_schroder_series(10)
    assert [S.coeff(n) for n in range(11)] == SCHRODER
    assert [s.coeff(n) for n in range(11)] == LITTLE
    # S = 1 + x S + x S^2 and s = 1 + x s S
    assert S == TruncatedSeries([1], 10) + S.xmul(1) + (S * S).xmul(1)
    assert s == TruncatedSeries([1], 10) + (s * S).xmul(1)


def test_one_over_1px():
    f = one_over_1px_series(6)
    assert [f.coeff(n) for n in range(7)] == [1, -1, 1, -1, 1, -1, 1]


def test_named_series_dispatch():
    assert named_series("C", 5).coeff(5) == 42
    assert named_series("S", 5).coeff(5) == 394
    assert named_series("s", 5).coeff(5) == 197
    assert named_series("one_over_1px", 5).coeff(5) == -1
    guvu = named_series("guvu", 4)
    assert guvu.coeff(3).eval_at(1, 1, 1) == 22
    gfull = named_series("gfull", 4)
    assert gfull.coeff(3).eval_at(1, 1, 1) == 29
    with pytest.raises(ValueError):
        named_series("Z", 5)


def test_parse_series_expr():
    f = parse_series_expr("S^2*one_over_1px", 6)
    g = big_schroder_series(6)
    h = one_over_1px_series(6)
    assert f == g * g * h
    assert parse_series_expr("x*S^2", 6).coeff(1) == 1
    assert parse_series_expr("one_plus_x2", 6).coeff(2) == 1
    with pytest.raises(ValueError):
        parse_series_expr("T^2", 6)
    # a power is '^' and ASCII digits, nothing else
    assert parse_series_expr("S^12", 6) == big_schroder_series(6) ** 12
    for token in ("S^", "S^+2", "S^ 2", "S^2_0", "S^x", "S^-1", "S^2^3", "S^\u00b2"):
        with pytest.raises(ValueError, match=re.escape(f"token {token!r}")):
            parse_series_expr("x*" + token, 6)


def test_riordan_array_shape_rules():
    with pytest.raises(ValueError):
        RiordanArray(parse_series_expr("x", 6), parse_series_expr("x", 6))
    with pytest.raises(ValueError):
        RiordanArray(parse_series_expr("S", 6), parse_series_expr("S", 6))


def test_riordan_pascal():
    # (1/(1-x), x/(1-x)) is Pascal's triangle
    one_minus_x = TruncatedSeries([1, -1], 10)
    d = one_minus_x.recip()
    h = d.xmul(1)
    rows = RiordanArray(d, h).matrix(5)
    assert rows == [
        [1],
        [1, 1],
        [1, 2, 1],
        [1, 3, 3, 1],
        [1, 4, 6, 4, 1],
        [1, 5, 10, 10, 5, 1],
    ]


def test_riordan_columns_are_d_times_powers_of_h():
    d = parse_series_expr("S^3*one_over_1px", 30)
    h = parse_series_expr("x*S^2", 30)
    array = RiordanArray(d, h)
    # a late column first: the earlier ones are filled in on the way
    assert array.entry(30, 20) == (d * h**20).coeff(30)
    for i in (0, 1, 7, 19):
        assert [array.entry(n, i) for n in range(31)] == list((d * h**i).coeffs)


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=9))
def test_square_coeff_is_the_convolution(f):
    for m in range(len(f)):
        assert square_coeff(f, m) == sum(f[k] * f[m - k] for k in range(m + 1))


def test_riordan_entry_matches_printed_table_value():
    order = 10
    d = parse_series_expr("S^3*one_over_1px", order)
    h = parse_series_expr("x*S^2", order)
    array = RiordanArray(d, h)
    assert array.entry(6, 2) == 5489
    assert array.entry(0, 0) == 1
    assert array.entry(3, 5) == 0
    with pytest.raises(TruncationExceeded):
        array.entry(11, 0)


def test_guvu_series_at_integer_weights():
    f = guvu_series_at(1, 1, 1, order=8)
    assert [f.coeff(n) for n in range(9)] == SCHRODER[:9]
    g = guvu_series_at(0, 1, 1, order=8)
    assert [g.coeff(n) for n in range(9)] == CATALAN[:9]


def test_guvu_series_at_rational_weights():
    from gpaths.enumeration import guvu_coeffs

    point = (Fraction(1, 2), Fraction(2, 3), Fraction(-1, 5))
    f = guvu_series_at(*point, order=7)
    expected = [p.eval_at(*point) for p in guvu_coeffs(7)]
    assert [f.coeff(n) for n in range(8)] == expected


def test_guvu_series_at_matches_the_recurrence_past_the_default_order():
    from gpaths.enumeration import guvu_coeffs

    f = guvu_series_at(-3, 4, 16, order=30)
    assert f.order == 30
    assert list(f.coeffs) == [p.eval_at(-3, 4, 16) for p in guvu_coeffs(30)]
    assert all(type(c) is Fraction for c in f.coeffs)


def test_guvu_series_at_integer_weights_equal_fraction_weights():
    # integer weights run the solve on ints; the result must not tell
    for weights in ((-3, 4, 16), (2, 0, 5), (0, -1, 3), (1, 1, 0)):
        ints = guvu_series_at(*weights, order=30)
        fractions = guvu_series_at(*map(Fraction, weights), order=30)
        assert ints.order == fractions.order == 30
        assert [(type(c), c) for c in ints.coeffs] == [(type(c), c) for c in fractions.coeffs]
