"""Exact polynomial arithmetic and the step-weight functions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpaths import weights
from gpaths.enumeration import weighted_count
from gpaths.errors import FamilyMismatch
from gpaths.paths import (
    ALPHABETS,
    BICOLORED_MOTZKIN,
    COLORED_DYCK,
    DYCK,
    GMOTZKIN,
    HSTRING,
    MOTZKIN,
    SCHRODER,
    PathFamily,
    parse,
    x_length,
)
from gpaths.weights import (
    A,
    B,
    C,
    WEIGHTINGS,
    ZERO,
    Polynomial,
    packed_weight,
    step_exponents,
    unpack_exponents,
    weight,
)

exponents = st.tuples(
    st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)
)
polynomials = st.dictionaries(exponents, st.integers(-9, 9), max_size=5).map(
    Polynomial
)


def test_construction_and_zero_normalization():
    assert Polynomial({(0, 0, 0): 0}) == ZERO
    assert Polynomial() == ZERO
    assert not ZERO
    assert Polynomial.const(1) == Polynomial({(0, 0, 0): 1})
    assert A + ZERO == A


def test_ring_literals():
    assert (A + B) * (A + B) == A**2 + 2 * A * B + B**2
    assert (A - B) * (A + B) == A**2 - B**2
    assert A * B * C == Polynomial({(1, 1, 1): 1})
    assert A * B * B == A * B**2


def test_int_coercion_in_equality():
    assert Polynomial.const(7) == 7
    assert A != 0
    assert ZERO == 0


@pytest.mark.parametrize("n", [0, 3, -5, 2**70])
def test_a_constant_hashes_as_the_int_it_equals(n):
    p = Polynomial.const(n)
    assert p == n and hash(p) == hash(n)
    assert len({p, n}) == 1
    assert {n: "x"}.get(p) == "x"
    assert {p: "x"}.get(n) == "x"


def test_canonical_text_form():
    assert str(Polynomial({(3, 2, 2): 1}) + 2 * A * B) == "a^3*b^2*c^2 + 2*a*b"
    assert str(ZERO) == "0"
    assert str(A - B) == "a - b"
    assert str(Polynomial.const(1) - A + 3 * B) == "-a + 3*b + 1"


def test_eval_is_exact_rational():
    p = A**2 + B * C
    assert p.eval_at(Fraction(1, 2), 3, Fraction(1, 3)) == Fraction(5, 4)
    assert p.eval_at(1, 1, 1) == 2
    assert (A - B).eval_at(Fraction(2), Fraction(2), 0) == 0


def test_subs_composes_polynomials():
    p = A**2 + B
    assert p.subs(A + B, ZERO, ZERO) == (A + B) ** 2
    assert p.subs(A, A * B, C) == A**2 + A * B


@given(polynomials, polynomials, polynomials)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + ZERO == p
    assert p * Polynomial.const(1) == p


@given(polynomials, polynomials)
def test_eval_is_a_ring_homomorphism(p, q):
    point = (Fraction(2, 3), Fraction(-1, 2), Fraction(5))
    assert (p * q).eval_at(*point) == p.eval_at(*point) * q.eval_at(*point)
    assert (p + q).eval_at(*point) == p.eval_at(*point) + q.eval_at(*point)


# A tuple-keyed reference for the packed Polynomial: {(ea, eb, ec): coeff},
# no zero coefficients.


def _ref(terms):
    return {e: c for e, c in terms.items() if c}


def _ref_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return _ref(out)


def _ref_mul(p, q):
    out = {}
    for (a1, b1, c1), x in p.items():
        for (a2, b2, c2), y in q.items():
            e = (a1 + a2, b1 + b2, c1 + c2)
            out[e] = out.get(e, 0) + x * y
    return _ref(out)


def _ref_pow(p, n):
    out = {(0, 0, 0): 1}
    for _ in range(n):
        out = _ref_mul(out, p)
    return out


def _ref_str(p):
    text = ""
    for e, x in sorted(p.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
        factors = [v if k == 1 else f"{v}^{k}" for v, k in zip("abc", e) if k]
        body = "*".join(([str(abs(x))] if abs(x) != 1 or not factors else []) + factors)
        if text:
            text += (" - " if x < 0 else " + ") + body
        else:
            text = ("-" if x < 0 else "") + body
    return text or "0"


def _ref_eval(p, a, b, c):
    return sum((x * a**ea * b**eb * c**ec for (ea, eb, ec), x in p.items()), Fraction(0))


_big_coeffs = st.integers(-(10**30), 10**30)
_ref_polys = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
    _big_coeffs,
    max_size=4,
)
# substituted for a, b and c: few small terms, so a 6th power stays small
_ref_small = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    st.integers(-3, 3),
    max_size=2,
)
_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=5)
_small_ints = st.integers(-3, 3)


@given(_ref_polys, _ref_polys, st.integers(0, 3))
def test_packed_polynomial_matches_the_tuple_keyed_reference(p, q, n):
    pp, qq = Polynomial(p), Polynomial(q)
    rp, rq = _ref(p), _ref(q)
    assert pp.terms == rp
    assert all(type(e) is tuple and len(e) == 3 for e in pp.terms)
    assert (pp + qq).terms == _ref_add(rp, rq)
    assert (pp - qq).terms == _ref_add(rp, {e: -c for e, c in rq.items()})
    assert (-pp).terms == {e: -c for e, c in rp.items()}
    assert (pp * qq).terms == _ref_mul(rp, rq)
    assert (pp**n).terms == _ref_pow(rp, n)
    assert (pp == qq) == (rp == rq)
    assert bool(pp) == bool(rp)
    assert str(pp) == _ref_str(rp)
    # equal values built in different orders hash equally
    assert pp + qq == qq + pp
    assert hash(pp + qq) == hash(qq + pp) == hash(Polynomial(_ref_add(rp, rq)))
    assert hash(pp * qq) == hash(Polynomial(_ref_mul(rq, rp)))


@given(_ref_polys, _fractions, _fractions, _fractions)
def test_packed_eval_matches_the_reference(p, a, b, c):
    assert Polynomial(p).eval_at(a, b, c) == _ref_eval(p, a, b, c)


@given(_ref_polys, _small_ints, _small_ints, _small_ints)
def test_eval_at_an_integer_point_is_the_int_of_the_fraction_point(p, a, b, c):
    value = Polynomial(p).eval_at(a, b, c)
    assert type(value) is int
    assert value == Polynomial(p).eval_at(Fraction(a), Fraction(b), Fraction(c))
    assert value == _ref_eval(p, a, b, c)


@given(_ref_polys, _ref_small, _ref_small, _ref_small)
def test_packed_subs_matches_the_reference(p, a, b, c):
    want = {}
    for (ea, eb, ec), x in p.items():
        term = _ref_mul(_ref_mul(_ref_pow(a, ea), _ref_pow(b, eb)), _ref_pow(c, ec))
        want = _ref_add(want, {e: x * y for e, y in term.items()})
    got = Polynomial(p).subs(Polynomial(a), Polynomial(b), Polynomial(c))
    assert got.terms == want


def test_terms_is_a_view_not_the_storage():
    p = A + 2 * B
    view = p.terms
    view[(0, 0, 5)] = 1
    assert p.terms == {(1, 0, 0): 1, (0, 1, 0): 2}


@pytest.mark.parametrize(
    "exps",
    [
        (-1, 0, 0), (0, -1, 0), (0, 0, -1), (1.0, 0, 0), ("1", 0, 0),
    ],
)
def test_constructor_refuses_exponents_the_packed_key_cannot_hold(exps):
    with pytest.raises(ValueError, match="exponent"):
        Polynomial({exps: 1})


@pytest.mark.parametrize("exps", [(1, 0), (1, 0, 0, 0), ()])
def test_constructor_refuses_a_key_that_is_not_a_triple(exps):
    with pytest.raises(ValueError):
        Polynomial({exps: 1})


def test_constructor_takes_the_largest_exponents_that_never_carry():
    top = 2**31 - 1
    p = Polynomial({(top, top, 2**40): 3})
    assert p.terms == {(top, top, 2**40): 3}
    # exponents are checked even under a zero coefficient
    with pytest.raises(ValueError, match="exponent"):
        Polynomial({(-1, 0, 0): 0})


@pytest.mark.parametrize("var, i", [(A, 0), (B, 1), (C, 2)])
def test_products_are_exact_past_2_to_the_31(var, i):
    def unit(e):
        return tuple(e if j == i else 0 for j in range(3))

    big = Polynomial({unit(2**31): 1})
    assert (big * var).terms == (var * big).terms == {unit(2**31 + 1): 1}
    assert (big * 3).terms == {unit(2**31): 3}
    assert (big**2).terms == {unit(2**32): 1}
    assert (var ** (2**40)).terms == {unit(2**40): 1}
    assert ((big + var) * (big - var)).terms == {unit(2**32): 1, unit(2): -1}


def test_weight_of_the_eleven_step_example():
    path = parse("uhuduuvvdhh", GMOTZKIN)
    assert weight(path, "gmotzkin_abc") == A**3 * B**2 * C**2


def test_peak_rule_on_plain_dyck():
    assert weight(parse("ud", DYCK), "dyck_peak_ab") == A
    assert weight(parse("uudd", DYCK), "dyck_peak_ab") == A * B
    assert weight(parse("udud", DYCK), "dyck_peak_ab") == A**2
    assert weight(parse("uududd", DYCK), "dyck_peak_ab") == A**2 * B


def test_colors_override_the_peak_rule():
    # on colored paths the letter decides: D -> a, d -> b, even in a peak
    assert weight(parse("uD", COLORED_DYCK), "dyck_peak_ab") == A
    assert weight(parse("ud", COLORED_DYCK), "dyck_peak_ab") == B
    assert weight(parse("uduD", COLORED_DYCK), "dyck_peak_ab") == A * B


def test_square_substitution_weighting():
    assert weight(parse("uv", GMOTZKIN), "gmotzkin_ab_bsq") == B
    assert weight(parse("ud", GMOTZKIN), "gmotzkin_ab_bsq") == B**2
    assert weight(parse("h", GMOTZKIN), "gmotzkin_ab_bsq") == A


def test_other_weightings():
    assert weight(parse("uHd", SCHRODER), "schroder_ab") == A * B
    assert weight(parse("uhd", MOTZKIN), "motzkin_ab") == A * B
    assert weight(parse("aud", BICOLORED_MOTZKIN), "bicolored_motzkin_ab") == (
        A * A * B
    )
    assert weight(parse("ab", HSTRING), "hstring_ab") == A * B


def test_family_mismatch():
    with pytest.raises(FamilyMismatch):
        weight(parse("ud", DYCK), "schroder_ab")
    with pytest.raises(FamilyMismatch):
        weight(parse("ud", DYCK), "no_such_weighting")


def test_unknown_weighting_is_a_family_mismatch():
    text = (
        "^unknown weighting 'bogus'; choose from bicolored_motzkin_ab, "
        "dyck_peak_ab, gmotzkin_ab_bsq, gmotzkin_abc, hstring_ab, motzkin_ab, "
        "psi_image_ab, schroder_ab$"
    )
    with pytest.raises(FamilyMismatch, match=text):
        weight(parse("uv", GMOTZKIN), "bogus")
    with pytest.raises(FamilyMismatch, match=text):
        weighted_count(GMOTZKIN, 2, "bogus")


@pytest.mark.parametrize(
    "path, weighting",
    [
        (parse("uv", GMOTZKIN), "bogus"),
        (parse("uHd", SCHRODER), "motzkin_ab"),
        (parse("udud", DYCK), "motzkin_ab"),
    ],
    ids=["unknown", "no_step_weight", "other_base"],
)
def test_weight_and_weighted_count_raise_the_same_text(path, weighting):
    with pytest.raises(FamilyMismatch) as weighed:
        weight(path, weighting)
    with pytest.raises(FamilyMismatch) as counted:
        weighted_count(path.family, x_length(path), weighting)
    assert str(weighed.value) == str(counted.value)


def test_every_weighting_weighs_every_letter_of_its_bases():
    for weighting, (bases, table) in WEIGHTINGS.items():
        for base in bases:
            assert set(ALPHABETS[base]) <= set(table), (weighting, base)


def test_bsq_equals_abc_with_c_to_b_squared():
    from gpaths.enumeration import iter_step_strings

    for n in range(6):
        for steps in iter_step_strings(GMOTZKIN, n):
            abc = packed_weight(steps, "gmotzkin_abc", "gmotzkin")
            bsq = packed_weight(steps, "gmotzkin_ab_bsq", "gmotzkin")
            ea, eb, ec = unpack_exponents(abc)
            assert unpack_exponents(bsq) == (ea, eb + 2 * ec, 0)


_WEIGHTED_BASES = [
    (weighting, base)
    for weighting, (bases, _) in sorted(WEIGHTINGS.items())
    for base in sorted(bases)
]


def _exponents_letter_by_letter(steps, weighting, base):
    # under dyck_peak_ab a d right after a u weighs a on plain dyck paths
    table = WEIGHTINGS[weighting][1]
    ea = eb = ec = 0
    for i, letter in enumerate(steps):
        if weighting == "dyck_peak_ab" and base == "dyck" and steps[i - 1 : i + 1] == "ud":
            e = (1, 0, 0)
        else:
            e = table[letter]
        ea, eb, ec = ea + e[0], eb + e[1], ec + e[2]
    return (ea, eb, ec)


@pytest.mark.parametrize("weighting, base", _WEIGHTED_BASES)
@given(data=st.data())
def test_packed_exponents_equal_the_letter_by_letter_sum(weighting, base, data):
    letters = sorted(WEIGHTINGS[weighting][1])
    steps = data.draw(st.text(alphabet=letters, max_size=60))
    assert unpack_exponents(
        packed_weight(steps, weighting, base)
    ) == _exponents_letter_by_letter(steps, weighting, base)


@pytest.mark.parametrize("weighting, base", _WEIGHTED_BASES)
def test_packed_exponents_are_exact_on_long_words(weighting, base):
    letters = sorted(WEIGHTINGS[weighting][1])
    rng = random.Random(f"{weighting} {base}")
    steps = "".join(rng.choices(letters, k=10**5))
    assert unpack_exponents(
        packed_weight(steps, weighting, base)
    ) == _exponents_letter_by_letter(steps, weighting, base)
    # every exponent at its largest: each letter raising the same one
    for letter in letters:
        ea, eb, ec = WEIGHTINGS[weighting][1][letter]
        assert unpack_exponents(packed_weight(letter * 10**5, weighting, base)) == (
            ea * 10**5, eb * 10**5, ec * 10**5
        )


@pytest.mark.parametrize("weighting, base", _WEIGHTED_BASES)
def test_step_table_is_the_weight_of_prev_and_letter_less_that_of_prev(weighting, base):
    family = PathFamily(base)
    table = step_exponents(family, weighting)
    assert set(table) == {"", *family.alphabet}
    for prev in ("", *family.alphabet):
        assert set(table[prev]) == set(family.alphabet)
        head = unpack_exponents(packed_weight(prev, weighting, base))
        for letter in family.alphabet:
            whole = unpack_exponents(packed_weight(prev + letter, weighting, base))
            assert unpack_exponents(table[prev][letter]) == tuple(
                w - h for w, h in zip(whole, head)
            ), (prev, letter)


@pytest.mark.parametrize("weighting, base", _WEIGHTED_BASES)
def test_a_foreign_letter_has_no_weight(weighting, base):
    letters = WEIGHTINGS[weighting][1]
    foreign = next(x for x in "hvdDuHaAbxyz" if x not in letters)
    with pytest.raises(KeyError):
        packed_weight(min(letters) + foreign, weighting, base)


def test_packed_exponents_refuse_a_word_that_could_carry(monkeypatch):
    # a word of _MAX_LETTERS letters, each raising an exponent by at most 2,
    # stays below the packing radix 2**32
    rises = [max(e) for _, table in WEIGHTINGS.values() for e in table.values()]
    assert weights._MAX_LETTERS * max(rises) <= 1 << weights._DIGIT
    monkeypatch.setattr(weights, "_MAX_LETTERS", 4)
    assert unpack_exponents(packed_weight("uud", "dyck_peak_ab", "dyck")) == (1, 0, 0)
    with pytest.raises(ValueError, match="a word of 4 letters is past the 3"):
        packed_weight("uudd", "dyck_peak_ab", "dyck")


def test_weight_multiplicative_over_concatenation():
    left = parse("uhv", GMOTZKIN)
    right = parse("ud", GMOTZKIN)
    both = parse(left.steps + right.steps, GMOTZKIN)
    assert weight(both, "gmotzkin_abc") == weight(left, "gmotzkin_abc") * weight(
        right, "gmotzkin_abc"
    )


def test_weighting_table_is_complete():
    assert set(WEIGHTINGS) == {
        "gmotzkin_abc",
        "gmotzkin_ab_bsq",
        "dyck_peak_ab",
        "schroder_ab",
        "motzkin_ab",
        "bicolored_motzkin_ab",
        "hstring_ab",
        "psi_image_ab",
    }
