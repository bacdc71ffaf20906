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
    parse,
    x_length,
)
from gpaths.weights import (
    A,
    B,
    C,
    ONE,
    WEIGHTINGS,
    ZERO,
    Polynomial,
    weight,
    weight_exponents,
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
    assert ONE == Polynomial.const(1)
    assert A + ZERO == A


def test_ring_literals():
    assert (A + B) * (A + B) == A**2 + 2 * A * B + B**2
    assert (A - B) * (A + B) == A**2 - B**2
    assert A * B * C == Polynomial.monomial(1, 1, 1, 1)
    assert A * B * B == A * B**2


def test_int_coercion_in_equality():
    assert Polynomial.const(7) == 7
    assert A != 0
    assert ZERO == 0


def test_canonical_text_form():
    assert str(Polynomial.monomial(1, 3, 2, 2) + 2 * A * B) == "a^3*b^2*c^2 + 2*a*b"
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
    assert p * ONE == p


@given(polynomials, polynomials)
def test_eval_is_a_ring_homomorphism(p, q):
    point = (Fraction(2, 3), Fraction(-1, 2), Fraction(5))
    assert (p * q).eval_at(*point) == p.eval_at(*point) * q.eval_at(*point)
    assert (p + q).eval_at(*point) == p.eval_at(*point) + q.eval_at(*point)


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
            ea, eb, ec = weight_exponents(steps, "gmotzkin_abc", "gmotzkin")
            assert weight_exponents(steps, "gmotzkin_ab_bsq", "gmotzkin") == (
                ea,
                eb + 2 * ec,
                0,
            )


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
    assert weight_exponents(steps, weighting, base) == _exponents_letter_by_letter(
        steps, weighting, base
    )


@pytest.mark.parametrize("weighting, base", _WEIGHTED_BASES)
def test_packed_exponents_are_exact_on_long_words(weighting, base):
    letters = sorted(WEIGHTINGS[weighting][1])
    rng = random.Random(f"{weighting} {base}")
    steps = "".join(rng.choices(letters, k=10**5))
    assert weight_exponents(steps, weighting, base) == _exponents_letter_by_letter(
        steps, weighting, base
    )
    # every exponent at its largest: each letter raising the same one
    for letter in letters:
        ea, eb, ec = WEIGHTINGS[weighting][1][letter]
        assert weight_exponents(letter * 10**5, weighting, base) == (
            ea * 10**5, eb * 10**5, ec * 10**5
        )


@pytest.mark.parametrize("weighting, base", _WEIGHTED_BASES)
def test_a_foreign_letter_has_no_weight(weighting, base):
    letters = WEIGHTINGS[weighting][1]
    foreign = next(x for x in "hvdDuHaAbxyz" if x not in letters)
    with pytest.raises(KeyError):
        weight_exponents(min(letters) + foreign, weighting, base)


def test_packed_exponents_refuse_a_word_that_could_carry(monkeypatch):
    # a word of _MAX_LETTERS letters, each raising an exponent by at most 2,
    # stays below the packing radix 2**32
    rises = [max(e) for _, table in WEIGHTINGS.values() for e in table.values()]
    assert weights._MAX_LETTERS * max(rises) <= 1 << weights._DIGIT
    monkeypatch.setattr(weights, "_MAX_LETTERS", 4)
    assert weight_exponents("uud", "dyck_peak_ab", "dyck") == (1, 0, 0)
    with pytest.raises(ValueError, match="a word of 4 letters is past the 3"):
        weight_exponents("uudd", "dyck_peak_ab", "dyck")


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
