"""Exhaustive generation and the exact counting formulas."""

import hashlib
import itertools
import math
from functools import lru_cache

import pytest

from gpaths.bijections import BIJECTIONS
from gpaths.cli import AVOIDABLE
from gpaths.enumeration import (
    COMPLETION_SPLIT,
    MAX_N_DEFAULT,
    MAX_N_UNRESTRICTED_GMOTZKIN,
    _automaton,
    ballot_closed_form,
    ballot_coeff,
    catalan_number,
    closed_form,
    count_paths,
    gbinom,
    generate,
    gfull_coeffs,
    guvu_coeffs,
    iter_step_strings,
    prop21,
    size_cap,
    weighted_count,
)
from gpaths.errors import FamilyMismatch, GPathError, SizeLimitExceeded
from gpaths.paths import (
    ALPHABETS,
    BASE_FAMILIES,
    BICOLORED_MOTZKIN,
    COLORED_DYCK,
    DYCK,
    GMOTZKIN,
    GMOTZKIN_UVU,
    HSTRING,
    LITTLE_SCHRODER,
    MOTZKIN,
    PSI_IMAGE,
    SCHRODER,
    STEP_GEOMETRY,
    Path,
    PathFamily,
    parse,
    validate_steps,
)
from gpaths.weights import (
    DEFAULT_WEIGHTING,
    WEIGHTINGS,
    Polynomial,
    weight,
    weight_exponents,
)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
MOTZKIN_NUMBERS = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188]
SCHRODER_NUMBERS = [1, 2, 6, 22, 90, 394, 1806, 8558, 41586]
GFULL_COUNTS = [1, 2, 7, 29, 133, 650, 3319]


def test_dfs_order_is_frozen():
    assert list(iter_step_strings(DYCK, 4)) == ["uudd", "udud"]
    assert list(iter_step_strings(GMOTZKIN_UVU, 1)) == ["uv", "h"]
    assert list(iter_step_strings(GMOTZKIN_UVU, 2)) == [
        "uuvv",
        "uhv",
        "uvh",
        "ud",
        "huv",
        "hh",
    ]
    assert list(iter_step_strings(MOTZKIN, 3)) == ["uhd", "udh", "hud", "hhh"]
    assert list(iter_step_strings(PSI_IMAGE, 1)) == ["a", "A"]
    assert list(iter_step_strings(PSI_IMAGE, 2)) == [
        "aa",
        "aA",
        "ab",
        "Aa",
        "AA",
        "Ab",
    ]


def test_counts_match_classical_sequences():
    for n, expect in enumerate(CATALAN[:7]):
        assert count_paths(DYCK, 2 * n, max_n_override=13) == expect
        assert count_paths(DYCK, 2 * n + 1, max_n_override=13) == 0
    for n, expect in enumerate(MOTZKIN_NUMBERS[:8]):
        assert count_paths(MOTZKIN, n) == expect
    for n, expect in enumerate(SCHRODER_NUMBERS[:6]):
        assert count_paths(SCHRODER, 2 * n) == expect
        assert count_paths(GMOTZKIN_UVU, n) == expect
        assert count_paths(COLORED_DYCK, 2 * n) == expect
    # bicolored Motzkin paths are counted by the shifted Catalan numbers
    for n in range(7):
        assert count_paths(BICOLORED_MOTZKIN, n) == CATALAN[n + 1]
    for n in range(8):
        assert count_paths(HSTRING, n) == 2**n
    for n, expect in enumerate(GFULL_COUNTS):
        assert count_paths(GMOTZKIN, n) == expect
    # the prefix constraint forbids the empty path
    assert count_paths(PSI_IMAGE, 0) == 0
    assert list(iter_step_strings(PSI_IMAGE, 0)) == []
    assert weighted_count(PSI_IMAGE, 0, "psi_image_ab") == Polynomial()


def test_generated_paths_all_validate():
    for family in (GMOTZKIN_UVU, SCHRODER, COLORED_DYCK, PSI_IMAGE):
        for n in range(5):
            for path in generate(family, n):
                assert parse(path.steps, family) == path


def test_weighted_count_literals():
    a, b, c = Polynomial.var("a"), Polynomial.var("b"), Polynomial.var("c")
    assert weighted_count(GMOTZKIN_UVU, 0, "gmotzkin_abc") == Polynomial.const(1)
    assert weighted_count(GMOTZKIN_UVU, 1, "gmotzkin_abc") == a + b
    assert (
        weighted_count(GMOTZKIN_UVU, 2, "gmotzkin_abc")
        == a * a + 3 * a * b + b * b + c
    )
    assert weighted_count(HSTRING, 3, "hstring_ab") == (a + b) ** 3


def test_guvu_recurrence_matches_enumeration():
    a, b, c = Polynomial.var("a"), Polynomial.var("b"), Polynomial.var("c")
    g = guvu_coeffs(6)
    assert g[3] == (
        a**3 + 6 * a**2 * b + 7 * a * b**2 + 2 * b**3 + 3 * a * c + 3 * b * c
    )
    for n in range(7):
        assert g[n] == weighted_count(GMOTZKIN_UVU, n, "gmotzkin_abc")
        assert g[n].eval_at(1, 1, 1) == SCHRODER_NUMBERS[n]


def test_gfull_recurrence_matches_enumeration():
    g = gfull_coeffs(7)
    for n in range(8):
        assert g[n] == weighted_count(GMOTZKIN, n, "gmotzkin_abc")
    assert [p.eval_at(1, 1, 1) for p in g[:7]] == GFULL_COUNTS


# Every family a bijection maps from or to, the restricted ones, and each
# --avoid combination the command line accepts, with and without
# --no-h-on-axis.
_CLI_FAMILIES = {
    GMOTZKIN.avoiding(*combo).restricted() if no_h else GMOTZKIN.avoiding(*combo)
    for r in range(len(AVOIDABLE) + 1)
    for combo in itertools.combinations(AVOIDABLE, r)
    for no_h in (False, True)
}
BIJECTION_FAMILIES = sorted(
    {spec.domain for spec in BIJECTIONS.values()}
    | {spec.codomain for spec in BIJECTIONS.values()},
    key=PathFamily.describe,
)
ORACLE_FAMILIES = sorted(
    set(BIJECTION_FAMILIES)
    | {LITTLE_SCHRODER, GMOTZKIN_UVU.restricted(), MOTZKIN.avoiding("h")}
    | _CLI_FAMILIES,
    key=PathFamily.describe,
)


@lru_cache(maxsize=None)
def _words(alphabet: str, n: int) -> tuple[str, ...]:
    """Every word over the alphabet of x-length n with at most 2n letters.

    No path is longer: each v needs an earlier u, and there are at most n
    u steps and at most n steps that move right.
    """
    out = []

    def extend(word: str, rem: int) -> None:
        if rem == 0:
            out.append(word)
        if len(word) == 2 * n:
            return
        for letter in alphabet:
            if STEP_GEOMETRY[letter][0] <= rem:
                extend(word + letter, rem - STEP_GEOMETRY[letter][0])

    extend("", n)
    return tuple(out)


def _oracle(family: PathFamily, n: int) -> list[str]:
    accepted = []
    for word in _words(family.alphabet, n):
        try:
            validate_steps(word, family)
        except GPathError:
            continue
        accepted.append(word)
    return accepted


@pytest.mark.parametrize("family", ORACLE_FAMILIES, ids=PathFamily.describe)
def test_walks_agree_with_the_parse_side_oracle(family):
    weighting = DEFAULT_WEIGHTING[family.base]
    for n in range(5):
        want = _oracle(family, n)
        got = list(iter_step_strings(family, n))
        assert len(got) == len(set(got))
        assert got == want
        assert count_paths(family, n) == len(want)
        total = Polynomial()
        for word in want:
            total = total + weight(Path(family, word), weighting)
        assert weighted_count(family, n, weighting) == total


def _reference_walk(family: PathFamily, n: int) -> list[str]:
    """The plain depth-first walk over the step automaton, one stack entry
    per prefix, with no completions shared between prefixes."""
    table, empty_ok = _automaton(family)
    bounded = "v" not in family.alphabet
    out = []
    stack = [(n, 0, "", "")]
    while stack:
        rem, level, state, word = stack.pop()
        if rem == 0 and level == 0:
            if state or empty_ok:
                out.append(word)
            continue
        for letter, dx, dy, nxt in reversed(table[state, level == 0]):
            rem2, lvl2 = rem - dx, level + dy
            if rem2 < 0 or lvl2 < 0 or (bounded and lvl2 > rem2):
                continue
            stack.append((rem2, lvl2, nxt, word + letter))
    return out


@pytest.mark.parametrize("family", ORACLE_FAMILIES, ids=PathFamily.describe)
def test_walk_order_equals_the_plain_walk(family):
    # sizes on both sides of the completion split
    assert COMPLETION_SPLIT < 7
    for n in range(-2, 8):
        assert list(iter_step_strings(family, n)) == _reference_walk(family, n)


def test_uvu_stream_digest_is_frozen():
    # frozen at the seed; the same value as the benchmark's reference digest
    digest = hashlib.sha256()
    for steps in iter_step_strings(GMOTZKIN_UVU, 9):
        digest.update(steps.encode() + b"\n")
    assert (
        digest.hexdigest()
        == "fd305fd95f95e735041212995b8a2f91e08d6e7b5e1d23fd7eaa3a9f8c523fca"
    )


def test_live_walks_do_not_share_completions():
    # same letters and states, different rules: a memo shared between the
    # two walks would hand one family the other's completions
    pairs = [
        (GMOTZKIN_UVU, 6, GMOTZKIN, 6),
        (SCHRODER, 8, LITTLE_SCHRODER, 8),
        (MOTZKIN.avoiding("h"), 10, MOTZKIN, 7),
    ]
    for first, n, second, m in pairs:
        got = list(
            itertools.zip_longest(iter_step_strings(first, n), iter_step_strings(second, m))
        )
        assert [a for a, _ in got if a is not None] == _reference_walk(first, n)
        assert [b for _, b in got if b is not None] == _reference_walk(second, m)


@pytest.mark.parametrize("family", BIJECTION_FAMILIES, ids=PathFamily.describe)
def test_transfer_count_equals_the_per_path_weight_sum(family):
    weightings = [
        name
        for name, (bases, letters) in sorted(WEIGHTINGS.items())
        if family.base in bases and set(family.alphabet) <= set(letters)
    ]
    assert DEFAULT_WEIGHTING[family.base] in weightings
    for weighting in weightings:
        for n in range(8):
            terms = {}
            for steps in iter_step_strings(family, n):
                key = weight_exponents(steps, weighting, family.base)
                terms[key] = terms.get(key, 0) + 1
            assert weighted_count(family, n, weighting) == Polynomial(terms)


def test_transfer_count_past_the_reach_of_enumeration():
    assert weighted_count(GMOTZKIN_UVU, 20, "gmotzkin_abc", 20) == guvu_coeffs(20)[20]
    assert weighted_count(GMOTZKIN, 12, "gmotzkin_abc", 12) == gfull_coeffs(12)[12]
    assert count_paths(SCHRODER, 24, 24) == closed_form("schroder_ab", 12).eval_at(1, 1)


def test_negative_x_length_has_no_paths():
    assert count_paths(DYCK, -1) == 0
    assert weighted_count(GMOTZKIN, -2, "gmotzkin_abc") == Polynomial()
    for family in (DYCK, GMOTZKIN, GMOTZKIN_UVU, PSI_IMAGE):
        for n in (-1, -2, -5):
            assert list(iter_step_strings(family, n)) == []


def test_one_letter_avoided_factor_is_honoured():
    family = MOTZKIN.avoiding("h")
    assert list(iter_step_strings(family, 2)) == ["ud"]
    assert count_paths(family, 3) == 0
    assert weighted_count(family, 4, "motzkin_ab") == 2 * Polynomial.var("b") ** 2


def test_four_letter_avoided_factor_is_rejected():
    family = GMOTZKIN.avoiding("uvvu")
    with pytest.raises(ValueError, match="one to three letters"):
        next(iter_step_strings(family, 2))
    with pytest.raises(ValueError, match="one to three letters"):
        weighted_count(family, 2, "gmotzkin_abc")
    with pytest.raises(ValueError, match="one to three letters"):
        count_paths(family, 2)


def test_default_weightings_cover_their_alphabets():
    assert set(DEFAULT_WEIGHTING) == set(BASE_FAMILIES)
    for base, weighting in DEFAULT_WEIGHTING.items():
        bases, table = WEIGHTINGS[weighting]
        assert base in bases
        assert set(ALPHABETS[base]) <= set(table)


def test_weighting_without_a_step_weight_is_a_family_mismatch():
    with pytest.raises(FamilyMismatch, match="no weight to step 'H'"):
        weighted_count(SCHRODER, 2, "motzkin_ab")


def test_weighting_of_another_family_is_a_family_mismatch():
    with pytest.raises(FamilyMismatch) as counted:
        weighted_count(DYCK, 4, "motzkin_ab")
    with pytest.raises(FamilyMismatch) as weighed:
        weight(parse("udud", DYCK), "motzkin_ab")
    assert str(counted.value) == str(weighed.value)
    assert str(counted.value) == "weighting 'motzkin_ab' does not apply to family 'dyck'"


def test_dfs_rejects_multi_letter_prefixes():
    family = PathFamily("dyck", prefixes=("ud",))
    with pytest.raises(ValueError, match="one-letter prefixes"):
        next(iter_step_strings(family, 2))


def test_prop21_both_variants_match_recurrence():
    g = guvu_coeffs(25)
    for n in range(26):
        assert prop21(n, "first") == g[n]
        assert prop21(n, "second") == g[n]
    with pytest.raises(ValueError):
        prop21(3, "third")


def test_catalan_number_values():
    assert [catalan_number(k) for k in range(11)] == CATALAN


def test_closed_form_literals():
    a, b = Polynomial.var("a"), Polynomial.var("b")
    assert closed_form("dyck_ab", 3) == a**3 + 3 * a**2 * b + a * b**2
    assert closed_form("motzkin_ab", 4) == a**4 + 6 * a**2 * b + 2 * b**2
    assert closed_form("schroder_ab", 2) == a**2 + 3 * a * b + 2 * b**2
    assert closed_form("little_schroder_ab", 2) == a * b + 2 * b**2
    for name in ("dyck_ab", "motzkin_ab", "schroder_ab", "little_schroder_ab"):
        assert closed_form(name, 0) == Polynomial.const(1)
    with pytest.raises(ValueError):
        closed_form("narayana", 3)
    with pytest.raises(ValueError):
        closed_form("dyck_ab", -1)


def test_closed_forms_match_enumeration():
    for n in range(7):
        assert closed_form("motzkin_ab", n).eval_at(1, 1, 0) == MOTZKIN_NUMBERS[n]
        assert closed_form("schroder_ab", n).eval_at(1, 1, 0) == SCHRODER_NUMBERS[n]
        assert closed_form("dyck_ab", n) == weighted_count(
            DYCK, 2 * n, "dyck_peak_ab", max_n_override=12
        )
        assert closed_form("schroder_ab", n) == weighted_count(
            SCHRODER, 2 * n, "schroder_ab", max_n_override=12
        )


def test_gbinom_extends_binomials():
    for r in range(8):
        for m in range(10):
            assert gbinom(r, m) == math.comb(r, m)
    assert gbinom(-1, 2) == 1
    assert gbinom(-2, 3) == -4
    assert gbinom(-3, 0) == 1
    assert gbinom(5, -1) == 0


def test_ballot_coeff_against_closed_form():
    assert ballot_coeff(2, 3) == 9
    assert ballot_coeff(3, 2) == 14
    assert ballot_coeff(0, 0) == 1
    assert ballot_coeff(-1, 2) == 0
    for m in range(8):
        for k in range(8):
            assert ballot_coeff(m, k) == ballot_closed_form(m, k)


def test_size_guard():
    assert size_cap(DYCK) == MAX_N_DEFAULT
    assert size_cap(GMOTZKIN) == MAX_N_UNRESTRICTED_GMOTZKIN
    assert size_cap(GMOTZKIN_UVU) == MAX_N_DEFAULT
    assert size_cap(DYCK, max_n_override=30) == 30
    with pytest.raises(SizeLimitExceeded):
        count_paths(DYCK, MAX_N_DEFAULT + 1)
    with pytest.raises(SizeLimitExceeded):
        next(iter_step_strings(GMOTZKIN, MAX_N_UNRESTRICTED_GMOTZKIN + 1))
    with pytest.raises(SizeLimitExceeded):
        weighted_count(GMOTZKIN_UVU, MAX_N_DEFAULT + 1, "gmotzkin_abc")
    assert count_paths(DYCK, 14, max_n_override=14) == CATALAN[7]


def test_size_guard_env_override(monkeypatch):
    monkeypatch.setenv("GPATHS_MAX_N", "5")
    assert size_cap(DYCK) == 5
    with pytest.raises(SizeLimitExceeded):
        count_paths(DYCK, 6)
    assert count_paths(DYCK, 4) == 2
