"""Exhaustive generation and the exact counting formulas."""

import dataclasses
import hashlib
import itertools
import math
import os
import subprocess
import sys
from functools import lru_cache

import pytest

import gpaths.enumeration as enumeration
import gpaths.verification as verification
from gpaths.bijections import BIJECTIONS
from gpaths.cli import AVOIDABLE
from gpaths.enumeration import (
    COMPLETION_SPLIT,
    MAX_N_COUNT,
    MAX_N_DEFAULT,
    MAX_N_UNRESTRICTED_GMOTZKIN,
    _automaton,
    _key_graph,
    _prefix_blocks,
    _quadratic_values,
    _quotient,
    _suffix_counts,
    _weigher,
    ballot_closed_form,
    ballot_coeff,
    catalan_number,
    closed_form,
    count_paths,
    gbinom,
    gfull_coeffs,
    guvu_coeffs,
    iter_step_strings,
    prop21,
    size_cap,
    weighted_count,
)
from gpaths.errors import FamilyMismatch, GPathError, SizeLimitExceeded
from gpaths.series import guvu_series_at, square_coeff
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
from gpaths.verification import _WEIGHTING_OF, CERTIFICATIONS
from gpaths.weights import (
    DEFAULT_WEIGHTING,
    WEIGHTINGS,
    Polynomial,
    packed_weight,
    unpack_exponents,
    weight,
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
    def catalan(k):
        return math.comb(2 * k, k) // (k + 1)

    def schroder(k):
        # the large Schroder numbers as sum_j 2^j N(k, j), N the Narayana numbers
        if k == 0:
            return 1
        narayana = (math.comb(k, j) * math.comb(k, j - 1) for j in range(1, k + 1))
        return sum(2**j * m for j, m in enumerate(narayana, 1)) // k

    # the closed forms up to the counting cap
    assert MAX_N_COUNT == 24
    for n in range(MAX_N_COUNT + 1):
        even = n % 2 == 0
        assert count_paths(DYCK, n) == (catalan(n // 2) if even else 0)
        assert count_paths(SCHRODER, n) == (schroder(n // 2) if even else 0)
        assert count_paths(GMOTZKIN_UVU, n) == schroder(n)
        assert count_paths(MOTZKIN, n) == sum(
            math.comb(n, 2 * k) * catalan(k) for k in range(n // 2 + 1)
        )
    for n, expect in enumerate(SCHRODER_NUMBERS[:6]):
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
            for steps in iter_step_strings(family, n):
                assert parse(steps, family) == Path(family, steps)


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


def _guvu_values(n_max: int, a_minus_b, b, ab, c) -> list:
    """g_0 .. g_n_max of G = 1 + bx + (a-b+abx) x G + (b+cx) x G^2,
    coefficientwise, in the ring of the four multipliers; g_0 is the int 1."""
    g = [1]
    g_squared = []  # [x^m] G^2, each computed once
    for n in range(1, n_max + 1):
        g_squared.append(square_coeff(g, n - 1))
        total = a_minus_b * g[n - 1] + b * g_squared[n - 1]
        if n == 1:
            total = total + b
        if n >= 2:
            total = total + ab * g[n - 2] + c * g_squared[n - 2]
        g.append(total)
    return g


def _gfull_values(n_max: int, a, b, c) -> list:
    """g_0 .. g_n_max of G = 1 + a x G + b x G^2 + c x^2 G^2,
    coefficientwise, in the ring of the three multipliers; g_0 is the int 1."""
    g = [1]
    g_squared = []  # [x^m] G^2, each computed once
    for n in range(1, n_max + 1):
        g_squared.append(square_coeff(g, n - 1))
        total = a * g[n - 1] + b * g_squared[n - 1]
        if n >= 2:
            total = total + c * g_squared[n - 2]
        g.append(total)
    return g


def test_recurrences_equal_their_bodies_over_the_polynomial_ring():
    # the convolution bodies the discriminant recurrence replaced, run on
    # Polynomials instead of at one point: they multiply and never divide
    a, b, c = Polynomial.var("a"), Polynomial.var("b"), Polynomial.var("c")
    for n_max in range(21):
        for got, want in (
            (guvu_coeffs(n_max), _guvu_values(n_max, a - b, b, a * b, c)),
            (gfull_coeffs(n_max), _gfull_values(n_max, a, b, c)),
        ):
            want = [Polynomial() + p for p in want]  # g_0 is the int 1
            assert got == want
            assert [str(p) for p in got] == [str(p) for p in want]


def test_recurrences_give_one_term_per_size_and_none_below_zero():
    # g_0 .. g_n_max: empty for n_max < 0, as prop21 and weighted_count are 0
    for n in range(-3, 4):
        assert len(guvu_coeffs(n)) == len(gfull_coeffs(n)) == max(n + 1, 0)


def _catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def _large_schroder(n: int) -> int:
    return sum(math.comb(n + k, 2 * k) * _catalan(k) for k in range(n + 1))


def _motzkin(n: int) -> int:
    return sum(math.comb(n, 2 * k) * _catalan(k) for k in range(n // 2 + 1))


def _at(p, a: int, b: int, c: int) -> int:
    return sum(k * a**ea * b**eb * c**ec for (ea, eb, ec), k in p.terms.items())


def test_recurrences_at_points_equal_classical_closed_forms():
    # closed forms from math.comb alone, far past the enumeration caps
    n_max = 60
    guvu, gfull = guvu_coeffs(n_max), gfull_coeffs(n_max)
    for point, number in (((1, 1, 1), _large_schroder), ((0, 1, 1), _catalan)):
        want = [number(n) for n in range(n_max + 1)]
        assert [_at(p, *point) for p in guvu] == want
        assert list(guvu_series_at(*point, n_max).coeffs) == want
    for point, number in (
        ((0, 1, 0), _catalan), ((1, 1, 0), _large_schroder), ((1, 0, 1), _motzkin)
    ):
        assert [_at(p, *point) for p in gfull] == [number(n) for n in range(n_max + 1)]


def test_recurrence_refuses_an_inexact_division():
    one, zero = Polynomial.const(1), Polynomial()
    # Delta = 1 + x: 2 f_1 = delta_1 = 1 is odd
    with pytest.raises(ArithmeticError, match="by 2n"):
        _quadratic_values(1, (one,), (zero,))
    # f_1 = 1, so A_1 - f_1 = -1 is odd
    with pytest.raises(ArithmeticError, match="by 2 "):
        _quadratic_values(1, (2 * one,), (zero,))
    # f_1 = -2, so b g_0 = 1, which has no b
    with pytest.raises(ArithmeticError, match="by b"):
        _quadratic_values(1, (-4 * one,), (zero,))


def test_recurrence_needs_no_homogeneity_or_coefficient_bound():
    # G = 1 + (a - 3b) x G + (b + cx) x G^2: B = x (b + cx), A = 1 - (a - 3b)x
    # and C = 1, so delta_1, delta_2 = -2a + 2b, a^2 - 6ab + 9b^2 - 4c.  Its
    # coefficients have mixed signs and outgrow g_n(1, 1, 1) (g_8 has a
    # coefficient 1680 where g_8(1, 1, 1) = 1), which a decoder sized by
    # the value at (1, 1, 1) could not read back.
    a, b, c = Polynomial.var("a"), Polynomial.var("b"), Polynomial.var("c")
    got = _quadratic_values(
        20, (-2 * a + 2 * b, a * a - 6 * a * b + 9 * b * b - 4 * c), (3 * b - a,)
    )
    want = [Polynomial() + p for p in _gfull_values(20, a - 3 * b, b, c)]
    assert got == want
    assert got[8].eval_at(1, 1, 1) == 1
    assert max(got[8].terms.values()) == 1680


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
    table, _ = _automaton(family)
    bounded = "v" not in family.alphabet
    out = []
    stack = [(n, 0, "", "")]
    while stack:
        rem, level, state, word = stack.pop()
        if rem == 0 and level == 0:
            if word.startswith(family.prefixes or ("",)):
                out.append(word)
            continue
        for letter, dx, dy, nxt in reversed(table[state, level == 0]):
            rem2, lvl2 = rem - dx, level + dy
            if rem2 < 0 or lvl2 < 0 or (bounded and lvl2 > rem2):
                continue
            stack.append((rem2, lvl2, nxt, word + letter))
    return out


# the top x-length to test for each family with at most COMPLETION_SPLIT
# paths at every x-length up to 7: the first with more
_PAST_THE_SPLIT = {
    "colored_dyck": 8,
    "dyck": 12,
    "gmotzkin avoid=hu,uh,uu": 8,
    "gmotzkin avoid=hu,uh,uu no-h-on-axis": 10,
    "gmotzkin avoid=hu,uh,uu,uvu": 64,
    "gmotzkin avoid=hu,uu,uvu no-h-on-axis": 8,
    "gmotzkin avoid=uh,uu no-h-on-axis": 10,
    "motzkin avoid=h": 12,
    "schroder": 8,
    "schroder no-h-on-axis": 10,
    "schroder prefix in {H}": 10,
    "schroder prefix in {ud}": 10,
}


@pytest.mark.parametrize("family", ORACLE_FAMILIES, ids=PathFamily.describe)
def test_walk_order_equals_the_plain_walk(family):
    top = _PAST_THE_SPLIT.get(family.describe(), 7)
    wants = [_reference_walk(family, n) for n in range(-2, top + 1)]
    # some size has more paths than the split, so the walk's DFS part runs;
    # a family with one path per size is one block at every size
    most = max(map(len, wants))
    assert most > COMPLETION_SPLIT or most == 1
    for n, want in zip(range(-2, top + 1), wants):
        assert list(iter_step_strings(family, n, top)) == want


@pytest.mark.parametrize("family", ORACLE_FAMILIES, ids=PathFamily.describe)
def test_blocks_end_at_the_first_key_with_at_most_the_split(family):
    for n in range(9):
        keys, rows, accepting = _key_graph(family, n, DEFAULT_WEIGHTING[family.base])
        counts = _suffix_counts(rows, accepting)
        for word, key, tails, _, _ in _prefix_blocks(family, n):
            i = 0
            for letter in word:
                assert counts[i] > COMPLETION_SPLIT, (word, letter)
                i = rows[i][letter][0]
            assert keys[i] == key
            assert len(tails) == counts[i] <= COMPLETION_SPLIT


@pytest.mark.parametrize("family", ORACLE_FAMILIES, ids=PathFamily.describe)
def test_start_suffix_count_is_the_weighted_count_summed(family):
    weighting = DEFAULT_WEIGHTING[family.base]
    for n in range(13):
        _, rows, accepting = _key_graph(family, n, weighting)
        want = weighted_count(family, n, weighting).eval_at(1, 1, 1)
        assert _suffix_counts(rows, accepting)[0] == want


def _reference_graph(family: PathFamily, n: int) -> dict:
    """Every key reachable from (n, 0, "") with its moves, found by a plain
    search over the step automaton."""
    table, _ = _automaton(family)
    bounded = "v" not in family.alphabet
    graph = {}
    todo = [(n, 0, "")]
    while todo:
        key = todo.pop()
        if key in graph:
            continue
        rem, level, state = key
        moves = []
        for letter, dx, dy, nxt in table[state, level == 0]:
            rem2, lvl2 = rem - dx, level + dy
            if rem2 < 0 or lvl2 < 0 or (bounded and lvl2 > rem2):
                continue
            moves.append((letter, (rem2, lvl2, nxt)))
        graph[key] = moves
        todo.extend(nxt for _, nxt in moves)
    return graph


@pytest.mark.parametrize("family", ORACLE_FAMILIES, ids=PathFamily.describe)
def test_key_stream_gives_each_reachable_key_once_after_its_parents(family):
    rep = _quotient(family)[2]
    for n in range(-1, 7):
        keys, rows, accepting = _key_graph(family, n, DEFAULT_WEIGHTING[family.base])
        assert len(keys) == len(set(keys)) == len(rows) == len(accepting)
        graph = {
            key: [(letter, keys[j]) for letter, (j, _) in row.items()]
            for key, row in zip(keys, rows)
        }
        # the reference's keys through the class map: the keys of one class
        # move alike
        want: dict = {}
        for (rem, level, state), moves in _reference_graph(family, n).items():
            mapped = [(letter, (r, lvl, rep[s])) for letter, (r, lvl, s) in moves]
            assert want.setdefault((rem, level, rep[state]), mapped) == mapped
        assert graph == want
        for i, row in enumerate(rows):
            for j, _ in row.values():
                assert i < j, (n, keys[i], keys[j])


@pytest.mark.parametrize("family", ORACLE_FAMILIES, ids=PathFamily.describe)
def test_each_state_completes_as_its_class_representative(family):
    # independent of the refinement: a plain search over the raw automaton
    # gives each key's completions, which must be its class key's, and
    # weigh the same after either key's last letter under every weighting
    table, _ = _automaton(family)
    rep = _quotient(family)[2]
    bounded = "v" not in family.alphabet
    openings = family.prefixes or ("",)
    weightings = _weightings_covering(family)

    @lru_cache(maxsize=None)
    def completions(key):
        rem, level, state = key
        # a word of fewer than two letters is its state
        accepts = len(state) == 2 or state.startswith(openings)
        out = [""] if rem == level == 0 and accepts else []
        for letter, dx, dy, nxt in table[state, level == 0]:
            rem2, lvl2 = rem - dx, level + dy
            if rem2 < 0 or lvl2 < 0 or (bounded and lvl2 > rem2):
                continue
            out += [letter + tail for tail in completions((rem2, lvl2, nxt))]
        return out

    @lru_cache(maxsize=None)
    def tail_weights(last, key, weighting):
        before = packed_weight(last, weighting, family.base)
        return [
            packed_weight(last + tail, weighting, family.base) - before
            for tail in completions(key)
        ]

    raw = set().union(*(_reference_graph(family, n) for n in range(9)))
    for rem, level, state in sorted(raw):
        if rep[state] == state:
            continue
        key = (rem, level, rep[state])
        assert completions((rem, level, state)) == completions(key), (rem, level, state)
        for weighting in weightings:
            assert tail_weights(state[-1:], key, weighting) == tail_weights(
                rep[state][-1:], key, weighting
            ), (rem, level, state, weighting)


# classes of the minimised automaton (of 21, 13 and 7 raw states), and keys
# at x-length 24 under the default weighting
_CLASS_AND_KEY_COUNTS = [
    (GMOTZKIN, 1, 325),
    (GMOTZKIN_UVU, 3, 901),
    (GMOTZKIN.avoiding("uh"), 2, 601),
    (GMOTZKIN.avoiding("hu"), 2, 625),
    (GMOTZKIN.avoiding("uvu", "uu"), 3, 481),
    (SCHRODER, 1, 91),
    (MOTZKIN, 1, 169),
    (DYCK, 2, 157),
]


@pytest.mark.parametrize(
    "family, classes, keys",
    _CLASS_AND_KEY_COUNTS,
    ids=[family.describe() for family, _, _ in _CLASS_AND_KEY_COUNTS],
)
def test_class_and_key_counts_are_pinned(family, classes, keys):
    _, accepts, rep = _quotient(family)
    assert len(accepts) == len(set(rep.values())) == classes
    graphs = [_key_graph(family, 24, w)[0] for w in _weightings_covering(family)]
    # the classes do not depend on the weighting, so neither do the keys
    assert all(graph == graphs[0] for graph in graphs)
    assert len(graphs[0]) == keys


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


# with free v steps a G-Motzkin path of x-length 5 has up to 10 letters,
# too many words to try; the weigher is tried on words of at most this many
_WEIGHER_MAX_LETTERS = 8


def _weightings_covering(family):
    return [
        name
        for name, (bases, letters) in sorted(WEIGHTINGS.items())
        if family.base in bases and set(family.alphabet) <= set(letters)
    ]


@pytest.mark.parametrize("family", BIJECTION_FAMILIES, ids=PathFamily.describe)
def test_acceptor_accepts_exactly_the_enumerated_words(family):
    # the weigher under every weighting that covers the family: the word's
    # weight on the enumerated words, None on every other word
    weightings = _weightings_covering(family)
    for n in range(6):
        weighers = {w: _weigher(*_key_graph(family, n, w)[1:]) for w in weightings}
        paths = set(iter_step_strings(family, n))
        for weighting, weigh in weighers.items():
            for word in paths:
                assert weigh(word) == packed_weight(word, weighting, family.base)
        longest = min(max(map(len, paths), default=0), _WEIGHER_MAX_LETTERS)
        for length in range(longest + 1):
            for letters in itertools.product(family.alphabet, repeat=length):
                word = "".join(letters)
                if word not in paths:
                    for weighting, weigh in weighers.items():
                        assert weigh(word) is None, (n, word, weighting)


# each certified domain at sizes up to 6 under the weighting criterion 3
# gives it, and Dyck paths under the peak weighting, where a peak can
# straddle the split between a block's word and its tail
WALK_WEIGHT_CASES = {
    name: (
        BIJECTIONS[name].domain,
        _WEIGHTING_OF[BIJECTIONS[name].domain.base],
        [cert.dom_scale * n for n in cert.sizes(6)],
    )
    for name, cert in CERTIFICATIONS.items()
}
WALK_WEIGHT_CASES["dyck"] = (DYCK, "dyck_peak_ab", range(0, 13, 2))


@pytest.mark.parametrize("case", sorted(WALK_WEIGHT_CASES))
def test_walk_weights_equal_the_per_word_weights(case):
    family, weighting, lengths = WALK_WEIGHT_CASES[case]
    for n in lengths:
        plain = list(_prefix_blocks(family, n))
        weighed = list(_prefix_blocks(family, n, weighting))
        # one walk: the same blocks; without a weighting, each word and each
        # tail weighed under the family's default weighting
        assert [b[:3] for b in weighed] == [b[:3] for b in plain]
        default = DEFAULT_WEIGHTING[family.base]
        for blocks, w in ((plain, default), (weighed, weighting)):
            for word, _, tails, weight, tail_weights in blocks:
                assert weight == packed_weight(word, w, family.base), (word, w)
                assert len(tail_weights) == len(tails)
                for tail, tail_weight in zip(tails, tail_weights):
                    steps = word + tail
                    want = packed_weight(steps, w, family.base)
                    assert weight + tail_weight == want, (steps, w)


@pytest.mark.parametrize("family", BIJECTION_FAMILIES, ids=PathFamily.describe)
def test_transfer_count_equals_the_per_path_weight_sum(family):
    weightings = _weightings_covering(family)
    assert DEFAULT_WEIGHTING[family.base] in weightings
    for weighting in weightings:
        for n in range(8):
            terms = {}
            for steps in iter_step_strings(family, n):
                key = unpack_exponents(packed_weight(steps, weighting, family.base))
                terms[key] = terms.get(key, 0) + 1
            assert weighted_count(family, n, weighting) == Polynomial(terms)


def test_transfer_count_past_the_reach_of_enumeration():
    assert weighted_count(GMOTZKIN_UVU, 20, "gmotzkin_abc", 20) == guvu_coeffs(20)[20]
    gfull = gfull_coeffs(30)
    for n in (12, 30):
        assert weighted_count(GMOTZKIN, n, "gmotzkin_abc", n) == gfull[n]
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


@pytest.mark.parametrize("prefix", ["ud", "H", "uu"])
def test_two_letter_prefixes_filter_the_walk_in_order(prefix):
    family = dataclasses.replace(SCHRODER, prefixes=(prefix,))
    for n in range(7):
        want = [w for w in iter_step_strings(SCHRODER, 2 * n) if w.startswith(prefix)]
        assert list(iter_step_strings(family, 2 * n)) == want
        assert count_paths(family, 2 * n) == len(want)


def test_a_word_shorter_than_its_prefix_is_no_path():
    family = dataclasses.replace(SCHRODER, prefixes=("HH",))
    assert list(iter_step_strings(family, 2)) == []
    assert count_paths(family, 2) == 0
    assert list(iter_step_strings(family, 4)) == ["HH"]
    assert _weigher(*_key_graph(family, 2, "schroder_ab")[1:])("H") is None


def test_dfs_rejects_three_letter_prefixes():
    family = PathFamily("dyck", prefixes=("udu",))
    with pytest.raises(ValueError, match="prefixes of one or two letters") as info:
        next(iter_step_strings(family, 4))
    assert "\n" not in str(info.value)


def test_prop21_both_variants_match_recurrence():
    # prop21 answers both variants with one sum, so the second is read
    # literally, term by term
    g = guvu_coeffs(40)
    for n in range(41):
        assert prop21(n, "first") == g[n]
        assert verification._second_triple_sum(n) == g[n]
    with pytest.raises(ValueError):
        prop21(3, "third")


def test_prop21_does_not_depend_on_the_order_of_calls():
    # prop21's tables and cache outlive a call, so a fresh interpreter asks
    # the largest n first and the rest from the top down
    script = """
from gpaths.enumeration import guvu_coeffs, prop21
from gpaths.verification import _second_triple_sum
top = prop21(60)
g = guvu_coeffs(60)
print(top == g[60])
print([n for n in range(12, -1, -1) if prop21(n) != _second_triple_sum(n)])
print([n for n in range(60, -1, -1) if prop21(n) != g[n]])
print(prop21(-1).terms)
try:
    prop21(3, "third")
except ValueError:
    print("refused")
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(enumeration.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    )}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert (proc.stdout, proc.stderr) == ("True\n[]\n[]\n{}\nrefused\n", "")


_TRIPLE_SUMS = {"first": prop21, "second": verification._second_triple_sum}


@pytest.mark.parametrize("variant", list(_TRIPLE_SUMS))
@pytest.mark.parametrize(
    "point, seq",
    [
        ((1, 0, 2), verification.SEQ_A025235),
        ((-3, 4, 16), verification.SEQ_A059231),
        ((1, 1, 1), verification.SCHRODER_NUMBERS),
    ],
)
def test_prop21_at_points_gives_the_frozen_sequences(variant, point, seq):
    # frozen reference data, not the recurrence: each sum stands on its own,
    # prop21 and the second sum read literally
    triple_sum = _TRIPLE_SUMS[variant]
    assert [triple_sum(n).eval_at(*point) for n in range(11)] == list(seq[:11])


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


def _reference_little_schroder_ab(n_max):
    """s_0 .. s_n_max of s = 1 + b x S s, coefficientwise: the convolution,
    with no division anywhere."""
    b = Polynomial.var("b")
    big = [closed_form("schroder_ab", k) for k in range(n_max)]
    little = [Polynomial.const(1)]
    for m in range(1, n_max + 1):
        acc = Polynomial()
        for k in range(m):
            acc = acc + big[k] * little[m - 1 - k]
        little.append(b * acc)
    return little


def test_little_schroder_division_equals_the_convolution():
    for n, want in enumerate(_reference_little_schroder_ab(15)):
        assert closed_form("little_schroder_ab", n) == want, n


def test_little_schroder_division_refuses_a_remainder(monkeypatch):
    # with S_n + a^n in place of S_n, b S_n is no multiple of a + b
    schroder_ab = enumeration._schroder_ab
    a = Polynomial.var("a")
    monkeypatch.setattr(enumeration, "_schroder_ab", lambda n: schroder_ab(n) + a**n)
    with pytest.raises(ArithmeticError, match="a \\+ b leaves a remainder"):
        closed_form("little_schroder_ab", 3)


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
    # one domain: both are 0 below m = 0, and both refuse a negative power
    for m in range(-2, 13):
        for k in range(16):
            assert ballot_coeff(m, k) == ballot_closed_form(m, k), (m, k)
    for ballot in (ballot_coeff, ballot_closed_form):
        for m in (-1, 0, 2):
            with pytest.raises(ValueError, match="need k >= 0; got k=-1$"):
                ballot(m, -1)


def test_size_guard():
    assert size_cap(DYCK) == MAX_N_DEFAULT
    assert size_cap(GMOTZKIN) == MAX_N_UNRESTRICTED_GMOTZKIN
    assert size_cap(GMOTZKIN_UVU) == MAX_N_DEFAULT
    assert size_cap(DYCK, max_n_override=30) == 30
    assert size_cap(GMOTZKIN, counting=True) == MAX_N_COUNT
    assert size_cap(DYCK, max_n_override=30, counting=True) == 30
    # counting has its own, larger cap: the DP grows with keys, not paths
    with pytest.raises(SizeLimitExceeded, match="counting cap"):
        count_paths(DYCK, MAX_N_COUNT + 1)
    with pytest.raises(SizeLimitExceeded, match="exhaustive-enumeration cap"):
        next(iter_step_strings(GMOTZKIN, MAX_N_UNRESTRICTED_GMOTZKIN + 1))
    with pytest.raises(SizeLimitExceeded):
        next(iter_step_strings(DYCK, MAX_N_DEFAULT + 1))
    with pytest.raises(SizeLimitExceeded, match="counting cap"):
        weighted_count(GMOTZKIN_UVU, MAX_N_COUNT + 1, "gmotzkin_abc")
    assert count_paths(DYCK, 14) == CATALAN[7]
    assert count_paths(DYCK, 14, max_n_override=14) == CATALAN[7]


def test_size_guard_env_override(monkeypatch):
    monkeypatch.setenv("GPATHS_MAX_N", "5")
    assert size_cap(DYCK) == 5
    with pytest.raises(SizeLimitExceeded, match="or pass an explicit override$"):
        count_paths(DYCK, 6)
    assert count_paths(DYCK, 4) == 2


def test_a_refusal_under_an_override_gives_no_advice(monkeypatch):
    # size_cap returns the override before it reads GPATHS_MAX_N, and
    # verification passes its fixed cap as one, which no verify user can move
    monkeypatch.setenv("GPATHS_MAX_N", "9")
    for n, cap in ((6, 5), (26, verification._CAP)):
        with pytest.raises(SizeLimitExceeded) as info:
            count_paths(DYCK, n, max_n_override=cap)
        assert str(info.value) == (
            f"x-length {n} exceeds the counting cap {cap} for family 'dyck'"
        )
