"""Step and point statistics at a fixed level over uvu-avoiding paths.

Ten statistics, each computable by up to three independent routes that the
acceptance suite plays against each other:

  brute    exhaustive enumeration and direct counting,
  riordan  coefficient extraction from one Riordan array (d(x), h(x)) per
           statistic, all with h = x S^2, and for column 0 of P and p_r
           from one axis series,
  formula  the explicit alternating double sums (U, H, P only).

Table conventions (i is the level index, columns 0..n per row):

  U   u-steps ending at level i+1 over paths of x-length n+1
  V   v-steps at level i       over paths of x-length n+1
  D   d-steps at level i       over paths of x-length n+2
  H   h-steps at level i       over paths of x-length n+1
  P   lattice points at level i over paths of x-length n

and the r-suffixed variants are the same counts over paths with no
horizontal step on the axis, with u_r/v_r at the same offsets, h_r counting
h-steps at level i+1 over x-length n+2, and p_r points over x-length n.

A table is filled from its last row, which checks the brute size cap before
any path is enumerated and builds each array or axis series the table needs
once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .enumeration import _check_size, _prefix_blocks, ballot_coeff, catalan_number
from .errors import DomainViolation
from .paths import GMOTZKIN_UVU, STEP_GEOMETRY, PathFamily
from .series import (
    DEFAULT_ORDER,
    RiordanArray,
    TruncatedSeries,
    parse_series_expr,
)

GMOTZKIN_UVU_RESTRICTED = GMOTZKIN_UVU.restricted()

# stat -> (counted letter or "points", level offset, x-length offset, restricted)
STAT_DEFS: dict[str, tuple[str, int, int, bool]] = {
    "U": ("u", 1, 1, False),
    "V": ("v", 0, 1, False),
    "D": ("d", 0, 2, False),
    "H": ("h", 0, 1, False),
    "P": ("points", 0, 0, False),
    "u_r": ("u", 1, 1, True),
    "v_r": ("v", 0, 1, True),
    "d_r": ("d", 0, 2, True),
    "h_r": ("h", 1, 2, True),
    "p_r": ("points", 0, 0, True),
}

STAT_IDS = tuple(STAT_DEFS)
FORMULA_STATS = ("U", "H", "P")


def _check_stat(stat: str) -> tuple[str, int, int, bool]:
    try:
        return STAT_DEFS[stat]
    except KeyError:
        raise DomainViolation(
            f"unknown statistic {stat!r}; choose from " + ", ".join(STAT_DEFS)
        ) from None


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------


def _count_letters(
    step_counts: dict, point_counts: dict, word: str, level: int, k: int
) -> None:
    """Add k to the (letter, level) pair of each letter of word read from
    level, and to the point it ends at."""
    for c in word:
        level += STEP_GEOMETRY[c][1]
        pair = (c, level)
        step_counts[pair] = step_counts.get(pair, 0) + k
        point_counts[level] = point_counts.get(level, 0) + k


@lru_cache(maxsize=None)
def _brute_counts(family: PathFamily, m: int):
    """Aggregate (letter, level) step counts and point counts over all
    paths of the family of x-length m.

    Counted per distinct prefix of the walk's prefix blocks (word, key,
    tails), not per path.  Each block's path count, len(tails), is folded up
    its word's prefixes, longest first: a prefix adds the (letter, level)
    pair of its last letter and its end point once, weighted by the paths
    through it, and hands that weight to its parent.  A block's word is
    counted as the walk yields it, so only its proper prefixes are held
    until the fold.  Every path adds the start point.  The pairs and
    points of each distinct (tail, level) of the keys' tails (at absolute
    levels, after the word's end point) count once, weighted by the number
    of blocks that end at a key of that level with that tail.
    """
    step_counts: dict[tuple[str, int], int] = {}
    point_counts: dict[int, int] = {}
    ends: dict[tuple[int, int, str], list] = {}
    # parents[length][level]: {prefix of that length ending at level: paths}
    parents: list[dict[int, dict[str, int]]] = []

    def count(prefix: str, level: int, k: int) -> None:
        c = prefix[-1]
        pair = (c, level)
        step_counts[pair] = step_counts.get(pair, 0) + k
        point_counts[level] = point_counts.get(level, 0) + k
        while len(parents) < len(prefix):
            parents.append({})
        up = parents[len(prefix) - 1].setdefault(level - STEP_GEOMETRY[c][1], {})
        up[prefix[:-1]] = up.get(prefix[:-1], 0) + k

    paths = 0
    for word, key, tails, _, _ in _prefix_blocks(family, m):
        k = len(tails)
        if not k:
            continue
        paths += k
        ends.setdefault(key, [tails, 0])[1] += 1
        if word:
            count(word, key[1], k)
    # longest first, so a prefix holds all its paths when it is counted
    for length in range(len(parents) - 1, 0, -1):
        for level, prefixes in parents[length].items():
            for prefix, k in prefixes.items():
                count(prefix, level, k)
    if paths:  # every path starts at level 0
        point_counts[0] = point_counts.get(0, 0) + paths
    # a tail read from the same level counts the same pairs: read it once
    reads: dict[tuple[str, int], int] = {}
    for (_, level, _), (tails, blocks) in ends.items():
        for tail in tails:
            reads[tail, level] = reads.get((tail, level), 0) + blocks
    for (tail, level), blocks in reads.items():
        _count_letters(step_counts, point_counts, tail, level, blocks)
    return step_counts, point_counts


def _brute_row(stat: str, n: int) -> tuple[PathFamily, int]:
    """The family and x-length of the paths that row n of stat's brute
    table counts over."""
    _, _, size_off, restricted = _check_stat(stat)
    return GMOTZKIN_UVU_RESTRICTED if restricted else GMOTZKIN_UVU, n + size_off


def _check_brute_rows(n: int) -> None:
    """Refuse row n of the brute tables past the size cap, statistic by
    statistic in STAT_IDS order."""
    for stat in STAT_IDS:
        _check_size(*_brute_row(stat, n), None)


def stat_brute(stat: str, n: int, i: int) -> int:
    kind, level_off, _, _ = _check_stat(stat)
    family, m = _brute_row(stat, n)
    if m < 0 or i < 0:
        return 0
    # checked before the cache is read, so a changed GPATHS_MAX_N is seen
    _check_size(family, m, None)
    step_counts, point_counts = _brute_counts(family, m)
    if kind == "points":
        return point_counts.get(i, 0)
    return step_counts.get((kind, i + level_off), 0)


# ---------------------------------------------------------------------------
# Riordan arrays
# ---------------------------------------------------------------------------

# d of each statistic's Riordan array; every array has h = x S^2, so column
# i is d h^i.  [x^n] (1-x) d h^i is U(n, i) - U(n-1, i), so V and v_r are
# U's and u_r's d times 1-x; D and d_r count what U and u_r count.  P's and
# p_r's d are the paper's divided by S^2: then d h^i = x d_paper h^(i-1), so
# P(n, i) = [x^(n-1)] d_paper h^(i-1) is read in place for i >= 1.
_ARRAY_EXPRS = {
    "U": "S^3*one_over_1px",
    "V": "one_minus_x*S^3*one_over_1px",
    "D": "S^3*one_over_1px",
    "H": "S^2",
    "P": "one_plus_x2*S^2*one_over_1px",
    "u_r": "s^2*S*one_over_1px",
    "v_r": "one_minus_x*s^2*S*one_over_1px",
    "d_r": "s^2*S*one_over_1px",
    "h_r": "s^2*S^2",
    "p_r": "one_plus_x2*one_over_1px*s^2",
}

_COLUMN_EXPR = "x*S^2"

# Column 0 of the point statistics, as a sum of product expressions: the
# start point of every path (S or s), then the axis points after it.  Each
# of those ends an h-step on the axis or a return, and every return closes
# exactly one excursion opened by a u-step to level 1.  So they are x times
# U's and H's axis columns for P, and x times u_r's axis column
# s^2 S / (1+x) for p_r, whose paths have no h-step on the axis.
_AXIS_EXPRS = {
    "P": ("S", "x*S^3*one_over_1px", "x*S^2"),
    "p_r": ("s", "x*s^2*S*one_over_1px"),
}


def _array(d: str, order: int) -> RiordanArray:
    return RiordanArray(
        parse_series_expr(d, order), parse_series_expr(_COLUMN_EXPR, order)
    )


def _axis(terms: tuple[str, ...], order: int) -> TruncatedSeries:
    return sum(parse_series_expr(term, order) for term in terms)


# One array or axis series per expression, rebuilt only when a row beyond
# its order is asked for.  Tables are filled from their last row, so each
# one a table needs is built at most once, at the order of that row, and
# statistics with the same d (D and U) share it.  Entries are exact
# coefficients, so they do not depend on the order they are built at.
_BUILT: dict[str | tuple[str, ...], RiordanArray | TruncatedSeries] = {}


def _built(key: str | tuple[str, ...], n: int, build):
    """build(key, order) for some order >= n, cached under key."""
    value = _BUILT.get(key)
    if value is None or value.order < n:
        value = _BUILT[key] = build(key, max(DEFAULT_ORDER, n + 1))
    return value


def stat_riordan(stat: str, n: int, i: int) -> int:
    _check_stat(stat)
    if n < 0 or i < 0:
        return 0
    if i == 0 and stat in _AXIS_EXPRS:
        return _built(_AXIS_EXPRS[stat], n, _axis).coeff(n)
    return _built(_ARRAY_EXPRS[stat], n, _array).entry(n, i)


# ---------------------------------------------------------------------------
# explicit sums
# ---------------------------------------------------------------------------


# The three double sums read one inner sum,
#
#   inner(t, i, shift) = sum_m C(t+m+i+shift, t-i-m) [x^m] C(x)^(2i+shift+1)
#
# over m = 0..t-i.  H(n, i) is inner(n, i, 1); U(n, i) is the alternating sum
# of inner(n-j, i, 2) over j = 0..n-i; points at level i+1 over x-length n+1
# are the alternating sum of inner(n-j, i, 3) plus the same sum at n-2.
# Each (i, shift) keeps its inner sums in a list indexed by t - i, so a table
# computes each inner sum once rather than once per (n, j).
_INNER: dict[tuple[int, int], list[int]] = {}


def _inner(t: int, i: int, shift: int) -> int:
    column = _INNER.setdefault((i, shift), [])
    k = 2 * i + shift + 1
    for s in range(i + len(column), t + 1):
        column.append(
            sum(
                comb(s + m + i + shift, s - i - m) * ballot_coeff(m, k)
                for m in range(s - i + 1)
            )
        )
    return column[t - i]


def _alternating(n: int, i: int, shift: int) -> int:
    """The sum of (-1)^j inner(n-j, i, shift) over j = 0..n-i."""
    if n < i:
        return 0
    _inner(n, i, shift)  # fills the column through t = n
    terms = _INNER[i, shift][n - i :: -1]
    return sum(terms[::2]) - sum(terms[1::2])


def _schroder_number(n: int) -> int:
    """The large Schroder number S_n = sum_k C(n+k, 2k) Cat(k)."""
    return sum(comb(n + k, 2 * k) * catalan_number(k) for k in range(n + 1))


def stat_formula(stat: str, n: int, i: int) -> int:
    if stat not in FORMULA_STATS:
        raise DomainViolation(
            f"no explicit formula for {stat!r}; formulas exist for "
            + ", ".join(FORMULA_STATS)
        )
    if n < 0 or i < 0 or i > n:
        return 0
    if stat == "U":
        return _alternating(n, i, 2)
    if stat == "H":
        return _inner(n, i, 1)
    if i == 0:
        if n == 0:
            return 1
        return _schroder_number(n) + _alternating(n - 1, 0, 2) + _inner(n - 1, 0, 1)
    return _alternating(n - 1, i - 1, 3) + _alternating(n - 3, i - 1, 3)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

_METHODS = {
    "brute": stat_brute,
    "riordan": stat_riordan,
    "formula": stat_formula,
}


@dataclass(frozen=True)
class StatTable:
    stat: str
    method: str
    n_max: int
    rows: tuple[tuple[int, ...], ...]


def methods_for(stat: str) -> tuple[str, ...]:
    _check_stat(stat)
    if stat in FORMULA_STATS:
        return ("brute", "riordan", "formula")
    return ("brute", "riordan")


def stat_table(stat: str, method: str, n_max: int) -> StatTable:
    methods = methods_for(stat)
    if method not in methods:
        raise DomainViolation(
            f"statistic {stat} has no {method!r} route; "
            f"available: {', '.join(methods)}"
        )
    fn = _METHODS[method]
    # last row first: it sizes every Riordan array the table needs, and past
    # the brute size cap it fails before any smaller row is enumerated
    rows = [
        tuple(fn(stat, n, i) for i in range(n + 1)) for n in range(n_max, -1, -1)
    ]
    return StatTable(stat, method, n_max, tuple(reversed(rows)))
