"""Exhaustive path generation and exact counting formulas.

Each family's word rules (its letter order, which is the order of
`family.alphabet`, a one-letter prefix, avoided factors of one to three
letters, D only after u, no horizontal step on the axis) are compiled once
into a step automaton.  Generation is a depth-first walk over that
automaton that checks only geometry, so output order is reproducible byte
for byte.  Most of a walk's nodes sit in the last few steps, where the same
(x-length left, level, state) key recurs for thousands of prefixes.  So the
walk proper stops at keys with at most COMPLETION_SPLIT units of x-length
left and yields the word so far followed by each completion of the key.
The completions are built once per call, without recursion, from those of
the keys they move to, with the walk's own moves and pruning and in
alphabet order, so the words come out in the plain walk's order.  The split
is 2 from measurement (2-vCPU Xeon, CPython 3.11.7): on the 206,098
uvu-avoiding G-Motzkin words of x-length 9 the walk takes about 0.02 s
against 0.18 s for the plain walk, holding about 8,000 completion strings;
a split of 3 is faster on long Schroder paths but holds about 33,000, which
raised the benchmark's exhaustive peak RSS from 21.4 to 23.4 MB (+10 %),
where a split of 2 gives 21.8 MB (+2 %).
Weighted counting (and so plain counting) is a transfer-matrix DP
over the same automaton: the prefixes are merged by (x-length left, level,
state), so its cost grows with the number of keys, not of paths.  Both are
guarded by the same size cap: the pattern-avoiding and classical families
stop at x-length 12, the unrestricted gmotzkin family (whose free v steps
inflate growth) at 9.  GPATHS_MAX_N in the environment, or an explicit
override argument, moves the cap; exceeding it raises SizeLimitExceeded.

The counting side is exact integer/polynomial arithmetic throughout:
recurrence coefficients for the two generating-function equations, the
classical closed forms, the double/triple sums, and the ballot numbers
[x^m] C(x)^k extracted from the Catalan series.
"""

from __future__ import annotations

import os
from functools import lru_cache
from math import comb, factorial
from typing import Iterator

from .errors import FamilyMismatch, SizeLimitExceeded
from .paths import STEP_GEOMETRY, Path, PathFamily
from .series import catalan_series, square_coeff
from .weights import DEFAULT_WEIGHTING, WEIGHTINGS, Polynomial, weight_exponents

MAX_N_DEFAULT = 12
MAX_N_UNRESTRICTED_GMOTZKIN = 9
# iter_step_strings walks keys with more x-length left than this and reads
# the rest of each word off a per-call list of completions (module docstring)
COMPLETION_SPLIT = 2


def size_cap(family: PathFamily, max_n_override: int | None = None) -> int:
    if max_n_override is not None:
        return max_n_override
    env = os.environ.get("GPATHS_MAX_N")
    if env:
        return int(env)
    if family.base == "gmotzkin" and not family.avoid:
        return MAX_N_UNRESTRICTED_GMOTZKIN
    return MAX_N_DEFAULT


def _check_size(family: PathFamily, n: int, max_n_override: int | None) -> None:
    cap = size_cap(family, max_n_override)
    if n > cap:
        raise SizeLimitExceeded(
            f"x-length {n} exceeds the exhaustive-enumeration cap {cap} for "
            f"family {family.describe()!r}; raise GPATHS_MAX_N or pass an "
            "explicit override"
        )


# ---------------------------------------------------------------------------
# the step automaton, the generation walk and the counting DP
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _automaton(family: PathFamily) -> tuple[dict, bool]:
    """The family's word rules as a table (state, on_axis) -> moves.

    A state is the last two letters of the word so far ("" before the first
    step); a move is (letter, dx, dy, next state), in alphabet order.  The
    flag says whether the empty word is a path of the family.
    """
    if any(len(p) != 1 for p in family.prefixes):
        raise ValueError(
            f"family {family.describe()!r} has a prefix longer than one "
            "letter; the DFS supports one-letter prefixes only"
        )
    if any(not 1 <= len(p) <= 3 for p in family.avoid):
        raise ValueError(
            f"family {family.describe()!r} avoids a factor longer than three "
            "letters; the DFS supports avoided factors of one to three letters"
        )
    alphabet = family.alphabet
    states = [""] + list(alphabet) + [x + y for x in alphabet for y in alphabet]
    table = {}
    for state in states:
        for on_axis in (False, True):
            moves = []
            for letter in alphabet:
                dx, dy = STEP_GEOMETRY[letter]
                word = state + letter
                if not state and family.prefixes and letter not in family.prefixes:
                    continue
                if any(word.endswith(p) for p in family.avoid):
                    continue
                if family.base == "colored_dyck" and letter == "D" and not state.endswith("u"):
                    continue
                if family.no_h_on_axis and on_axis and dy == 0:
                    continue
                moves.append((letter, dx, dy, word[-2:]))
            table[state, on_axis] = tuple(moves)
    return table, not family.prefixes


def _moves_inside(
    table: dict, bounded: bool, key: tuple[int, int, str]
) -> list[tuple[str, tuple[int, int, str]]]:
    """The moves out of key (x-length left, level, state) that keep to the
    geometry, as (letter, next key) in alphabet order: x-length left and
    level stay nonnegative, and without v (bounded) the level cannot exceed
    the x-length left."""
    rem, level, state = key
    out = []
    for letter, dx, dy, nxt in table[state, level == 0]:
        rem2 = rem - dx
        lvl2 = level + dy
        if rem2 < 0 or lvl2 < 0 or (bounded and lvl2 > rem2):
            continue
        out.append((letter, (rem2, lvl2, nxt)))
    return out


def iter_step_strings(
    family: PathFamily, n: int, max_n_override: int | None = None
) -> Iterator[str]:
    """All step strings of the family with x-length n, in DFS order.

    An explicit-stack walk over keys with more x-length left than
    COMPLETION_SPLIT; at a key at or below the split the walk yields
    word + tail for each of the key's completions.  Both the moves of a
    walked key and the completions of a split key are built once per call,
    in dicts local to the call, so the same key met again costs one lookup.
    """
    _check_size(family, n, max_n_override)
    table, empty_ok = _automaton(family)
    bounded = "v" not in family.alphabet
    pushes: dict[tuple[int, int, str], list] = {}
    tails: dict[tuple[int, int, str], list[str]] = {}
    stack = [((n, 0, ""), "")]
    while stack:
        key, word = stack.pop()
        if key[0] <= COMPLETION_SPLIT:
            if key not in tails:
                _completions(table, bounded, empty_ok, key, tails)
            for tail in tails[key]:
                yield word + tail
            continue
        moves = pushes.get(key)
        if moves is None:
            # pushed last to first, so they are popped in alphabet order
            moves = pushes[key] = _moves_inside(table, bounded, key)[::-1]
        for letter, nxt in moves:
            stack.append((nxt, word + letter))


def _completions(
    table: dict,
    bounded: bool,
    empty_ok: bool,
    key: tuple[int, int, str],
    tails: dict[tuple[int, int, str], list[str]],
) -> None:
    """Fill tails[key], and tails of every key below it, in DFS order.

    A key's tails are, move by move in alphabet order, the move's letter
    followed by each tail of the key it moves to.  A leaf (x-length 0 on the
    axis, where every letter overshoots or dips) has the empty tail, unless
    it is the empty word of a family that excludes it.  Keys are finished
    in post order off an explicit stack, each after the keys it moves to.
    """
    todo = [key]
    while todo:
        top = todo[-1]
        if top in tails:
            todo.pop()
            continue
        moves = _moves_inside(table, bounded, top)
        missing = [nxt for _, nxt in moves if nxt not in tails]
        if missing:
            todo.extend(missing)
            continue
        todo.pop()
        rem, level, state = top
        out = [""] if rem == 0 and level == 0 and (state or empty_ok) else []
        for letter, nxt in moves:
            out.extend([letter + tail for tail in tails[nxt]])
        tails[top] = out


def generate(
    family: PathFamily, n: int, max_n_override: int | None = None
) -> Iterator[Path]:
    for steps in iter_step_strings(family, n, max_n_override):
        yield Path(family, steps)


def count_paths(family: PathFamily, n: int, max_n_override: int | None = None) -> int:
    """The number of paths: the coefficient sum of the weighted count under
    the family's default weighting."""
    weighting = DEFAULT_WEIGHTING[family.base]
    return sum(weighted_count(family, n, weighting, max_n_override).terms.values())


@lru_cache(maxsize=None)
def _weighted_automaton(family: PathFamily, weighting: str):
    """The automaton's table with each move's exponent triple in front.

    A step's weight may depend on the letter before it (a peak), so it is
    the weight of prev+letter less the weight of prev.
    """
    bases, letters = WEIGHTINGS[weighting]
    base = family.base
    missing = sorted(set(family.alphabet) - set(letters))
    if missing:
        raise FamilyMismatch(
            f"weighting {weighting!r} gives no weight to step {missing[0]!r} "
            f"of family {base!r}"
        )
    if base not in bases:
        raise FamilyMismatch(
            f"weighting {weighting!r} does not apply to family {base!r}"
        )

    def exponents(state: str, letter: str) -> tuple[int, int, int]:
        prev = state[-1:]
        whole = weight_exponents(prev + letter, weighting, base)
        head = weight_exponents(prev, weighting, base)
        return (whole[0] - head[0], whole[1] - head[1], whole[2] - head[2])

    table, empty_ok = _automaton(family)
    weighted = {
        key: tuple(
            (*exponents(key[0], letter), dx, dy, nxt) for letter, dx, dy, nxt in moves
        )
        for key, moves in table.items()
    }
    return weighted, empty_ok


def weighted_count(
    family: PathFamily,
    n: int,
    weighting: str,
    max_n_override: int | None = None,
) -> Polynomial:
    """Sum of monomial weights over every path of x-length n.

    A transfer-matrix DP over the step automaton: every prefix that reaches
    the same (x-length left, level, state) key extends the same way, so each
    key holds the exponent triples of its prefixes with their multiplicities
    and pushes them along its moves once.  Every move lowers 2 * x-length
    left + level (u and v by 1, d and D by 3, a horizontal step by 2 per unit
    of x-length), so keys are taken bucket by bucket, highest first.  The
    last bucket holds the leaves, x-length 0 on the axis, where every letter
    overshoots or dips.
    """
    _check_size(family, n, max_n_override)
    table, empty_ok = _weighted_automaton(family, weighting)
    if n < 0:
        return Polynomial()
    bounded = "v" not in family.alphabet
    buckets: list[dict] = [{} for _ in range(2 * n + 1)]
    buckets[2 * n][n, 0, ""] = {(0, 0, 0): 1}
    for height in range(2 * n, 0, -1):
        for (rem, level, state), sums in buckets[height].items():
            for wa, wb, wc, dx, dy, nxt in table[state, level == 0]:
                rem2 = rem - dx
                lvl2 = level + dy
                if rem2 < 0 or lvl2 < 0 or (bounded and lvl2 > rem2):
                    continue
                target = buckets[2 * rem2 + lvl2].setdefault((rem2, lvl2, nxt), {})
                for (ea, eb, ec), k in sums.items():
                    key = (ea + wa, eb + wb, ec + wc)
                    target[key] = target.get(key, 0) + k
        buckets[height].clear()
    acc: dict[tuple[int, int, int], int] = {}
    for (_, _, state), sums in buckets[0].items():
        if state or empty_ok:
            for key, k in sums.items():
                acc[key] = acc.get(key, 0) + k
    return Polynomial(acc)


# ---------------------------------------------------------------------------
# recurrences for the two generating-function equations
# ---------------------------------------------------------------------------

_A = Polynomial.var("a")
_B = Polynomial.var("b")
_C = Polynomial.var("c")


def guvu_coeffs(n_max: int) -> list[Polynomial]:
    """Weighted counts of uvu-avoiding paths, from
    G = 1 + bx + (a-b+abx) x G + (b+cx) x G^2, coefficientwise."""
    a_minus_b, ab = _A - _B, _A * _B
    g: list[Polynomial] = [Polynomial.const(1)]
    g_squared: list[Polynomial] = []  # [x^m] G^2, each computed once
    for n in range(1, n_max + 1):
        g_squared.append(square_coeff(g, n - 1))
        total = a_minus_b * g[n - 1] + _B * g_squared[n - 1]
        if n == 1:
            total = total + _B
        if n >= 2:
            total = total + ab * g[n - 2] + _C * g_squared[n - 2]
        g.append(total)
    return g


def gfull_coeffs(n_max: int) -> list[Polynomial]:
    """Weighted counts of unrestricted paths, from
    G = 1 + a x G + b x G^2 + c x^2 G^2."""
    g: list[Polynomial] = [Polynomial.const(1)]
    g_squared: list[Polynomial] = []  # [x^m] G^2, each computed once
    for n in range(1, n_max + 1):
        g_squared.append(square_coeff(g, n - 1))
        total = _A * g[n - 1] + _B * g_squared[n - 1]
        if n >= 2:
            total = total + _C * g_squared[n - 2]
        g.append(total)
    return g


# ---------------------------------------------------------------------------
# classical closed forms
# ---------------------------------------------------------------------------


def catalan_number(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def _dyck_ab(n: int) -> Polynomial:
    if n == 0:
        return Polynomial.const(1)
    terms = {}
    for k in range(1, n + 1):
        num = comb(n, k - 1) * comb(n, k)
        if num % n:
            raise ArithmeticError(
                f"Narayana coefficient C({n},{k - 1}) C({n},{k}) / {n} is not integral"
            )
        terms[(k, n - k, 0)] = num // n
    return Polynomial(terms)


def _motzkin_ab(n: int) -> Polynomial:
    terms = {}
    for k in range(n // 2 + 1):
        terms[(n - 2 * k, k, 0)] = comb(n, 2 * k) * catalan_number(k)
    return Polynomial(terms)


def _schroder_ab(n: int) -> Polynomial:
    terms = {}
    for k in range(n + 1):
        terms[(n - k, k, 0)] = comb(n + k, 2 * k) * catalan_number(k)
    return Polynomial(terms)


@lru_cache(maxsize=None)
def _little_schroder_list(n_max: int) -> tuple[Polynomial, ...]:
    # s = 1 + b x S s, coefficientwise: no division anywhere
    big = [_schroder_ab(m) for m in range(n_max + 1)]
    little = [Polynomial.const(1)]
    for m in range(1, n_max + 1):
        acc = Polynomial()
        for k in range(m):
            acc = acc + big[k] * little[m - 1 - k]
        little.append(_B * acc)
    return tuple(little)


CLOSED_FORMS = {
    "dyck_ab": _dyck_ab,
    "motzkin_ab": _motzkin_ab,
    "schroder_ab": _schroder_ab,
    "little_schroder_ab": lambda n: _little_schroder_list(n)[n],
}


def closed_form(name: str, n: int) -> Polynomial:
    """C_n(a,b), M_n(a,b), S_n(a,b) or s_n(a,b) as an exact polynomial."""
    try:
        fn = CLOSED_FORMS[name]
    except KeyError:
        raise ValueError(
            f"unknown closed form {name!r}; choose from "
            + ", ".join(sorted(CLOSED_FORMS))
        ) from None
    if n < 0:
        raise ValueError("closed forms need n >= 0")
    return fn(n)


# ---------------------------------------------------------------------------
# the two explicit triple sums for the uvu-avoiding counts
# ---------------------------------------------------------------------------


def gbinom(r: int, m: int) -> int:
    """Binomial coefficient extended by the falling factorial for r < 0."""
    if m < 0:
        return 0
    if r >= 0:
        return comb(r, m)
    num = 1
    for i in range(m):
        num *= r - i
    return num // factorial(m)


def prop21(n: int, variant: str = "first") -> Polynomial:
    """The uvu-avoiding weighted count as an explicit triple sum."""
    if variant not in ("first", "second"):
        raise ValueError("variant must be 'first' or 'second'")
    terms: dict[tuple[int, int, int], int] = {}
    for k in range(n + 1):
        cat = catalan_number(k)
        for j in range(k + 1):
            kj = comb(k, j)
            for el in range(n - k - j + 1):
                if variant == "first":
                    coeff = (
                        (-1) ** el
                        * kj
                        * gbinom(k + el - 1, el)
                        * comb(n + k - j - el, 2 * k)
                        * cat
                    )
                    exps = (n - k - j - el, k + el - j, j)
                else:
                    m = n - k - j - el
                    coeff = (
                        (-1) ** m
                        * kj
                        * comb(2 * k + el, el)
                        * gbinom(k + m - 1, m)
                        * cat
                    )
                    exps = (el, n - 2 * j - el, j)
                if coeff:
                    terms[exps] = terms.get(exps, 0) + coeff
    return Polynomial(terms)


# ---------------------------------------------------------------------------
# ballot numbers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def ballot_coeff(m: int, k: int) -> int:
    """[x^m] C(x)^k, extracted from the Catalan series itself."""
    if m < 0 or k < 0:
        return 0
    value = (catalan_series(m) ** k).coeff(m)
    if not isinstance(value, int):
        raise TypeError(f"ballot number [x^{m}] C^{k} is {value!r}, not an int")
    return value


def ballot_closed_form(m: int, k: int) -> int:
    """k/(2m+k) * binom(2m+k, m); the independent cross-check."""
    if m == 0 and k == 0:
        return 1
    num = k * comb(2 * m + k, m)
    if num % (2 * m + k):
        raise ArithmeticError(f"{k} C({2 * m + k},{m}) is not divisible by {2 * m + k}")
    return num // (2 * m + k)
