"""Exhaustive path generation and exact counting formulas.

Generation is a deterministic depth-first search in a fixed per-family step
order, so output order is reproducible byte for byte.  Exhaustive sizes are
guarded: the pattern-avoiding and classical families stop at x-length 12,
the unrestricted gmotzkin family (whose free v steps inflate growth) at 9.
GPATHS_MAX_N in the environment, or an explicit override argument, moves
the cap; exceeding it raises SizeLimitExceeded rather than grinding.

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

from .errors import SizeLimitExceeded
from .paths import STEP_GEOMETRY, Path, PathFamily
from .series import catalan_series, square_coeff
from .weights import WEIGHTINGS, Polynomial

MAX_N_DEFAULT = 12
MAX_N_UNRESTRICTED_GMOTZKIN = 9

_STEP_ORDER = {
    "gmotzkin": "uhvd",
    "dyck": "ud",
    "motzkin": "uhd",
    "schroder": "uHd",
    "bicolored_motzkin": "uabd",
    "hstring": "ab",
    "colored_dyck": "udD",
    "psi_image": "uaAbdD",
}


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


def _dfs_params(family: PathFamily):
    letters = _STEP_ORDER[family.base]
    geom = [STEP_GEOMETRY[c] for c in letters]
    avoid2 = frozenset(p for p in family.avoid if len(p) == 2)
    avoid3 = frozenset(p for p in family.avoid if len(p) == 3)
    first = None
    if family.prefixes:
        if any(len(p) != 1 for p in family.prefixes):
            raise ValueError(
                f"family {family.describe()!r} has a prefix longer than one "
                "letter; the DFS supports one-letter prefixes only"
            )
        first = frozenset(p[0] for p in family.prefixes)
    return letters, geom, avoid2, avoid3, first


def iter_step_strings(
    family: PathFamily, n: int, max_n_override: int | None = None
) -> Iterator[str]:
    """All step strings of the family with x-length n, in DFS order."""
    _check_size(family, n, max_n_override)
    letters, geom, avoid2, avoid3, first = _dfs_params(family)
    has_v = "v" in family.alphabet
    no_h = family.no_h_on_axis
    peak_d = family.base == "colored_dyck"
    chars: list[str] = []

    def rec(rem: int, level: int):
        if rem == 0 and level == 0:
            if chars or first is None:
                yield "".join(chars)
            if not has_v:
                return
        depth = len(chars)
        prev1 = chars[-1] if depth else ""
        prev2 = chars[-2] if depth > 1 else ""
        for idx, letter in enumerate(letters):
            dx, dy = geom[idx]
            rem2 = rem - dx
            lvl2 = level + dy
            if rem2 < 0 or lvl2 < 0:
                continue
            if not has_v and lvl2 > rem2:
                continue
            if depth == 0 and first is not None and letter not in first:
                continue
            if no_h and dy == 0 and level == 0:
                continue
            if peak_d and letter == "D" and prev1 != "u":
                continue
            if avoid2 and prev1 + letter in avoid2:
                continue
            if avoid3 and depth > 1 and prev2 + prev1 + letter in avoid3:
                continue
            chars.append(letter)
            yield from rec(rem2, lvl2)
            chars.pop()

    yield from rec(n, 0)


def generate(
    family: PathFamily, n: int, max_n_override: int | None = None
) -> Iterator[Path]:
    for steps in iter_step_strings(family, n, max_n_override):
        yield Path(family, steps)


def count_paths(family: PathFamily, n: int, max_n_override: int | None = None) -> int:
    return sum(1 for _ in iter_step_strings(family, n, max_n_override))


def weighted_count(
    family: PathFamily,
    n: int,
    weighting: str,
    max_n_override: int | None = None,
) -> Polynomial:
    """Sum of monomial weights over every path of x-length n."""
    _check_size(family, n, max_n_override)
    table = WEIGHTINGS[weighting][1]
    peaks = weighting == "dyck_peak_ab" and family.base == "dyck"
    letters, geom, avoid2, avoid3, first = _dfs_params(family)
    has_v = "v" in family.alphabet
    no_h = family.no_h_on_axis
    peak_d = family.base == "colored_dyck"
    acc: dict[tuple[int, int, int], int] = {}

    def rec(rem, level, depth, prev1, prev2, ea, eb, ec):
        if rem == 0 and level == 0:
            if depth or first is None:
                key = (ea, eb, ec)
                acc[key] = acc.get(key, 0) + 1
            if not has_v:
                return
        for idx, letter in enumerate(letters):
            dx, dy = geom[idx]
            rem2 = rem - dx
            lvl2 = level + dy
            if rem2 < 0 or lvl2 < 0:
                continue
            if not has_v and lvl2 > rem2:
                continue
            if depth == 0 and first is not None and letter not in first:
                continue
            if no_h and dy == 0 and level == 0:
                continue
            if peak_d and letter == "D" and prev1 != "u":
                continue
            if avoid2 and prev1 + letter in avoid2:
                continue
            if avoid3 and depth > 1 and prev2 + prev1 + letter in avoid3:
                continue
            if peaks and letter == "d" and prev1 == "u":
                wa, wb, wc = 1, 0, 0
            else:
                wa, wb, wc = table[letter]
            rec(rem2, lvl2, depth + 1, letter, prev1, ea + wa, eb + wb, ec + wc)

    rec(n, 0, 0, "", "", 0, 0, 0)
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
