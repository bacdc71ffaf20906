"""Exhaustive path generation and exact counting formulas.

Each family's word rules (its letter order, which is the order of
`family.alphabet`, prefixes of one or two letters, avoided factors of one
to three letters, D only after u, no horizontal step on the axis) are
compiled once into a step automaton whose states are the last two
letters, and that automaton is minimised once (`_quotient`, partition
refinement; Hopcroft 1971): states that accept alike and take each letter
to equivalent states with the same step weight, under every weighting of
the family's base, are one class.  So the 21 states of G-Motzkin paths
are 1 class unrestricted and 3 avoiding uvu, and the classes are the same
under any weighting.  The keys are (x-length left, level, class), and
one builder, `_key_graph`, numbers every key reachable from the start
height by height from the top (height 2 * x-length left + level, which
every move lowers), so every move goes to a higher number.  It holds the
one geometric pruning rule and reads the one acceptance rule, and gives
each key one row, {letter: (next number, packed weight)} in alphabet
order, each move weighed once by `weights.step_exponents` (Stanley, EC1
4.7: the transfer-matrix method).  The walk, its completions, the
membership test `_weigher` and the counting DP each read these rows, once
per family, size and weighting, and know nothing of classes, of peaks, of
which weightings apply or of how a triple is packed.  The membership test
walks a word along the rows and sums its steps' packed weights, so one
walk says whether a word is a path and what it weighs.

Generation is a depth-first walk over the rows that checks only
geometry, so output order is reproducible byte for byte.  Most of a walk's
nodes sit near its leaves, where the same key recurs for thousands of
prefixes.  So the walk proper (`_prefix_blocks`) stops at keys with at
most COMPLETION_SPLIT completions and yields a prefix block: the word so
far, its key and the key's list of completions.  A key's completions are
counted by the integer suffix table `_suffix_counts`, one pass through the
numbers backwards, children before parents; a count never rises along a
move, so the lists are filled in the same order from the children's.
Keys of one class have the same completions, so merging the states moves
no block boundary and changes no word or its order.
`iter_step_strings` flattens the blocks into word + tail, so the words
come out in the plain walk's order; the brute level statistics
(`stats._brute_counts`) count each distinct prefix of the blocks' words
once, weighted by the paths through it, and each distinct tail once per
level it is read from.  The split is 64 from
measurement (2-vCPU Xeon, CPython 3.11.7): on the 41,586 Schroder words
of x-length 16 the walk yields 1,578 blocks in about 0.005 s, where
stopping at x-length 2 gave 33,028 blocks and took 0.027-0.049 s; a split
of 128 is about as fast but raised criterion 3's tracemalloc peak from
0.67 to 0.99 MB.  The walk sums each word's packed weight on its stack
and fills each key's tails' packed weights with its tails, under the
weighting asked for or the family's default, so criterion 3
(`verification._certify`) and `verification._enumerated_weight` weigh a
word with one addition.  Weighted counting is one
forward pass over the numbers: the prefixes are merged by key, so its cost
grows with the number of keys, not of paths.  Plain counting
(`count_paths`) reads the start key's entry of the suffix table and sums
no weights.
Generation stops at x-length 12, or 9 for the unrestricted gmotzkin
family (whose free v steps inflate growth), and counting at 24, where a
weighted count takes under 0.02 s on every family of `paths` and every
G-Motzkin family the command line names (2-vCPU Xeon, CPython 3.11.7).
GPATHS_MAX_N in the environment
(ASCII digits only), or an explicit override argument, moves both caps;
the public entry points raise SizeLimitExceeded past them.

The counting side is exact integer/polynomial arithmetic throughout:
recurrence coefficients for the two generating-function equations, the
classical closed forms, the double/triple sums, and the ballot numbers
[x^m] C(x)^k extracted from the Catalan series.  Both generating-function
equations are quadratic, B G^2 - A G + C = 0 with B = x (b + cx), so
F = A - 2BG squares to the discriminant Delta = A^2 - 4BC
= 1 + sum delta_k x^k, of degree 4 or 2.  F is D-finite (Stanley, EC2
6.4): 2 Delta F' = Delta' F, which at [x^(n-1)] reads
2n f_n = sum_(1<=k<=deg Delta) (3k - 2n) delta_k f_(n-k), and [x^(n+1)]
of F = A - 2BG gives b g_n + c g_(n-1) = (A_(n+1) - f_(n+1)) / 2.  So
each g_n costs deg Delta products instead of the n/2 of [x^n] G^2.  G has
integer coefficients by its equation and so has F = A - 2BG, so the three
divisions, by 2n, by 2 and by b, are exact: a checked divmod per
coefficient and, by b, a check that every term holds b (_exact).  The
one body, `_quadratic_values`, runs on {packed exponents: coeff} dicts,
the encoding `weights.pack_exponents` gives the counting DP, so a product
by delta_k adds keys and no Polynomial is built inside the loop.  A packed
key cannot carry: delta_k and A_k have degree at most k, so every exponent
of f_n and g_n is at most n + 2, far below 2^31.

The explicit triple sums of Proposition 2.1 sum each monomial over k alone
(`prop21`), as one sum: `variant` is validated and selects nothing.  Its
three tables of binomials hold no entry that depends on n, so they are
built once and grown in place to the largest n asked so far, and each n's
polynomial is computed once and cached.
"""

from __future__ import annotations

import os
from functools import lru_cache
from math import comb, factorial
from operator import mul
from typing import Callable, Iterator

from .errors import SizeLimitExceeded
from .paths import STEP_GEOMETRY, PathFamily
from .series import TruncatedSeries, catalan_series
from .weights import A, B, C, DEFAULT_WEIGHTING, WEIGHTINGS, Polynomial, step_exponents
from .weights import pack_exponents, unpack_exponents

MAX_N_DEFAULT = 12
MAX_N_UNRESTRICTED_GMOTZKIN = 9
MAX_N_COUNT = 24  # the counting cap of weighted_count and count_paths
# _prefix_blocks walks keys with more completions than this and reads the
# rest of each word off a per-call list of completions (module docstring)
COMPLETION_SPLIT = 64
# a node of a family's key space: (x-length left, level, the representative
# of its automaton state's class)
Key = tuple[int, int, str]


def size_cap(
    family: PathFamily, max_n_override: int | None = None, counting: bool = False
) -> int:
    if max_n_override is not None:
        return max_n_override
    env = os.environ.get("GPATHS_MAX_N")
    if env:
        # int(env) alone would also take signs, spaces, "1_0" and other digits
        if not (env.isascii() and env.isdigit()):
            raise ValueError(
                "GPATHS_MAX_N must be a nonnegative integer in ASCII digits; "
                f"got {env!r}"
            )
        return int(env)
    if counting:
        return MAX_N_COUNT
    if family.base == "gmotzkin" and not family.avoid:
        return MAX_N_UNRESTRICTED_GMOTZKIN
    return MAX_N_DEFAULT


def _check_size(
    family: PathFamily,
    n: int,
    max_n_override: int | None,
    counting: bool = False,
    overridable: bool = False,
) -> None:
    """Refuse x-length n past the cap.  A cap set by an override (the
    caller's own, or verification's fixed one) gets no advice: size_cap
    reads GPATHS_MAX_N only without one.  Otherwise the advice names
    GPATHS_MAX_N, and an override only where the caller's own caller can
    pass one (overridable)."""
    cap = size_cap(family, max_n_override, counting)
    if n > cap:
        what = "counting" if counting else "exhaustive-enumeration"
        advice = ""
        if max_n_override is None:
            advice = "; raise GPATHS_MAX_N"
            advice += " or pass an explicit override" if overridable else ""
        raise SizeLimitExceeded(
            f"x-length {n} exceeds the {what} cap {cap} for "
            f"family {family.describe()!r}{advice}"
        )


# ---------------------------------------------------------------------------
# the step automaton, its key graph, the generation walk and the counting DP
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _automaton(family: PathFamily) -> tuple[dict, tuple[str, ...]]:
    """The family's word rules as a table (state, on_axis) -> moves.

    A state is the last two letters of the word so far ("" before the first
    step), so a state of fewer than two letters is the whole word; a move is
    (letter, dx, dy, next state), in alphabet order.  A prefix of one or two
    letters is checked on the word's first two letters.  The tuple gives the
    openings of a path, the family's prefixes or ("",): a word of two letters
    or more met them on its way, and a shorter one must start with one.
    """
    if any(not 1 <= len(p) <= 2 for p in family.prefixes):
        raise ValueError(
            f"family {family.describe()!r} has a prefix that is not one or two "
            "letters; the DFS supports prefixes of one or two letters"
        )
    if any(not 1 <= len(p) <= 3 for p in family.avoid):
        raise ValueError(
            f"family {family.describe()!r} avoids a factor longer than three "
            "letters; the DFS supports avoided factors of one to three letters"
        )
    alphabet, prefixes = family.alphabet, family.prefixes
    states = [""] + list(alphabet) + [x + y for x in alphabet for y in alphabet]
    table = {}
    for state in states:
        for on_axis in (False, True):
            moves = []
            for letter in alphabet:
                dx, dy = STEP_GEOMETRY[letter]
                word = state + letter
                if (
                    prefixes
                    and len(state) < 2
                    and not any(p.startswith(word) or word.startswith(p) for p in prefixes)
                ):
                    continue
                if any(word.endswith(p) for p in family.avoid):
                    continue
                if family.base == "colored_dyck" and letter == "D" and not state.endswith("u"):
                    continue
                if family.no_h_on_axis and on_axis and dy == 0:
                    continue
                moves.append((letter, dx, dy, word[-2:]))
            table[state, on_axis] = tuple(moves)
    return table, prefixes or ("",)


@lru_cache(maxsize=None)
def _quotient(family: PathFamily) -> tuple[dict, dict[str, bool], dict[str, str]]:
    """_automaton with its equivalent states merged: (table, accepts, rep).

    rep maps each state to its class's representative, the class's first
    state in _automaton's order ("" first, then by length), so the start
    state stays "".  table maps (representative, on_axis) to its moves
    (letter, dx, dy, next representative), in alphabet order, and
    accepts[representative] whether a word that ends in it, on the axis at
    x-length 0, is a path: a word of two letters or more met the family's
    openings on its way, and a shorter one must start with one.

    Two states are equivalent when they accept alike and, on and off the
    axis, take each letter to equivalent states with the same packed step
    weight, read after the state's last letter (step_exponents), under every
    weighting of WEIGHTINGS for the family's base.  Equivalent states have
    the same completions, and each completion weighs the same after either
    under every weighting, so the classes do not depend on the weighting.
    Partition refinement (Moore's; Hopcroft 1971 does it in n log n, which
    21 states do not need): from one class, each round splits the states by
    their signature over the last round's classes, until the number of
    classes stops changing.
    """
    table, openings = _automaton(family)
    states = list(dict.fromkeys(state for state, _ in table))
    weights = [
        step_exponents(family, name)
        for name, (bases, _) in WEIGHTINGS.items()
        if family.base in bases
    ]
    accepts = {state: len(state) == 2 or state.startswith(openings) for state in states}

    def signature(state: str) -> tuple:
        last = state[-1:]
        return accepts[state], tuple(
            tuple(
                (letter, dx, dy, rep[nxt], tuple(w[last][letter] for w in weights))
                for letter, dx, dy, nxt in table[state, on_axis]
            )
            for on_axis in (False, True)
        )

    rep = dict.fromkeys(states, "")
    while True:
        firsts: dict[tuple, str] = {}
        refined = {state: firsts.setdefault(signature(state), state) for state in states}
        if len(firsts) == len(set(rep.values())):
            break
        rep = refined
    reps = [state for state in states if rep[state] == state]
    quotient = {
        (state, on_axis): tuple(
            (letter, dx, dy, rep[nxt]) for letter, dx, dy, nxt in table[state, on_axis]
        )
        for state in reps
        for on_axis in (False, True)
    }
    return quotient, {state: accepts[state] for state in reps}, rep


def _key_graph(
    family: PathFamily, n: int, weighting: str
) -> tuple[list[Key], list[dict[str, tuple[int, int]]], list[bool]]:
    """The keys (x-length left, level, class) reachable from (n, 0, ""),
    numbered, with their moves: (keys, rows, accepting).

    A key's class is the representative of its automaton state's class
    (_quotient), so keys whose states complete alike are one key.  rows[i]
    is key i's {letter: (number of the next key, packed weight)} in
    alphabet order, and accepting[i] whether the words that reach key i are
    paths: x-length 0 on the axis, and a class that accepts.  A move keeps
    to the geometry: x-length left and level stay nonnegative, and without
    v (bounded) the level cannot exceed the x-length left.  A move weighs
    its letter after the last letter of its source's representative
    (step_exponents), which every state of the class agrees with; the
    moves into one key can weigh differently, so each row keeps its moves'
    weights until their next keys are numbered.

    Every move lowers the height 2 * x-length left + level (u and v by 1, d
    and D by 3, a horizontal step by 2 per unit of x-length), so the keys
    are numbered height by height from the top, each after every key that
    moves to it: every move goes to a higher number.  Until a key's height
    comes, its height's bucket holds the (row, letter) pairs that move to
    it.
    """
    table, accepts, _ = _quotient(family)
    weights_after = step_exponents(family, weighting)
    bounded = "v" not in family.alphabet
    keys: list[Key] = []
    rows: list[dict[str, tuple[int, int]]] = []
    accepting: list[bool] = []
    # height -> {key: row, letter, row, letter, ... of the moves to it}, in
    # first-reached order
    pending: dict[int, dict[Key, list]] = {2 * n: {(n, 0, ""): []}}
    while pending:
        for key, sources in pending.pop(max(pending)).items():
            i = len(keys)
            rem, level, state = key
            moves = iter(sources)
            for row, letter in zip(moves, moves):
                row[letter] = i, row[letter]
            row = {}
            after = weights_after[state[-1:]]
            for letter, dx, dy, nxt in table[state, level == 0]:
                rem2 = rem - dx
                lvl2 = level + dy
                if rem2 < 0 or lvl2 < 0 or (bounded and lvl2 > rem2):
                    continue
                # the move's weight, until its next key is numbered
                row[letter] = after[letter]
                pending.setdefault(2 * rem2 + lvl2, {}).setdefault(
                    (rem2, lvl2, nxt), []
                ).extend((row, letter))
            keys.append(key)
            rows.append(row)
            accepting.append(rem == level == 0 and accepts[state])
    return keys, rows, accepting


def _weigher(rows: list[dict], accepting: list[bool]) -> Callable[[str], int | None]:
    """The packed exponent triple of a word if the word is a path of the key
    graph (rows, accepting) of _key_graph, under its weighting, else None,
    without enumerating the paths: the word walks the rows from the start,
    adding its steps' weights, and must end on an accepting key."""

    def weigh(word: str) -> int | None:
        i = packed = 0
        try:
            for letter in word:
                i, w = rows[i][letter]
                packed += w
        except KeyError:
            return None
        return packed if accepting[i] else None

    return weigh


def _suffix_counts(
    rows: list[dict[str, tuple[int, int]]], accepting: list[bool]
) -> list[int]:
    """The number of completions of each key of _key_graph, by number: the
    words that take it to an accepting key, the empty word included if it
    accepts.  One pass through the numbers backwards reaches every key after
    the keys it moves to (Stanley, EC1 4.7), so a key's count is its
    children's counts summed, plus one if it accepts.
    """
    counts = [0] * len(rows)
    for i in range(len(rows) - 1, -1, -1):
        counts[i] = accepting[i] + sum(counts[j] for j, _ in rows[i].values())
    return counts


def _prefix_blocks(
    family: PathFamily, n: int, weighting: str | None = None
) -> Iterator[tuple[str, Key, list[str], int, list[int]]]:
    """The words of iter_step_strings as blocks (word, key, tails, weight,
    tail_weights), in DFS order: every word + tail, tail in tails, is a
    word of the family, and weighs weight + tail_weight.

    It reads _key_graph under weighting, or under the family's default
    weighting if there is none.  A key's completion count (_suffix_counts)
    is at least each of its children's, so going through the numbers
    backwards fills the tails of every key with at most COMPLETION_SPLIT
    completions from its children's: move by move in alphabet order, the
    move's letter followed by each tail of the key it moves to, and each
    tail's packed weight with it, the move's weight plus the tail's.  The
    walk proper is an explicit-stack DFS over the keys with more; a key
    with at most the split ends a block, word is the prefix that reached
    it and tails its completions, one list per key.  weight is the word's
    packed weight, summed on the stack, and tail_weights[i] the packed
    weight of tails[i] after the key's last letter, so one read of the rows
    weighs every word.  It does not check the size cap: its callers do.
    """
    keys, rows, accepting = _key_graph(
        family, n, weighting or DEFAULT_WEIGHTING[family.base]
    )
    counts = _suffix_counts(rows, accepting)
    # tails[i] is None for a key above the split
    tails: list[list[str] | None] = [None] * len(keys)
    tail_weights: list[list[int] | None] = [None] * len(keys)
    shared: dict[int, int] = {}
    for i in range(len(keys) - 1, -1, -1):
        if counts[i] <= COMPLETION_SPLIT:
            out = [""] if accepting[i] else []
            sums = [0] if accepting[i] else []
            for letter, (j, w) in rows[i].items():
                out.extend([letter + tail for tail in tails[j]])
                sums.extend([w + s for s in tail_weights[j]])
            tails[i] = out
            # the tails take few distinct weights: one int object each
            tail_weights[i] = [shared.setdefault(s, s) for s in sums]
    stack = [(0, "", 0)]
    while stack:
        i, word, weight = stack.pop()
        if tails[i] is not None:
            yield word, keys[i], tails[i], weight, tail_weights[i]
            continue
        # last move first, so the moves are popped in alphabet order
        for letter, (j, w) in reversed(rows[i].items()):
            stack.append((j, word + letter, weight + w))


def iter_step_strings(
    family: PathFamily, n: int, max_n_override: int | None = None
) -> Iterator[str]:
    """All step strings of the family with x-length n, in DFS order: each
    prefix block of the walk, flattened."""
    _check_size(family, n, max_n_override, overridable=True)
    for word, _, tails, _, _ in _prefix_blocks(family, n):
        for tail in tails:
            yield word + tail


def count_paths(family: PathFamily, n: int, max_n_override: int | None = None) -> int:
    """The number of paths: the start key's completion count
    (_suffix_counts), an integer DP over _key_graph that sums no weights."""
    _check_size(family, n, max_n_override, counting=True, overridable=True)
    _, rows, accepting = _key_graph(family, n, DEFAULT_WEIGHTING[family.base])
    return _suffix_counts(rows, accepting)[0]


def weighted_count(
    family: PathFamily,
    n: int,
    weighting: str,
    max_n_override: int | None = None,
) -> Polynomial:
    """Sum of monomial weights over every path of x-length n.

    A transfer-matrix DP over _key_graph: every prefix that reaches the
    same (x-length left, level, state) key extends the same way, so each
    key holds the packed exponent triples of its prefixes with their
    multiplicities.  Every move goes to a higher number, so a key's sums
    are complete when the forward pass over the numbers comes to it; it
    drops them, keeps them if it accepts, and pushes them along its moves.
    """
    _check_size(family, n, max_n_override, counting=True, overridable=True)
    rows, accepting = _key_graph(family, n, weighting)[1:]
    sums_at: list[dict[int, int] | None] = [None] * len(rows)
    sums_at[0] = {0: 1}
    acc: dict[int, int] = {}
    for i, row in enumerate(rows):
        # each row and its sums are dropped once read
        rows[i] = None
        sums = sums_at[i]
        sums_at[i] = None
        if accepting[i]:
            for packed, k in sums.items():
                acc[packed] = acc.get(packed, 0) + k
        for j, w in row.values():
            target = sums_at[j]
            if target is None:
                target = sums_at[j] = {}
            for packed, k in sums.items():
                packed += w
                target[packed] = target.get(packed, 0) + k
    return Polynomial._from_packed(acc)


# ---------------------------------------------------------------------------
# recurrences for the two generating-function equations
# ---------------------------------------------------------------------------

_B_KEY = pack_exponents((0, 1, 0))
_C_KEY = pack_exponents((0, 0, 1))


def _add(total: dict[int, int], coeff: int, key: int, terms: dict[int, int]) -> None:
    """total += coeff m terms on {packed exponents: coeff} dicts, where m is
    the monomial whose packed exponents are key."""
    for e, k in terms.items():
        e += key
        total[e] = total.get(e, 0) + coeff * k


def _exact(terms: dict[int, int], divisor: int, name: str, by_b=False) -> dict:
    """terms / divisor, and / b too if by_b, zeros dropped: a remainder or,
    by b, a term with no b raises ArithmeticError, not a wrong g_n."""
    out = {}
    for e, k in terms.items():
        quotient, remainder = divmod(k, divisor)
        if remainder:
            raise ArithmeticError(f"the division by {name} leaves a remainder")
        if quotient and by_b:
            if not unpack_exponents(e)[1]:
                raise ArithmeticError("the division by b leaves a remainder")
            e -= _B_KEY
        if quotient:
            out[e] = quotient
    return out


def _packed(p: Polynomial) -> dict[int, int]:
    return {pack_exponents(e): k for e, k in p.terms.items()}


def _quadratic_values(n_max: int, delta: tuple, a_tail: tuple) -> list[Polynomial]:
    """g_0 .. g_n_max of the root G = 1 + O(x) of B G^2 - A G + C = 0,
    B = x (b + cx), through F = A - 2BG (module docstring), where delta is
    delta_1 .. of Delta = A^2 - 4BC and a_tail is A_1 .. of A.  f_n and
    g_n are {packed exponents: coeff} dicts until they are returned."""
    delta = [_packed(d) for d in delta]
    a_tail = [_packed(t) for t in a_tail]
    f = [{0: 1}]
    g = []
    for n in range(1, n_max + 2):
        total: dict[int, int] = {}
        for k, d in enumerate(delta[:n], 1):
            for ed, kd in d.items():
                _add(total, (3 * k - 2 * n) * kd, ed, f[n - k])
        f.append(_exact(total, 2 * n, "2n"))
        # 2b g_(n-1) = A_n - f_n - 2c g_(n-2)
        twice = dict(a_tail[n - 1]) if n <= len(a_tail) else {}
        _add(twice, -1, 0, f[n])
        if n >= 2:
            _add(twice, -2, _C_KEY, g[n - 2])
        g.append(_exact(twice, 2, "2", by_b=True))
    return [Polynomial._from_packed(p) for p in g]


def guvu_coeffs(n_max: int) -> list[Polynomial]:
    """Weighted counts of uvu-avoiding paths, from
    G = 1 + bx + (a-b+abx) x G + (b+cx) x G^2, coefficientwise.

    That is B G^2 - A G + C = 0 with B = x (b + cx), A = 1 - (a-b)x - abx^2
    and C = 1 + bx, so Delta = A^2 - 4BC has delta_1 .. delta_4 = -2a - 2b,
    a^2 - 4ab - 3b^2 - 4c, 2a^2 b - 2ab^2 - 4bc, a^2 b^2, and F = sqrt(Delta)
    satisfies 2 Delta F' = Delta' F, so 2n f_n = sum_(k<=4) (3k - 2n)
    delta_k f_(n-k) (module docstring).
    """
    a, b, c = A, B, C
    return _quadratic_values(
        n_max,
        (-2 * a - 2 * b, a * a - 4 * a * b - 3 * b * b - 4 * c,
         2 * a * a * b - 2 * a * b * b - 4 * b * c, a * a * b * b),
        (b - a, -a * b),
    )


def gfull_coeffs(n_max: int) -> list[Polynomial]:
    """Weighted counts of unrestricted paths, from
    G = 1 + a x G + b x G^2 + c x^2 G^2, coefficientwise.

    That is B G^2 - A G + C = 0 with B = x (b + cx), A = 1 - ax and C = 1,
    so Delta = A^2 - 4BC has delta_1, delta_2 = -2a - 4b, a^2 - 4c, and
    F = sqrt(Delta) satisfies 2 Delta F' = Delta' F, so 2n f_n =
    sum_(k<=2) (3k - 2n) delta_k f_(n-k) (module docstring).
    """
    a, b, c = A, B, C
    return _quadratic_values(n_max, (-2 * a - 4 * b, a * a - 4 * c), (-a,))


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


def _little_schroder_ab(n: int) -> Polynomial:
    """s_n = b S_n / (a + b) for n >= 1, since s = S / (1 + a x S) and
    S = 1 + a x S + b x S^2: by synthetic division, the coefficients of s_n
    are the alternating partial sums of S_n's, the last equal to S_n's last."""
    if n == 0:
        return Polynomial.const(1)
    big, terms, t = _schroder_ab(n).terms, {}, 0
    for k in range(n):
        t = big[n - k, k, 0] - t
        terms[n - k - 1, k + 1, 0] = t
    if t != big[0, n, 0]:
        raise ArithmeticError("the division by a + b leaves a remainder")
    return Polynomial(terms)


CLOSED_FORMS = {
    "dyck_ab": _dyck_ab,
    "motzkin_ab": _motzkin_ab,
    "schroder_ab": _schroder_ab,
    "little_schroder_ab": _little_schroder_ab,
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
    """The uvu-avoiding weighted count as an explicit triple sum.

    With sgn(k, el) = (-1)^el gbinom(k+el-1, el), both variants sum over
    k >= 0, 0 <= j <= k and 0 <= el <= n-k-j:
    first, sgn(k, el) comb(k, j) C_k comb(n+k-j-el, 2k) a^(n-k-j-el)
    b^(k+el-j) c^j; second, sgn(k, m) comb(k, j) C_k comb(2k+el, el) a^el
    b^(n-2j-el) c^j at m = n-k-j-el.  Each monomial a^r b^s c^j (r + s +
    2j = n) is summed once, over k alone: in the first el = s + j - k,
    in the second el = r and m = s + j - k.  So k runs from j to t = s + j
    in both, the sign factor is the anti-diagonal (-1)^(t-k) gbinom(t-1,
    t-k), and the binomial is the first's comb(n+k-j-el, 2k) = comb(r+2k,
    2k), which is the second's comb(2k+el, el) at el = r.  After this
    re-indexing the two variants are term-for-term equal, so `variant` is
    validated and selects nothing: one sum, cached per n, serves both.  Its
    tables hold no entry that depends on n, so they are built once and
    grown in place to the largest n asked so far; it never reads the
    recurrence.
    """
    if variant not in ("first", "second"):
        raise ValueError("variant must be 'first' or 'second'")
    return _prop21(n)


# prop21's tables, none of whose entries depends on n: sign[t][k] =
# (-1)^(t-k) gbinom(t-1, t-k), kcat[j][k] = comb(k, j) C_k and binom[r][k] =
# comb(r+2k, 2k), for t, r <= n, j <= n/2 and k up to n - j or n - r, where n
# is the largest size asked so far; a larger n extends them in place
_prop21_tables: tuple[list[list[int]], ...] = ([], [], [])


@lru_cache(maxsize=None)
def _prop21(n: int) -> Polynomial:
    sign, kcat, binom = _prop21_tables
    if n >= len(sign):
        cat = [catalan_number(k) for k in range(n + 1)]
        for t in range(len(sign), n + 1):
            sign.append([(-1) ** (t - k) * gbinom(t - 1, t - k) for k in range(t + 1)])
            binom.append([])
        kcat += [[] for _ in range(len(kcat), n // 2 + 1)]
        for j, row in enumerate(kcat):
            row += [comb(k, j) * cat[k] for k in range(len(row), n - j + 1)]
        for r, row in enumerate(binom):
            row += [comb(r + 2 * k, 2 * k) for k in range(len(row), n - r + 1)]
    terms: dict[tuple[int, int, int], int] = {}
    for j in range(n // 2 + 1):
        for s in range(n - 2 * j + 1):
            r, t = n - 2 * j - s, s + j
            terms[r, s, j] = sum(map(
                mul, map(mul, sign[t][j:t + 1], kcat[j][j:t + 1]), binom[r][j:t + 1]
            ))
    return Polynomial._from_terms(terms)


# ---------------------------------------------------------------------------
# ballot numbers
# ---------------------------------------------------------------------------


# C^0, C^1, ... of one Catalan series, grown on demand; a coefficient past
# its order rebuilds it at twice the order, or at m if that is higher
_catalan_powers = [TruncatedSeries([1], 0), catalan_series(0)]


@lru_cache(maxsize=None)
def ballot_coeff(m: int, k: int) -> int:
    """[x^m] C(x)^k, extracted from the Catalan series itself."""
    if k < 0:
        raise ValueError(f"ballot numbers [x^m] C^k need k >= 0; got k={k}")
    if m < 0:
        return 0
    powers = _catalan_powers
    if m > powers[0].order:
        order = max(m, 2 * powers[0].order)
        powers[:] = [TruncatedSeries([1], order), catalan_series(order)]
    while len(powers) <= k:
        powers.append(powers[-1] * powers[1])
    value = powers[k].coeff(m)
    if not isinstance(value, int):
        raise TypeError(f"ballot number [x^{m}] C^{k} is {value!r}, not an int")
    return value


def ballot_closed_form(m: int, k: int) -> int:
    """k/(2m+k) * binom(2m+k, m); the independent cross-check."""
    if k < 0:
        raise ValueError(f"ballot numbers [x^m] C^k need k >= 0; got k={k}")
    if m <= 0:
        return int(m == 0)
    num = k * comb(2 * m + k, m)
    if num % (2 * m + k):
        raise ArithmeticError(f"{k} C({2 * m + k},{m}) is not divisible by {2 * m + k}")
    return num // (2 * m + k)
