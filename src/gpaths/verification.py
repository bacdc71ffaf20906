"""Cross-checking suites: every formula against enumeration and each other.

Each check compares two or more independently computed values: exhaustive
enumeration against recurrences, closed forms against substitution
identities, bijections against round trips, weight preservation and a
count of the codomain, statistic tables against their frozen reference
rows.  The frozen sequences and tables below are the reference data;
nothing in here derives them from the code under test.

Criteria 1, 2 and 4-7 are lists of claims.  `_claim(name, cases)` reads
cases (at, got, want): where the case stands (a size n, or an entry
(n, i)) and the values two routes give there, tuples where a claim joins
several equalities.  The cases are generated lazily and read in order, so
a passing check computes each once and a failing one stops at its first
difference, which it keeps as its detail "at ...: got ..., want ...".
Criterion 3's worked examples are claims too, one case per example.

Criterion 3 is table-driven: `CERTIFICATIONS` gives each map of
`bijections.BIJECTIONS` its sizes, the x-lengths a size stands for in the
domain and codomain, optional prefixes that narrow a side's walk and
filters on its step strings, and its worked examples.  The maps and
families themselves are read from the registry, so a registered map is
certified exactly as it is dispatched: the public Path maps apply the
row's string maps, which certification calls a chunk of domain words at a
time (`_CHUNK`), and word by word in a chunk that fails, to word each
check's first counterexample.  Rows whose domain walks are the same (sigma
and psi) are certified in one walk, where a `bijections.Composite` runs
part by part and a part another row also runs is answered by that row's
call on the chunk.  At each size
f: A_n -> B_n is a bijection, since the inverse takes every image back to
its domain word (f is injective), every image is accepted by B_n's step
automaton and filter (f maps into B_n), and as many images are accepted as
B_n has paths (f is onto): its transfer-matrix count, or with a filter the
words its enumeration keeps; the count and the enumeration read one key
graph with one pruning rule.  One walk of each image over the automaton
both accepts it and weighs it, and the weight must equal its domain
word's, which the domain's walk gives as a block's weight plus a tail's;
both are packed ints, unpacked only to word a fault.  No set of paths is
held: a failed size is worded from the same walk.

The four suites (counts, bijections, stats, identities) power both the CLI
verify subcommand and the acceptance test module.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, replace
from itertools import chain, compress, zip_longest
from math import comb
from types import MappingProxyType

from . import bijections as bij
from .enumeration import (
    MAX_N_COUNT,
    Key,
    _check_size,
    _key_graph,
    _prefix_blocks,
    _suffix_counts,
    _weigher,
    ballot_closed_form,
    ballot_coeff,
    catalan_number,
    closed_form,
    count_paths,
    gbinom,
    guvu_coeffs,
    iter_step_strings,
    prop21,
    weighted_count,
)
from .errors import GPathError
from .paths import (
    DYCK,
    GMOTZKIN,
    GMOTZKIN_UVU,
    MOTZKIN,
    SCHRODER,
    PathFamily,
    parse,
)
from .series import guvu_series_at
from .stats import _check_brute_rows, methods_for, stat_brute, stat_formula
from .stats import stat_riordan, stat_table
from .weights import (
    A, B, DEFAULT_WEIGHTING, ZERO, Polynomial, packed_weight, unpack_exponents
)

# ---------------------------------------------------------------------------
# frozen reference data
# ---------------------------------------------------------------------------

CATALAN = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796)
MOTZKIN_NUMBERS = (1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188)
SCHRODER_NUMBERS = (
    1, 2, 6, 22, 90, 394, 1806, 8558, 41586, 206098, 1037718,
)
LITTLE_SCHRODER_NUMBERS = (
    1, 1, 3, 11, 45, 197, 903, 4279, 20793, 103049, 518859,
)
# weighted counts at (1,0,2) and (-3,4,16)
SEQ_A025235 = (1, 1, 3, 7, 21, 61, 191, 603, 1961, 6457, 21595)
SEQ_A059231 = (1, 1, 5, 29, 185, 1257, 8925, 65445, 491825, 3768209, 29324405)

GOLDEN_U = (
    (1,),
    (5, 1),
    (25, 9, 1),
    (121, 61, 13, 1),
    (593, 369, 113, 17, 1),
    (2941, 2121, 825, 181, 21, 1),
    (14777, 11881, 5489, 1553, 265, 25, 1),
)
GOLDEN_V = (
    (1,),
    (4, 1),
    (20, 8, 1),
    (96, 52, 12, 1),
    (472, 308, 100, 16, 1),
    (2348, 1752, 712, 164, 20, 1),
    (11836, 9760, 4664, 1372, 244, 24, 1),
)
GOLDEN_H = (
    (1,),
    (4, 1),
    (16, 8, 1),
    (68, 48, 12, 1),
    (304, 264, 96, 16, 1),
    (1412, 1408, 652, 160, 20, 1),
    (6752, 7432, 4080, 1296, 240, 24, 1),
)
GOLDEN_P = (
    (1,),
    (4, 1),
    (15, 7, 1),
    (63, 42, 11, 1),
    (279, 230, 86, 15, 1),
    (1291, 1226, 578, 146, 19, 1),
    (6159, 6470, 3598, 1166, 222, 23, 1),
)
# the d-step table coincides with the u-step table by matching-step transfer
GOLDEN_TABLES = {
    "U": GOLDEN_U,
    "V": GOLDEN_V,
    "D": GOLDEN_U,
    "H": GOLDEN_H,
    "P": GOLDEN_P,
}

FIGURE_SIGMA_IN = "uuuvhudvvhuuuuuvdvvvud"
FIGURE_SIGMA_OUT = "uduudHuudddHuduuduuudddduudd"
FIGURE_THETA_IN = "uhhhuhuhhuhuvhvvuddvhhhuhhuhvuvdhuhd"
FIGURE_THETA_OUT = "uaabuuaubaddbbddaaabuaudbdabud"
FIGURE_PIPE_IN = "huhvuhdhuhuhuduvdv"
FIGURE_PIPE_MID = "audbudaububbbdd"
FIGURE_PIPE_OUT = "uuduuddduudduduuudduuuuudddddd"
PHI_EXAMPLE_IN = "uduuDuduuuDddduD"
PHI_EXAMPLE_OUT = "uduHuduuHdddH"

# Dyck/Schroder semilength 10 means x-length 20, past the generation cap;
# counts that large come from the transfer-matrix DP, not from enumeration.
_CAP = MAX_N_COUNT
# the stats suite's default last row: the frozen statistic tables stop there
_STATS_ROWS = 6
# least domain words per chunk of criterion 3 (_chunks): 256 ran no faster, and
# each 128 words more add 0.05 MB to check_bijections()' heap peak of 0.66 MB
_CHUNK = 128


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        suffix = f": {self.detail}" if self.detail and not self.ok else ""
        return f"{status} {self.name}{suffix}"


def _claim(name: str, cases: Iterable[tuple[object, object, object]]) -> CheckResult:
    """The check that got == want in every case (at, got, want), read in
    order and only up to the first that differs, which is its detail."""
    for at, got, want in cases:
        if got != want:
            return CheckResult(name, False, f"at {at}: got {got}, want {want}")
    return CheckResult(name, True)


def _enumerated_weight(family: PathFamily, n: int, weighting: str) -> Polynomial:
    """The weight polynomial summed over the generated paths, independently
    of the transfer-matrix DP behind weighted_count: every weight comes from
    packed_weight, once per block's word of _prefix_blocks and once per
    key's tail, which is weighed after the word's last letter so that a
    peak across the two counts."""

    def weigh(steps: str) -> int:
        return packed_weight(steps, weighting, family.base)

    _check_size(family, n, _CAP)
    terms: Counter[int] = Counter()
    after_key: dict[Key, list[int]] = {}
    for word, key, tails, _, _ in _prefix_blocks(family, n):
        if key not in after_key:
            last = word[-1:]
            after_key[key] = [weigh(last + tail) - weigh(last) for tail in tails]
        terms.update(map(weigh(word).__add__, after_key[key]))
    return Polynomial._from_packed(terms)


# ---------------------------------------------------------------------------
# criterion 1: statistic tables by every route
# ---------------------------------------------------------------------------


def check_stat_tables(n_max: int = 6) -> list[CheckResult]:
    # zip_longest: a table short of a row differs from its reference there
    return [
        _claim(
            f"stat table {stat} via {method} matches reference rows 0..{n_max}",
            ((n, *rows) for n, rows in enumerate(zip_longest(
                stat_table(stat, method, n_max).rows, golden[: n_max + 1]
            ))),
        )
        for stat, golden in GOLDEN_TABLES.items()
        for method in methods_for(stat)
    ]


# ---------------------------------------------------------------------------
# criterion 2: the weighted counts against their specializations
# ---------------------------------------------------------------------------


def _second_triple_sum(n: int) -> Polynomial:
    """Proposition 2.1's second explicit triple sum, term by term: over
    k >= 0, 0 <= j <= k and 0 <= el <= n-k-j, sgn(k, m) comb(k, j) C_k
    comb(2k+el, el) a^el b^(n-2j-el) c^j at m = n-k-j-el, with sgn(k, m) =
    (-1)^m gbinom(k+m-1, m).  prop21 re-indexes both sums into one sum per
    monomial, so this literal sum is the second route its check compares."""
    terms: dict[tuple[int, int, int], int] = {}
    for k in range(n + 1):
        cat = catalan_number(k)
        for j in range(k + 1):
            for el in range(n - k - j + 1):
                m = n - k - j - el
                sign = (-1) ** m * gbinom(k + m - 1, m)
                e = (el, n - 2 * j - el, j)
                terms[e] = terms.get(e, 0) + sign * comb(k, j) * cat * comb(2 * k + el, el)
    return Polynomial._from_terms(terms)


def check_weighted_counts(n_max: int = 10) -> list[CheckResult]:
    g = guvu_coeffs(n_max)
    sizes = range(n_max + 1)
    sym_max = min(n_max, 8)
    # "brute" in these three names is historical: the counts are the start
    # entries of the integer suffix-count table over the key graph
    # (count_paths); the names stay for byte-identical verify output
    results = [
        _claim(
            f"brute {label} up to n={n_max}",
            ((n, count_paths(family, x_per_n * n, _CAP), seq[n]) for n in sizes),
        )
        for label, family, x_per_n, seq in (
            ("Dyck counts match the Catalan numbers", DYCK, 2, CATALAN),
            ("Motzkin counts match the Motzkin numbers", MOTZKIN, 1, MOTZKIN_NUMBERS),
            ("Schroder counts match the Schroder numbers", SCHRODER, 2, SCHRODER_NUMBERS),
        )
    ] + [
        _claim(
            f"recurrence at {label}",
            ((n, g[n].eval_at(*point), seq[n]) for n in sizes),
        )
        for point, seq, label in (
            ((0, 1, 1), CATALAN, "(0,1,1) gives the Catalan numbers"),
            ((1, 0, 1), MOTZKIN_NUMBERS, "(1,0,1) gives the Motzkin numbers"),
            ((1, 1, 1), SCHRODER_NUMBERS, "(1,1,1) gives the Schroder numbers"),
            ((1, 0, 2), SEQ_A025235, "(1,0,2) gives the A025235 sequence"),
            ((-3, 4, 16), SEQ_A059231, "(-3,4,16) gives the A059231 sequence"),
        )
    ]
    # path-by-path enumeration of the weighted family itself, symbolically (small n)
    results.append(_claim(
        f"recurrence equals the enumerated weight polynomial up to n={sym_max}",
        ((n, _enumerated_weight(GMOTZKIN_UVU, n, "gmotzkin_abc"), g[n])
         for n in range(sym_max + 1)),
    ))
    results += [
        _claim(
            f"{variant} explicit triple sum equals the recurrence up to n={n_max}",
            ((n, triple_sum(n), g[n]) for n in sizes),
        )
        for variant, triple_sum in (("first", prop21), ("second", _second_triple_sum))
    ]
    for point in ((1, 0, 2), (-3, 4, 16)):
        series = guvu_series_at(*point, order=n_max)
        results.append(_claim(
            f"composite-series route agrees at weights {point}",
            ((n, series.coeff(n), g[n].eval_at(*point)) for n in sizes),
        ))
    return results


# ---------------------------------------------------------------------------
# criterion 3: bijection certification
# ---------------------------------------------------------------------------

# the bijections preserve the c = b^2 specialization on gmotzkin paths
_WEIGHTING_OF = {**DEFAULT_WEIGHTING, "gmotzkin": "gmotzkin_ab_bsq"}


@dataclass(frozen=True)
class Certification:
    """How criterion 3 certifies one map of `bijections.BIJECTIONS`.

    Size n pairs the domain paths of x-length dom_scale*n with the codomain
    paths of x-length cod_scale*n.  A side with prefixes walks only the
    paths that open with one of them (one or two letters, in place of the
    family's own), and a side with a filter keeps only the step strings it
    accepts; the prefixes cut the walk, the filter tests each word.  Each
    example is a check name with its (map, input, forward image) cases.
    """

    sizes: Callable[[int, int], range]  # (n_max, theta_n_max) -> sizes
    dom_scale: int
    cod_scale: int
    examples: tuple[tuple[str, tuple[tuple[str, str, str], ...]], ...] = ()
    dom_prefixes: tuple[str, ...] = ()
    cod_prefixes: tuple[str, ...] = ()
    dom_filter: Callable[[str], bool] | None = None
    cod_filter: Callable[[str], bool] | None = None


# in verify's check order, which is not the registry's
CERTIFICATIONS: Mapping[str, Certification] = MappingProxyType({
    "sigma": Certification(lambda n, t: range(n + 1), 1, 2, (
        ("sigma reproduces the worked 15-step example",
         (("sigma", FIGURE_SIGMA_IN, FIGURE_SIGMA_OUT),)),
    )),
    "theta": Certification(lambda n, t: range(t + 1), 1, 1, (
        ("theta reproduces the worked 30-step example",
         (("theta", FIGURE_THETA_IN, FIGURE_THETA_OUT),)),
    )),
    "phi_peak": Certification(lambda n, t: range(0, 2 * n + 1, 2), 1, 1, (
        ("phi_peak reproduces the worked example",
         (("phi_peak", PHI_EXAMPLE_IN, PHI_EXAMPLE_OUT),)),
    )),
    "vartheta": Certification(
        lambda n, t: range(1, n + 1), 2, 2,
        (("vartheta reproduces the three worked examples", (
            ("vartheta", "udH", "Hud"),
            ("vartheta", "udHH", "HuHd"),
            ("vartheta", "uduuddH", "Huuddud"),
        )),),
        dom_prefixes=("ud",),
        cod_prefixes=("H",),
        # has an H on the axis
        dom_filter=lambda p: bij._axis_scan("vartheta", p, 0)[0] >= 0,
        # ends with d, and has no H on the axis after the first letter
        cod_filter=lambda p: p.endswith("d") and bij._axis_scan("vartheta", p, 1)[0] < 0,
    ),
    "rho": Certification(lambda n, t: range(n + 1), 1, 1, (
        ("rho reproduces the worked examples",
         (("rho", "hh", "aa"), ("rho", "uv", "b"), ("rho", "uhd", "bab"))),
    )),
    "varphi": Certification(lambda n, t: range(1, n + 1), 1, 2, (
        ("varphi reproduces its base cases and the worked example", (
            ("varphi", "a", "ud"), ("varphi", "aa", "udud"),
            ("varphi", "ab", "uudd"), ("varphi", "aud", "uduudd"),
        )),
        ("theta then varphi reproduces the worked 15-step pipeline", (
            ("theta", FIGURE_PIPE_IN, FIGURE_PIPE_MID),
            ("varphi", FIGURE_PIPE_MID, FIGURE_PIPE_OUT),
        )),
    )),
    "psi": Certification(lambda n, t: range(1, n + 1), 1, 1, (
        ("psi sends the length-1 paths to the two flavored marks",
         (("psi", "h", "a"), ("psi", "uv", "A"))),
    )),
    "varphi_theta": Certification(lambda n, t: range(1, n + 1), 1, 2),
})


def _narrowed(family: PathFamily, prefixes: tuple[str, ...]) -> PathFamily:
    return replace(family, prefixes=prefixes) if prefixes else family


def _round_trip(
    forward: Callable[[str], str], inverse: Callable[[str], str], steps: str
) -> tuple[str | None, str]:
    """(image, fault): the image of steps, None if the forward map raises,
    and the round trip's counterexample, "" if it gives steps back."""
    try:
        image = forward(steps)
    except GPathError as exc:
        return None, f"forward map raises at {steps!r}: {exc}"
    try:
        back = inverse(image)
    except GPathError as exc:
        return image, f"round trip fails at {steps!r} -> {image!r}: {exc}"
    if back != steps:
        return image, f"round trip fails at {steps!r} -> {image!r} -> {back!r}"
    return image, ""


def _walk_of(name: str) -> tuple[PathFamily, int, Callable[[str], bool] | None]:
    """The domain walk that certifies a row: the rows with the same walked
    family, scale and filter, and so the same weighting, map the same
    words, and _certify certifies them in one walk."""
    cert = CERTIFICATIONS[name]
    dom = _narrowed(bij.BIJECTIONS[name].domain, cert.dom_prefixes)
    return dom, cert.dom_scale, cert.dom_filter


def _apply(memo: dict, f: bij.StringMap, words: list[str]) -> list[str]:
    """The images of words under f, a bij.Composite part by part.  Each
    plain map keeps its call in memo as (words, images), which answers a
    later call on an equal list; the string maps are pure without a trace,
    so images kept for another row are still right."""
    if isinstance(f, bij.Composite):
        return _apply(memo, f.second, _apply(memo, f.first, words))
    kept = memo.get(f)
    if kept is None or kept[0] != words:
        kept = memo[f] = words, list(map(f, words))
    return kept[1]


def _chunks(
    family: PathFamily, n: int, weighting: str, keep: Callable[[str], bool] | None
) -> Iterator[tuple[list[str], list[int]]]:
    """The words of iter_step_strings that keep (if any) accepts and their
    packed weights, in lists filled block by block of _prefix_blocks and
    given out once they hold _CHUNK words or the walk ends."""
    words, wants = [], []
    for word, _, tails, weight, tail_weights in _prefix_blocks(family, n, weighting):
        steps = [word + tail for tail in tails]
        weights = [weight + w for w in tail_weights]
        if keep is not None:
            kept = list(map(keep, steps))
            steps, weights = compress(steps, kept), compress(weights, kept)
        words += steps
        wants += weights
        if len(words) >= _CHUNK:
            yield words, wants
            words, wants = [], []
    if words:
        yield words, wants


class _Row:
    """One registry row in a walk of _certify: its string maps, its
    codomain, and each check's first counterexample."""

    def __init__(self, name: str):
        spec, cert = bij.BIJECTIONS[name], CERTIFICATIONS[name]
        self.name = name
        self.forward, self.inverse = spec.forward_steps, spec.inverse_steps
        self.cod = _narrowed(spec.codomain, cert.cod_prefixes)
        self.cod_scale, self.keep = cert.cod_scale, cert.cod_filter
        self.round_fault = self.weight_fault = self.image_fault = ""

    def checker(self, n: int, memo: dict) -> Callable[[list[str], list[int]], None]:
        """The checks of a chunk of domain words of size n against their
        packed weights, as a whole (a refused image weighs None) and word by
        word if that fails; accepted counts the images the codomain accepts
        at this size, and paths its paths."""
        forward, inverse, keep = self.forward, self.inverse, self.keep
        cod_n = self.cod_scale * n
        _check_size(self.cod, cod_n, _CAP, counting=True)
        _, rows, accepting = _key_graph(self.cod, cod_n, _WEIGHTING_OF[self.cod.base])
        weigh = _weigher(rows, accepting)
        if keep is None:
            self.paths = _suffix_counts(rows, accepting)[0]
        else:
            self.paths = sum(map(keep, iter_step_strings(self.cod, cod_n, _CAP)))
        self.accepted = 0

        def check(steps: str, want: int) -> None:
            image, fault = _round_trip(forward, inverse, steps)
            self.round_fault = self.round_fault or fault
            if image is None:
                return
            got = weigh(image)
            if got is None or (keep and not keep(image)):
                self.image_fault = self.image_fault or (
                    f"image not in the codomain at {steps!r} -> {image!r}"
                )
                return
            self.accepted += 1
            if got != want and not self.weight_fault:
                self.weight_fault = (
                    f"weight not preserved at {steps!r} -> {image!r}: "
                    f"{unpack_exponents(want)} != {unpack_exponents(got)}"
                )

        def check_chunk(words: list[str], wants: list[int]) -> None:
            try:
                images = _apply(memo, forward, words)
                passed = (
                    _apply(memo, inverse, images) == words
                    and list(map(weigh, images)) == wants
                    and (keep is None or all(map(keep, images)))
                )
            except GPathError:
                passed = False
            if passed:
                self.accepted += len(words)
            else:
                for steps, want in zip(words, wants):
                    check(steps, want)

        return check_chunk

    def close(self, n: int) -> None:
        """The onto check of size n, once its walk is done: the accepted
        images must be as many as the codomain's paths, and, since every
        round trip shows the map is injective, none may fail."""
        if self.image_fault:
            return
        if self.accepted != self.paths:
            self.image_fault = (
                f"image count differs at n={n}: "
                f"{self.accepted} accepted, {self.paths} in the codomain"
            )
        elif self.round_fault:
            self.image_fault = f"not shown at n={n}: a round trip fails"

    def results(self, nmax: int) -> list[CheckResult]:
        return [
            CheckResult(f"{self.name} {claim} up to n={nmax}", not fault, fault)
            for claim, fault in (
                ("round trip is the identity", self.round_fault),
                ("preserves the step weights", self.weight_fault),
                ("maps onto its codomain", self.image_fault),
            )
        ]


def _certify(rows: Mapping[str, range]) -> dict[str, list[CheckResult]]:
    """Round trip, weight preservation, and onto the codomain, for the
    string maps of the registry rows that share one domain walk (_walk_of),
    at each row's sizes; each check keeps its own first counterexample, and
    a GPathError from a map is one.

    A size passes the third check when every round trip is the identity
    (so the map is injective), every image is accepted by the codomain's
    key graph and cod_filter, and the accepted images are as many as the
    codomain's paths: _Row.paths, or the filtered enumeration where there
    is a cod_filter.  Its fault is the first image the codomain refuses,
    else a count that differs, else a round trip that fails there; the
    walk is the only one, and no set of paths is built.  The domain words
    come from the walk's weighted prefix blocks, so a word's packed weight
    is its block's plus its tail's; the codomain's _weigher accepts and
    weighs each image in one walk, and an accepted image's packed weight
    must equal its domain word's.  A fault names both words and both
    exponent triples, domain first.

    The walk reads each size's words once, in chunks of at least _CHUNK
    words (_chunks), and each row whose sizes hold that size checks every
    chunk in turn, a list at a time, and word by word only in a chunk that
    fails (_Row.checker).  The maps are called through _apply, a
    bij.Composite part by part, with a memo of each plain map's call on
    the chunk that answers a second call on an equal list.  So psi's sigma
    forward map is sigma's own call, and psi's sigma inverse is too
    whenever psi's first inverse pass gives back sigma's images.
    """
    dom, dom_scale, dom_keep = _walk_of(next(iter(rows)))
    w_dom = _WEIGHTING_OF[dom.base]
    memo: dict = {}  # one chunk's calls
    state = {name: _Row(name) for name in rows}
    for n in sorted(set().union(*rows.values())):
        dom_n = dom_scale * n
        _check_size(dom, dom_n, _CAP)
        active = [state[name] for name, sizes in rows.items() if n in sizes]
        checks = [row.checker(n, memo) for row in active]
        for words, wants in _chunks(dom, dom_n, w_dom, dom_keep):
            for check in checks:
                check(words, wants)
            memo.clear()
        for row in active:
            row.close(n)
    return {name: row.results(max(rows[name])) for name, row in state.items()}


def check_bijections(n_max: int = 8, theta_n_max: int = 10) -> list[CheckResult]:
    if n_max < 1 or theta_n_max < 0:
        raise ValueError(
            f"check_bijections needs n_max >= 1 and theta_n_max >= 0 (vartheta, "
            f"varphi, psi and varphi_theta start at size 1); got n_max={n_max}, "
            f"theta_n_max={theta_n_max}"
        )
    walks: dict[tuple, dict[str, range]] = {}
    for name, cert in CERTIFICATIONS.items():
        walks.setdefault(_walk_of(name), {})[name] = cert.sizes(n_max, theta_n_max)
    certified: dict[str, list[CheckResult]] = {}
    for rows in walks.values():
        certified.update(_certify(rows))
    results = []
    for name, cert in CERTIFICATIONS.items():
        results += certified[name]
        results += [
            _claim(check, (
                (given, bij.BIJECTIONS[m].forward(
                    parse(given, bij.BIJECTIONS[m].domain)).steps, want)
                for m, given, want in cases
            ))
            for check, cases in cert.examples
        ]
    return results


# ---------------------------------------------------------------------------
# criterion 4: polynomial identities
# ---------------------------------------------------------------------------

# each closed form with the family it counts, x-length per size and weighting
_ANCHORS = (
    ("dyck_ab", DYCK, 2, "dyck_peak_ab"),
    ("motzkin_ab", MOTZKIN, 1, "motzkin_ab"),
    ("schroder_ab", SCHRODER, 2, "schroder_ab"),
    ("little_schroder_ab", SCHRODER.restricted(), 2, "schroder_ab"),
)
_TAU = GMOTZKIN.avoiding("uvu", "uu", "uh"), GMOTZKIN.avoiding("uvu", "uu", "hu")


def check_identities(n_max: int = 8) -> list[CheckResult]:
    sizes, positive = range(n_max + 1), range(1, n_max + 1)
    return [
        _claim(
            f"closed forms equal the enumerated weight polynomials up to n={n_max}",
            ((n, tuple(closed_form(form, n) for form, *_ in _ANCHORS),
              tuple(_enumerated_weight(f, x * n, w) for _, f, x, w in _ANCHORS))
             for n in sizes),
        ),
        _claim(
            f"S_n(a,b) = C_n(a+b,b) = (a+b) M_(n-1)(a+2b,(a+b)b) up to n={n_max}",
            chain(
                ((n, closed_form("schroder_ab", n),
                  closed_form("dyck_ab", n).subs(A + B, B, ZERO)) for n in sizes),
                ((n, closed_form("schroder_ab", n), (A + B) * closed_form(
                    "motzkin_ab", n - 1).subs(A + 2 * B, (A + B) * B, ZERO))
                 for n in positive),
            ),
        ),
        _claim(
            f"b S_n(a,b) = (a+b) s_n(a,b) up to n={n_max}",
            ((n, B * closed_form("schroder_ab", n),
              (A + B) * closed_form("little_schroder_ab", n)) for n in positive),
        ),
        _claim(
            f"s_n(1,1) equals the axis-horizontal-free Schroder count up to n={n_max}",
            ((n, (closed_form("little_schroder_ab", n).eval_at(1, 1),
                  count_paths(SCHRODER.restricted(), 2 * n, _CAP)),
              (LITTLE_SCHRODER_NUMBERS[n],) * 2) for n in sizes),
        ),
        _claim(
            f"both tau-restricted weighted counts equal (a+b)^n up to n={n_max}",
            ((n, tuple(weighted_count(f, n, "gmotzkin_ab_bsq", _CAP) for f in _TAU),
              ((A + B) ** n,) * 2) for n in sizes),
        ),
        _claim(
            f"a M_n(a+b,ab) = C_(n+1)(a,b), also as the marked-prefix count, up to n={n_max}",
            ((n, (A * closed_form("motzkin_ab", n).subs(A + B, A * B, ZERO),
                  weighted_count(bij.VARPHI_DOMAIN, n + 1, "bicolored_motzkin_ab", _CAP)),
              (closed_form("dyck_ab", n + 1),) * 2) for n in sizes),
        ),
    ]


# ---------------------------------------------------------------------------
# criterion 5: statistic identities by brute force
# ---------------------------------------------------------------------------


def _entries(n_max: int) -> Iterator[tuple[int, int]]:
    """The (n, i) of a statistic table's rows 0..n_max."""
    return ((n, i) for n in range(n_max + 1) for i in range(n + 1))


def check_stat_identities(n_max: int = 6) -> list[CheckResult]:
    return [
        _claim(
            f"d-step counts equal u-step counts up to n={n_max}",
            (((n, i), stat_brute("D", n, i), stat_brute("U", n, i))
             for n, i in _entries(n_max)),
        ),
        _claim(
            f"v-step counts are the difference of consecutive u-step rows up to n={n_max}",
            (((n, i), stat_brute("V", n, i),
              stat_brute("U", n, i) - stat_brute("U", n - 1, i))
             for n, i in _entries(n_max)),
        ),
        _claim(
            f"every u-step is closed by a v or a d: U = V + D-shift up to n={n_max}",
            (((n, i), stat_brute("U", n, i),
              stat_brute("V", n, i) + stat_brute("D", n - 1, i))
             for n, i in _entries(n_max)),
        ),
        _claim(
            f"axis h-step counts are Schroder differences up to n={n_max}",
            ((n, stat_brute("H", n, 0), SCHRODER_NUMBERS[n + 1] - SCHRODER_NUMBERS[n])
             for n in range(n_max + 1)),
        ),
        _claim(
            f"axis point counts decompose over returns up to n={n_max}",
            ((n, stat_brute("P", n + 1, 0),
              SCHRODER_NUMBERS[n + 1] + stat_brute("U", n, 0) + stat_brute("H", n, 0))
             for n in range(n_max)),
        ),
    ]


# ---------------------------------------------------------------------------
# criterion 6: restricted statistics, brute against Riordan
# ---------------------------------------------------------------------------


def check_restricted_stats(n_max: int = 6) -> list[CheckResult]:
    return [
        _claim(
            f"restricted {stat} brute equals Riordan up to n={n_max}",
            (((n, i), stat_brute(stat, n, i), stat_riordan(stat, n, i))
             for n, i in _entries(n_max)),
        )
        for stat in ("u_r", "v_r", "d_r", "h_r", "p_r")
    ]


# ---------------------------------------------------------------------------
# criterion 7: ballot numbers
# ---------------------------------------------------------------------------


def check_ballot(m_max: int = 12, k_max: int = 15) -> list[CheckResult]:
    return [
        _claim(
            f"series and closed-form ballot numbers agree for m<={m_max}, k<={k_max}",
            (((m, k), ballot_coeff(m, k), ballot_closed_form(m, k))
             for m in range(m_max + 1) for k in range(k_max + 1)),
        ),
        _claim(
            "the alternating ballot sum reproduces the u-step reference table",
            (((n, i), stat_formula("U", n, i), GOLDEN_U[n][i]) for n, i in _entries(6)),
        ),
    ]


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _counts_suite(n_max: int | None) -> list[CheckResult]:
    results = check_weighted_counts(10 if n_max is None else n_max)
    results += check_ballot()
    return results


def _bijections_suite(n_max: int | None) -> list[CheckResult]:
    if n_max is None:
        return check_bijections()
    return check_bijections(n_max, theta_n_max=n_max)


def _stats_suite(n_max: int | None) -> list[CheckResult]:
    n = _STATS_ROWS if n_max is None else n_max
    return (
        check_stat_tables(n) + check_stat_identities(n) + check_restricted_stats(n)
    )


def _identities_suite(n_max: int | None) -> list[CheckResult]:
    return check_identities(8 if n_max is None else n_max)


# suite -> (checks, smallest n_max, largest n_max, what sets the largest).
# varphi, psi and varphi_theta are certified from size 1 up; the frozen
# counted sequences stop at n=10 and the frozen statistic tables at row 6,
# while the bijections are checked against enumeration only, whose x-length
# is capped at _CAP: at size n the codomains of sigma, vartheta, varphi and
# varphi_theta have x-length 2n.
_FROZEN = "the frozen reference data"
SUITES = {
    "counts": (_counts_suite, 0, 10, _FROZEN),
    "bijections": (_bijections_suite, 1, _CAP // 2, "the enumeration size cap"),
    "stats": (_stats_suite, 0, 6, _FROZEN),
    "identities": (_identities_suite, 0, 10, _FROZEN),
}


def run_suite(name: str, n_max: int | None = None) -> list[CheckResult]:
    if name != "all" and name not in SUITES:
        raise ValueError(
            f"unknown suite {name!r}; choose from all, " + ", ".join(SUITES)
        )
    names = tuple(SUITES) if name == "all" else (name,)
    for suite in names:
        _, low, high, limit = SUITES[suite]
        if n_max is not None and n_max < low:
            raise ValueError(
                f"--nmax {n_max} is too small for the {suite} suite; "
                f"the smallest supported --nmax is {low}"
            )
        if n_max is not None and n_max > high:
            raise ValueError(
                f"--nmax {n_max} is past {limit} of the "
                f"{suite} suite; the largest supported --nmax is {high}"
            )
    if "stats" in names:
        # the one suite sized under GPATHS_MAX_N (the others pass _CAP): its
        # last rows are its largest, reached in STAT_IDS order, so refuse them
        # as it would, before any suite runs
        _check_brute_rows(_STATS_ROWS if n_max is None else n_max)
    results = []
    for suite in names:
        results.extend(SUITES[suite][0](n_max))
    return results
