"""Cross-checking suites: every formula against enumeration and each other.

Each check compares two or more independently computed values: exhaustive
enumeration against recurrences, closed forms against substitution
identities, bijections against round trips, weight preservation and image
sets, statistic tables against their frozen reference rows.  The frozen
sequences and tables below are the reference data; nothing in here derives
them from the code under test.

Criterion 3 is table-driven: `CERTIFICATIONS` gives each map of
`bijections.BIJECTIONS` its sizes, the x-lengths a size stands for in the
domain and codomain, optional filters on step strings, and its worked
examples.  The maps and families themselves are read from the registry, so
a registered map is certified exactly as it is dispatched.  Every domain
path goes through the public forward map and its image through the
inverse; the images are checked for injectivity and compared with a fresh
enumeration of the codomain.

The four suites (counts, bijections, stats, identities) power both the CLI
verify subcommand and the acceptance test module.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from . import bijections as bij
from .enumeration import (
    ballot_closed_form,
    ballot_coeff,
    closed_form,
    count_paths,
    guvu_coeffs,
    iter_step_strings,
    prop21,
    weighted_count,
)
from .paths import (
    DYCK,
    GMOTZKIN,
    GMOTZKIN_UVU,
    MOTZKIN,
    SCHRODER,
    STEP_GEOMETRY,
    Path,
    PathFamily,
    parse,
)
from .series import guvu_series_at
from .stats import methods_for, stat_brute, stat_formula, stat_riordan, stat_table
from .weights import DEFAULT_WEIGHTING, Polynomial, weight_exponents

A = Polynomial.var("a")
B = Polynomial.var("b")
PZERO = Polynomial()

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

# Dyck/Schroder semilength 10 means x-length 20, past the default guard;
# counts that large come from the transfer-matrix DP, not from enumeration.
_CAP = 24


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        suffix = f": {self.detail}" if self.detail and not self.ok else ""
        return f"{status} {self.name}{suffix}"


def _check(name: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(ok), detail)


def _enumerated_weight(family: PathFamily, n: int, weighting: str) -> Polynomial:
    """The weight polynomial summed path by path over the generated paths,
    independently of the transfer-matrix DP behind weighted_count."""
    terms: dict[tuple[int, int, int], int] = {}
    for steps in iter_step_strings(family, n, _CAP):
        key = weight_exponents(steps, weighting, family.base)
        terms[key] = terms.get(key, 0) + 1
    return Polynomial(terms)


# ---------------------------------------------------------------------------
# criterion 1: statistic tables by every route
# ---------------------------------------------------------------------------


def check_stat_tables(n_max: int = 6) -> list[CheckResult]:
    results = []
    for stat, golden in GOLDEN_TABLES.items():
        want = tuple(row for row in golden[: n_max + 1])
        for method in methods_for(stat):
            got = stat_table(stat, method, n_max).rows
            results.append(
                _check(
                    f"stat table {stat} via {method} matches reference rows 0..{n_max}",
                    got == want,
                    f"got {got}",
                )
            )
    return results


# ---------------------------------------------------------------------------
# criterion 2: the weighted counts against their specializations
# ---------------------------------------------------------------------------


def check_weighted_counts(n_max: int = 10) -> list[CheckResult]:
    results = []
    g = guvu_coeffs(n_max)

    # "brute" in these three names is historical: the counts come from the
    # transfer-matrix DP; the names stay for byte-identical verify output
    brute = {
        "catalan": [
            count_paths(DYCK, 2 * n, _CAP) for n in range(n_max + 1)
        ],
        "motzkin": [count_paths(MOTZKIN, n, _CAP) for n in range(n_max + 1)],
        "schroder": [
            count_paths(SCHRODER, 2 * n, _CAP) for n in range(n_max + 1)
        ],
    }
    results.append(
        _check(
            f"brute Dyck counts match the Catalan numbers up to n={n_max}",
            brute["catalan"] == list(CATALAN[: n_max + 1]),
            f"got {brute['catalan']}",
        )
    )
    results.append(
        _check(
            f"brute Motzkin counts match the Motzkin numbers up to n={n_max}",
            brute["motzkin"] == list(MOTZKIN_NUMBERS[: n_max + 1]),
            f"got {brute['motzkin']}",
        )
    )
    results.append(
        _check(
            f"brute Schroder counts match the Schroder numbers up to n={n_max}",
            brute["schroder"] == list(SCHRODER_NUMBERS[: n_max + 1]),
            f"got {brute['schroder']}",
        )
    )

    for triple, seq, label in (
        ((0, 1, 1), CATALAN, "(0,1,1) gives the Catalan numbers"),
        ((1, 0, 1), MOTZKIN_NUMBERS, "(1,0,1) gives the Motzkin numbers"),
        ((1, 1, 1), SCHRODER_NUMBERS, "(1,1,1) gives the Schroder numbers"),
        ((1, 0, 2), SEQ_A025235, "(1,0,2) gives the A025235 sequence"),
        ((-3, 4, 16), SEQ_A059231, "(-3,4,16) gives the A059231 sequence"),
    ):
        got = [g[n].eval_at(*triple) for n in range(n_max + 1)]
        results.append(
            _check(
                f"recurrence at {label}",
                got == [Fraction(x) for x in seq[: n_max + 1]],
                f"got {got}",
            )
        )

    # path-by-path enumeration of the weighted family itself, symbolically (small n)
    sym_max = min(n_max, 8)
    sym_ok = all(
        _enumerated_weight(GMOTZKIN_UVU, n, "gmotzkin_abc") == g[n]
        for n in range(sym_max + 1)
    )
    results.append(
        _check(
            f"recurrence equals the enumerated weight polynomial up to n={sym_max}",
            sym_ok,
        )
    )

    for variant in ("first", "second"):
        ok = all(prop21(n, variant) == g[n] for n in range(n_max + 1))
        results.append(
            _check(
                f"{variant} explicit triple sum equals the recurrence up to n={n_max}",
                ok,
            )
        )

    for triple in ((1, 0, 2), (-3, 4, 16)):
        series = guvu_series_at(*triple, order=n_max)
        ok = all(
            series.coeff(n) == g[n].eval_at(*triple) for n in range(n_max + 1)
        )
        results.append(
            _check(
                f"composite-series route agrees at weights {triple}",
                ok,
            )
        )
    return results


# ---------------------------------------------------------------------------
# criterion 3: bijection certification
# ---------------------------------------------------------------------------

# the bijections preserve the c = b^2 specialization on gmotzkin paths
_WEIGHTING_OF = {**DEFAULT_WEIGHTING, "gmotzkin": "gmotzkin_ab_bsq"}


def _has_axis_h(steps: str) -> bool:
    level = 0
    for c in steps:
        if c == "H" and level == 0:
            return True
        level += STEP_GEOMETRY[c][1]
    return False


@dataclass(frozen=True)
class Certification:
    """How criterion 3 certifies one map of `bijections.BIJECTIONS`.

    Size n pairs the domain paths of x-length dom_scale*n with the codomain
    paths of x-length cod_scale*n, each kept where its filter, if any,
    accepts the step string.  Each example is a check name with its
    (map, input, forward image) cases.
    """

    sizes: Callable[[int, int], range]  # (n_max, theta_n_max) -> sizes
    dom_scale: int
    cod_scale: int
    examples: tuple[tuple[str, tuple[tuple[str, str, str], ...]], ...] = ()
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
        # opens with ud and has an H on the axis
        dom_filter=lambda p: p.startswith("ud") and _has_axis_h(p),
        # opens with H, ends with d, and has no later H on the axis
        cod_filter=lambda p: (
            p.startswith("H") and p.endswith("d") and not _has_axis_h(p[1:])
        ),
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


def _step_strings(
    family: PathFamily, n: int, keep: Callable[[str], bool] | None
) -> Iterable[str]:
    strings = iter_step_strings(family, n, _CAP)
    return strings if keep is None else filter(keep, strings)


def _certify(name: str, cert: Certification, sizes: range) -> list[CheckResult]:
    """Round trip, weight preservation, and image-set equality of the
    registered maps; each check keeps its own first counterexample."""
    spec = bij.BIJECTIONS[name]
    forward, inverse = spec.forward, spec.inverse
    dom, cod = spec.domain, spec.codomain
    w_dom, w_cod = _WEIGHTING_OF[dom.base], _WEIGHTING_OF[cod.base]
    round_fault = weight_fault = image_fault = ""
    for n in sizes:
        images = []
        for steps in _step_strings(dom, cert.dom_scale * n, cert.dom_filter):
            image = forward(Path(dom, steps))
            back = inverse(image)
            if back.steps != steps:
                round_fault = round_fault or (
                    f"round trip fails at {steps!r} -> {image.steps!r} -> {back.steps!r}"
                )
            if weight_exponents(steps, w_dom, dom.base) != weight_exponents(
                image.steps, w_cod, cod.base
            ):
                weight_fault = weight_fault or f"weight not preserved at {steps!r}"
            images.append(image.steps)
        image_set = frozenset(images)
        if len(image_set) != len(images):
            image_fault = image_fault or f"forward map not injective at n={n}"
        want = frozenset(_step_strings(cod, cert.cod_scale * n, cert.cod_filter))
        if image_set != want:
            missing = sorted(want - image_set)[:3]
            extra = sorted(image_set - want)[:3]
            image_fault = image_fault or (
                f"image set differs at n={n}: missing {missing}, extra {extra}"
            )
    nmax = max(sizes)
    return [
        _check(f"{name} {claim} up to n={nmax}", not fault, fault)
        for claim, fault in (
            ("round trip is the identity", round_fault),
            ("preserves the step weights", weight_fault),
            ("maps onto its codomain", image_fault),
        )
    ]


def check_bijections(n_max: int = 8, theta_n_max: int = 10) -> list[CheckResult]:
    if n_max < 1 or theta_n_max < 0:
        raise ValueError(
            f"check_bijections needs n_max >= 1 and theta_n_max >= 0 (vartheta, "
            f"varphi, psi and varphi_theta start at size 1); got n_max={n_max}, "
            f"theta_n_max={theta_n_max}"
        )
    results = []
    for name, cert in CERTIFICATIONS.items():
        results += _certify(name, cert, cert.sizes(n_max, theta_n_max))
        for check, cases in cert.examples:
            ok = True
            for m, given, want in cases:
                spec = bij.BIJECTIONS[m]
                ok = ok and spec.forward(parse(given, spec.domain)).steps == want
            results.append(_check(check, ok))
    return results


# ---------------------------------------------------------------------------
# criterion 4: polynomial identities
# ---------------------------------------------------------------------------


def check_identities(n_max: int = 8) -> list[CheckResult]:
    results = []

    anchors_ok = all(
        closed_form("dyck_ab", n) == _enumerated_weight(DYCK, 2 * n, "dyck_peak_ab")
        and closed_form("motzkin_ab", n) == _enumerated_weight(MOTZKIN, n, "motzkin_ab")
        and closed_form("schroder_ab", n)
        == _enumerated_weight(SCHRODER, 2 * n, "schroder_ab")
        and closed_form("little_schroder_ab", n)
        == _enumerated_weight(SCHRODER.restricted(), 2 * n, "schroder_ab")
        for n in range(n_max + 1)
    )
    results.append(
        _check(
            f"closed forms equal the enumerated weight polynomials up to n={n_max}",
            anchors_ok,
        )
    )

    ok12 = all(
        closed_form("schroder_ab", n)
        == closed_form("dyck_ab", n).subs(A + B, B, PZERO)
        for n in range(n_max + 1)
    ) and all(
        closed_form("schroder_ab", n)
        == (A + B) * closed_form("motzkin_ab", n - 1).subs(
            A + 2 * B, (A + B) * B, PZERO
        )
        for n in range(1, n_max + 1)
    )
    results.append(
        _check(
            f"S_n(a,b) = C_n(a+b,b) = (a+b) M_(n-1)(a+2b,(a+b)b) up to n={n_max}",
            ok12,
        )
    )

    ok23 = all(
        B * closed_form("schroder_ab", n)
        == (A + B) * closed_form("little_schroder_ab", n)
        for n in range(1, n_max + 1)
    )
    results.append(
        _check(f"b S_n(a,b) = (a+b) s_n(a,b) up to n={n_max}", ok23)
    )

    little_counts_ok = all(
        closed_form("little_schroder_ab", n).eval_at(1, 1)
        == count_paths(SCHRODER.restricted(), 2 * n, _CAP)
        == LITTLE_SCHRODER_NUMBERS[n]
        for n in range(n_max + 1)
    )
    results.append(
        _check(
            f"s_n(1,1) equals the axis-horizontal-free Schroder count up to n={n_max}",
            little_counts_ok,
        )
    )

    ok_tau = True
    for n in range(n_max + 1):
        want = (A + B) ** n
        got1 = weighted_count(
            GMOTZKIN.avoiding("uvu", "uu", "uh"), n, "gmotzkin_ab_bsq", _CAP
        )
        got2 = weighted_count(
            GMOTZKIN.avoiding("uvu", "uu", "hu"), n, "gmotzkin_ab_bsq", _CAP
        )
        if got1 != want or got2 != want:
            ok_tau = False
    results.append(
        _check(
            f"both tau-restricted weighted counts equal (a+b)^n up to n={n_max}",
            ok_tau,
        )
    )

    ok34 = all(
        A * closed_form("motzkin_ab", n).subs(A + B, A * B, PZERO)
        == closed_form("dyck_ab", n + 1)
        for n in range(n_max + 1)
    ) and all(
        weighted_count(bij.VARPHI_DOMAIN, n + 1, "bicolored_motzkin_ab", _CAP)
        == closed_form("dyck_ab", n + 1)
        for n in range(n_max + 1)
    )
    results.append(
        _check(
            f"a M_n(a+b,ab) = C_(n+1)(a,b), also as the marked-prefix count, up to n={n_max}",
            ok34,
        )
    )
    return results


# ---------------------------------------------------------------------------
# criterion 5: statistic identities by brute force
# ---------------------------------------------------------------------------


def check_stat_identities(n_max: int = 6) -> list[CheckResult]:
    results = []
    ok_d = all(
        stat_brute("D", n, i) == stat_brute("U", n, i)
        for n in range(n_max + 1)
        for i in range(n + 1)
    )
    results.append(
        _check(f"d-step counts equal u-step counts up to n={n_max}", ok_d)
    )

    ok_v = all(
        stat_brute("V", n, i) == stat_brute("U", n, i) - stat_brute("U", n - 1, i)
        for n in range(n_max + 1)
        for i in range(n + 1)
    )
    results.append(
        _check(
            f"v-step counts are the difference of consecutive u-step rows up to n={n_max}",
            ok_v,
        )
    )

    ok_cons = all(
        stat_brute("U", n, i)
        == stat_brute("V", n, i) + stat_brute("D", n - 1, i)
        for n in range(n_max + 1)
        for i in range(n + 1)
    )
    results.append(
        _check(
            f"every u-step is closed by a v or a d: U = V + D-shift up to n={n_max}",
            ok_cons,
        )
    )

    ok_h0 = all(
        stat_brute("H", n, 0)
        == SCHRODER_NUMBERS[n + 1] - SCHRODER_NUMBERS[n]
        for n in range(n_max + 1)
    )
    results.append(
        _check(
            f"axis h-step counts are Schroder differences up to n={n_max}", ok_h0
        )
    )

    ok_p0 = all(
        stat_brute("P", n + 1, 0)
        == SCHRODER_NUMBERS[n + 1] + stat_brute("U", n, 0) + stat_brute("H", n, 0)
        for n in range(n_max)
    )
    results.append(
        _check(
            f"axis point counts decompose over returns up to n={n_max}", ok_p0
        )
    )
    return results


# ---------------------------------------------------------------------------
# criterion 6: restricted statistics, brute against Riordan
# ---------------------------------------------------------------------------


def check_restricted_stats(n_max: int = 6) -> list[CheckResult]:
    results = []
    for stat in ("u_r", "v_r", "d_r", "h_r", "p_r"):
        ok = True
        detail = ""
        for n in range(n_max + 1):
            for i in range(n + 1):
                b = stat_brute(stat, n, i)
                r = stat_riordan(stat, n, i)
                if b != r:
                    ok = False
                    detail = detail or f"{stat}({n},{i}): brute {b}, riordan {r}"
        results.append(
            _check(
                f"restricted {stat} brute equals Riordan up to n={n_max}",
                ok,
                detail,
            )
        )
    return results


# ---------------------------------------------------------------------------
# criterion 7: ballot numbers
# ---------------------------------------------------------------------------


def check_ballot(m_max: int = 12, k_max: int = 15) -> list[CheckResult]:
    results = []
    ok = all(
        ballot_coeff(m, k) == ballot_closed_form(m, k)
        for m in range(m_max + 1)
        for k in range(k_max + 1)
    )
    results.append(
        _check(
            f"series and closed-form ballot numbers agree for m<={m_max}, k<={k_max}",
            ok,
        )
    )
    ok_table = all(
        stat_formula("U", n, i) == GOLDEN_U[n][i]
        for n in range(7)
        for i in range(n + 1)
    )
    results.append(
        _check(
            "the alternating ballot sum reproduces the u-step reference table",
            ok_table,
        )
    )
    return results


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
    n = 6 if n_max is None else n_max
    return (
        check_stat_tables(n) + check_stat_identities(n) + check_restricted_stats(n)
    )


def _identities_suite(n_max: int | None) -> list[CheckResult]:
    return check_identities(8 if n_max is None else n_max)


# suite -> (checks, smallest n_max, largest n_max).  varphi, psi and
# varphi_theta are certified from size 1 up; the frozen counted sequences
# stop at n=10 and the frozen statistic tables at row 6, while the
# bijections are checked against enumeration only.
SUITES = {
    "counts": (_counts_suite, 0, 10),
    "bijections": (_bijections_suite, 1, None),
    "stats": (_stats_suite, 0, 6),
    "identities": (_identities_suite, 0, 10),
}


def run_suite(name: str, n_max: int | None = None) -> list[CheckResult]:
    if name != "all" and name not in SUITES:
        raise ValueError(
            f"unknown suite {name!r}; choose from all, " + ", ".join(SUITES)
        )
    names = tuple(SUITES) if name == "all" else (name,)
    for suite in names:
        _, low, high = SUITES[suite]
        if n_max is not None and n_max < low:
            raise ValueError(
                f"--nmax {n_max} is too small for the {suite} suite; "
                f"the smallest supported --nmax is {low}"
            )
        if n_max is not None and high is not None and n_max > high:
            raise ValueError(
                f"--nmax {n_max} is past the frozen reference data of the "
                f"{suite} suite; the largest supported --nmax is {high}"
            )
    results = []
    for suite in names:
        results.extend(SUITES[suite][0](n_max))
    return results
