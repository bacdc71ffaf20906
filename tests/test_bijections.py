"""The weight-preserving maps between path families."""

import sys
from itertools import accumulate, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpaths import bijections as bij
from gpaths.bijections import (
    BIJECTIONS,
    GMOTZKIN_UVU_UU,
    GMOTZKIN_UVU_UU_HU,
    VARPHI_DOMAIN,
    VARPHI_THETA_DOMAIN,
    phi_peak,
    phi_peak_inv,
    psi,
    psi_inv,
    rho,
    rho_inv,
    sigma,
    sigma_inv,
    theta,
    theta_inv,
    varphi,
    varphi_inv,
    varphi_theta,
    varphi_theta_inv,
    vartheta,
    vartheta_inv,
)
from gpaths.enumeration import iter_step_strings
from gpaths.errors import DomainViolation, EmptyPath, FamilyMismatch, GPathError
from gpaths.paths import (
    BICOLORED_MOTZKIN,
    COLORED_DYCK,
    DYCK,
    GMOTZKIN,
    GMOTZKIN_UVU,
    HSTRING,
    PSI_IMAGE,
    SCHRODER,
    STEP_GEOMETRY,
    Path,
    PathFamily,
    match_table,
    parse,
)
from gpaths.verification import _WEIGHTING_OF, CERTIFICATIONS, _walk_of
from gpaths.weights import packed_weight

# worked examples, checked by hand against the recursive case analysis
SIGMA_EXAMPLE_IN = "uuuvhudvvhuuuuuvdvvvud"
SIGMA_EXAMPLE_OUT = "uduudHuudddHuduuduuudddduudd"
THETA_EXAMPLE_IN = "uhhhuhuhhuhuvhvvuddvhhhuhhuhvuvdhuhd"
THETA_EXAMPLE_OUT = "uaabuuaubaddbbddaaabuaudbdabud"
PIPE_EXAMPLE_IN = "huhvuhdhuhuhuduvdv"
PIPE_EXAMPLE_MID = "audbudaububbbdd"
PIPE_EXAMPLE_OUT = "uuduuddduudduduuudduuuuudddddd"
PHI_EXAMPLE_IN = "uduuDuduuuDddduD"
PHI_EXAMPLE_OUT = "uduHuduuHdddH"


def test_sigma_worked_example():
    q = parse(SIGMA_EXAMPLE_IN, GMOTZKIN_UVU)
    p = sigma(q)
    assert p.steps == SIGMA_EXAMPLE_OUT
    assert sigma_inv(p) == q
    trace = []
    sigma(q, trace)
    assert trace == [
        "C4", "C2", "C5", "base", "base", "C1", "C3",
        "C5", "base", "base", "C5", "base", "base",
    ]


def test_sigma_small_literals():
    assert sigma(parse("uv", GMOTZKIN_UVU)).steps == "ud"
    assert sigma(parse("h", GMOTZKIN_UVU)).steps == "H"
    assert sigma(parse("ud", GMOTZKIN_UVU)).steps == "uudd"
    assert sigma_inv(parse("uudd", SCHRODER)).steps == "ud"


def test_theta_worked_examples():
    q = parse(THETA_EXAMPLE_IN, GMOTZKIN_UVU_UU)
    p = theta(q)
    assert p.steps == THETA_EXAMPLE_OUT
    assert theta_inv(p) == q
    assert theta(parse("uhv", GMOTZKIN_UVU_UU)).steps == "ud"
    assert theta(parse("uhd", GMOTZKIN_UVU_UU)).steps == "bud"
    assert theta(parse("uv", GMOTZKIN_UVU_UU)).steps == "b"
    assert theta_inv(parse("ud", BICOLORED_MOTZKIN)).steps == "uhv"


def test_phi_peak_worked_example():
    q = parse(PHI_EXAMPLE_IN, COLORED_DYCK)
    p = phi_peak(q)
    assert p.steps == PHI_EXAMPLE_OUT
    assert phi_peak_inv(p) == q
    assert phi_peak(parse("uD", COLORED_DYCK)).steps == "H"
    assert phi_peak(parse("ud", COLORED_DYCK)).steps == "ud"


def test_vartheta_worked_examples():
    for before, after in (
        ("udH", "Hud"),
        ("udHH", "HuHd"),
        ("uduuddH", "Huuddud"),
        ("udHud", "Huudd"),
    ):
        p = parse(before, SCHRODER)
        image = vartheta(p)
        assert image.steps == after
        assert vartheta_inv(image) == p


def test_rho_worked_examples():
    fam = GMOTZKIN_UVU_UU_HU
    assert rho(parse("hh", fam)).steps == "aa"
    assert rho(parse("uv", fam)).steps == "b"
    assert rho(parse("uhv", fam)).steps == "ab"
    assert rho(parse("uhd", fam)).steps == "bab"
    assert rho(parse("ud", fam)).steps == "bb"
    assert rho_inv(parse("ab", HSTRING)).steps == "uhv"
    assert rho_inv(parse("bb", HSTRING)).steps == "ud"


def test_varphi_worked_examples():
    assert varphi(parse("a", VARPHI_DOMAIN)).steps == "ud"
    assert varphi(parse("aa", VARPHI_DOMAIN)).steps == "udud"
    assert varphi(parse("ab", VARPHI_DOMAIN)).steps == "uudd"
    assert varphi(parse("aud", VARPHI_DOMAIN)).steps == "uduudd"
    assert varphi_inv(parse("ud", DYCK)).steps == "a"
    assert varphi_inv(parse("uudd", DYCK)).steps == "ab"
    assert varphi_inv(parse("udud", DYCK)).steps == "aa"


def test_psi_worked_examples():
    for source, image in (
        ("h", "a"),
        ("uv", "A"),
        ("ud", "Ab"),
        ("hh", "aa"),
        ("uvh", "Aa"),
        ("uhv", "ab"),
        ("uhd", "abb"),
        ("hud", "auD"),
    ):
        q = parse(source, GMOTZKIN_UVU)
        p = psi(q)
        assert p.steps == image
        assert psi_inv(p) == q


def test_varphi_theta_pipeline_example():
    q = parse(PIPE_EXAMPLE_IN, VARPHI_THETA_DOMAIN)
    assert theta(parse(PIPE_EXAMPLE_IN, GMOTZKIN_UVU_UU)).steps == PIPE_EXAMPLE_MID
    assert varphi(parse(PIPE_EXAMPLE_MID, VARPHI_DOMAIN)).steps == PIPE_EXAMPLE_OUT
    p = varphi_theta(q)
    assert p.steps == PIPE_EXAMPLE_OUT
    assert varphi_theta_inv(p) == q


ROUND_TRIP_CASES = [
    ("sigma", GMOTZKIN_UVU, range(5)),
    ("theta", GMOTZKIN_UVU_UU, range(6)),
    ("rho", GMOTZKIN_UVU_UU_HU, range(7)),
    ("phi_peak", COLORED_DYCK, range(0, 9, 2)),
    ("varphi", VARPHI_DOMAIN, range(1, 6)),
    ("psi", GMOTZKIN_UVU, range(1, 5)),
    ("varphi_theta", VARPHI_THETA_DOMAIN, range(1, 6)),
]


@pytest.mark.parametrize("name,domain,sizes", ROUND_TRIP_CASES)
def test_round_trip_and_injectivity(name, domain, sizes):
    spec = BIJECTIONS[name]
    for n in sizes:
        seen = set()
        for steps in iter_step_strings(domain, n):
            q = parse(steps, domain)
            p = spec.forward(q, None)
            assert parse(p.steps, spec.codomain) == p
            assert spec.inverse(p, None) == q
            assert p.steps not in seen
            seen.add(p.steps)


def test_sigma_image_is_all_of_schroder():
    for n in range(5):
        images = {
            sigma(parse(s, GMOTZKIN_UVU)).steps
            for s in iter_step_strings(GMOTZKIN_UVU, n)
        }
        assert images == set(iter_step_strings(SCHRODER, 2 * n))


def test_psi_image_is_all_flavored_paths():
    for n in range(1, 5):
        images = {
            psi(parse(s, GMOTZKIN_UVU)).steps
            for s in iter_step_strings(GMOTZKIN_UVU, n)
        }
        assert images == set(iter_step_strings(PSI_IMAGE, n))


def test_sigma_and_psi_preserve_weights():
    for n in range(5):
        for s in iter_step_strings(GMOTZKIN_UVU, n):
            q = parse(s, GMOTZKIN_UVU)
            w = packed_weight(s, "gmotzkin_ab_bsq", "gmotzkin")
            assert (
                packed_weight(sigma(q).steps, "schroder_ab", "schroder") == w
            )
            if n:
                assert (
                    packed_weight(psi(q).steps, "psi_image_ab", "psi_image")
                    == w
                )


def test_domain_errors():
    with pytest.raises(FamilyMismatch):
        sigma(parse("ud", DYCK))
    with pytest.raises(FamilyMismatch):
        theta_inv(parse("ud", DYCK))
    with pytest.raises(DomainViolation):
        sigma(parse("uvuv", GMOTZKIN))
    with pytest.raises(DomainViolation):
        theta(parse("uuvv", GMOTZKIN))
    with pytest.raises(DomainViolation):
        varphi(parse("b", BICOLORED_MOTZKIN))
    with pytest.raises(DomainViolation):
        vartheta(parse("uudd", SCHRODER))
    with pytest.raises(DomainViolation):
        vartheta(parse("Hud", SCHRODER))
    with pytest.raises(DomainViolation):
        vartheta_inv(parse("udH", SCHRODER))
    with pytest.raises(DomainViolation):
        vartheta_inv(parse("HudHud", SCHRODER))
    with pytest.raises(EmptyPath):
        varphi_inv(parse("", DYCK))
    with pytest.raises(DomainViolation):
        psi(parse("", GMOTZKIN))


MAP_DIRECTIONS = [(name, d) for name in BIJECTIONS for d in ("fwd", "inv")]


def row_map(name, direction):
    """(public name, registry map, family it reads) of one direction."""
    spec = BIJECTIONS[name]
    if direction == "fwd":
        return name, spec.forward, spec.domain
    return name + "_inv", spec.inverse, spec.codomain


@pytest.mark.parametrize("name, direction", MAP_DIRECTIONS)
def test_public_map_is_its_registry_row(name, direction):
    # the bench tracer finds each map by its module attribute and rebinds both
    public, fn, _ = row_map(name, direction)
    assert getattr(bij, public) is fn
    assert fn.__module__ == "gpaths.bijections"


@pytest.mark.parametrize("name, direction", MAP_DIRECTIONS)
def test_public_map_rejects_another_base(name, direction):
    public, fn, family = row_map(name, direction)
    other = SCHRODER if family.base == "dyck" else DYCK
    message = f"^{public} needs a {family.base} path, got {other.base}$"
    with pytest.raises(FamilyMismatch, match=message):
        fn(parse("ud", other))


# the maps with no image of the empty path, and what each raises for it
EMPTY_PATH_ERRORS = {
    ("psi", "fwd"): (DomainViolation, "psi needs x-length at least 1"),
    ("varphi", "inv"): (EmptyPath, "varphi_inv needs a nonempty path"),
    ("varphi_theta", "inv"): (EmptyPath, "varphi_theta_inv needs a nonempty path"),
}


@pytest.mark.parametrize("name, direction", sorted(EMPTY_PATH_ERRORS))
def test_empty_path_has_no_image(name, direction):
    error, message = EMPTY_PATH_ERRORS[name, direction]
    _, fn, family = row_map(name, direction)
    with pytest.raises(error) as caught:
        fn(parse("", family))
    assert (type(caught.value), str(caught.value)) == (error, message)


def _outcome(fn, arg):
    """What fn gives for arg: its value, or the type and message it raises."""
    try:
        return fn(arg)
    except GPathError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name, direction", MAP_DIRECTIONS)
def test_public_map_applies_its_row_string_map(name, direction):
    # criterion 3 certifies the string maps, so the public maps must be
    # exactly them on every path of the family they read
    _, fn, family = row_map(name, direction)
    spec = BIJECTIONS[name]
    string_map = spec.forward_steps if direction == "fwd" else spec.inverse_steps
    for n in range(5):
        for steps in iter_step_strings(family, n):
            if not steps and (name, direction) in EMPTY_PATH_ERRORS:
                continue
            want = _outcome(string_map, steps)
            got = _outcome(lambda w: fn(Path(family, w)).steps, steps)
            assert got == want, steps


def test_axis_scan_finds_the_first_axis_h_and_the_last_axis_u():
    # from a start on the axis the rest is a path; from above it, the rest
    # ends below its start and is refused
    for n in range(6):
        for steps in iter_step_strings(SCHRODER, 2 * n):
            levels = list(accumulate((STEP_GEOMETRY[c][1] for c in steps), initial=0))
            for start in range(len(steps) + 1):
                if levels[start]:
                    with pytest.raises(DomainViolation):
                        bij._axis_scan("vartheta", steps, start)
                    continue
                on_axis = [i for i in range(start, len(steps)) if not levels[i]]
                h = [i for i in on_axis if steps[i] == "H"]
                u = [i for i in on_axis if steps[i] == "u"]
                want = (h[0] if h else -1, u[-1] if u else -1)
                assert bij._axis_scan("vartheta", steps, start) == want


def test_registry_row_dispatch():
    q = parse("uv", GMOTZKIN_UVU)
    assert BIJECTIONS["sigma"].forward(q).steps == "ud"
    assert BIJECTIONS["sigma"].inverse(parse("ud", SCHRODER)) == q


# forward and inverse traces of each map on a worked example, recorded from
# the recursive definitions: (input, image, forward trace, inverse trace);
# psi's are the composite's: sigma's cases, then colored varphi's
WORKED_TRACES = {
    "sigma": (
        SIGMA_EXAMPLE_IN,
        SIGMA_EXAMPLE_OUT,
        ["C4", "C2", "C5", "base", "base", "C1", "C3", "C5", "base", "base",
         "C5", "base", "base"],
        ["C3", "C4", "C2", "C5", "base", "base", "base", "C1", "C3", "C4",
         "C3", "C5", "base", "base", "base", "base", "C5", "base", "base"],
    ),
    "phi_peak": (PHI_EXAMPLE_IN, PHI_EXAMPLE_OUT, ["base"], ["base"]),
    "vartheta": ("uduuddH", "Huuddud", ["C1"], ["C1"]),
    "theta": (
        THETA_EXAMPLE_IN,
        THETA_EXAMPLE_OUT,
        ["C5", "C1", "C1", "C3", "C5", "C1", "C5", "C4", "base", "base",
         "C2", "base", "base", "C1", "C1", "C1", "C3", "C1", "C5", "base",
         "base", "C1", "C3", "base", "base"],
        ["C5", "C1", "C1", "C3", "C5", "C1", "C5", "C4", "base", "base",
         "C2", "base", "base", "C1", "C1", "C1", "C3", "C1", "C5", "base",
         "base", "C1", "C3", "base", "base"],
    ),
    "rho": (
        "uhduduhvuvhh",
        "babbbabbaa",
        ["C4", "C4", "C3", "C2"],
        ["C4", "C4", "C3", "C2"],
    ),
    "varphi": (
        PIPE_EXAMPLE_MID,
        PIPE_EXAMPLE_OUT,
        ["C3", "C1", "C3", "C2", "C3", "base", "base", "base", "C3", "C2",
         "base", "C2", "C2", "C2", "base"],
        ["C3", "C3", "C2", "C2", "C2", "base", "C2", "base", "C1", "C3",
         "base", "C2", "C3", "base", "base"],
    ),
    "psi": (
        SIGMA_EXAMPLE_IN,
        "AuauDDaAuubDDuD",
        ["C4", "C2", "C5", "base", "base", "C1", "C3", "C5", "base", "base",
         "C5", "base", "base", "C3", "base", "C3", "C3", "C2", "base", "base",
         "C1", "C1", "C3", "C3", "base", "C1", "base", "base"],
        ["C3", "C3", "C1", "C1", "C3", "base", "C3", "C1", "base", "base",
         "C3", "base", "C2", "base", "base", "C3", "C4", "C2", "C5", "base",
         "base", "base", "C1", "C3", "C4", "C3", "C5", "base", "base", "base",
         "base", "C5", "base", "base"],
    ),
    "varphi_theta": (
        PIPE_EXAMPLE_IN,
        PIPE_EXAMPLE_OUT,
        ["C1", "C5", "base", "C3", "base", "C1", "C5", "C3", "C2", "base",
         "base", "base", "C3", "C1", "C3", "C2", "C3", "base", "base", "base",
         "C3", "C2", "base", "C2", "C2", "C2", "base"],
        ["C3", "C3", "C2", "C2", "C2", "base", "C2", "base", "C1", "C3",
         "base", "C2", "C3", "base", "base", "C1", "C5", "base", "C3", "base",
         "C1", "C5", "C3", "C2", "base", "base", "base"],
    ),
}


@pytest.mark.parametrize("name", sorted(WORKED_TRACES))
def test_worked_example_traces(name):
    source, image, forward_trace, inverse_trace = WORKED_TRACES[name]
    spec = BIJECTIONS[name]
    trace = []
    p = spec.forward(parse(source, spec.domain), trace)
    assert (p.steps, trace) == (image, forward_trace)
    trace = []
    q = spec.inverse(p, trace)
    assert (q.steps, trace) == (source, inverse_trace)


# one deterministic domain path of about 10^4 steps per map: long runs,
# deep nesting, or both
LONG_INPUTS = {
    "sigma": "h" * 3000 + "u" * 2000 + "v" * 2000 + ("uhd" * 1000),
    "phi_peak": "u" * 5000 + "D" + "d" * 4999,
    "vartheta": "ud" + "u" * 5000 + "d" * 5000 + "H" + "uH" * 10 + "d" * 10,
    "theta": "uh" * 3000 + "d" * 3000 + "uhv" * 1000,
    "rho": "uhd" * 3333 + "h",
    "varphi": "a" + "u" * 5000 + "b" + "d" * 5000,
    "psi": "u" * 5000 + "v" * 5000,
    "varphi_theta": "h" + "uh" * 3000 + "v" * 3000 + "h" * 1000,
}


@pytest.mark.parametrize("name", sorted(LONG_INPUTS))
def test_long_paths_map_without_recursion(name):
    steps = LONG_INPUTS[name]
    assert len(steps) > 5 * sys.getrecursionlimit()
    spec = BIJECTIONS[name]
    q = parse(steps, spec.domain)
    p = spec.forward(q, None)
    assert parse(p.steps, spec.codomain) == p
    trace = []
    assert spec.inverse(p, trace) == q
    assert trace


def _psi_composite(q, trace=None):
    # psi as the registered maps it stands for: sigma, then phi_peak's
    # inverse, then colored varphi's inverse, the last as the reference map
    return _reference_varphi_inv(bij._phi_inv(bij._sigma_fwd(q, trace)), trace, True)


def _psi_inv_composite(p, trace=None):
    return bij._sigma_inv(bij._phi_fwd(_reference_varphi_fwd(p, trace, True)), trace)


def test_psi_equals_the_composite():
    for n in range(1, 8):
        for q in iter_step_strings(GMOTZKIN_UVU, n):
            trace, want = [], []
            p = bij._psi_fwd(q, trace)
            assert (p, trace) == (_psi_composite(q, want), want), q
            trace, want = [], []
            assert bij._psi_inv(p, trace) == _psi_inv_composite(p, want) == q
            assert trace == want, p


@pytest.mark.parametrize("p", ["", "b", "Au", "AuA", "Ad", "AbD"])
def test_psi_inv_refuses_what_the_composite_refuses(p):
    # no opening mark, or a u or a closer without its partner: certification
    # takes a DomainViolation from a broken forward map as a counterexample
    with pytest.raises(DomainViolation):
        _psi_inv_composite(p)
    with pytest.raises(DomainViolation):
        bij._psi_inv(p)


# the string maps that may give back a word for a malformed one: phi_peak
# rewrites one factor; the others read every letter
LENIENT_MAPS = {("phi_peak", "fwd"), ("phi_peak", "inv")}


@pytest.mark.parametrize("name, direction", MAP_DIRECTIONS)
def test_string_map_refuses_a_malformed_word(name, direction):
    # a letter outside the alphabet or an unmatched step; certification
    # takes a DomainViolation as a counterexample, any other error escapes
    _, _, family = row_map(name, direction)
    spec = BIJECTIONS[name]
    string_map = spec.forward_steps if direction == "fwd" else spec.inverse_steps
    letters = family.alphabet + "".join(set(STEP_GEOMETRY) - set(family.alphabet)) + "x"
    base = PathFamily(family.base)
    lenient = (name, direction) in LENIENT_MAPS
    for n in range(1, 4):
        for word in map("".join, product(letters, repeat=n)):
            if isinstance(_outcome(lambda w: parse(w, base), word), Path):
                continue
            got = _outcome(string_map, word)
            refused = isinstance(got, tuple) and got[0] is DomainViolation
            assert refused or lenient and isinstance(got, str), (word, got)


@pytest.mark.parametrize("direction", ["fwd", "inv"])
def test_vartheta_refuses_every_malformed_word_up_to_length_6(direction):
    # vartheta's cases read a word's ends and its split H, and a malformed
    # word needs four letters to get that far: v is a down letter to
    # match_table, x no letter at all
    spec = BIJECTIONS["vartheta"]
    string_map = spec.forward_steps if direction == "fwd" else spec.inverse_steps
    for n in range(4, 7):
        for word in map("".join, product("uHdvx", repeat=n)):
            if isinstance(_outcome(lambda w: parse(w, SCHRODER), word), Path):
                continue
            got = _outcome(string_map, word)
            assert isinstance(got, tuple) and got[0] is DomainViolation, (word, got)


@pytest.mark.parametrize(
    "steps",
    [
        # domain words whose Schroder words are deep for psi's second pass
        bij._sigma_inv("u" * 5000 + "H" + "d" * 5000),  # first-block arches
        bij._sigma_inv("H" + "uHd" * 3000),  # many later arches
        bij._sigma_inv("H" + "uH" * 3000 + "d" * 3000),  # later arches nested
        LONG_INPUTS["psi"],
    ],
    ids=["first-block", "later", "later-nested", "long-input"],
)
def test_psi_equals_the_composite_on_deep_paths(steps):
    p = bij._psi_fwd(steps)
    assert p == _psi_composite(steps)
    assert bij._psi_inv(p) == steps


# ---------------------------------------------------------------------------
# the stack-based maps that walk the recursive definitions, as reference
# ---------------------------------------------------------------------------

# Each loops over a work stack of index ranges and finds the matching step
# of a range's first or last letter in `match_table`.  Criterion 3
# certifies only that a registered map is some weight-preserving
# bijection; these pin sigma, theta and varphi to the paper's maps, case
# by case.


def _reference_sigma_fwd(q, trace=None):
    note = ([] if trace is None else trace).append
    match = match_table(q)
    out: list[str] = []
    work = [("", 0, len(q))]
    while work:
        lead, lo, hi = work.pop()
        out.append(lead)
        # an item writes `lead`, then maps q[lo:hi]; each case writes its
        # leading letters, pushes the letters and the factor that follow
        # its first factor, and goes on with that first factor
        while True:
            if lo == hi:
                note("base")
                break
            if q[lo] == "h":
                note("C1")
                out.append("H")
                lo += 1
            elif hi - lo == 2 and q[lo + 1] == "v":
                note("base")
                out.append("ud")
                break
            elif q.startswith("uvh", lo):
                note("C2")
                out.append("udH")
                lo += 3
            else:
                m = match[lo]
                if q[m] == "v":
                    # split u^i core v^i tail with i maximal: the k-th u is
                    # matched by the v k-1 places before the first u's match
                    i = 1
                    while q[lo + i] == "u" and q[m - i] == "v" and match[lo + i] == m - i:
                        i += 1
                    j, odd = divmod(i, 2)
                    core_lo, core_hi = lo + i, m - i + 1
                    if core_lo < core_hi and match[core_lo] == core_hi - 1:
                        # maximality of i forces a primitive core to close with d
                        note("C3")
                        out.append("udu" * j + "ud" if odd else "u" + "udu" * (j - 1) + "ud")
                        work.append(("d" * j, m + 1, hi))
                    else:
                        note("C4")
                        out.append("u" + "udu" * j if odd else "udu" * j)
                        work.append(("d" * (j + odd), m + 1, hi))
                    lo, hi = core_lo, core_hi
                else:
                    # the leading u is matched by a d: its weight c = b^2 splits in two
                    note("C5")
                    out.append("uu")
                    work.append(("dd", m + 1, hi))
                    lo, hi = lo + 1, m
    return "".join(out)


def _reference_sigma_inv(p, trace=None):
    note = ([] if trace is None else trace).append
    match = match_table(p)
    out: list[str] = []
    work = [("", 0, len(p))]
    while work:
        lead, lo, hi = work.pop()
        out.append(lead)
        while True:
            if lo == hi:
                note("base")
                break
            if p[lo] == "H":
                note("C1")
                out.append("h")
                lo += 1
                continue
            m = match[lo]
            if m == lo + 1:
                # empty arch ud, then the rest
                if m + 1 == hi:
                    note("base")
                    out.append("uv")
                    break
                if p[m + 1] == "H":
                    note("C2")
                    out.append("uvh")
                    lo = m + 2
                else:
                    note("C3")
                    m2 = match[m + 1]
                    out.append("u")
                    work.append(("v", m2 + 1, hi))
                    lo, hi = m + 1, m2 + 1
            elif match[lo + 1] == m - 1:
                # the arch's inside is itself one arch
                note("C5")
                out.append("u")
                work.append(("d", m + 1, hi))
                lo, hi = lo + 2, m - 1
            else:
                note("C4")
                out.append("u")
                work.append(("v", m + 1, hi))
                lo, hi = lo + 1, m
    return "".join(out)


def _reference_theta_fwd(q, trace=None):
    note = ([] if trace is None else trace).append
    match = match_table(q)
    out: list[str] = []
    work = [("", 0, len(q))]
    while work:
        lead, lo, hi = work.pop()
        out.append(lead)
        while True:
            if lo == hi:
                note("base")
                break
            if q[lo] == "h":
                note("C1")
                out.append("a")
                lo += 1
            elif q[lo + 1] == "d":
                note("C2")
                out.append("bb")
                lo += 2
            elif q[lo + 1] == "v":
                if hi - lo == 2:
                    note("base")
                    out.append("b")
                    break
                # uvu is forbidden and a down step cannot follow at level 0
                note("C4")
                out.append("ba")
                lo += 3
            else:
                # uu is forbidden, so the u is followed by h and the arch is nonempty
                m = match[lo]
                if q[m] == "d":
                    note("C3")
                    out.append("bu")
                else:
                    note("C5")
                    out.append("u")
                work.append(("d", m + 1, hi))
                lo, hi = lo + 2, m
    return "".join(out)


def _reference_theta_inv(p, trace=None):
    note = ([] if trace is None else trace).append
    match = match_table(p)
    out: list[str] = []
    work = [("", 0, len(p))]
    while work:
        lead, lo, hi = work.pop()
        out.append(lead)
        while True:
            if lo == hi:
                note("base")
                break
            c = p[lo]
            if c == "a":
                note("C1")
                out.append("h")
                lo += 1
            elif c == "b":
                if hi - lo == 1:
                    note("base")
                    out.append("uv")
                    break
                nxt = p[lo + 1]
                if nxt == "b":
                    note("C2")
                    out.append("ud")
                    lo += 2
                elif nxt == "a":
                    note("C4")
                    out.append("uvh")
                    lo += 2
                else:
                    note("C3")
                    m = match[lo + 1]
                    out.append("uh")
                    work.append(("d", m + 1, hi))
                    lo, hi = lo + 2, m
            else:
                # leading u: the image of a v-closed arch; its interior may be empty
                note("C5")
                m = match[lo]
                out.append("uh")
                work.append(("v", m + 1, hi))
                lo, hi = lo + 1, m
    return "".join(out)


# varphi's marks and the peak each stands for, plain and colored; the
# closer of an arch encodes the mark its inner word opens with
_REFERENCE_PEAK_OF = {False: {"a": "ud"}, True: {"a": "uD", "A": "ud"}}
_REFERENCE_CLOSER_OF = {"a": "d", "A": "D"}
_REFERENCE_MARK_OF_CLOSER = {c: mark for mark, c in _REFERENCE_CLOSER_OF.items()}


def _reference_varphi_fwd(q, trace=None, colored=False):
    if q.strip(PSI_IMAGE.alphabet if colored else BICOLORED_MOTZKIN.alphabet):
        raise DomainViolation("varphi got a letter outside its alphabet")
    peak_of = _REFERENCE_PEAK_OF[colored]
    note = ([] if trace is None else trace).append
    match = match_table(q)
    out: list[str] = []
    # a range (lo, hi, first) stands for the word first + q[lo+1:hi]: the
    # inner word of an arch is the arch with its u replaced by a mark
    work: list = [(0, len(q), q[:1])]
    while work:
        item = work.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        lo, hi, first = item
        # the cases strip the last letter or arch; go on with the prefix
        while hi - lo > 1:
            last = q[hi - 1]
            if last in peak_of:
                note("C1")
                work.append(peak_of[last])
                hi -= 1
            elif last == "b":
                note("C2")
                out.append("u")
                work.append("d")
                hi -= 1
            else:
                # trailing down step: split off the arch it closes
                note("C3")
                opener = match[hi - 1]
                work += ["d", (opener, hi - 1, _REFERENCE_MARK_OF_CLOSER[last]), "u"]
                hi = opener
        if first not in peak_of:
            raise DomainViolation("varphi needs a path opening with the marked letter")
        note("base")
        out.append(peak_of[first])
    return "".join(out)


def _reference_varphi_inv(p, trace=None, colored=False):
    if p.strip(COLORED_DYCK.alphabet if colored else DYCK.alphabet):
        raise DomainViolation("varphi_inv got a letter outside its alphabet")
    if not p:
        raise DomainViolation("varphi_inv needs a nonempty path")
    mark_of = {peak[1]: mark for mark, peak in _REFERENCE_PEAK_OF[colored].items()}
    note = ([] if trace is None else trace).append
    match = match_table(p)
    # the image of a factor of length 2k has length k, so a range
    # (lo, hi, at) writes its image to out[at : at + (hi - lo) // 2]
    out = [""] * (len(p) // 2)
    work: list = [(0, len(p), 0)]
    while work:
        item = work.pop()
        if len(item) == 2:
            # the inner word w of an arch is in place: u w[1:] closer of w[0]
            at, end = item
            out[end] = _REFERENCE_CLOSER_OF[out[at]]
            out[at] = "u"
            continue
        lo, hi, at = item
        while hi - lo > 2:
            if p[hi - 2] == "u":
                # trailing peak
                note("C1")
                out[at + (hi - lo) // 2 - 1] = mark_of[p[hi - 1]]
                hi -= 2
            elif match[lo] == hi - 1:
                note("C2")
                out[at + (hi - lo) // 2 - 1] = "b"
                lo, hi = lo + 1, hi - 1
            else:
                # prefix, then the last arch u inner d: the inner word is
                # mapped first, then the prefix
                note("C3")
                split = match[hi - 1]
                w_at = at + (split - lo) // 2
                work += [(lo, split, at), (w_at, w_at + (hi - split) // 2 - 1)]
                lo, hi, at = split + 1, hi - 1, w_at
        note("base")
        out[at] = mark_of[p[lo + 1]]
    return "".join(out)


def test_one_pass_maps_equal_the_recursive_definitions():
    cases = [
        (bij._sigma_fwd, _reference_sigma_fwd, GMOTZKIN_UVU, range(8)),
        (bij._theta_fwd, _reference_theta_fwd, GMOTZKIN_UVU_UU, range(9)),
    ]
    for one_pass, reference, domain, sizes in cases:
        for n in sizes:
            for q in iter_step_strings(domain, n):
                trace, want = [], []
                p = one_pass(q, trace)
                assert (p, trace) == (reference(q, want), want), q
                if one_pass is bij._theta_fwd:
                    trace, want = [], []
                    back = bij._theta_inv(p, trace)
                    assert (back, trace) == (_reference_theta_inv(p, want), want), p
                    assert back == q


def test_sigma_inv_equals_the_recursive_definition():
    # image and trace on every Schroder word up to x-length 14
    for n in range(0, 15, 2):
        for p in iter_step_strings(SCHRODER, n, 14):
            trace, want = [], []
            assert (bij._sigma_inv(p, trace), trace) == (_reference_sigma_inv(p, want), want), p


@pytest.mark.parametrize("name, direction", MAP_DIRECTIONS)
def test_a_trace_does_not_change_the_image(name, direction):
    # every criterion 3 domain word up to size 6, or its image: without a
    # trace a map records no labels, and that must not change what it writes
    spec = BIJECTIONS[name]
    dom, dom_scale, dom_keep = _walk_of(name)
    for n in CERTIFICATIONS[name].sizes(6, 6):
        words = iter_step_strings(dom, dom_scale * n)
        for q in words if dom_keep is None else filter(dom_keep, words):
            word = q if direction == "fwd" else spec.forward_steps(q)
            string_map = spec.forward_steps if direction == "fwd" else spec.inverse_steps
            assert string_map(word, []) == string_map(word), word


def test_one_pass_varphi_equals_the_recursive_definition():
    # plain on every Dyck word up to semilength 8, colored (psi's second
    # passes) on every Schroder word up to x-length 16 through phi_peak;
    # image and trace, in both directions
    cases = [
        (DYCK, bij._varphi_inv, bij._varphi_fwd, False, lambda p: p, lambda p: p),
        (SCHRODER, bij._psi_mark, bij._psi_unmark, True, bij._phi_inv, bij._phi_fwd),
    ]
    for family, inverse, forward, colored, to_dyck, from_dyck in cases:
        for n in range(2, 17, 2):
            for p in iter_step_strings(family, n, 16):
                trace, want = [], []
                q = inverse(p, trace)
                assert (q, trace) == (_reference_varphi_inv(to_dyck(p), want, colored), want), p
                trace, want = [], []
                back = forward(q, trace)
                assert (back, trace) == (from_dyck(_reference_varphi_fwd(q, want, colored)), want), q
                assert back == p


# ---------------------------------------------------------------------------
# random domain paths of every map
# ---------------------------------------------------------------------------


def _walk(alphabet, avoid, first, choices):
    """Each choice picks among the admissible next letters; d closes.

    No avoided factor ends in d, and d never needs a u before it, so the
    closing down steps keep the word in the domain.
    """
    steps = list(first)
    level = 0
    for choice in choices:
        options = [
            c
            for c in alphabet
            if level + STEP_GEOMETRY[c][1] >= 0
            and (c != "D" or steps[-1:] == ["u"])
            and not any(("".join(steps[-2:]) + c).endswith(f) for f in avoid)
        ]
        c = options[choice % len(options)]
        steps.append(c)
        level += STEP_GEOMETRY[c][1]
    return "".join(steps) + "d" * level


_choices = st.lists(st.integers(0, 5), min_size=1, max_size=300)


@st.composite
def domain_paths(draw, name):
    if name == "vartheta":
        # ud-prefixed Schroder path with a horizontal step on the axis
        before = _walk("uHd", (), "", draw(_choices))
        after = _walk("uHd", (), "", draw(_choices))
        return "ud" + before + "H" + after
    domain = BIJECTIONS[name].domain
    first = domain.prefixes[0] if domain.prefixes else ""
    return _walk(domain.alphabet, domain.avoid, first, draw(_choices))


@pytest.mark.parametrize("name", sorted(BIJECTIONS))
@settings(deadline=None)
@given(data=st.data())
def test_random_domain_paths(name, data):
    spec = BIJECTIONS[name]
    q = parse(data.draw(domain_paths(name)), spec.domain)
    p = spec.forward(q, None)
    assert parse(p.steps, spec.codomain) == p
    assert spec.inverse(p, None) == q
    dom, cod = spec.domain.base, spec.codomain.base
    assert packed_weight(q.steps, _WEIGHTING_OF[dom], dom) == packed_weight(
        p.steps, _WEIGHTING_OF[cod], cod
    )
    if name == "psi":
        assert p.steps == _psi_composite(q.steps)


def test_registry_is_complete():
    assert sorted(BIJECTIONS) == [
        "phi_peak",
        "psi",
        "rho",
        "sigma",
        "theta",
        "varphi",
        "varphi_theta",
        "vartheta",
    ]
