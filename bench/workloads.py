"""The four workloads: their sizes, their seeded inputs, and their checks.

This module runs in the benchmark's runner process and never imports gpaths.
An op's outputs come back from the op process as JSON; `check` compares
them with the references of `reference.py` and returns one message per
mismatch, so a wrong output counts the op as failed without ending the run.

Why each workload is there:

verify      `gpaths verify` at the contract sizes, what users and CI run.
            Enumeration and bijection certification dominate it.
exhaustive  enumeration past the verify sizes: generating, counting and
            weighted counting, with no bijections and no recurrences.
algebra     the non-enumerative routes (recurrences, closed forms, series,
            Riordan arrays, explicit sums) at sizes enumeration cannot reach.
longmap     the eight bijections on few long seeded paths, where recursion
            depth and string slicing dominate; verify covers many short ones.
"""

from __future__ import annotations

import random

import reference as ref

WORKLOADS = ("verify", "exhaustive", "algebra", "longmap")

BRUTE_STATS = ("U", "H", "P", "u_r", "h_r")
ALGEBRA_STATS = ("U", "H", "P")
# integer weights (a, b, c) at which the recurrence polynomials are evaluated
GUVU_POINTS = ((1, 1, 1), (0, 1, 1), (1, 0, 2), (-3, 4, 16), (2, 3, 5))
GFULL_POINTS = ((0, 1, 0), (1, 1, 0), (1, 0, 1), (2, 3, 5))
BIJECTION_NAMES = (
    "sigma",
    "phi_peak",
    "vartheta",
    "theta",
    "rho",
    "varphi",
    "psi",
    "varphi_theta",
)

FULL = {
    "verify": {"argv": ["verify"]},
    "exhaustive": {
        "count_n": 20,
        "weighted_n": 18,
        "stream_n": 9,
        "gmotzkin_n": 9,
        "brute_n": 7,
    },
    "algebra": {
        "guvu_n": 40,
        "gfull_n": 30,
        "series_weights": [-3, 4, 16],
        "series_order": 60,
        "riordan_n": 60,
        "formula_n": 30,
    },
    # Recursion depth of the maps grows with path length; at 900 steps the
    # deepest map (varphi_theta) needs about 650 frames, well inside
    # Python's default limit of 1000, so every map succeeds.
    "longmap": {"steps": 900, "paths_per_map": 30},
}

# Sizes for the self-test: every code path of every workload, in seconds.
TINY = {
    "verify": {"argv": ["verify", "--suite", "identities", "--nmax", "2"]},
    "exhaustive": {
        "count_n": 8,
        "weighted_n": 6,
        "stream_n": 4,
        "gmotzkin_n": 4,
        "brute_n": 3,
    },
    "algebra": {
        "guvu_n": 6,
        "gfull_n": 5,
        "series_weights": [-3, 4, 16],
        "series_order": 8,
        "riordan_n": 8,
        "formula_n": 5,
    },
    "longmap": {"steps": 40, "paths_per_map": 2},
}

# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

_DY = {"u": 1, "d": -1, "D": -1, "v": -1, "h": 0, "H": 0, "a": 0, "b": 0}

# domain of each map as (alphabet, forbidden factors, required first letter)
_DOMAINS = {
    "sigma": ("uhvd", ("uvu",), ""),
    "phi_peak": ("udD", (), ""),
    "theta": ("uhvd", ("uvu", "uu"), ""),
    "rho": ("uhvd", ("uvu", "uu", "hu"), ""),
    "varphi": ("uabd", (), "a"),
    "psi": ("uhvd", ("uvu",), ""),
    "varphi_theta": ("uhvd", ("uvu", "uu"), "h"),
}


def _walk(rng: random.Random, alphabet: str, length: int, avoid=(), first="") -> str:
    """A uniformly chosen admissible step at each position, closed in time.

    A colored peak step D may only follow u.  Closing with d is always
    admissible, since no forbidden factor ends in d.
    """
    steps = list(first)
    level = 0
    while len(steps) < length:
        left = length - len(steps) - 1
        options = []
        for c in alphabet:
            lvl = level + _DY[c]
            if lvl < 0 or lvl > left:
                continue
            if c == "D" and (not steps or steps[-1] != "u"):
                continue
            window = "".join(steps[-2:]) + c
            if any(window.endswith(p) for p in avoid):
                continue
            options.append(c)
        c = rng.choice(options)
        steps.append(c)
        level += _DY[c]
    return "".join(steps)


def _domain_path(rng: random.Random, name: str, length: int) -> str:
    if name == "vartheta":
        # ud-prefixed Schroder path with a horizontal step on the axis
        cut = rng.randrange(2, length - 1)
        return "ud" + _walk(rng, "uHd", cut - 2) + "H" + _walk(rng, "uHd", length - cut - 1)
    alphabet, avoid, first = _DOMAINS[name]
    return _walk(rng, alphabet, length, avoid, first)


def make_inputs(workload: str, params: dict, seed: int):
    """The op's inputs; the same seed gives the same inputs."""
    if workload != "longmap":
        return None
    rng = random.Random(seed)
    return [
        [name, [_domain_path(rng, name, params["steps"]) for _ in range(params["paths_per_map"])]]
        for name in BIJECTION_NAMES
    ]


# ---------------------------------------------------------------------------
# references and checks
# ---------------------------------------------------------------------------


def references(workload: str, params: dict) -> dict:
    """Expected outputs, from frozen data or the benchmark's own arithmetic."""
    if workload == "verify":
        names = ref.VERIFY_CHECK_NAMES[tuple(params["argv"])]
        lines = [f"PASS {n}" for n in names] + [f"PASS ({len(names)} checks)"]
        return {"rc": 0, "lines": lines}
    if workload == "exhaustive":
        p = params
        return {
            "count": ref.schroder(p["count_n"] // 2),
            "schroder_ab": _terms(ref.schroder_ab(p["weighted_n"] // 2)),
            "stream_count": ref.schroder(p["stream_n"]),
            "stream_sha256": ref.STREAM_SHA256[p["stream_n"]],
            "gmotzkin_abc": _terms(ref.gfull_poly(p["gmotzkin_n"])),
            "brute": {s: ref.stat_rows(s, p["brute_n"]) for s in BRUTE_STATS},
        }
    if workload == "algebra":
        p = params
        n = max(p["riordan_n"], p["formula_n"])
        rows = {s: ref.stat_rows(s, n) for s in ALGEBRA_STATS}
        return {
            "prop21_agrees": {"first": True, "second": True},
            "guvu_at": [ref.guvu_at(*w, p["guvu_n"]) for w in GUVU_POINTS],
            "gfull_at": [ref.gfull_at(*w, p["gfull_n"]) for w in GFULL_POINTS],
            "series": [[x, 1] for x in ref.guvu_at(*p["series_weights"], p["series_order"])],
            "riordan": {s: r[: p["riordan_n"] + 1] for s, r in rows.items()},
            "formula": {s: r[: p["formula_n"] + 1] for s, r in rows.items()},
        }
    if workload == "longmap":
        return {
            "maps": {name: params["paths_per_map"] for name in BIJECTION_NAMES},
        }
    raise ValueError(f"unknown workload {workload!r}")


def _terms(poly: dict) -> list[list[int]]:
    return sorted([ea, eb, ec, x] for (ea, eb, ec), x in poly.items())


def check(workload: str, outputs: dict, refs: dict) -> list[str]:
    """One message per output that differs from its reference."""
    errors = []
    if workload == "longmap":
        errors += outputs.get("errors", [])
        done = outputs.get("round_trips", {})
        if done != refs["maps"]:
            errors.append(f"round trips per map {done}, want {refs['maps']}")
        return errors
    for key, want in refs.items():
        if outputs.get(key) != want:
            errors.append(f"{workload} output {key!r} differs from its reference")
    return errors
