"""One benchmark op, run in a fresh interpreter by `run.py`.

Reads a job as JSON from stdin and writes one JSON object to stdout.  The
checkout's `src/` goes first on sys.path, and `import gpaths` is the first
thing that happens, so the set-up timestamp covers interpreter start-up and
the package import and nothing of the benchmark's own.  Only the program's
work lies inside the timed (and, when asked, traced) region; the outputs are
turned into plain data after it, for `workloads.check` to compare.  An
untraced op also runs `calibrate.Sampler` around that region; its chunks'
time is taken out of `run_s`, and their speed gives the op's `scale`.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import gpaths  # noqa: E402

SETUP_DONE_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import calibrate  # noqa: E402

# the CPU's speed just after set-up, within milliseconds of it
SETUP_SCALE = calibrate.scale([calibrate.timed_chunk() for _ in range(calibrate.SETUP_CHUNKS)])

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from gpaths import bijections, cli, enumeration, paths, series, stats  # noqa: E402

import reference as ref  # noqa: E402
from workloads import ALGEBRA_STATS, BRUTE_STATS, GFULL_POINTS, GUVU_POINTS  # noqa: E402


def _terms(poly) -> list[list[int]]:
    return sorted([ea, eb, ec, x] for (ea, eb, ec), x in poly.terms.items())


def _rows(table) -> list[list[int]]:
    return [list(row) for row in table.rows]


# Each op function calls the program inside `timed`, the context manager that
# starts and stops the clock (and the tracer), and returns the outputs as
# plain data for `workloads.check`.


def _verify(params, inputs, timed):
    buf = io.StringIO()
    with timed(), contextlib.redirect_stdout(buf):
        rc = cli.main(params["argv"])
    return {"rc": rc, "lines": buf.getvalue().splitlines()}


def _exhaustive(params, inputs, timed):
    p = params
    en = enumeration
    digest = hashlib.sha256()
    with timed():
        count = en.count_paths(paths.SCHRODER, p["count_n"], p["count_n"])
        schroder_ab = en.weighted_count(paths.SCHRODER, p["weighted_n"], "schroder_ab", p["weighted_n"])
        streamed = 0
        for steps in en.iter_step_strings(paths.GMOTZKIN_UVU, p["stream_n"]):
            digest.update(steps.encode() + b"\n")
            streamed += 1
        gmotzkin_abc = en.weighted_count(paths.GMOTZKIN, p["gmotzkin_n"], "gmotzkin_abc")
        brute = {s: stats.stat_table(s, "brute", p["brute_n"]) for s in BRUTE_STATS}
    return {
        "count": count,
        "schroder_ab": _terms(schroder_ab),
        "stream_count": streamed,
        "stream_sha256": digest.hexdigest(),
        "gmotzkin_abc": _terms(gmotzkin_abc),
        "brute": {s: _rows(t) for s, t in brute.items()},
    }


def _algebra(params, inputs, timed):
    p = params
    en = enumeration
    with timed():
        g = en.guvu_coeffs(p["guvu_n"])
        sums = {v: [en.prop21(n, v) for n in range(p["guvu_n"] + 1)] for v in ("first", "second")}
        gfull = en.gfull_coeffs(p["gfull_n"])
        ser = series.guvu_series_at(*p["series_weights"], p["series_order"])
        riordan = {s: stats.stat_table(s, "riordan", p["riordan_n"]) for s in ALGEBRA_STATS}
        formula = {s: stats.stat_table(s, "formula", p["formula_n"]) for s in ALGEBRA_STATS}
    g_terms = [_terms(x) for x in g]
    gfull_terms = [_terms(x) for x in gfull]
    return {
        "prop21_agrees": {v: all(a == b for a, b in zip(s, g)) and len(s) == len(g) for v, s in sums.items()},
        "guvu_at": [[ref.poly_at(t, *w) for t in g_terms] for w in GUVU_POINTS],
        "gfull_at": [[ref.poly_at(t, *w) for t in gfull_terms] for w in GFULL_POINTS],
        "series": [[int(c.numerator), int(c.denominator)] for c in ser.coeffs],
        "riordan": {s: _rows(t) for s, t in riordan.items()},
        "formula": {s: _rows(t) for s, t in formula.items()},
    }


def _longmap(params, inputs, timed):
    domain = {}
    for name, steps_list in inputs:
        spec = bijections.BIJECTIONS[name]
        domain[name] = [paths.parse(s, spec.domain) for s in steps_list]
    latencies_ns = []
    results = []
    clock = time.perf_counter_ns
    with timed():
        # looked up inside the timed region, so a traced op sees the wrappers
        registry = bijections.BIJECTIONS
        for name, batch in domain.items():
            spec = registry[name]
            for path in batch:
                t0 = clock()
                image = spec.forward(path)
                back = spec.inverse(image)
                latencies_ns.append(clock() - t0)
                results.append((name, path.steps, image.steps, back.steps))
    errors = []
    done = {}
    for name, steps, image, back in results:
        spec = bijections.BIJECTIONS[name]
        try:
            paths.parse(image, spec.codomain)
        except gpaths.GPathError as exc:
            errors.append(f"{name} image of a {len(steps)}-step path is not in its codomain: {exc}")
        if back != steps:
            errors.append(f"{name} round trip changed a {len(steps)}-step path")
        done[name] = done.get(name, 0) + 1
    return {"round_trips": done, "errors": errors, "latencies_ms": [t / 1e6 for t in latencies_ns]}


OPS = {"verify": _verify, "exhaustive": _exhaustive, "algebra": _algebra, "longmap": _longmap}


def main() -> None:
    job = json.load(sys.stdin)
    out = {"setup_done_ns": SETUP_DONE_NS, "setup_scale": SETUP_SCALE}
    if job["workload"] != "setup":
        tracer = None
        if job["trace"]:
            import tracer as tracing

            tracer = tracing.Tracer(gpaths)
        span = {}

        @contextlib.contextmanager
        def timed():
            # a traced op is timed raw: the sampler's chunks would land in
            # whichever span is open
            if tracer is not None:
                tracer.install()
            sampler = calibrate.Sampler() if tracer is None else contextlib.nullcontext()
            with sampler:
                t0 = time.perf_counter()
                try:
                    yield
                finally:
                    span["run_s"] = time.perf_counter() - t0
                    if tracer is not None:
                        tracer.uninstall()
            if tracer is None:
                span["run_s"] -= sampler.busy_s
                span["scale"] = calibrate.scale(sampler.samples)
                span["speed_samples"] = len(sampler.samples)

        try:
            out["outputs"] = OPS[job["workload"]](job["params"], job["inputs"], timed)
        except Exception as exc:  # the op failed; report it, keep the timing
            out["error"] = f"{type(exc).__name__}: {exc}"
        out["run_s"] = span.get("run_s")
        out["scale"] = span.get("scale")
        out["speed_samples"] = span.get("speed_samples")
        if tracer is not None:
            out["layers"] = tracer.metrics()
            if job.get("spans_path"):
                tracer.write_spans(job["spans_path"])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
