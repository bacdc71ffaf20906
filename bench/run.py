"""gpaths benchmark: one workload, cold-process ops, closed loop.

    python3 bench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Every op runs in a fresh interpreter (`op.py`) against this checkout's
`src/`, one op at a time, each started when the previous one has ended.  The
run keeps starting ops until the next would end more than half an op after
`--seconds` (at least two ops, or one untraced/traced pair with
`--trace 1`), so a run lasts about `--seconds` on average.  Set-up is also
timed in import-only interpreters spread over the run, so `setup_s` is a
median of many samples.

Each CPU of the host switches between a fast phase and slow ones, so every
cycle is pinned to the CPU that ran `calibrate.py`'s chunk fastest just
before, and every op process samples the chunk's speed after its import
and, untraced, while its op runs.
`setup_s` and `run_s` are medians of times scaled to the chunk's reference
speed; the unscaled medians are printed too.

With `--trace 0` the metrics are the `end_to_end` ones of BENCHMARK.json;
with `--trace 1` each cycle runs an untraced op and then a traced one, and
the metrics are the `per_layer` ones.  Human-readable lines come first; the
last line of stdout is the JSON result.  Each run also writes its result,
with the machine and Python version, to `bench/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import calibrate
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RESULTS_DIR = os.path.join(BENCH_DIR, "results")

# import-only interpreters timed for setup_s, besides the ops themselves
PROBES_PER_CYCLE = 6
# CPUs whose speed is timed at the start of every cycle
MAX_CPUS = 4
OP_TIMEOUT_S = 150
# no op is started past this point, so a run ends well inside 180 s
LAST_START_S = 100


def _clock_ns() -> int:
    # system-wide, so the op process's timestamps compare with ours
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _spawn(job: dict) -> dict:
    """Run one op process; its JSON record plus `setup_s`, `wall_s`, `error`."""
    env = {k: v for k, v in os.environ.items() if k != "GPATHS_MAX_N"}
    start = _clock_ns()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "op.py")],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=env,
            timeout=OP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"op timed out after {OP_TIMEOUT_S} s", "wall_s": OP_TIMEOUT_S}
    wall_s = (_clock_ns() - start) / 1e9
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
        return {"error": f"op exited {proc.returncode}: {tail[0]}", "wall_s": wall_s}
    try:
        record = json.loads(proc.stdout)
    except ValueError:
        return {"error": "op printed no JSON record", "wall_s": wall_s}
    record["setup_s"] = (record.pop("setup_done_ns") - start) / 1e9
    record["wall_s"] = wall_s
    return record


def _run_op(workload, params, inputs, refs, traced, spans_path=None) -> dict:
    job = {"workload": workload, "params": params, "inputs": inputs, "trace": traced}
    if spans_path:
        job["spans_path"] = spans_path
    record = _spawn(job)
    errors = [record["error"]] if "error" in record else []
    if "outputs" in record:
        outputs = record.pop("outputs")
        if "latencies_ms" in outputs:
            record["latencies_ms"] = outputs.pop("latencies_ms")
        errors += workloads.check(workload, outputs, refs)
    record["errors"] = errors
    record["traced"] = traced
    return record


def _fastest_cpu(cpus: list[int]) -> tuple[int, dict[int, float]]:
    """The CPU that ran the calibration chunk fastest just now, and the
    median chunk time on each; this process is left pinned to that CPU, so
    the processes it starts next run there too."""
    times = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        times[cpu] = statistics.median(calibrate.timed_chunk() for _ in range(calibrate.TRIAL_CHUNKS))
    best = min(cpus, key=times.__getitem__)
    os.sched_setaffinity(0, {best})
    return best, times


def measure(workload: str, params: dict, inputs, refs: dict, seconds: float, trace: bool, spans_path=None) -> dict:
    """Run probes and ops for about `seconds`; return every op's record.

    Each cycle times the calibration chunk on every CPU the run may use and
    runs on the fastest, pinned, so an op and the sampler inside it share
    one CPU and its phase.  Import-only probes run at the start of every
    cycle, so the set-up samples spread over the whole run like the ops do.
    """
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)[:MAX_CPUS]
    probes: list[dict] = []
    ops: list[dict] = []
    cycles: list[float] = []
    calibrations: list[dict] = []
    t_start = time.monotonic()
    try:
        while True:
            t0 = time.monotonic()
            cpu, chunk_s = _fastest_cpu(cpus)
            calibrations.append({"cpu": cpu, "chunk_s": chunk_s})
            cycle = [_spawn({"workload": "setup"}) for _ in range(PROBES_PER_CYCLE)]
            probes += cycle
            cycle.append(_run_op(workload, params, inputs, refs, False))
            if trace:
                cycle.append(_run_op(workload, params, inputs, refs, True, None if cycles else spans_path))
            ops += cycle[PROBES_PER_CYCLE:]
            cycles.append(time.monotonic() - t0)
            elapsed = time.monotonic() - t_start
            # stop when another cycle would end more than half a cycle late
            if len(cycles) >= (1 if trace else 2) and elapsed + statistics.median(cycles) / 2 > seconds:
                break
            if elapsed > LAST_START_S:
                break
    finally:
        os.sched_setaffinity(0, allowed)
    return {"probes": probes, "ops": ops, "calibrations": calibrations}


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def summarize(workload: str, measured: dict, trace: bool, spec: dict) -> dict:
    """The result: correctness counts, the contract metrics, and extras."""
    ops = measured["ops"]
    plain = [op for op in ops if not op["traced"]]
    traced = [op for op in ops if op["traced"]]
    values: dict[str, float | None] = {}
    extra: dict[str, tuple[float, str]] = {}
    if not trace:
        wanted = spec["end_to_end"]
        setups = [(r["setup_s"], r["setup_scale"]) for r in measured["probes"] + plain if "setup_s" in r]
        # an op that raised has no scale; it counts as failed, not timed
        runs = [(op["run_s"], op["scale"]) for op in plain if op.get("scale") is not None]
        values["setup_s"] = _median(t * k for t, k in setups)
        values["run_s"] = _median(t * k for t, k in runs)
        values["peak_rss_mb"] = _median(op.get("peak_rss_mb") for op in plain)
        extra["setup_s_unscaled"] = (_median(t for t, _ in setups), "s")
        extra["run_s_unscaled"] = (_median(t for t, _ in runs), "s")
        extra["speed_samples"] = (sum(op.get("speed_samples") or 0 for op in plain), "count")
        latencies = [x for op in plain for x in op.get("latencies_ms", [])]
        if len(latencies) >= 2:
            extra["map_ms_p50"] = (statistics.median(latencies), "ms")
            extra["map_ms_p95"] = (statistics.quantiles(latencies, n=100)[94], "ms")
            extra["map_samples"] = (len(latencies), "count")
    else:
        wanted = spec["per_layer"]
        layers = [op["layers"] for op in traced if "layers" in op]
        for m in wanted:
            name = m["name"]
            if name == "trace.overhead_ratio":
                t = _median(op.get("run_s") for op in traced)
                p = _median(op.get("run_s") for op in plain)
                values[name] = t / p if t and p else None
            elif layers and m["unit"] in ("s", "1/s"):
                values[name] = statistics.median(x[name] for x in layers)
            elif layers:
                # exact counts: every traced op of the run must agree
                if any(x[name] != layers[0][name] for x in layers[1:]):
                    for op in traced:
                        op["errors"].append(f"{name} differs between traced ops")
                values[name] = layers[0][name]
    failed = sum(1 for op in ops if op["errors"])
    extra["fail_ratio"] = (failed / len(ops), "1")
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
            if m["name"] not in missing
        },
        "missing": missing,
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
    }


def environment(workload: str, seed: int, trace: bool, seconds: float, n_ops: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "ops": {workload: n_ops},
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through SystemExit, so subprocess.run kills and reaps a running op
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "gpaths", "__init__.py")):
        print(f"error: no gpaths source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = load_spec()
    trace = bool(args.trace)
    params = workloads.FULL[args.workload]
    inputs = workloads.make_inputs(args.workload, params, args.seed)
    refs = workloads.references(args.workload, params)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    # one spans file per workload, overwritten by each traced run
    spans = os.path.join(RESULTS_DIR, f"{args.workload}.spans") if trace else None
    measured = measure(args.workload, params, inputs, refs, args.seconds, trace, spans)
    result = summarize(args.workload, measured, trace, spec)
    env = environment(args.workload, args.seed, trace, args.seconds, len(measured["ops"]))
    with open(stem + ".json", "w") as f:
        json.dump({"environment": env, "params": params, **measured, **result}, f, indent=1)
    print(f"# {args.workload}  seed {args.seed}  trace {args.trace}  {env['cpu_model']}  nproc {env['nproc']}  {env['python']}")
    print(f"# ops {result['attempted']}  failed {result['failed']}  setup probes {len(measured['probes'])}")
    for op in measured["ops"]:
        for err in op["errors"][:3]:
            print(f"# FAIL {err}")
    for name, m in {**result["metrics"], **result["extra"]}.items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    if result["missing"]:
        print(f"error: no value for {', '.join(result['missing'])}", file=sys.stderr)
        return 1
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
