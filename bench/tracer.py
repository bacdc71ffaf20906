"""Span tracer for the benchmark's traced run, installed from outside gpaths.

`Tracer.install` wraps the public functions of each layer module, the
arithmetic operators of `Polynomial` and `TruncatedSeries`, and the
`RiordanArray` constructor.  It rebinds every name that refers to a wrapped
object: module attributes where callers imported them (for example
`gpaths.verification.iter_step_strings`), values of module-level dicts (for
example `stats._METHODS`), and the bijection registry.  `uninstall` puts the
originals back.

Each call records a span (name, start, end, parent span) in compact arrays
that stay in memory until `write_spans`.  A span's self time is its duration
minus the time its child spans cover, accumulated on a stack as calls
return.  A generator gets one span from creation to exhaustion; only the
time inside its `next()` calls is busy time, and only that is subtracted
from the frame that called `next()`, so the consumer's work between items
is not billed to enumeration.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import sys
import time
from array import array

LAYERS = ("cli", "verification", "enumeration", "bijections", "paths", "weights", "series", "stats")

# Constant-time helpers called from inside their own layer's loops: a span
# would add overhead without moving time between layers.
_SKIP = {"enumeration.catalan_number", "enumeration.gbinom", "enumeration.size_cap"}

_METHODS = {
    ("weights", "Polynomial"): (
        "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__pow__", "eval_at", "subs",
    ),
    ("series", "TruncatedSeries"): (
        "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__pow__", "xmul", "recip", "truncate",
    ),
    ("series", "RiordanArray"): ("__init__", "entry", "matrix"),
}

WALKS = ("enumeration.iter_step_strings", "enumeration.weighted_count")
_WALK_TIME = WALKS + ("enumeration.count_paths", "enumeration.generate")
BIJECTIONS = ("sigma", "phi_peak", "vartheta", "theta", "rho", "varphi", "psi", "varphi_theta")
CHECKS = (
    "check_stat_tables",
    "check_weighted_counts",
    "check_bijections",
    "check_identities",
    "check_stat_identities",
    "check_restricted_stats",
    "check_ballot",
)
# groups: inclusive time of the outermost call among the named functions
_GROUPS = {
    "recurrence": ("enumeration.guvu_coeffs", "enumeration.gfull_coeffs"),
    "closed_form": ("enumeration.closed_form", "enumeration.prop21", "enumeration.ballot_coeff"),
    "brute": ("stats.stat_brute",),
    "riordan": ("stats.stat_riordan",),
    "formula": ("stats.stat_formula",),
    **{f"map.{b}": (f"bijections.{b}", f"bijections.{b}_inv") for b in BIJECTIONS},
    **{f"check.{c}": (f"verification.{c}",) for c in CHECKS},
}


def _poly_terms(other) -> int:
    terms = getattr(other, "terms", None)
    if terms is not None:
        return len(terms)
    return 1 if isinstance(other, int) and other else 0


class Tracer:
    """Spans and counters for one op; create, install, run, uninstall."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.items: list[int] = []
        self.group_ns = {g: 0 for g in _GROUPS}
        self.group_depth = {g: 0 for g in _GROUPS}
        self.counters = {"paths": 0, "letters": 0, "term_products": 0, "coeff_products": 0, "entries": 0, "checks": 0}
        self.distinct: set = set()
        self.sp_name = array("H")
        self.sp_parent = array("i")
        self.sp_start = array("q")
        self.sp_end = array("q")
        self.busy_ns: dict[int, int] = {}
        self.stack = [[-1, 0]]  # [span id, time covered by children]
        self._patches: list = []

    # -- wrapping ------------------------------------------------------------

    def _id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        self.items.append(0)
        return len(self.names) - 1

    def _hooks(self, name: str):
        """(pre(args), post(result)) counter hooks for one span name."""
        c = self.counters
        if name in WALKS:
            distinct = self.distinct

            def pre(args):
                distinct.add((args[0], args[1]))

            if name == "enumeration.weighted_count":

                def post(result):
                    c["paths"] += sum(result.terms.values())

                return pre, post
            return pre, None
        if name.startswith("bijections.") and name.split(".")[1].removesuffix("_inv") in BIJECTIONS:

            def pre(args):
                c["letters"] += len(args[0].steps)

            return pre, None
        if name == "weights.Polynomial.__mul__":

            def pre(args):
                c["term_products"] += len(args[0].terms) * _poly_terms(args[1])

            return pre, None
        if name == "series.TruncatedSeries.__mul__":

            def pre(args):
                other = args[1]
                if hasattr(other, "order"):
                    n = min(args[0].order, other.order) + 1
                    c["coeff_products"] += n * (n + 1) // 2

            return pre, None
        if name == "series.TruncatedSeries.recip":

            def pre(args):
                n = args[0].order
                c["coeff_products"] += n * (n + 1) // 2

            return pre, None
        if name == "stats.stat_table":

            def post(result):
                c["entries"] += sum(len(row) for row in result.rows)

            return None, post
        if name.startswith("verification.check_"):

            def post(result):
                c["checks"] += len(result)

            return None, post
        return None, None

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        pre, post = self._hooks(name)
        calls, self_ns, stack = self.calls, self.self_ns, self.stack
        sp_name, sp_parent, sp_start, sp_end = self.sp_name, self.sp_parent, self.sp_start, self.sp_end
        clock = time.perf_counter_ns
        if inspect.isgeneratorfunction(fn):
            tracer = self

            def gen_wrapper(*args, **kwargs):
                calls[nid] += 1
                if pre is not None:
                    pre(args)
                sid = len(sp_name)
                sp_name.append(nid)
                sp_parent.append(stack[-1][0])
                now = clock()
                sp_start.append(now)
                sp_end.append(now)
                tracer.busy_ns[sid] = 0
                return _TracedGenerator(tracer, fn(*args, **kwargs), nid, sid)

            return gen_wrapper
        group = next((g for g, members in _GROUPS.items() if name in members), None)
        if pre is None and post is None and group is None:

            def wrapper(*args, **kwargs):
                calls[nid] += 1
                sid = len(sp_name)
                sp_name.append(nid)
                sp_parent.append(stack[-1][0])
                frame = [sid, 0]
                stack.append(frame)
                t0 = clock()
                sp_start.append(t0)
                sp_end.append(t0)
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    dur = t1 - t0
                    sp_end[sid] = t1
                    self_ns[nid] += dur - frame[1]
                    stack[-1][1] += dur

            return wrapper
        group_ns, depth = self.group_ns, self.group_depth

        def hooked(*args, **kwargs):
            calls[nid] += 1
            if pre is not None:
                pre(args)
            sid = len(sp_name)
            sp_name.append(nid)
            sp_parent.append(stack[-1][0])
            frame = [sid, 0]
            stack.append(frame)
            if group is not None:
                depth[group] += 1
            t0 = clock()
            sp_start.append(t0)
            sp_end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                sp_end[sid] = t1
                self_ns[nid] += dur - frame[1]
                stack[-1][1] += dur
                if group is not None:
                    depth[group] -= 1
                    if not depth[group]:
                        group_ns[group] += dur
            if post is not None:
                post(result)
            return result

        return hooked

    def _targets(self):
        """(span name, original object, owning class or None) to wrap."""
        for layer in LAYERS:
            module = sys.modules[f"{self.package.__name__}.{layer}"]
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if attr.startswith("_") or name in _SKIP or inspect.isclass(obj):
                    continue
                if callable(obj) and getattr(obj, "__module__", None) == module.__name__:
                    yield name, obj
        for (layer, cls_name), methods in _METHODS.items():
            cls = getattr(sys.modules[f"{self.package.__name__}.{layer}"], cls_name)
            for method in methods:
                yield f"{layer}.{cls_name}.{method}", cls.__dict__[method]

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for name, obj in self._targets():
            if id(obj) not in wrappers:
                wrappers[id(obj)] = self._wrap(obj, name)
        prefix = self.package.__name__
        for mod_name, module in list(sys.modules.items()):
            if mod_name != prefix and not mod_name.startswith(prefix + "."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, attr, value, wrappers[id(value)], setattr)
                elif inspect.isclass(value) and value.__module__ == mod_name:
                    for key, member in list(vars(value).items()):
                        if id(member) in wrappers:
                            self._patch(value, key, member, wrappers[id(member)], setattr)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._patch(value, key, item, wrappers[id(item)], dict.__setitem__)
                        elif dataclasses.is_dataclass(item) and not inspect.isclass(item):
                            fields = {
                                f.name: wrappers[id(getattr(item, f.name))]
                                for f in dataclasses.fields(item)
                                if id(getattr(item, f.name)) in wrappers
                            }
                            if fields:
                                new = dataclasses.replace(item, **fields)
                                self._patch(value, key, item, new, dict.__setitem__)

    def _patch(self, container, key, original, replacement, setter) -> None:
        self._patches.append((container, key, original, setter))
        setter(container, key, replacement)

    def uninstall(self) -> None:
        for container, key, original, setter in reversed(self._patches):
            setter(container, key, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def _sum(self, table, names) -> int:
        return sum(table[i] for i, n in enumerate(self.names) if n in names)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the traced op; times in seconds."""
        names = self.names
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                ns for n, ns in zip(names, self.self_ns) if n.split(".")[0] == layer
            ) / 1e9
        c = self.counters
        walks = self._sum(self.calls, WALKS)
        paths = c["paths"] + self._sum(self.items, ("enumeration.iter_step_strings",))
        walk_s = self._sum(self.self_ns, _WALK_TIME) / 1e9
        out["enumeration.calls"] = walks
        out["enumeration.paths"] = paths
        out["enumeration.paths_per_s"] = paths / walk_s if walk_s else 0.0
        out["enumeration.distinct_ratio"] = len(self.distinct) / walks if walks else 0.0
        out["enumeration.recurrence_s"] = self.group_ns["recurrence"] / 1e9
        out["enumeration.closed_form_s"] = self.group_ns["closed_form"] / 1e9
        maps = [f"bijections.{b}" for b in BIJECTIONS] + [f"bijections.{b}_inv" for b in BIJECTIONS]
        out["bijections.maps"] = self._sum(self.calls, maps)
        out["bijections.letters"] = c["letters"]
        for b in BIJECTIONS:
            trips = self._sum(self.calls, (f"bijections.{b}", f"bijections.{b}_inv")) / 2
            ns = self.group_ns[f"map.{b}"]
            out[f"bijections.{b}.rt_per_s"] = trips / (ns / 1e9) if ns else 0.0
        out["paths.match_calls"] = self._sum(self.calls, ("paths.match_index_str",))
        out["paths.parse_calls"] = self._sum(self.calls, ("paths.parse",))
        out["weights.mul_calls"] = self._sum(self.calls, ("weights.Polynomial.__mul__",))
        out["weights.term_products"] = c["term_products"]
        out["weights.exponent_calls"] = self._sum(self.calls, ("weights.weight_exponents",))
        out["series.mul_calls"] = self._sum(self.calls, ("series.TruncatedSeries.__mul__",))
        out["series.coeff_products"] = c["coeff_products"]
        out["series.riordan_arrays"] = self._sum(self.calls, ("series.RiordanArray.__init__",))
        out["stats.entries"] = c["entries"]
        for method in ("brute", "riordan", "formula"):
            out[f"stats.{method}_s"] = self.group_ns[method] / 1e9
        for check in CHECKS:
            out[f"verification.{check}_s"] = self.group_ns[f"check.{check}"] / 1e9
        out["verification.checks"] = c["checks"]
        return out

    def write_spans(self, path: str) -> None:
        """One JSON header line, then the four span arrays back to back."""
        header = {
            "names": self.names,
            "count": len(self.sp_name),
            "arrays": [["name", "H"], ["parent", "i"], ["start_ns", "q"], ["end_ns", "q"]],
            "generator_busy_ns": {str(k): v for k, v in self.busy_ns.items()},
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.sp_name, self.sp_parent, self.sp_start, self.sp_end):
                arr.tofile(f)


def read_spans(path: str):
    """(header, {field: array}) as written by `Tracer.write_spans`."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        arrays = {}
        for field, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(f, header["count"])
            arrays[field] = arr
    return header, arrays


class _TracedGenerator:
    """Bills only the time inside `next()` to the generator's span."""

    __slots__ = ("tracer", "gen", "nid", "sid")

    def __init__(self, tracer: Tracer, gen, nid: int, sid: int):
        self.tracer, self.gen, self.nid, self.sid = tracer, gen, nid, sid

    def __iter__(self):
        return self

    def __next__(self):
        t = self.tracer
        stack = t.stack
        frame = [self.sid, 0]
        stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            item = next(self.gen)
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            dur = t1 - t0
            t.self_ns[self.nid] += dur - frame[1]
            t.busy_ns[self.sid] += dur
            t.sp_end[self.sid] = t1
            stack[-1][1] += dur
        t.items[self.nid] += 1
        return item
