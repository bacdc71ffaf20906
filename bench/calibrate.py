"""Calibration: a fixed chunk of pure-Python work, timed, with no gpaths.

Each vCPU of the host this benchmark was built on switches between a fast
phase and slow ones (up to about 2.4x slower) every few seconds to minutes,
on its own, and CPU time slows with wall time, so raw times of whole runs
spread further than any useful bound.  `chunk` takes about 0.56 ms in a
fast phase; timing it tells how fast the CPU is just then.  It shares no
code with gpaths, so a change to the package cannot speed it up or slow it
down, and it uses what gpaths uses most: generators, recursion, string
building and slicing, dicts and big integers.

The runner times chunks on each CPU to pick the fastest for a cycle; an op
process times `SETUP_CHUNKS` chunks right after `import gpaths`, and a
`Sampler` while its op runs; `scale` turns those into a factor from
measured seconds to seconds at the reference speed.
"""

import gc
import statistics
import threading
import time

# median time of one chunk in a fast phase of the host (2-vCPU Intel Xeon VM,
# CPython 3.11.7); scaled times read as seconds at that speed
REFERENCE_S = 0.00056
# chunks timed on each CPU before a cycle, and in an op process after import
TRIAL_CHUNKS = 50
SETUP_CHUNKS = 5
# the sampler holds the GIL for one chunk every INTERVAL_S, about 1 % of an op
INTERVAL_S = 0.05


def _walks(n: int, h: int, prefix: str):
    """Motzkin words of length n that end at height 0, from height h."""
    if n == 0:
        if h == 0:
            yield prefix
        return
    if h < n - 1:
        yield from _walks(n - 1, h + 1, prefix + "U")
    yield from _walks(n - 1, h, prefix + "H")
    if h:
        yield from _walks(n - 1, h - 1, prefix + "D")


def chunk() -> tuple:
    counts: dict[int, int] = {}
    for w in _walks(8, 0, ""):
        k = w.count("UD") + len(w[1:].split("H"))
        counts[k] = counts.get(k, 0) + 1
    catalan = [1]
    for n in range(1, 40):
        catalan.append(sum(catalan[i] * catalan[n - 1 - i] for i in range(n)))
    return sorted(counts.items()), catalan[-1]


def timed_chunk() -> float:
    """Seconds one chunk takes, with the collector off, so that a collection
    of an op's heap never lands in a sample."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    chunk()
    t1 = time.perf_counter()
    if enabled:
        gc.enable()
    return t1 - t0


def scale(samples: list[float]) -> float:
    """Factor from measured seconds to seconds at the reference speed.

    The mean of the sampled speeds (REFERENCE_S over each chunk's time), so
    an op that ran half in a fast and half in a slow phase is scaled by the
    average speed, and one chunk slowed by an interrupt weighs little.
    """
    return statistics.fmean(REFERENCE_S / s for s in samples)


class Sampler:
    """Times a chunk as the op starts and ends, and every INTERVAL_S between.

    The side thread runs on the op's CPU, since the runner pins the op
    process to one.  A chunk is shorter than the interpreter's switch
    interval, so it runs with the GIL held and the op paused; `busy_s` is
    the time the side thread took from the op.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.busy_s = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(INTERVAL_S):
            t = timed_chunk()
            self.samples.append(t)
            self.busy_s += t

    def __enter__(self):
        self.samples.append(timed_chunk())
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.samples.append(timed_chunk())
