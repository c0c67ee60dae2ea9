"""Paths, the reference kernel and the statistics shared by the benchmark.

Wall times on a shared virtual machine drift with the host's load: on a
2-vCPU Intel Xeon virtual machine the same pure-Python job ran up to 1.8x
slower for tens of seconds at a time, and medians over 45-second windows
still spread by 27% (interquartile range over median).  So every time is
taken together with the speed of a fixed reference kernel, probed four
times a second, and reported scaled to the nominal reference speed:

    normalized = measured * REFERENCE_NOMINAL_S / mean(reference times)

with the mean over the probes taken while the measured item ran (or the
nearest probe on each side of a short item).  The kernel always runs in the
benchmark process, never in a process that runs cobcalc: between child
processes, or, while a worker runs, on the worker's request, with the
worker blocked until the answer comes (`serve_probes`, `probe_client`).  So
the heap, the allocator state and the garbage of the measured program do
not reach the kernel.  The reference kernel is benchmark code that no
change to cobcalc touches, written in the same style as the series kernels
(dicts keyed by exponent tuples, int and Fraction coefficients), so host
slowdowns hit both alike.  Raw seconds are printed next to every result as
well.
"""

from __future__ import annotations

import contextlib
import gc
import os
import select
import signal
import statistics
import struct
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

# Typical reference-kernel time on that machine; the scale of every
# normalized time.
REFERENCE_NOMINAL_S = 0.025

# Seconds between two reference probes while work is measured.
PROBE_EVERY_S = 0.25

# Two small sparse products in the style of the series kernels, about 25 ms
# together.  Short probes taken often follow the host's fast speed changes
# better than long probes taken rarely.
_A = {(i, j, (i * j) % 5): (i + 1) * (j + 2)
      for i in range(12) for j in range(12)}
_B = {(i, j, (i + j) % 3): Fraction(i + 1, j + 1) if (i + j) % 4 == 0 else i - j
      for i in range(5) for j in range(5)}
_C = {(i, j, k, (i * j + k) % 7, 0, 1): (i + 1) * (j + 2) - k
      for i in range(4) for j in range(4) for k in range(5)}
_D = {(i, j, 0, (i + j) % 3, 1, 0): Fraction(i + 1, j + 1) if (i + j) % 4 == 0
      else i - j for i in range(7) for j in range(6)}


def _product(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            v = out.get(key)
            out[key] = ca * cb if v is None else v + ca * cb
    return len(out)


def reference_kernel():
    """Fixed pure-Python work; returns its term counts (always the same)."""
    return _product(_A, _B), _product(_C, _D)


def time_reference_kernel():
    """Seconds one run of the reference kernel takes in this process."""
    # without the collector: a collection started by the kernel's
    # allocations would traverse whatever else this process holds
    enabled = gc.isenabled()
    gc.disable()
    t = time.perf_counter()
    reference_kernel()
    took = time.perf_counter() - t
    if enabled:
        gc.enable()
    return took


def probe_client(request_fd, reply_fd):
    """A `measure` for SpeedLog in a worker: the benchmark process times the
    kernel (see `serve_probes`) while this process waits for the answer."""
    def measure():
        os.write(request_fd, b"p")
        return struct.unpack("d", os.read(reply_fd, 8))[0]
    return measure


def serve_probes(request_fd, reply_fd, deadline):
    """Time the kernel for each request of a worker until the worker closes
    its end of the request pipe.  False when `time.monotonic()` passes the
    deadline first."""
    while True:
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([request_fd], [], [], left)[0]:
            return False
        if not os.read(request_fd, 1):
            return True
        os.write(reply_fd, struct.pack("d", time_reference_kernel()))


class SpeedLog:
    """Reference probes taken while work is measured.

    `normalize(start, end, raw)` scales raw seconds measured between two
    `time.perf_counter()` readings by the probes taken inside that interval,
    or by the nearest probe on each side when none was.  `measure()` gives
    the kernel time of one probe: timed here by default, or by the
    benchmark process (`probe_client`).  In a process that does the measured
    work itself, `sampling()` probes from a timer signal every PROBE_EVERY_S
    seconds; `probe_s` is the time spent probing, which callers subtract
    from what they measure, and `on_probe(seconds)` is told of each probe.
    """

    def __init__(self, on_probe=None, measure=time_reference_kernel):
        self.times = []
        self.probes = []
        self.probe_s = 0.0
        self._on_probe = on_probe
        self._measure = measure

    def probe(self):
        t = time.perf_counter()
        took = self._measure()
        now = time.perf_counter()
        self.times.append(now)
        self.probes.append(took)
        self.probe_s += now - t
        if self._on_probe is not None:
            self._on_probe(now - t)

    def probe_if_due(self):
        if not self.times or \
                time.perf_counter() - self.times[-1] >= PROBE_EVERY_S:
            self.probe()

    def normalize(self, start, end, raw):
        inside = [p for t, p in zip(self.times, self.probes)
                  if start <= t <= end]
        if not inside:
            before = [p for t, p in zip(self.times, self.probes) if t < start]
            after = [p for t, p in zip(self.times, self.probes) if t > end]
            inside = before[-1:] + after[:1]
        return raw * REFERENCE_NOMINAL_S / statistics.fmean(inside)

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, lambda _sig, _frame:
                                 self.probe())
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def tail(values):
    """(percentile, value): the highest percentile with at least ten values
    beyond it, or the maximum when that percentile would not lie above the
    median (fewer than 21 values)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return 100.0, ordered[-1]
    k = n - 10
    return 100.0 * k / n, ordered[k - 1]


def child_env():
    """Environment for child processes: cobcalc imported from this checkout."""
    env = dict(os.environ)
    parts = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env
