"""Probes of the machine: set-up time, and the speed of a reference loop.

The machine the benchmark was defined on is shared.  Each of its CPUs
switches, about once a second, between its normal speed and about half of
it, and the benchmark's times moved by up to 1.6x between runs minutes
apart.  So each timed piece of work is multiplied by a scale, the speed of
the CPU it ran on relative to normal: REFERENCE_S divided by the time of a
small fixed loop, measured on the same CPU while or just before the work
ran.  See README.md, "Steadiness".
"""

import gc
import os
import signal
import statistics
import subprocess
import sys
import time

CODE = "import time; import %s; print(time.monotonic())"

# The time of reference_s() on the defining machine (Python 3.11.7, 2 vCPUs
# of an Intel Xeon at 2.0 GHz) when its CPU ran at normal speed.
REFERENCE_S = 0.0013

PERIOD_S = 0.1  # how often Speed samples the loop while work runs


def setup_sample(module, **popen):
    """Seconds from spawning an interpreter until `import module` is done;
    popen holds extra subprocess.run arguments."""
    started = time.monotonic()
    r = subprocess.run([sys.executable, "-c", CODE % module], stdin=subprocess.DEVNULL,
                       capture_output=True, text=True, **popen)
    if r.returncode != 0:
        raise RuntimeError("import %s failed: %s" % (module, r.stderr[-2000:]))
    return float(r.stdout) - started


def reference_s():
    """Time of a small fixed loop of the kind of work misere does: small
    sorted tuples interned in a dict.  It does not use the package.  The
    cyclic collector is off meanwhile, as its passes depend on the heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        table = {}
        for i in range(3000):
            key = tuple(sorted((i % 97, i % 89, i % 83)))
            table.setdefault(key, len(table))
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def scale_here():
    """The scale of the CPU this process runs on.  The fastest of three
    loops: a loop that another process preempted does not count."""
    return REFERENCE_S / min(reference_s() for _ in range(3))


def scale_now():
    """(scale, cpu) for work about to start in a child process: the CPU on
    which the loop ran fastest, its median of three loops counting the time
    other processes took it away, and that CPU's scale.  The child is to be
    kept on that CPU."""
    allowed = os.sched_getaffinity(0)
    best = None
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times = sorted(reference_s() for _ in range(3))
            if best is None or times[1] < best[0]:
                best = (times[1], times[0], cpu)
    finally:
        os.sched_setaffinity(0, allowed)
    return REFERENCE_S / best[1], best[2]


class Speed:
    """Samples the reference loop every PERIOD_S on a timer signal, in the
    measured process itself, while `running`.  measure() times a call and
    leaves the sampling out of its time."""

    def __init__(self):
        self.scales = []
        self.spent_s = self.spent_cpu_s = 0.0

    def _sample(self, *_):
        t0, c0 = time.perf_counter(), time.process_time()
        self.scales.append(REFERENCE_S / reference_s())
        self.spent_s += time.perf_counter() - t0
        self.spent_cpu_s += time.process_time() - c0

    def running(self, on):
        if on:
            signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S if on else 0, PERIOD_S)

    def measure(self, fn):
        """(fn(), wall seconds, CPU seconds, mean scale while it ran)."""
        if not self.scales:
            self._sample()
        i, spent_s, spent_cpu_s = len(self.scales), self.spent_s, self.spent_cpu_s
        t0, c0 = time.perf_counter(), time.process_time()
        result = fn()
        wall = time.perf_counter() - t0 - (self.spent_s - spent_s)
        cpu = time.process_time() - c0 - (self.spent_cpu_s - spent_cpu_s)
        return result, wall, cpu, statistics.fmean(self.scales[i:] or self.scales[-1:])
