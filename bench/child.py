"""One measured process.  Every memo table in misere is process-global, so
each pass of a workload runs in a fresh interpreter started by run.py.

    child.py batch <oracle|census> <seed> <trace 0|1>
    child.py cli <trace 0|1>

A batch pass runs the workload once with cold tables, as a fixed sequence
of steps (one enumeration, one game checked, one census call), and times
each step.  Untraced, each step is repeated with warm tables right after
its cold run, and about once a second an import-only interpreter is timed
between two steps.  The repeats leave the tables as they found them;
neither they nor the set-up samples count in the cold time.  Untraced
times are scaled by the speed of the CPU (probe.py).

The cli mode reads a JSON list of argv lists as its first line of stdin
and runs them through misere.cli.main once, with cold tables.  Then each
further line "warm" runs them all again and reports the scaled time of
each.

Each report is one JSON line on stdout.
"""

import functools
import importlib
import io
import json
import os
import resource
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import misere
import probe
from misere import EnumerationBudget as Budget, Universe

D = Universe.DICOT
E = Universe.DEAD_ENDING

ORACLE_GAMES = 232 + 3026 + 300

# Warm repeats of each step.  One oracle repeat takes about 2.8 s, spread
# over 3,558 games; one census repeat about 0.15 s, spread over five
# steps (Python 3.11, 2 vCPUs).
WARM_REPEATS = {"oracle": 1, "census": 10}
SETUP_EVERY_S = 1.0
SETUP_LIMIT_S = 60.0

# Criterion 09 slices, in the order census() runs them:
# (label, expected games, expected classes or None when sampled)
CENSUS_SLICES = (
    ("rank-2 dicot", 10, 9),
    ("rank-2 dead-ending", 232, 196),
    ("rank-3 dicot", 3026, 442),
    ("rank-3 dead-ending sample", 300, None),
)

# Metric name -> (layer module, table names); a table name also matches
# the tables that extend it with a suffix, so `_MIS` covers `_MIS_L`.
TABLES = {
    "core.sum_memo_entries": ("core", ("_SUMS",)),
    "outcomes.memo_entries": ("outcomes", ("_MIS", "_NOR", "_STRONG")),
    "ordering.ge_memo_entries": ("ordering", ("_GE",)),
    "canonical.canon_memo_entries": ("canonical", ("_CANON",)),
}


class Steps:
    """Runs each step cold, then `repeats` more times with warm tables, and
    then takes a set-up sample if one is due.  Every time is scaled by the
    speed of the CPU while it was measured (probe.Speed)."""

    def __init__(self, repeats):
        self.repeats = repeats
        self.speed = probe.Speed()
        self.cold_s = self.cold_cpu_s = self.warm_s = 0.0
        self.setup_s = []
        self.last_setup = perf_counter()
        self.failures = []

    def __call__(self, fn):
        result, wall, cpu, scale = self.speed.measure(fn)
        self.cold_s += wall * scale
        self.cold_cpu_s += cpu * scale
        if not self.repeats:
            return result
        warm = []
        for _ in range(self.repeats):
            again, wall, _, scale = self.speed.measure(fn)
            warm.append(wall * scale)
            if again != result and not self.failures:
                self.failures.append("warm answers differ from cold answers")
        self.warm_s += statistics.median(warm)
        if perf_counter() - self.last_setup >= SETUP_EVERY_S:
            self.speed.running(False)  # the sample runs in another process
            scale, here = probe.scale_now()
            self.setup_s.append(scale * probe.setup_sample(
                "misere", timeout=SETUP_LIMIT_S,
                preexec_fn=functools.partial(os.sched_setaffinity, 0, {here})))
            self.speed.running(True)
            self.last_setup = perf_counter()
        return result


def oracle(seed, run):
    """Acceptance criterion 03: closed-form strong outcomes vs brute force."""
    checked, failures = 0, []

    def check(g, **kw):
        nonlocal checked
        got, want = run(lambda: (
            (misere.strong_left_outcome(g), misere.strong_right_outcome(g)),
            (misere.brute_strong_left(g, **kw), misere.brute_strong_right(g, **kw))))
        checked += 1
        if got != want:
            failures.append("strong outcome mismatch on game %d" % checked)

    for g in run(lambda: misere.enumerate_games(Budget(2, 4, E))):
        check(g)
    rank3 = run(lambda: misere.enumerate_games(Budget(3, 2, D))) + \
        run(lambda: misere.sample_rank3_games(E, max_options=2, count=300, seed=seed))
    for g in rank3:
        check(g, max_options=2)
    if checked != ORACLE_GAMES:
        failures.append("checked %d games, expected %d" % (checked, ORACLE_GAMES))
    return checked, failures


def census(seed, run):
    """Acceptance criterion 09: canonical buckets against pairwise equivalence."""
    reports = [
        run(lambda: misere.census(Budget(2, 4, D), sample_pairs=None)),
        run(lambda: misere.census(Budget(2, 4, E), sample_pairs=None)),
        run(lambda: misere.census(Budget(3, 2, D), sample_pairs=2000, seed=seed)),
    ]
    sample = run(lambda: misere.sample_rank3_games(E, max_options=2, count=300, seed=seed))
    reports.append(run(lambda: misere.census(
        games=sample, universe=E, sample_pairs=2000, seed=seed)))
    failures = []
    for rep, (label, total, classes) in zip(reports, CENSUS_SLICES):
        if not (rep.ok and rep.total == total and classes in (None, rep.class_count)):
            failures.append("census %s: ok=%s, %d games, %d classes" % (
                label, rep.ok, rep.total, rep.class_count))
    return len(reports), failures


def run_cli(argv):
    """misere.cli.main(argv) as the console script runs it, output captured."""
    from misere import cli

    out, err = io.StringIO(), io.StringIO()
    error = None
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else int(e.code is not None)
    except Exception as e:  # a failing query must not end the stream
        # The type only: the message of a RecursionError depends on the
        # depth of the caller's stack.
        rc, error = 1, type(e).__name__
    return [rc, out.getvalue(), error]


def _table_size(mod, names):
    sizes = [len(v) for k, v in vars(mod).items() if isinstance(v, dict)
             and any(k == n or k.startswith(n + "_") for n in names)]
    return sum(sizes) if sizes else None


def layer_report(tracer, nodes_before):
    """Span totals, counters and table sizes, read once after the run."""
    rep = {"self_s": tracer.self_s, "calls": tracer.calls,
           "counts": dict(tracer.counts), "tables": {}}
    if nodes_before is not None:
        rep["tables"]["core.nodes_created"] = len(misere.core._NODES) - nodes_before
    for metric, (layer, names) in TABLES.items():
        size = _table_size(importlib.import_module("misere." + layer), names)
        if size is not None:
            rep["tables"][metric] = size
    return rep


def emit(doc):
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def main(argv):
    mode, trace = argv[0], argv[-1] == "1"
    queries = json.loads(sys.stdin.readline()) if mode == "cli" else None
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.install()
    nodes = getattr(misere.core, "_NODES", None)
    nodes_before = None if nodes is None else len(nodes)

    if mode == "batch":
        workload, seed = argv[1], int(argv[2])
        run = Steps(0 if trace else WARM_REPEATS[workload])
        run.speed.running(True)
        checked, failures = {"oracle": oracle, "census": census}[workload](seed, run)
        run.speed.running(False)
        doc = {"checked": checked, "failures": failures + run.failures,
               "cold_s": run.cold_s, "cpu_s": run.cold_cpu_s, "warm_s": run.warm_s,
               "setup_s": run.setup_s, "scale": statistics.fmean(run.speed.scales)}
    else:
        answers = [run_cli(q) for q in queries]
        doc = {"answers": answers}
    doc["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        doc["layers"] = layer_report(tracer, nodes_before)
    emit(doc)

    for _ in sys.stdin if mode == "cli" else ():
        times, same = [], True
        for q, cold in zip(queries, answers):
            scale = probe.scale_here()
            t0 = perf_counter()
            again = run_cli(q)
            times.append((perf_counter() - t0) * scale)
            same = same and again == cold
        emit({"same": same, "query_s": times})


if __name__ == "__main__":
    main(sys.argv[1:])
