"""The misere benchmark: three workloads, timed end to end and per layer.

    python3 bench/run.py [--workload oracle|census|cli|all] [--seed N]
                         [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Every measured process is a fresh child
interpreter with PYTHONPATH=src, because every memo table in misere is
process-global.  Workloads, metric names, units and bounds are listed in
BENCHMARK.json; bench/README.md says what each one measures and why.

With --trace 0 the end-to-end metrics are reported, with --trace 1 the
per-layer metrics from a traced run.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
(starting with "#") repeat the metrics in text, with the environment.
--workload all (the default) runs each workload in its own process.
End-to-end times are scaled by the speed of the CPU they ran on
(probe.py; README.md, "Steadiness").
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, namedtuple
from pathlib import Path

import probe
import queries

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "misere"

WORKLOADS = ("oracle", "census", "cli")
DEFAULT_SEED = 1729  # misere.DEFAULT_SEED, the seed CI uses
DEFAULT_SECONDS = 30

SETUP_EVERY = 14            # cli: a set-up sample and a warm round per this many queries
MIN_ROUNDS = 3              # cli: rounds per run, even if they overrun --seconds
PASS_LIMIT_S = 150.0        # wall timeout of one batch child
PASS_AS_BYTES = 3 << 30     # address-space cap of one batch child
CLI_LIMIT_S = 10.0          # wall timeout of one cli invocation
CLI_AS_BYTES = 1 << 30      # address-space cap of one cli invocation
DOCUMENTED_EXITS = range(6)  # README: 0 ok, 1 violations, 2 usage, 3 parse, 4 domain, 5 resource
CONSOLE_SCRIPT = "import sys; from misere.cli import main; sys.exit(main())"

TIMED_LAYERS = ("core", "outcomes", "ordering", "canonical", "lab", "notation")

Child = namedtuple("Child", "rc out err wall cpu timed_out")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env():
    path = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    # A fixed hash seed removes one source of run-to-run timing noise;
    # misere's answers do not depend on it.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONHASHSEED="0")
    # Children import from the bytecode cache, as an installed package does;
    # the first set-up spawn, which is not counted, writes it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def child_limits(as_bytes, cpu=None):
    """A preexec_fn for the child only: cap its address space and, when cpu
    is given, keep it on that CPU."""
    def preexec():
        resource.setrlimit(resource.RLIMIT_AS, (as_bytes, as_bytes))
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
    return preexec


def spawn(argv, limit_s, as_bytes, stdin=None, cpu=None):
    """Run a child to completion under a wall timeout and an address-space cap."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = time.monotonic()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), text=True, preexec_fn=child_limits(as_bytes, cpu),
        stdin=subprocess.DEVNULL if stdin is None else subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    timed_out = False
    try:
        out, err = proc.communicate(stdin, timeout=limit_s)
    except subprocess.TimeoutExpired:
        timed_out = True
        proc.kill()
        out, err = proc.communicate()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.monotonic() - started
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
    return Child(proc.returncode, out, err, wall, cpu_s, timed_out)


def child_doc(argv, limit_s, as_bytes, stdin=None, cpu=None):
    """Run bench/child.py and return its JSON document."""
    c = spawn([sys.executable, str(BENCH / "child.py")] + argv, limit_s, as_bytes, stdin, cpu)
    if c.rc != 0 or c.timed_out:
        raise BenchError("child %s failed (exit %s%s): %s" % (
            " ".join(argv), c.rc, ", timed out" if c.timed_out else "", c.err[-2000:]))
    doc = json.loads(c.out.splitlines()[-1])
    doc["spawn_wall_s"] = c.wall
    doc["spawn_cpu_s"] = c.cpu
    return doc


def setup_sample(module, cpu=None):
    try:
        return probe.setup_sample(module, cwd=ROOT, env=child_env(), timeout=PASS_LIMIT_S,
                                  preexec_fn=child_limits(PASS_AS_BYTES, cpu))
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        raise BenchError(str(e))


def p90(values):
    """90th percentile, interpolated between the samples on either side."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


# ---------------------------------------------------------------- cli


def cli_verdict(query, rc, out, err):
    """None when the invocation answered correctly, else the kind of failure."""
    if rc is None or rc < 0:
        return "killed"
    if "Traceback" in err:
        return "traceback"
    if rc not in DOCUMENTED_EXITS:
        return "undocumented-exit"
    if rc != 0 or not queries.answer_ok(query, out):
        return "wrong-answer"
    return None


class Tally:
    """Checked operations and failures."""

    def __init__(self):
        self.attempted = 0
        self.failures = Counter()
        self.messages = []

    def add(self, what, verdict):
        self.attempted += 1
        if verdict is not None:
            self.failures[verdict] += 1
            self.messages.append("%s: %s" % (what, verdict))

    @property
    def failed(self):
        return sum(self.failures.values())


def fastest(rounds):
    """The fastest time of each query over rounds, which list the queries of
    the mix in the same order."""
    return [min(col) for col in zip(*rounds)]


def check_in_process(tally, qs, answers):
    """Verdicts for answers from child.py cli: [rc, stdout, error]."""
    for q, (rc, out, error) in zip(qs, answers):
        err = "Traceback: " + error if error else ""
        tally.add(" ".join(q.argv)[:80], cli_verdict(q, rc, out, err))


class WarmServer:
    """A child.py cli process kept running: one cold round over a fixed
    list of queries, then one warm round each time it is asked."""

    def __init__(self, qs):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), "cli", "0"], cwd=ROOT,
            env=child_env(), text=True, preexec_fn=child_limits(PASS_AS_BYTES),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        self.cold = self.ask(json.dumps([q.argv for q in qs]))

    def ask(self, line):
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], PASS_LIMIT_S)
        reply = self.proc.stdout.readline() if ready else ""
        if not reply:
            self.close()
            raise BenchError("warm cli child did not answer: " + self.proc.stderr.read()[-2000:])
        return json.loads(reply)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CLI_LIMIT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def deep_chain_probe(seed):
    """Try one deep chain, outside the timed mix, and say what it did."""
    q = queries.deep_chain(seed)
    c = spawn([sys.executable, "-c", CONSOLE_SCRIPT] + q.argv, CLI_LIMIT_S, CLI_AS_BYTES)
    v = "limit" if c.timed_out else cli_verdict(q, c.rc, c.out, c.err)
    detail = (c.err.strip().splitlines() or [""])[-1][:120]
    return "misere %s: %s (exit %s) %s" % (" ".join(q.argv), v or "ok", c.rc, detail)


def cli_workload(seed, seconds, trace, tally):
    if trace:
        return cli_traced(seed, seconds, tally)
    setup_sample("misere.cli")  # not counted: may compile the bytecode cache
    extra = {"known defect probe, not counted": deep_chain_probe(seed)}
    mix = queries.mix(seed)
    server = WarmServer(mix)
    try:
        in_process = Tally()
        check_in_process(in_process, mix, server.cold["answers"])
        rounds, cpu_rounds, setup, warm, scales = [], [], [], [], []
        deadline = time.monotonic() + seconds
        count, last_s = 0, 0.0
        while len(rounds) < MIN_ROUNDS or deadline - time.monotonic() >= last_s:
            started = time.monotonic()
            walls, cpus = [], []
            for q in mix:
                if count % SETUP_EVERY == 0:
                    scale, where = probe.scale_now()
                    setup.append(setup_sample("misere.cli", where) * scale)
                    w = server.ask("warm")
                    warm.append(w["query_s"])
                    if not w["same"]:
                        in_process.add("warm round", "warm answers differ from cold answers")
                count += 1
                scale, where = probe.scale_now()
                scales.append(scale)
                c = spawn([sys.executable, "-c", CONSOLE_SCRIPT] + q.argv,
                          CLI_LIMIT_S, CLI_AS_BYTES, cpu=where)
                v = "limit" if c.timed_out else cli_verdict(q, c.rc, c.out, c.err)
                tally.add(" ".join(q.argv)[:80], v)
                walls.append(c.wall * scale if v is None else CLI_LIMIT_S)
                cpus.append(c.cpu * scale)
            rounds.append(walls)
            cpu_rounds.append(cpus)
            last_s = time.monotonic() - started
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    finally:
        server.close()
    tally.failures.update(in_process.failures)
    tally.messages += ["in process, " + m for m in in_process.messages]
    extra["queries in the mix"] = len(mix)
    extra["rounds over the mix"] = len(rounds)
    extra["mean scale"] = "%.4f" % statistics.fmean(scales)
    # Each query counts at its fastest round: a round that other tenants'
    # processes slowed down does not count (see README.md, "Steadiness").
    latencies = fastest(rounds)
    return len(rounds), {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.mean(latencies),
        "warm_wall_s": statistics.median(fastest(warm)),
        "cpu_s": statistics.mean(fastest(cpu_rounds)),
        "peak_rss_mb": peak_kb / 1024,
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": p90(latencies),
    }, extra


def cli_traced(seed, seconds, tally):
    """Passes over the mix, each query run twice, each time in its own child
    calling misere.cli.main: untraced, then traced.  Only the invocation
    times that give trace.overhead_frac are scaled."""
    mix = queries.mix(seed)
    passes = []
    deadline = time.monotonic() + seconds
    last_s = 0.0
    while not passes or deadline - time.monotonic() >= last_s:
        started = time.monotonic()
        walls, docs, cpu = [0.0, 0.0], [], 0.0
        for q in mix:
            for traced in (0, 1):
                scale, where = probe.scale_now()
                try:
                    doc = child_doc(["cli", str(traced)], CLI_LIMIT_S, CLI_AS_BYTES,
                                    json.dumps([q.argv]) + "\n", where)
                except BenchError as e:
                    tally.add(" ".join(q.argv)[:80], "limit: %s" % str(e)[-200:])
                    continue
                check_in_process(tally, [q], doc["answers"])
                walls[traced] += doc["spawn_wall_s"] * scale
                if traced:
                    docs.append(doc["layers"])
                    cpu += doc["spawn_cpu_s"]
        layers = sum_layers(docs)
        layers["child_cpu_s"] = cpu
        passes.append((walls[1] / walls[0] - 1, layers))
        last_s = time.monotonic() - started
    return len(passes), layer_metrics(passes), {}


# ------------------------------------------------------------ batch


def batch_workload(name, seed, seconds, trace, tally):
    if not trace:
        setup_sample("misere")  # not counted: may compile the bytecode cache
    runs, passes = [], []
    deadline = time.monotonic() + seconds
    last_s = 0.0
    while not runs or deadline - time.monotonic() >= last_s:
        started = time.monotonic()
        plain = child_doc(["batch", name, str(seed), "0"], PASS_LIMIT_S, PASS_AS_BYTES)
        docs = [plain]
        if trace:
            traced = child_doc(["batch", name, str(seed), "1"], PASS_LIMIT_S, PASS_AS_BYTES)
            docs.append(traced)
            layers = dict(traced["layers"], child_cpu_s=0.0)
            passes.append((traced["cold_s"] / plain["cold_s"] - 1, layers))
        for doc in docs:
            tally.attempted += doc["checked"]
            tally.failures["wrong-answer"] += len(doc["failures"])
            tally.messages += doc["failures"]
        runs.append(plain)
        last_s = time.monotonic() - started
    if trace:
        return len(passes), layer_metrics(passes), {}
    # One batch request is one cold pass: the caller waits for the verdict.
    walls = [r["cold_s"] for r in runs]
    return len(runs), {
        "setup_s": statistics.median(x for r in runs for x in r["setup_s"]),
        "wall_s": statistics.median(walls),
        "warm_wall_s": statistics.median(r["warm_s"] for r in runs),
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in runs) / 1024,
        "latency_p50_s": statistics.median(walls),
        "latency_p90_s": p90(walls),
    }, {"latency samples (passes)": len(walls),
        "mean scale per pass": " ".join("%.4f" % r["scale"] for r in runs)}


# ------------------------------------------------------------ layers


def sum_layers(docs):
    """Add up the layer reports of several children."""
    total = {"self_s": Counter(), "calls": Counter(), "counts": Counter(), "tables": Counter()}
    present = set()
    for doc in docs:
        for part in total:
            total[part].update(doc[part])
        present.update(doc["tables"])
    total["tables"] = {k: v for k, v in total["tables"].items() if k in present}
    return total


def layer_metrics(passes):
    """Per-layer metrics from (trace overhead, layer report) per pass.
    Times are medians over passes; counts come from the first pass, as
    every pass repeats the same deterministic work."""
    first = passes[0][1]
    m = {}
    for layer in TIMED_LAYERS:
        m[layer + ".self_s"] = statistics.median(p[1]["self_s"][layer] for p in passes)
        m[layer + ".calls"] = first["calls"][layer]
    m["cli.self_s"] = statistics.median(p[1]["self_s"]["cli"] for p in passes)
    m["cli.child_cpu_s"] = statistics.median(p[1]["child_cpu_s"] for p in passes)
    m.update(first["tables"])
    calls = first["counts"]["mk_game_calls"]
    if "core.nodes_created" in m:
        m["core.new_node_frac"] = m["core.nodes_created"] / calls if calls else 0.0
    m["lab.dead_end_enumerations"] = first["counts"]["dead_end_enumerations"]
    m["notation.chars_printed"] = first["counts"]["chars_printed"]
    m["trace.overhead_frac"] = statistics.median(p[0] for p in passes)
    return m


# ------------------------------------------------------------ report


def environment():
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        commit = r.stdout.strip() if r.returncode == 0 else commit
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": commit, "source_sha256": digest.hexdigest()[:16]}


def run_one(name, seed, seconds, trace, spec):
    tally = Tally()
    if name == "cli":
        runs, values, extra = cli_workload(seed, seconds, trace, tally)
    else:
        runs, values, extra = batch_workload(name, seed, seconds, trace, tally)
    listed = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed if m["name"] in values}
    absent = [m["name"] for m in listed if m["name"] not in values]
    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(name)
    env = dict(environment(), workload=name, why=why, seed=seed, trace=trace,
               runs=runs, seconds=seconds)
    print("# env " + json.dumps(env))
    for k, v in metrics.items():
        print("# %-32s %14.6f %s" % (k, v["value"], v["unit"]))
    if not trace:
        for k, v in extra.items():
            print("# %s: %s" % (k, v))
        print("# %-32s %14.6f ratio" % ("error_rate", tally.failed / max(tally.attempted, 1)))
    if absent:
        print("# absent (table or counter not found): " + ", ".join(absent))
    if tally.failed:
        print("# failures by kind: " + json.dumps(dict(tally.failures), sort_keys=True))
    for m in tally.messages[:20]:
        print("# FAILED: " + m)
    correct = not tally.failed
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # On SIGTERM, unwind, so that every child started is killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if not (PACKAGE / "__init__.py").is_file():
            raise BenchError("no package source at %s" % PACKAGE)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload == "all":
            code = 0
            for name in WORKLOADS:
                r = subprocess.run([sys.executable, __file__, "--workload", name,
                                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                                    "--trace", str(args.trace)])
                code = max(code, r.returncode)
            return code
        return run_one(args.workload, args.seed, args.seconds, args.trace, spec)
    except (BenchError, OSError, ValueError) as e:
        sys.stderr.write("bench: %s\n" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
