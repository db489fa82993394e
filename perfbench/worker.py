"""The workload process: one caller running rounds in a closed loop.

    python3 worker.py INPUTS.pkl RESULT.json

``INPUTS.pkl`` is written by ``run.py`` (the only writer, in this
checkout) and holds the workload name, its round of operation specs,
the run length, the trace switch and, for traced runs, one round of each
other workload.  The worker imports qbody from ``src/``, runs a warm-up
round (not for ``cli``, whose every call is a fresh process), then whole
rounds until the run length has passed, with set-up probes spread
between operations, and writes its metrics to ``RESULT.json`` and the
per-round latencies to ``latencies.json`` beside it.

Untraced runs report the end-to-end metrics and install no wrappers.
Traced runs time rounds untraced, then traced, and report the per-layer
metrics and the tracing overhead.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time

import ops as O
from spans import Tracer, summarize, write_spans

HERE = os.path.dirname(os.path.abspath(__file__))
PROBE = os.path.join(HERE, "probe.py")

# Every round repeats the same operations, and an operation's latency is
# taken over the rounds of the run.  The host is shared and slows down in
# windows of a few seconds.  With hundreds of rounds (query) the fastest
# time filters those windows out; with a dozen or fewer (mc, strata, cli)
# the fastest is itself a noisy extreme and the median is steadier.
# p50_ms and tail_ms are percentiles of these per-operation latencies
# over the operations of one round, so both come from one distribution;
# tail_ms is the highest percentile that leaves at least ten operations
# of the round beyond it.
MANY_ROUNDS = 100
TAIL = {"query": 0.97, "mc": 0.75, "strata": 0.75, "cli": 0.75}
MIN_ROUNDS = 3
# Set-up probes per run; a strata probe costs about a second.
SETUP_PROBES = {"query": 9, "mc": 9, "strata": 5, "cli": 9}
MAX_ERRORS_SHOWN = 5
CLI_SUBCOMMANDS = ("member", "classify", "support", "gauge", "dual",
                   "complete", "angles", "expose", "model", "selftest",
                   "volume", "sample", "slice", "orbit", "ncycle")


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def per_op_latency(table: list[list[float]]) -> list[float]:
    """Each operation's latency over the rounds, ascending."""
    over = min if len(table) >= MANY_ROUNDS else statistics.median
    return sorted(over(column) for column in zip(*table))


def run_probe(args, env) -> tuple[float, float, str]:
    """Wall seconds to the first output line, child CPU seconds, output."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, PROBE, *args], env=env,
                          stdout=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        wall = time.perf_counter() - t0
        rest = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args} exited {proc.returncode}")
    return wall, usage.ru_utime + usage.ru_stime, (first + rest).decode()


def op_label(op: dict) -> str:
    if op["kind"] == "cli":
        return "cli " + op["args"]["argv"][0]
    if op["kind"] in ("sample", "mc_volume"):
        return f"{op['kind']} {op['args'][0]}"
    if op["kind"] == "margin_batch":
        return f"margin_batch {op['args'][1]}"
    return op["kind"]


class Loop:
    """Runs rounds of one workload and settles every outcome."""

    def __init__(self, runner: O.Runner, ops: list[dict], tracer=None):
        self.runner, self.ops, self.tracer = runner, ops, tracer
        self.table: list[list[float]] = []  # latency per round, per op
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first_csv: dict[int, str] = {}
        self.op_seq = 0

    def settle(self, i: int, op: dict, res, exc) -> str | None:
        """None if the answer is right, "fault" for a known fault, else why."""
        if exc is not None:
            if op["fault"] == type(exc).__name__:
                return "fault"
            return f"{op['kind']} raised {type(exc).__name__}: {exc}"
        if op["kind"] == "cli" and op["fault"] and O.cli_fault(op, res):
            return "fault"
        try:
            O.CHECKS[op["kind"]](op, res)
            if op["kind"] == "cli" and res[2] is not None:
                first = self.first_csv.setdefault(i, res[2])
                O.expect(res[2] == first, "repeated seeded call changed bytes")
        except O.CheckError as exc2:
            what = op["args"]["argv"] if op["kind"] == "cli" else op["args"]
            return f"{op['kind']} {what}: {exc2}"
        return None

    def round(self, record: bool = True, between=None) -> None:
        """One pass over the ops, timed op by op and checked after each.

        ``between`` is called before every operation, outside its timing.
        """
        times = []
        for i, op in enumerate(self.ops):
            if between is not None:
                between()
            if self.tracer is not None:
                self.tracer.op = self.op_seq
            self.op_seq += 1
            dt, res, exc = O.timed_call(self.runner, op)
            if op["kind"] == "cli" and self.runner.wrap_cli is not None:
                self.merge_child_spans()
            outcome = self.settle(i, op, res, exc)
            times.append(dt)
            if outcome not in (None, "fault"):
                self.errors.append(outcome if record else "warm-up: " + outcome)
            if record:
                self.attempted += 1
                self.failed += outcome is not None
        if record:
            self.table.append(times)

    def subcommand_s(self) -> dict[str, list[float]]:
        """Median latency of each successful CLI call, by subcommand."""
        out: dict[str, list[float]] = {}
        for op, t in zip(self.ops, zip(*self.table)):
            if op["kind"] == "cli" and op["fault"] is None \
                    and op["args"]["exit"] == 0:
                out.setdefault(op["args"]["argv"][0], []).append(
                    statistics.median(t))
        return out

    def merge_child_spans(self) -> None:
        path = self.runner.span_path
        if os.path.exists(path):
            self.tracer.merge_file(path)
            os.remove(path)


class SetupProbes:
    """Set-up probes spread evenly over the loop time of a run.

    Called between operations; runs every probe whose turn has come.
    Time spent in probes does not count as loop time.
    """

    def __init__(self, workload: str, count: int, seconds: float, env,
                 out_dir: str):
        self.args = ["setup", workload, out_dir]
        self.count, self.seconds, self.env = count, seconds, env
        self.t0 = time.perf_counter()
        self.probe_s = 0.0
        self.walls: list[float] = []
        self.cpus: list[float] = []

    def loop_s(self) -> float:
        return time.perf_counter() - self.t0 - self.probe_s

    def __call__(self) -> None:
        while len(self.cpus) < self.count and \
                self.loop_s() >= len(self.cpus) * self.seconds / self.count:
            t0 = time.perf_counter()
            wall, cpu, _ = run_probe(self.args, self.env)
            self.probe_s += time.perf_counter() - t0
            self.walls.append(wall)
            self.cpus.append(cpu)


def end_to_end(workload: str, loop: Loop, runner: O.Runner, seconds: float,
               env, out_dir: str) -> dict:
    """Rounds for ``seconds`` of loop time, with set-up probes spread over it."""
    if workload != "cli":  # a CLI call starts a fresh process every time
        loop.round(record=False)
    run_probe(["setup", workload, out_dir], env)  # warm the file caches
    probes = SetupProbes(workload, SETUP_PROBES[workload], seconds, env, out_dir)
    while probes.loop_s() < seconds or len(loop.table) < MIN_ROUNDS:
        loop.round(between=probes)
    probes()
    lat = per_op_latency(loop.table)
    beyond = len(lat) - math.ceil(TAIL[workload] * len(lat))
    if beyond < 10 or len(probes.cpus) < SETUP_PROBES[workload]:
        raise RuntimeError(f"{beyond} operations beyond the tail percentile, "
                           f"{len(probes.cpus)} set-up probes")
    rss_kb = runner.cli_rss_kb if workload == "cli" else \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(probes.cpus), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "p50_ms": (percentile(lat, 0.5) * 1e3, "ms"),
        "tail_ms": (percentile(lat, TAIL[workload]) * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    with open(os.path.join(out_dir, "latencies.json"), "w", encoding="utf-8") as fh:
        json.dump({"kinds": [op_label(op) for op in loop.ops],
                   "rounds_ns": [[round(t * 1e9) for t in r] for r in loop.table],
                   "setup_cpu_s": probes.cpus}, fh)
    print(f"{workload}: {len(loop.table)} rounds of {len(lat)} ops, tail = "
          f"p{TAIL[workload] * 100:g}; setup wall "
          f"{[round(w, 4) for w in sorted(probes.walls)]} cpu "
          f"{[round(c, 4) for c in sorted(probes.cpus)]}", file=sys.stderr)
    return metrics


# Per-layer metrics: name -> (span key, statistic, unit).
FUNCTION_METRICS = {
    "core.primal_polys.p50_us": ("core.primal_polys", "p50", "us"),
    "core.dual_polys.p50_us": ("core.dual_polys", "p50", "us"),
    "core.orbit.p50_ms": ("core.orbit", "p50", "ms"),
    **{f"membership.member.{o}.p50_us": (f"membership.member.{o}", "p50", "us")
       for o in ("semialg", "pushout", "completion", "timo", "landau")},
    "membership.margin_batch.ns_per_point":
        ("membership.margin_batch", "per_size", "ns"),
    "membership.classical_margin_batch.ns_per_point":
        ("membership.classical_margin_batch", "per_size", "ns"),
    "boundary.classify.p50_us": ("boundary.classify", "p50", "us"),
    "boundary.solve_completion.p50_us": ("boundary.solve_completion", "p50", "us"),
    "boundary.angles_from_point.p50_us": ("boundary.angles_from_point", "p50", "us"),
    "boundary.gram_vectors.p50_us": ("boundary.gram_vectors", "p50", "us"),
    "duality.support.p50_us": ("duality.support", "p50", "us"),
    "duality.gauge.p50_us": ("duality.gauge", "p50", "us"),
    "duality.dual_member.p50_us": ("duality.dual_member", "p50", "us"),
    "duality.dual_completion.p50_ms": ("duality.dual_completion", "p50", "ms"),
    "quantum.build_model.p50_us": ("quantum.build_model", "p50", "us"),
    "quantum.clifford_model.p50_us": ("quantum.clifford_model", "p50", "us"),
    "quantum.selftest_residuals.p50_us":
        ("quantum.selftest_residuals", "p50", "us"),
    "measures.mc_volume.ns_per_point": ("measures.mc_volume", "per_size", "ns"),
    **{f"measures.sample.{t}.ns_per_point": (f"measures.sample.{t}", "per_size", "ns")
       for t in ("q4", "q5", "cube")},
    "measures.slice_grid.us_per_node": ("measures.slice_grid", "per_size", "us"),
}
SCALE = {"ns": 1.0, "us": 1e-3, "ms": 1e-6}
LAYER_AGGREGATES = ("core", "membership", "boundary", "duality", "quantum",
                    "measures")


def function_metric(key: str, stat: str, unit: str, summaries) -> float:
    """From the first summary that has spans for ``key``."""
    for summary in summaries:
        durations = summary["durations"].get(key)
        if durations:
            if stat == "p50":
                return statistics.median(durations) * SCALE[unit]
            return sum(durations) / summary["sizes"][key] * SCALE[unit]
    raise RuntimeError(f"no spans for {key}")


def traced(workload: str, loop: Loop, runner: O.Runner, aux: dict,
           seconds: float, env, out_dir: str) -> dict:
    if workload != "cli":
        loop.round(record=False)

    def phase() -> float:
        """Summed per-operation latencies over half the run length."""
        first, t0 = len(loop.table), time.perf_counter()
        while time.perf_counter() - t0 < seconds / 2 \
                or len(loop.table) - first < 2:
            loop.round()
        return sum(per_op_latency(loop.table[first:]))

    plain_s = phase()
    subcommand_s = loop.subcommand_s()
    tracer = Tracer()
    tracer.install()
    loop.tracer = tracer
    if workload == "cli":
        runner.span_path = os.path.join(out_dir, "child-spans.csv")
        runner.wrap_cli = lambda argv: [PROBE, "traced-cli", runner.span_path,
                                        str(tracer.op)]
    traced_ops = -loop.attempted
    traced_s = phase()
    traced_ops += loop.attempted
    main_spans = len(tracer.spans)

    # One traced round of every other workload, for the functions this
    # workload does not call; CLI subprocesses stay untraced there.
    runner.wrap_cli = None
    for name, ops in aux.items():
        other = Loop(runner, ops, tracer)
        other.op_seq = loop.op_seq
        other.round()
        loop.op_seq = other.op_seq
        loop.errors += other.errors
        if name == "cli":
            subcommand_s = other.subcommand_s()

    mine = summarize(tracer.spans[:main_spans])
    theirs = summarize(tracer.spans[main_spans:])
    metrics = {}
    for layer in LAYER_AGGREGATES:
        metrics[f"{layer}.calls"] = (mine["calls"].get(layer, 0) / traced_ops,
                                     "calls/op")
        metrics[f"{layer}.self_ms"] = (mine["self_ns"].get(layer, 0) * 1e-6
                                       / traced_ops, "ms/op")
    for name, (key, stat, unit) in FUNCTION_METRICS.items():
        per = "" if stat == "p50" else "/node" if name.endswith("node") else "/point"
        metrics[name] = (function_metric(key, stat, unit, (mine, theirs)),
                         unit + per)

    metrics["cli.interpreter_ms"] = (statistics.median(
        interpreter_s(env) for _ in range(5)) * 1e3, "ms")
    metrics["cli.import_ms"] = (statistics.median(
        float(run_probe(["import"], env)[2]) for _ in range(5)) * 1e3, "ms")
    mains = [float(x) for x in run_probe(["main", out_dir], env)[2].split()]
    metrics["cli.main_ms"] = (statistics.median(mains) * 1e3, "ms")
    for sub in CLI_SUBCOMMANDS:
        metrics[f"cli.{sub}.p50_ms"] = (statistics.median(subcommand_s[sub]) * 1e3,
                                        "ms")
    metrics["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1), "%")
    write_spans(tracer.spans, os.path.join(out_dir, f"spans-{workload}.csv"))
    return metrics


def interpreter_s(env) -> float:
    """Wall seconds of ``python3 -c pass``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return time.perf_counter() - t0


def main(argv: list[str]) -> int:
    with open(argv[0], "rb") as fh:
        data = pickle.load(fh)
    workload, out_dir = data["workload"], data["out_dir"]
    import qbody
    env = dict(os.environ)
    runner = O.Runner(qbody, env=env, out_dir=out_dir)
    loop = Loop(runner, data["ops"])
    if data["trace"]:
        metrics = traced(workload, loop, runner, data["aux"], data["seconds"],
                         env, out_dir)
    else:
        metrics = end_to_end(workload, loop, runner, data["seconds"], env,
                             out_dir)
    for err in loop.errors[:MAX_ERRORS_SHOWN]:
        print("ERROR", err, file=sys.stderr)
    result = {
        "correct": not loop.errors,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(argv[1], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
