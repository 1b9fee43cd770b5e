"""Benchmark of the ``isotypic`` library and CLI, end to end and per layer.

Usage, from the root of a source checkout:

    python3 isobench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (inputs made from the seed by workloads.py):

* ``cli-golden``: the acceptance suite's golden commands plus ``mv-check``,
  each in ``--format text`` and ``--format json``, run one at a time as cold
  ``python -m isotypic`` processes, in passes, until S seconds and at least
  100 commands have run.
* ``iset-sweep``: ``admissible_set(k, 1, 3)`` for k = 10..18 with the
  members enumerated, in one fresh worker process per repetition.
* ``bound-sweep``: targeted affine/sa/complex/projective bounds and pure
  sums (equivariant with 1 and 2 workers, 3-block equivariant and affine,
  projection), one fresh worker process per repetition.
* ``query-mix``: one warm worker answers a seeded stream of Kostka, LR,
  split-multiplicity, dimension, Young-module and orbit queries at weights
  16-24, each asked twice; one fresh worker per repetition.

Each repetition is one closed loop driven by this single client, and runs
repeat until S seconds have passed.  ``--trace 0`` prints the end-to-end
metrics: ``setup_s`` (median over fresh interpreters of spawn until
``import isotypic`` is done), ``wall_s`` (median time of the whole
operation list), ``op_p50_s``/``op_p90_s`` (percentiles over every timed
operation of the run for cli-golden and query-mix, over each operation's
median for the short lists of the other two), ``peak_rss_mb`` (median
peak RSS of the worker, or of the largest CLI process of a pass).  Times
are calibrated against the references of speed.py, which run between
operations, so that they follow the program rather than the momentary
speed of a shared host; the raw figures are printed too.  ``--trace 1``
alternates untraced and traced repetitions and prints the per-layer
metrics of spans.py plus ``trace.overhead_ratio``.  Correctness checks run
outside the timed region; ``error_rate`` is failed over attempted operations.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Files go to ``.isobench/`` in
the checkout.  Exit code 2 when the checkout holds no ``src/isotypic``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".isobench"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.interp_s": "s",
    "cli.import_s": "s",
    "cli.command_s": "s",
    "partitions.calls": "count",
    "partitions.self_s": "s",
    "partitions.cache_entries": "count",
    "tableaux.lr.calls": "count",
    "tableaux.lr.self_s": "s",
    "tableaux.lr.hit_ratio": "ratio",
    "tableaux.kostka.calls": "count",
    "tableaux.kostka.self_s": "s",
    "tableaux.kostka.hit_ratio": "ratio",
    "tableaux.strips.hit_ratio": "ratio",
    "tableaux.cache_entries": "count",
    "induction.pieri.calls": "count",
    "induction.pieri.self_s": "s",
    "induction.pieri.terms": "count",
    "induction.split_module.hit_ratio": "ratio",
    "induction.cache_entries": "count",
    "induction.max_split.calls": "count",
    "induction.max_split.self_s": "s",
    "induction.split_multiplicity.self_s": "s",
    "admissible.calls": "count",
    "admissible.self_s": "s",
    "admissible.lambdas": "count",
    "admissible.member_yield": "ratio",
    "bounds.calls": "count",
    "bounds.self_s": "s",
    "bounds.terms": "count",
    "bounds.nonzero_term_ratio": "ratio",
    "bounds.g_factor.calls": "count",
    "orbits.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

SETUP_SPAWNS = 15
# The workloads whose per-operation latency is a metric of their own.
LATENCY_WORKLOADS = ("cli-golden", "query-mix")
MIN_CLI_OPS = 100
CHILD_TIMEOUT_S = 150


class BenchmarkError(RuntimeError):
    """The benchmark could not run the program (it did not start, or hung)."""


def now() -> float:
    # CLOCK_MONOTONIC is system-wide, so stamps from child processes compare
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


ENV = child_env()


class Worker:
    """A fresh worker.py process; its set-up time is spawn until ready."""

    def __init__(self):
        self.spawned = now()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=ENV, text=True)
        line = self.proc.stdout.readline()
        self.ready = now()
        fields = line.split()
        if len(fields) != 3 or fields[0] != "ready":
            self._finish("")
            raise BenchmarkError(f"worker did not start (printed {line!r})")
        self.start, self.imported = float(fields[1]), float(fields[2])

    def _finish(self, text: str) -> str:
        try:
            out, _ = self.proc.communicate(text, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise BenchmarkError(f"worker took over {CHILD_TIMEOUT_S} s")
        return out

    def run(self, job: dict) -> dict:
        out = self._finish(json.dumps(job) + "\n")
        lines = out.splitlines()
        if self.proc.returncode != 0 or not lines:
            raise BenchmarkError(f"worker exited with code {self.proc.returncode}")
        return json.loads(lines[-1])

    def close(self) -> None:
        self._finish("")


def setup_probes() -> list[Worker]:
    """Fresh interpreters that import isotypic, report ready and exit; each
    is bracketed by bare interpreter starts, which set its calibration
    ``factor``."""
    probes = []
    for _ in range(SETUP_SPAWNS):
        before = speed.interpreter_start(ENV, ROOT)
        worker = Worker()
        worker.close()
        after = speed.interpreter_start(ENV, ROOT)
        worker.factor = speed.NOMINAL_START_S / ((before + after) / 2)
        probes.append(worker)
    return probes


def run_cli(argv: list[str], stats_path: Path | None) -> dict:
    """One cold CLI process; its own peak RSS comes from wait4."""
    if stats_path is None:
        cmd = [sys.executable, "-m", "isotypic", *argv]
    else:
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(stats_path), *argv]
    err_path = WORK / "cli-stderr.txt"
    spawned = now()
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=ENV)
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    elapsed = now() - spawned
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    record = {"time": elapsed, "code": proc.returncode, "out": out,
              "rss_kb": usage.ru_maxrss, "spawned": spawned}
    if proc.returncode != 0:
        record["stderr"] = err_path.read_text(encoding="utf-8", errors="replace")[-500:]
    return record


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


class Rep:
    """One timed pass over the operation list: raw and calibrated op times
    and peak RSS."""

    def __init__(self, times: list[float], factors: list[float], rss_kb: int):
        self.times, self.rss_kb = times, rss_kb
        self.calibrated = [t * f for t, f in zip(times, factors)]
        self.wall = sum(self.calibrated)


def latency_samples(workload: str, reps: list[list[float]]) -> list[float]:
    """What op_p50_s/op_p90_s are taken over: every timed operation of the
    run where the workload is a stream of many small operations; each
    operation's median where it is a short list of unequal ones, so that
    the percentiles do not depend on how many repetitions fitted the run."""
    if workload in LATENCY_WORKLOADS:
        return [t for times in reps for t in times]
    return [median(column) for column in zip(*reps)]


def timings(workload: str, setup: list[float], reps: list[list[float]]) -> dict:
    """The timed end-to-end metrics from set-up times and per-repetition
    operation times."""
    samples = latency_samples(workload, reps)
    return {
        "setup_s": median(setup),
        "wall_s": median([sum(times) for times in reps]),
        "op_p50_s": percentile(samples, 50),
        "op_p90_s": percentile(samples, 90),
    }


class Outcome:
    """What one run measured: repetitions, failures and the traced stats."""

    def __init__(self):
        self.reps: list[Rep] = []
        self.traced_reps: list[Rep] = []
        self.layer_samples: list[dict] = []
        self.table_raw: dict | None = None
        self.cli_stamps: dict[str, list[float]] = {"interp": [], "import": [], "command": []}
        self.attempted = 0
        self.failures: list[str] = []


def cli_golden(inputs: dict, seconds: float, trace: bool, tiny: bool, out: Outcome) -> None:
    paths = []
    for i, spec in enumerate(inputs["checks"]["mv_specs"], 1):
        path = WORK / f"mv-spec-{i}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        paths.append(str(path))
    swap = {workloads.MV_SPEC_1: paths[0], workloads.MV_SPEC_2: paths[1]}
    ops = [[swap.get(arg, arg) for arg in argv] for argv in inputs["ops"]]
    passes: list[list[dict]] = []
    traced_spans: list = []
    begin = now()
    while True:
        traced = trace and len(passes) % 2 == 1
        stats_path = WORK / "cli-stats.json" if traced else None
        records, raws, pass_spans = [], [], []
        meter = speed.Speedometer(lambda: speed.interpreter_start(ENV, ROOT),
                                  speed.NOMINAL_START_S)
        marks = []
        for index, argv in enumerate(ops):
            marks.append(meter.mark())
            record = run_cli(argv, stats_path)
            records.append(record)
            meter.maybe_sample()
            if traced and record["code"] == 0:
                stats = json.loads(stats_path.read_text(encoding="utf-8"))
                raws.append(stats["layers"])
                pass_spans.extend([index, *span] for span in stats["spans"])
                out.cli_stamps["interp"].append(stats["start"] - record["spawned"])
                out.cli_stamps["import"].append(stats["imported"] - stats["start"])
                out.cli_stamps["command"].append(stats["command_s"])
        passes.append(records)
        rep = Rep([r["time"] for r in records], meter.factors(marks),
                  max(r["rss_kb"] for r in records))
        if traced:
            out.traced_reps.append(rep)
            if raws:
                out.table_raw = spans.merge(raws)
                out.layer_samples.append(spans.layer_metrics(out.table_raw))
            traced_spans = pass_spans
        else:
            out.reps.append(rep)
        enough = tiny or trace or len(out.reps) * len(ops) >= MIN_CLI_OPS
        if now() - begin >= seconds and enough and (not trace or out.traced_reps):
            break
    if trace:
        spans.write_spans(WORK / "spans-cli-golden.tsv", traced_spans,
                          "op\tid\tparent\tname\tstart\tend")

    # checks, outside the timed passes
    reference = Worker().run({"workload": "cli-inprocess", "ops": ops})
    for records in passes:
        for index, record in enumerate(records):
            out.attempted += 1
            text = record["out"].decode("utf-8", errors="replace")
            argv = " ".join(ops[index])
            if record["code"] != 0:
                out.failures.append(f"{argv}: exit {record['code']}: {record.get('stderr', '')}")
            elif reference["codes"][index] != 0 or text != reference["outputs"][index]:
                out.failures.append(f"{argv}: stdout differs from isotypic.cli.main in-process")
            elif record["out"] != passes[0][index]["out"]:
                out.failures.append(f"{argv}: stdout differs between reruns")


def library(workload: str, inputs: dict, seconds: float, trace: bool, out: Outcome) -> None:
    ops = inputs["ops"]
    spans_path = WORK / f"spans-{workload}.tsv"
    reps: list[dict] = []
    begin = now()
    while True:
        traced = trace and len(reps) % 2 == 1
        result = Worker().run({
            "workload": workload, "ops": ops, "checks": inputs["checks"],
            "trace": traced, "verify": not reps,
            "spans_path": str(spans_path) if traced else None,
        })
        reps.append(result)
        rep = Rep(result["times"], result["factors"], result["maxrss_kb"])
        if traced:
            out.traced_reps.append(rep)
            out.table_raw = result["layers"]
            out.layer_samples.append(spans.layer_metrics(result["layers"]))
        else:
            out.reps.append(rep)
        if now() - begin >= seconds and (not trace or out.traced_reps):
            break

    first = reps[0]
    out.attempted += first["probes"]
    out.failures.extend(first["probe_failures"])
    for result in reps:
        out.attempted += len(ops)
        for index, op in enumerate(ops):
            message = result["errors"].get(str(index))
            if message is None and result["outputs"][index] != first["outputs"][index]:
                message = "output differs from the first repetition"
            if message:
                out.failures.append(f"{json.dumps(op)[:120]}: {message}")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def report(args, inputs, out: Outcome, setup: list[Worker], metrics: dict) -> None:
    attempted = max(out.attempted, 1)
    print(f"isobench {args.workload} seed={args.seed} trace={args.trace} "
          f"ops/repetition={len(inputs['ops'])}")
    if args.workload == "query-mix":
        print(f"  repeat share of the stream: {workloads.repeat_share(inputs['ops']):.3f}")
    print(f"  setup samples={len(setup)} timed repetitions={len(out.reps)} "
          f"traced repetitions={len(out.traced_reps)}")
    if out.reps:
        samples = len(latency_samples(args.workload, [rep.times for rep in out.reps]))
        kind = ("timed operations" if args.workload in LATENCY_WORKLOADS
                else "per-operation medians")
        print(f"  op_p50_s/op_p90_s over {samples} {kind}")
        raw = timings(args.workload, [w.ready - w.spawned for w in setup],
                      [rep.times for rep in out.reps])
        print("  raw (uncalibrated): " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
        shares: dict[str, list] = {}
        for index, group in enumerate(inputs["groups"]):
            share = shares.setdefault(group, [0, 0.0])
            share[0] += 1
            share[1] += sum(rep.calibrated[index] for rep in out.reps)
        total = sum(rep.wall for rep in out.reps)
        print("  share of wall_s by group: " + ", ".join(
            f"{group} {t / total:.3f} ({n} ops)" for group, (n, t) in shares.items()))
    if out.reps and len(inputs["ops"]) <= 40:
        print("  per-operation median latency, calibrated s:")
        columns = zip(*(rep.calibrated for rep in out.reps))
        for op, column in zip(inputs["ops"], columns):
            print(f"    {median(column):10.6f}  {json.dumps(op)[:90]}")
    print(f"  error_rate: {len(out.failures) / attempted:.6f} "
          f"({len(out.failures)} failed of {out.attempted} attempted)")
    for failure in out.failures[:10]:
        print(f"  FAILED {failure}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    if out.table_raw is not None:
        dropped = out.table_raw["counts"]["spans_dropped"]
        print(f"  spans written to {WORK.name}/spans-{args.workload}.tsv"
              f"{f' ({dropped} beyond the buffer dropped)' if dropped else ''}")
        print("  layer       calls    total_s     self_s  (last traced repetition)")
        for layer, calls, total, self_s in spans.layer_table(out.table_raw):
            print(f"  {layer:10s} {calls:6d} {total:10.4f} {self_s:10.4f}")
    print("env: " + json.dumps(environment(args)))


def measure(args) -> tuple[Outcome, dict]:
    tiny = args.size == "tiny"
    inputs = workloads.make_inputs(args.workload, args.seed, args.size)
    setup = setup_probes()
    out = Outcome()
    if args.workload == "cli-golden":
        cli_golden(inputs, args.seconds, args.trace, tiny, out)
    else:
        library(args.workload, inputs, args.seconds, args.trace, out)
    if not args.trace:
        metrics = timings(args.workload, [(w.ready - w.spawned) * w.factor for w in setup],
                          [rep.calibrated for rep in out.reps])
        metrics["peak_rss_mb"] = median([rep.rss_kb for rep in out.reps]) / 1024
        units = END_TO_END
    else:
        metrics = {name: median([s[name] for s in out.layer_samples])
                   for name in PER_LAYER if name in out.layer_samples[0]} if out.layer_samples else {}
        if args.workload == "cli-golden":
            metrics["cli.interp_s"] = median(out.cli_stamps["interp"])
            metrics["cli.import_s"] = median(out.cli_stamps["import"])
            metrics["cli.command_s"] = median(out.cli_stamps["command"])
        else:
            metrics["cli.interp_s"] = median([w.start - w.spawned for w in setup])
            metrics["cli.import_s"] = median([w.imported - w.start for w in setup])
            metrics["cli.command_s"] = 0.0
        metrics["trace.overhead_ratio"] = (
            median([rep.wall for rep in out.traced_reps]) / median([rep.wall for rep in out.reps]))
        units = PER_LAYER
    named = {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()}
    report(args, inputs, out, setup, named)
    return out, named


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny inputs, for selftest.py")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "isotypic" / "__init__.py").is_file():
        print(f"isobench: no src/isotypic under {ROOT}; run from a source checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        out, metrics = measure(args)
    except BenchmarkError as exc:
        print(f"isobench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not out.failures,
        "attempted": max(out.attempted, 1),
        "failed": len(out.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
