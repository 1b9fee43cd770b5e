"""Self-test of the benchmark at tiny sizes.

Usage, from the root of a source checkout: ``python3 isobench/selftest.py``.

Checks that one seed gives byte-identical inputs twice, that the copied
golden commands still match the acceptance suite, that BENCHMARK.json
names the metrics run.py prints, that every workload prints every named
metric with its unit and an error rate of 0 (trace off and on), and that
run.py refuses to run, without printing a result, where there is no
``src/isotypic``.  Exits 1 if any check fails.
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
FAILURES: list[str] = []


def check(condition: bool, what: str) -> None:
    print(f"{'PASS' if condition else 'FAIL'} {what}")
    if not condition:
        FAILURES.append(what)


def check_inputs() -> None:
    for name in workloads.WORKLOADS:
        for size in ("tiny", "full"):
            first = json.dumps(workloads.make_inputs(name, SEED, size)).encode()
            second = json.dumps(workloads.make_inputs(name, SEED, size)).encode()
            check(first == second, f"{name} ({size}): seed {SEED} gives byte-identical inputs")
    ops = workloads.make_inputs("query-mix", SEED)["ops"]
    check(len(ops) >= 100, "query-mix issues at least 100 operations")
    check(abs(workloads.repeat_share(ops) - 0.5) < 0.1, "query-mix repeats about half its stream")


def check_golden_commands() -> None:
    suite = ROOT / "tests" / "test_acceptance.py"
    if not suite.is_file():
        print("SKIP golden commands: no tests/test_acceptance.py")
        return
    tree = ast.parse(suite.read_text(encoding="utf-8"))
    found = [ast.literal_eval(node.value) for node in tree.body
             if isinstance(node, ast.Assign)
             and any(getattr(t, "id", None) == "GOLDEN_COMMANDS" for t in node.targets)]
    check(found == [workloads.GOLDEN_COMMANDS],
          "cli-golden commands match GOLDEN_COMMANDS in tests/test_acceptance.py")


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json lists the four workloads")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
          "BENCHMARK.json end_to_end metrics are the ones run.py prints")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
          "BENCHMARK.json per_layer metrics are the ones run.py prints")


def run_tiny(name: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "isobench/run.py", "--workload", name, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_runs() -> None:
    for name in workloads.WORKLOADS:
        for trace, expected in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            proc = run_tiny(name, trace)
            what = f"{name} --trace {trace}"
            if proc.returncode != 0:
                check(False, f"{what}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{what}: last line has exactly the result keys")
            metrics = result["metrics"]
            check({k: v["unit"] for k, v in metrics.items()} == expected,
                  f"{what}: every named metric is printed with its unit")
            check(all(isinstance(v["value"], (int, float)) for v in metrics.values()),
                  f"{what}: every metric value is a number")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{what}: error_rate is 0 ({result['failed']} of {result['attempted']})")


def check_bare_directory() -> None:
    bare = ROOT / ".isobench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "isobench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_tiny("iset-sweep", 0, cwd=bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without src/isotypic: non-zero exit and no result")
    shutil.rmtree(bare)


def main() -> int:
    check_inputs()
    check_golden_commands()
    check_benchmark_json()
    check_runs()
    check_bare_directory()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
