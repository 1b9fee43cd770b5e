"""One fresh process that hosts the library for one run of an operation list.

Protocol (driven by run.py): on start the worker stamps the monotonic
clock, imports ``isotypic``, stamps it again and prints ``ready <start>
<imported>``.  It then reads one JSON job line from stdin (or EOF, which
ends it: a set-up probe), runs the job's operations in a closed loop,
timing each, and prints one JSON result line.  Checks and trace
aggregation run after the timed loop and after peak memory is read.  The
reference loop of speed.py runs between operations, outside their timing.

Job keys: ``workload``, ``ops``, ``checks``, ``trace`` (bool), ``verify``
(bool), ``spans_path`` (str or null).  A ``cli-inprocess`` workload runs
each op as argv through ``isotypic.cli.main`` in this process and returns
the printed text.
"""

import time

_START = time.clock_gettime(time.CLOCK_MONOTONIC)

import sys  # noqa: E402

import isotypic  # noqa: E402

_IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)
print(f"ready {_START!r} {_IMPORTED!r}", flush=True)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from math import factorial, prod  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def _run_op(op):
    kind, args = op[0], op[1:]
    if kind == "admissible_set":
        return isotypic.admissible_set(*args).sorted_members()
    if kind in ("affine", "sa", "complex"):
        weights, widths, d = args[:3]
        polys = args[3] if kind == "sa" else None
        params = isotypic.BoundParams(tuple(weights), tuple(widths), d, polys)
        evaluate = {
            "affine": isotypic.affine_multiplicity_bound,
            "sa": isotypic.sa_multiplicity_bound,
            "complex": isotypic.complex_multiplicity_bound,
        }[kind]
        return evaluate(args[-1], params)
    if kind == "projective":
        return isotypic.projective_multiplicity_bound(*args)
    if kind == "equivariant":
        weights, widths, d, workers = args
        return isotypic.equivariant_bound(weights, widths, d, workers=workers)
    if kind == "projection":
        return isotypic.projection_image_bound(*args)
    if kind == "h0_example":
        return isotypic.h0_decomposition(isotypic.example_variety(*args))
    if kind in ("split_multiplicity", "lr_coefficient", "kostka", "specht_dim",
                "young_module"):
        return getattr(isotypic, kind)(*args)
    raise ValueError(f"unknown operation {kind!r}")


def _render(kind, value) -> str:
    if kind == "admissible_set":
        return " ".join(str(mu) for mu in value)
    if isinstance(value, isotypic.BoundReport):
        return f"{value.value}{' excluded' if value.excluded else ''}"
    return str(value)


def _equivariant_closed_form(weights, widths, d) -> int:
    """Sum over lambda-tuples of prod (2d)^(m len(lambda)), block by block."""
    total = 1
    for k, m in zip(weights, widths):
        threshold = (2 * d) ** m
        total *= sum(workloads.count_exact_length(k, length) * (2 * d) ** (m * length)
                     for length in range(min(k, threshold) + 1))
    return total


def _check_op(op, value, ops, rendered) -> str | None:
    """Independent check of one result; a message if it fails, else None."""
    kind, args = op[0], op[1:]
    if kind == "admissible_set":
        _, d, m = args
        bad = [mu for mu in value if not isotypic.restriction_check(mu, d, m)]
        return f"members fail restriction_check: {bad[:3]}" if bad else None
    if kind == "equivariant":
        weights, widths, d, workers = args
        expected = _equivariant_closed_form(weights, widths, d)
        if value.value != expected:
            return f"equivariant {value.value} != closed form {expected}"
        if workers != 1:
            serial = [r for o, r in zip(ops, rendered) if o == op[:-1] + [1]]
            if serial and serial[0] != _render(kind, value):
                return f"workers={workers} gives {_render(kind, value)}, workers=1 {serial[0]}"
        return None
    if kind == "projection":
        k, m, d = args
        expected = sum((2 * d) ** k * _equivariant_closed_form([p + 1], [m], d)
                       for p in range(k))
        return None if value.value == expected else f"projection {value.value} != {expected}"
    if kind == "affine" and len(args[0]) > 1:
        weights, widths, d, mu = args
        blocks = [isotypic.affine_multiplicity_bound(
            [c], isotypic.BoundParams((k,), (w,), d)).value
            for k, w, c in zip(weights, widths, mu)]
        return None if value.value == prod(blocks) else (
            f"multi-block affine {value.value} != product of blocks {blocks}")
    if kind == "split_multiplicity":
        mu, triv, sign = args
        expected = isotypic.split_module(triv, sign)[mu]
        return None if value == expected else f"split_multiplicity {value} != split_module {expected}"
    if kind == "young_module":
        (lam,) = args
        expected = factorial(sum(lam)) // prod(factorial(p) for p in lam)
        return None if value.total_dim() == expected else "young module dimension"
    if kind == "h0_example":
        (k,) = args
        two_rows = workloads.partitions(k, 2)
        ok = (value.total_dim() == 2 ** k and len(value) == len(two_rows)
              and all(value[mu] == 2 * mu[0] - k + 1 for mu in two_rows))
        return None if ok else "h0 of the example differs from the closed form"
    return None


def _rebuild(k, d, m) -> set:
    """Admissible set rebuilt through split_multiplicity (the Kostka/LR path)."""
    threshold = (2 * d) ** m
    lams = workloads.partitions(k, threshold)
    members = set()
    for mu in workloads.partitions(k):
        # mu itself is the likeliest witness: split (mu, []) contains mu once
        order = sorted(lams, key=lambda lam: lam != mu)
        if any(isotypic.split_multiplicity(mu, triv, sign) > 0
               for lam in order for triv, sign in workloads.two_sided_splits(lam)):
            members.add(tuple(mu))
    return members


_ORACLES = {
    "lr_coefficient": "oracle_lr",
    "kostka": "oracle_count_ssyt",
    "specht_dim": "oracle_count_syt",
}


def _probe(kind, args) -> str | None:
    if kind == "rebuild":
        k, d, m = args
        got = {tuple(mu) for mu in isotypic.admissible_set(k, d, m).members}
        return None if got == _rebuild(k, d, m) else (
            f"admissible_set({k},{d},{m}) differs from its rebuild")
    got = getattr(isotypic, kind)(*args)
    expected = getattr(isotypic, _ORACLES[kind])(*args)
    return None if got == expected else f"{kind}{tuple(args)} = {got}, oracle {expected}"


def _probe_checks(checks) -> tuple[int, list[str]]:
    """Checks that run operations of their own: the admissible-set rebuilds
    and the weight <= 10 oracle comparisons.  Returns (count, failures)."""
    probes = [["rebuild", *args] for args in checks.get("rebuild", ())]
    probes += checks.get("oracle_probes", [])
    failures = []
    for probe in probes:
        try:
            message = _probe(probe[0], probe[1:])
        except Exception as exc:  # a probe that raises is a failed probe
            message = f"{probe[0]} raised {type(exc).__name__}: {exc}"
        if message:
            failures.append(message)
    return len(probes), failures


def _cli_inprocess(ops) -> dict:
    outputs, codes = [], []
    for argv in ops:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            codes.append(isotypic.cli.main(argv))
        outputs.append(buffer.getvalue())
    return {"outputs": outputs, "codes": codes}


def run(job) -> dict:
    ops, workload = job["ops"], job["workload"]
    if workload == "cli-inprocess":
        import isotypic.cli  # noqa: F401

        return _cli_inprocess(ops)
    tracer = before = None
    if job["trace"]:
        tracer = spans.Tracer()
        tracer.install()
        before = spans.cache_snapshot()
    clock = time.perf_counter
    meter = speed.Speedometer()
    times, values, errors, marks = [], [], {}, []
    for index, op in enumerate(ops):
        marks.append(meter.mark())
        start = clock()
        try:
            value = _run_op(op)
        except Exception as exc:  # an operation that raised counts as failed
            value = None
            errors[index] = f"{type(exc).__name__}: {exc}"
        times.append(clock() - start)
        values.append(value)
        meter.maybe_sample()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"times": times, "factors": meter.factors(marks), "maxrss_kb": maxrss_kb}
    if tracer is not None:
        after = spans.cache_snapshot()
        tracer.uninstall()
        result["layers"] = spans.raw_stats(tracer, before, after)
        if job["spans_path"]:
            spans.write_spans(job["spans_path"], tracer.spans)
    rendered = [None if index in errors else _render(op[0], value)
                for index, (op, value) in enumerate(zip(ops, values))]
    result["outputs"] = rendered
    if job["verify"]:
        for index, (op, value) in enumerate(zip(ops, values)):
            if index in errors:
                continue
            try:
                message = _check_op(op, value, ops, rendered)
            except Exception as exc:  # a check that raises is a failed check
                message = f"check raised {type(exc).__name__}: {exc}"
            if message:
                errors[index] = message
        result["probes"], result["probe_failures"] = _probe_checks(job["checks"])
    result["errors"] = {str(index): message for index, message in errors.items()}
    return result


def main() -> int:
    line = sys.stdin.readline()
    if not line:
        return 0
    print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
