"""A traced stand-in for ``python -m isotypic``, used by the traced CLI runs.

Usage: ``cli_child.py STATS_PATH ARGV...``.  Runs ``isotypic.cli.main(ARGV)``
with the layer tracer installed, exits with its code, and writes to
STATS_PATH the clock stamps (start, after ``import isotypic.cli``), the
time spent in ``main``, the raw layer stats and the spans.  Stdout is the
command's own output.
"""

import time

_START = time.clock_gettime(time.CLOCK_MONOTONIC)

import sys  # noqa: E402

import isotypic.cli  # noqa: E402

_IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    before = spans.cache_snapshot()
    start = time.perf_counter()
    code = isotypic.cli.main(argv)
    command_s = time.perf_counter() - start
    sys.stdout.flush()
    after = spans.cache_snapshot()
    tracer.uninstall()
    with open(stats_path, "w", encoding="utf-8") as out:
        json.dump({
            "start": _START,
            "imported": _IMPORTED,
            "command_s": command_s,
            "layers": spans.raw_stats(tracer, before, after),
            "spans": tracer.spans,
        }, out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
