"""Span tracing of the ``isotypic`` layers from outside the package.

``Tracer.install()`` replaces each layer's public functions with a wrapper
in every ``isotypic`` module that binds them (``isotypic.bounds`` binds
``max_split_multiplicities`` from ``isotypic.induction``, for example), so
calls between layers are seen.  A wrapper records a span: name, start,
end and parent span.  Self time (span time minus child spans) and call
counts are aggregated as spans close; the spans themselves stay in memory,
up to ``SPAN_BUFFER``, and ``write_spans`` saves them when the run ends.

Hot helpers inside a layer (the ``lru_cache`` functions such as the strip
and Kostka caches) get no span; their work shows as ``cache_info()``
deltas.  ``dominates`` and the ``Partition`` constructor get no span either:
they run inside every Kostka recursion step, and their time counts as the
calling layer's self time.  ``isotypic.oracles`` is never wrapped.
"""

from __future__ import annotations

import importlib
import itertools
import time

LAYERS = {
    "partitions": (
        "enumerate_partitions", "count_partitions", "count_exact_length",
        "count_by_length_profile", "enumerate_partition_tuples",
        "count_partition_tuples", "splits", "parse_partition",
        "parse_partition_tuple",
    ),
    "tableaux": (
        "hook_lengths", "specht_dim", "two_row_dim", "kostka", "lr_coefficient",
        "horizontal_strip_extensions", "vertical_strip_extensions",
        "horizontal_strip_restrictions",
    ),
    "induction": (
        "irreducible", "young_module", "pieri_row", "pieri_col", "outer_product",
        "split_module", "split_multiplicity", "sign_twist", "tuple_outer",
        "max_split_multiplicities",
    ),
    "admissible": (
        "restriction_threshold", "fits_in_corner", "restriction_check",
        "admissible_for_partition", "admissible_for", "admissible_set",
        "admissible_set_tuple", "is_admissible",
    ),
    "bounds": (
        "g_factor", "affine_multiplicity_bound", "general_position_degree",
        "sa_prefactor", "sa_multiplicity_bound", "complex_multiplicity_bound",
        "projective_multiplicity_bound", "equivariant_bound",
        "projection_image_bound",
    ),
    "orbits": (
        "h0_decomposition", "example_variety", "closed_form_multiplicity",
        "verify_power_identity", "top_cohomology", "mv_check", "orbit_union",
        "orbit_intersection",
    ),
    "cli": ("main",),
}
MODULES = ("isotypic",) + tuple(f"isotypic.{layer}" for layer in LAYERS)

SPAN_BUFFER = 100_000

# Per-layer metrics that are sums over the spans of some functions.
SPAN_GROUPS = {
    "tableaux.lr": ("tableaux", ("lr_coefficient",)),
    "tableaux.kostka": ("tableaux", ("kostka",)),
    "induction.pieri": ("induction", ("pieri_row", "pieri_col")),
    "induction.max_split": ("induction", ("max_split_multiplicities",)),
    "induction.split_multiplicity": ("induction", ("split_multiplicity",)),
    "bounds.g_factor": ("bounds", ("g_factor",)),
}
# Cache hit ratios, by the cached function's name in its module.
CACHE_GROUPS = {
    "tableaux.lr": ("isotypic.tableaux", ("_lr",)),
    "tableaux.kostka": ("isotypic.tableaux", ("_kostka",)),
    "tableaux.strips": ("isotypic.tableaux", (
        "_horizontal_strips_above", "_vertical_strips_above",
        "_horizontal_strips_below")),
    "induction.split_module": ("isotypic.induction", ("_split_module",)),
}


# Counts taken from return values: name -> (counter, measure of the result).
MEASURES = {
    "pieri_row": ("pieri_terms", len),
    "pieri_col": ("pieri_terms", len),
    "admissible_set": ("admissible_members", len),
    "admissible_for_partition": ("admissible_reach", len),
    "g_factor": ("g_factor_nonzero", bool),
}
COUNTERS = ("pieri_terms", "admissible_members", "admissible_reach",
            "g_factor_nonzero", "bound_terms", "spans_dropped")


class Tracer:
    """Wraps the layer functions of one process and aggregates their spans.

    One span stack serves the whole process: the library's only worker
    threads (the pool of ``equivariant_bound``) run no wrapped function.
    """

    def __init__(self):
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []
        self.stack: list[list] = []  # [span id, layer, child time]
        self.functions: dict[tuple[str, str], list] = {}  # [calls, total_s, self_s]
        self.entries = {layer: [0, 0.0] for layer in LAYERS}  # calls from outside
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.spans: list[tuple] = []  # (id, parent id or -1, name, start, end)

    def _wrap(self, layer: str, name: str, fn):
        ids, clock = self._ids, time.perf_counter
        key, label = (layer, name), f"{layer}.{name}"
        measure = MEASURES.get(name)
        stack, functions, entries = self.stack, self.functions, self.entries
        counts, kept = self.counts, self.spans

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(ids), layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats = functions.get(key)
                if stats is None:
                    stats = functions[key] = [0, 0.0, 0.0]
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[2]
                if parent is None or parent[1] != layer:
                    entry = entries[layer]
                    entry[0] += 1
                    entry[1] += duration
                if parent is not None:
                    parent[2] += duration
                if len(kept) < SPAN_BUFFER:
                    kept.append((frame[0], -1 if parent is None else parent[0],
                                 label, start, end))
                else:
                    counts["spans_dropped"] += 1
            if measure is not None:
                counts[measure[0]] += measure[1](result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        """Patch every binding of every layer function in the package."""
        modules = [importlib.import_module(name) for name in MODULES]
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"isotypic.{layer}")
            for name in names:
                original = getattr(home, name, None)
                if original is None:
                    continue
                traced = self._wrap(layer, name, original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        self._patched.append((module, name, original))
                        setattr(module, name, traced)
        self._count_bound_terms()

    def _count_bound_terms(self) -> None:
        # The lambda-tuple generator is private; count its items while it
        # exists, and read 0 once a change removes it.
        bounds = importlib.import_module("isotypic.bounds")
        original = getattr(bounds, "_lambda_tuples", None)
        if original is None:
            return
        counts = self.counts

        def counted(*args, **kwargs):
            for item in original(*args, **kwargs):
                counts["bound_terms"] += 1
                yield item

        self._patched.append((bounds, "_lambda_tuples", original))
        bounds._lambda_tuples = counted

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def raw(self) -> dict:
        """The aggregates, as mergeable JSON (see ``merge``)."""
        functions = {f"{layer}.{name}": stats for (layer, name), stats in self.functions.items()}
        return {"functions": functions, "entries": self.entries, "counts": self.counts}


def write_spans(path, rows, columns: str = "id\tparent\tname\tstart\tend") -> None:
    """One span per line, tab-separated; a parent id of -1 is the run itself."""
    with open(path, "w", encoding="utf-8") as out:
        out.write(f"# {columns}\n")
        for row in rows:
            out.write("\t".join(str(x) for x in row) + "\n")


def cache_snapshot() -> dict:
    """``cache_info()`` of every ``lru_cache`` function defined in the package,
    keyed by ``module.name``."""
    out = {}
    for module_name in MODULES[1:]:
        module = importlib.import_module(module_name)
        for value in vars(module).values():
            info = getattr(value, "cache_info", None)
            if info is None or getattr(value, "__module__", None) != module_name:
                continue
            out[f"{module_name}.{value.__name__}"] = info()
    return out


def raw_stats(tracer: Tracer, before: dict, after: dict) -> dict:
    """The tracer's aggregates plus the cache deltas, as mergeable JSON."""
    cache = {}
    for key, info in after.items():
        old = before.get(key)
        cache[key] = [info.hits - (old.hits if old else 0),
                      info.misses - (old.misses if old else 0), info.currsize]
    return {**tracer.raw(), "cache": cache}


def merge(raws: list[dict]) -> dict:
    """Sum the raw stats of several processes (the commands of one CLI pass)."""
    total: dict = {}
    for raw in raws:
        for section, values in raw.items():
            into = total.setdefault(section, {})
            for key, value in values.items():
                old = into.get(key)
                if isinstance(value, list):
                    into[key] = list(value) if old is None else [a + b for a, b in zip(old, value)]
                else:
                    into[key] = value if old is None else old + value
    return total


def layer_metrics(raw: dict) -> dict:
    """Per-layer metrics from raw stats."""
    functions, counts, cache = raw["functions"], raw["counts"], raw["cache"]
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        prefix = f"{layer}."
        metrics[f"{layer}.calls"] = raw["entries"][layer][0]
        metrics[f"{layer}.self_s"] = sum(
            stats[2] for key, stats in functions.items() if key.startswith(prefix))
    for group, (layer, names) in SPAN_GROUPS.items():
        stats = [functions.get(f"{layer}.{name}", [0, 0.0, 0.0]) for name in names]
        metrics[f"{group}.calls"] = sum(s[0] for s in stats)
        metrics[f"{group}.self_s"] = sum(s[2] for s in stats)
    for group, (module, names) in CACHE_GROUPS.items():
        hits = sum(cache.get(f"{module}.{name}", [0, 0, 0])[0] for name in names)
        misses = sum(cache.get(f"{module}.{name}", [0, 0, 0])[1] for name in names)
        metrics[f"{group}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for layer in ("partitions", "tableaux", "induction"):
        prefix = f"isotypic.{layer}."
        metrics[f"{layer}.cache_entries"] = sum(
            entry[2] for key, entry in cache.items() if key.startswith(prefix))
    metrics["induction.pieri.terms"] = counts["pieri_terms"]
    metrics["admissible.lambdas"] = functions.get(
        "admissible.admissible_for_partition", [0])[0]
    reach = counts["admissible_reach"]
    metrics["admissible.member_yield"] = counts["admissible_members"] / reach if reach else 0.0
    metrics["bounds.terms"] = counts["bound_terms"]
    g_calls = metrics["bounds.g_factor.calls"]
    metrics["bounds.nonzero_term_ratio"] = counts["g_factor_nonzero"] / g_calls if g_calls else 0.0
    return metrics


def layer_table(raw: dict) -> list[tuple[str, int, float, float]]:
    """(layer, calls into it, time inside it, self time) for each layer."""
    metrics = layer_metrics(raw)
    return [(layer, calls, total, metrics[f"{layer}.self_s"])
            for layer, (calls, total) in raw["entries"].items()]
