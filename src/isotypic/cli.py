"""Command-line surface.

Every subcommand prints either stable text or JSON (``--format json``).
Multiplicities, dimensions and bound values are decimal strings in JSON
output because they outgrow native integer widths quickly.  Exit codes:
0 success, 2 parse/usage error, 3 domain error (also a value too large to
index or to hold in memory), 4 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import bounds
from .admissible import admissible_set
from .errors import DomainError, EnumerationCapExceeded, ParseError
from .induction import Decomposition, split_module, split_multiplicity, young_module
from .orbits import (
    OrbitSpec,
    closed_form_multiplicity,
    example_variety,
    h0_decomposition,
    mv_check,
    orbit_intersection,
    orbit_union,
    top_cohomology,
    verify_power_identity,
)
from .partitions import (
    _count_within,
    _iter_partitions,
    parse_partition,
    parse_partition_tuple,
)
from .tableaux import kostka, lr_coefficient, specht_dim

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_CAP = 4


def _int_tuple(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


def _emit(args, json_obj, text_lines: list[str]) -> None:
    if args.format == "json":
        import json  # here, so that text output does not pay for the import

        print(json.dumps(json_obj))
    else:
        for line in text_lines:
            print(line)


def _check_cap(args, k: int, max_len: int | None = None) -> None:
    # before anything within Par(k) (into at most max_len parts) is enumerated
    if _count_within(k, max_len, args.cap) is None:
        rows = "" if max_len is None else f" into at most {max_len} parts"
        raise EnumerationCapExceeded(f"{k} has more partitions{rows} than the cap of {args.cap}")


def _write_listing(args, partitions) -> int:
    # printed while the partitions are enumerated, so memory stays flat;
    # the JSON form is the list json.dumps gives, and a partition's text
    # needs no escaping
    texts = map(str, partitions)
    write = sys.stdout.write
    if args.format == "json":
        write("[")
        for i, text in enumerate(texts):
            write(f', "{text}"' if i else f'"{text}"')
        write("]\n")
    else:
        for text in texts:
            write(text + "\n")
    return EXIT_OK


def _cmd_partitions(args) -> int:
    _check_cap(args, args.k, args.max_len)
    return _write_listing(args, _iter_partitions(args.k, args.max_len))


# The partition queries: subcommand, help, argument names and the library
# function that takes the parsed partitions in that order.  An int answer
# prints as a scalar, a Decomposition as its terms.
_QUERIES = (
    ("dim", "irreducible dimension by the hook formula", ("partition",), specht_dim),
    ("kostka", "Kostka number K(mu, lambda)", ("mu", "lam"), kostka),
    ("lr", "Littlewood-Richardson coefficient c^nu_{lambda,mu}", ("nu", "lam", "mu"),
     lr_coefficient),
    ("young", "decomposition of the Young module", ("partition",), young_module),
    ("split-mult", "multiplicity of mu in the split module", ("mu", "triv", "sign"),
     split_multiplicity),
    ("split-module", "decomposition of the split module", ("triv", "sign"), split_module),
)


def _parse_query_args(args) -> list:
    return [parse_partition(getattr(args, name)) for name in args.query_args]


def _answer(args, value) -> int:
    json_obj = {"value": str(value)} if isinstance(value, int) else value.to_json_dict()
    _emit(args, json_obj, [str(value)])
    return EXIT_OK


def _cmd_query(args) -> int:
    return _answer(args, args.query(*_parse_query_args(args)))


def _cmd_lr(args) -> int:
    # the tableau fill visits each skew cell of nu/lam and keeps one value per cell;
    # inputs it would not fill (unequal weights, lam outside nu) pass through
    nu, lam, mu = _parse_query_args(args)
    cells = nu.weight - lam.weight
    if cells > args.cap and cells == mu.weight and nu.contains(lam):
        raise EnumerationCapExceeded(
            f"nu/lam has {cells} skew cells, above the cap of {args.cap}"
        )
    return _answer(args, args.query(nu, lam, mu))


def _cmd_iset(args) -> int:
    k, d, m = args.k, args.d, args.m
    if d < 1 or m < 1:
        raise DomainError("d and m must be positive")
    if args.member is not None:
        mu = parse_partition(args.member)
        if mu.weight != k:
            raise DomainError(f"{mu} does not partition {k}")
        verdict = mu in admissible_set(k, d, m)
        _emit(
            args,
            {"mu": str(mu), "member": verdict},
            ["member" if verdict else "not a member"],
        )
        return EXIT_OK
    iset = admissible_set(k, d, m)
    _check_cap(args, k)
    if args.enumerate:
        return _write_listing(args, iset)
    # only the JSON form reports T, which may be too long to form
    threshold = iset.threshold if args.format == "json" else None
    count = str(len(iset))
    _emit(args, {"k": k, "d": d, "m": m, "threshold": threshold, "cardinality": count}, [count])
    return EXIT_OK


def _require(args, option: str, condition: bool) -> None:
    if not condition:
        args._parser.error(f"bound {args.rule} requires {option}")


def _cmd_bound(args) -> int:
    rule = args.rule
    kw = {"cap": args.cap}
    _require(args, "--k", args.k is not None)
    _require(args, "--d", args.d is not None)
    widths = args.m if args.m is not None else (1,) * len(args.k)
    if rule in ("affine", "sa", "complex"):
        _require(args, "--mu", args.mu is not None)
        mu = parse_partition_tuple(args.mu)
        if rule == "affine":
            params = bounds.BoundParams(args.k, widths, args.d)
            report = bounds.affine_multiplicity_bound(mu, params, **kw)
        elif rule == "sa":
            _require(args, "--s", args.s is not None)
            params = bounds.BoundParams(args.k, widths, args.d, args.s)
            report = bounds.sa_multiplicity_bound(mu, params, **kw)
        else:
            params = bounds.BoundParams(args.k, widths, args.d)
            report = bounds.complex_multiplicity_bound(mu, params, **kw)
    elif rule == "projective":
        _require(args, "a single --k value", len(args.k) == 1)
        mu = parse_partition(args.mu) if args.mu is not None else None
        report = bounds.projective_multiplicity_bound(
            args.k[0], args.d, mu, args.letters, **kw
        )
    elif rule == "equivariant":
        report = bounds.equivariant_bound(args.k, widths, args.d, **kw)
    else:  # projection
        _require(args, "a single --k value", len(args.k) == 1)
        _require(args, "a single --m value", len(widths) == 1)
        report = bounds.projection_image_bound(args.k[0], widths[0], args.d, **kw)
    suffix = " (excluded)" if report.excluded else ""
    _emit(args, report.to_json_dict(), [f"{report.value}{suffix}"])
    return EXIT_OK


def _cmd_example(args) -> int:
    # the cap counts the orbit sum's Young-module terms, min(i, k - i) + 1 for
    # orbit i, but H^0 is the closed form over its support, the stabilizers
    k = max(args.k, 0)
    terms = (k // 2 + 1) * ((k + 1) // 2 + 1)
    if terms > args.cap:
        raise EnumerationCapExceeded(
            f"H^0 of the example sums {terms} terms, above the cap of {args.cap}"
        )
    spec = example_variety(args.k)
    h0 = Decomposition({s: closed_form_multiplicity(s) for _, s in spec.orbits}, ambient=args.k)
    dec = top_cohomology(h0) if args.top else h0
    lines = [str(dec)]
    obj: dict = {"k": args.k, ("top" if args.top else "h0"): dec.to_json_dict()}
    if args.verify_identity:
        check = verify_power_identity(args.k)
        relation = "==" if check.holds else "!="
        lines.append(f"identity: {check.lhs} {relation} {check.rhs}")
        obj["identity"] = {
            "lhs": str(check.lhs),
            "rhs": str(check.rhs),
            "holds": check.holds,
        }
    _emit(args, obj, lines)
    return EXIT_OK


def _load_orbit_spec(path: str) -> OrbitSpec:
    import json

    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise DomainError(f"cannot read orbit spec file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc.msg}", exc.pos)
    except UnicodeDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: not UTF-8 ({exc.reason})", exc.start)
    except RecursionError:
        raise ParseError(f"invalid JSON in {path}: nested deeper than the decoder recurses")
    try:
        return OrbitSpec.from_json_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, DomainError):
            raise
        raise DomainError(f"malformed orbit spec in {path}: {exc}")


def _cmd_mv_check(args) -> int:
    s1 = _load_orbit_spec(args.spec1)
    s2 = _load_orbit_spec(args.spec2)
    holds = mv_check(
        h0_decomposition(s1),
        h0_decomposition(s2),
        h0_decomposition(orbit_union(s1, s2)),
        h0_decomposition(orbit_intersection(s1, s2)),
    )
    _emit(
        args,
        {"holds": holds},
        ["mv-inequality holds" if holds else "mv-inequality violated"],
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isotypic",
        description="Exact symmetric-group representation combinatorics and multiplicity bounds.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--cap",
        type=int,
        default=bounds.DEFAULT_TERM_CAP,
        help="refuse bound sums and example H^0 sums with more terms, partitions "
        "listings and iset counts and listings over more partitions of k, and lr "
        "skew shapes with more cells than this",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partitions", help="enumerate partitions of k")
    p.add_argument("k", type=int)
    p.add_argument("--max-len", type=int, default=None)
    p.set_defaults(handler=_cmd_partitions)

    for name, help_text, query_args, query in _QUERIES:
        p = sub.add_parser(name, help=help_text)
        for arg in query_args:
            p.add_argument(arg)
        handler = _cmd_lr if name == "lr" else _cmd_query
        p.set_defaults(handler=handler, query=query, query_args=query_args)

    p = sub.add_parser("iset", help="admissible set I(k, d, m)")
    p.add_argument("k", type=int)
    p.add_argument("d", type=int)
    p.add_argument("m", type=int)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--enumerate", action="store_true")
    group.add_argument("--member", metavar="MU", default=None)
    p.set_defaults(handler=_cmd_iset)

    p = sub.add_parser("bound", help="exact evaluation of a multiplicity bound")
    p.add_argument(
        "rule",
        choices=("affine", "sa", "complex", "projective", "equivariant", "projection"),
    )
    p.add_argument("--k", type=_int_tuple, default=None, help="block weights, comma-separated")
    p.add_argument("--m", type=_int_tuple, default=None, help="block widths, comma-separated")
    p.add_argument("--d", type=int, default=None, help="degree bound")
    p.add_argument("--s", type=int, default=None, help="number of polynomials (sa only)")
    p.add_argument("--mu", default=None, help="target irreducible, e.g. '[3,1]' or '[3];[2]'")
    p.add_argument("--letters", type=int, default=None, help="letter count (projective only)")
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("example", help="H^0 of the hypercube-vertex model")
    p.add_argument("k", type=int)
    p.add_argument("--top", action="store_true", help="print the top cohomology instead")
    p.add_argument("--verify-identity", action="store_true")
    p.set_defaults(handler=_cmd_example)

    p = sub.add_parser("mv-check", help="Mayer-Vietoris inequality on two orbit specs")
    p.add_argument("spec1")
    p.add_argument("spec2")
    p.set_defaults(handler=_cmd_mv_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._parser = parser
    if args.cap < 1:
        parser.error("--cap must be at least 1")
    # Exact values can be longer than the interpreter's int <-> str
    # conversion limit, so the command runs without it; argparse has
    # already converted the integer arguments under it.
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        digits_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except EnumerationCapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (DomainError, OverflowError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError:
        # a part near 10**18 fails its first allocation; str() of the error is empty
        print("domain error: too large to hold in memory", file=sys.stderr)
        return EXIT_DOMAIN
    finally:
        if lift:
            sys.set_int_max_str_digits(digits_limit)


if __name__ == "__main__":
    raise SystemExit(main())
