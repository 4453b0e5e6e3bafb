"""Command-line front end for batch verification.

Exit codes: 0 when every check passed, 1 for verification or proof failures,
2 for usage and parse errors (a negative sample count of ``quantale verify``
among them), for an output that cannot be written (an ``-o`` or ``--json``
path, or a standard output whose reader closed the pipe, with one stderr line
and no traceback) and for a crosscheck with no algebraic reading.
``--seed`` fixes all randomized sampling and ``--json`` writes a
machine-readable report; identical invocations with the same seed produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from functools import cache
from pathlib import Path

from omlogic.axioms import GuardViolation, UnknownSchemaError, instantiate_axiom
from omlogic.derive import NoAlgebraicReading, derive_chain, semantic_crosscheck
from omlogic.formats import (
    ParseError,
    parse_derivation,
    parse_lattice,
    parse_map,
    serialize,
)
from omlogic.kernel import check_derivation
from omlogic.lattice import (
    FiniteOrthoLattice,
    LatticeError,
    LawCheck,
    NotOrthomodularError,
    UnknownElementError,
    build_family,
)
from omlogic.propagation import (
    find_order_counterexample,
    measurement_map_identities,
    perfect_measurement_map,
    quantale_report,
)
from omlogic.syntax import ascii_sequent, pretty_sequent

__all__ = ["main", "run"]

OK, CHECK_FAILED, USAGE_ERROR = 0, 1, 2


class _Exit(Exception):
    def __init__(self, code: int, message: str | None = None):
        self.code = code
        self.message = message


def _load(path: str, parse, *context):
    """Read and parse one input file; unreadable or malformed input exits 2."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"), *context)
    except OSError as err:
        raise _Exit(USAGE_ERROR, f"cannot read {path}: {err}")
    except UnicodeDecodeError as err:
        raise _Exit(USAGE_ERROR, f"cannot read {path}: byte {err.start} is not UTF-8 text")
    except ParseError as err:
        raise _Exit(USAGE_ERROR, f"{path}: {err}")


def _load_for_maps(path: str) -> FiniteOrthoLattice:
    """Read a lattice for the propagation layer, whose byte tables hold at
    most 256 elements; a larger lattice exits 2 before anything is verified."""
    lat = _load(path, parse_lattice)
    try:
        lat._pad()
    except ValueError as err:
        raise _Exit(USAGE_ERROR, str(err))
    return lat


def _load_registry(lat: FiniteOrthoLattice, paths: list[str]) -> dict:
    maps = [_load(path, parse_map, lat) for path in paths]
    return {m.label: m for m in maps}


def _parse_set(text: str, lat: FiniteOrthoLattice) -> frozenset[str]:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise _Exit(USAGE_ERROR, f"expected a set like '{{a, b}}', got {text!r}")
    names = [n.strip() for n in text[1:-1].split(",") if n.strip()]
    for n in names:
        if n not in lat:
            raise _Exit(USAGE_ERROR, f"unknown element {n!r}")
    return frozenset(names)


def _format_set(names, lat: FiniteOrthoLattice) -> str:
    return "{" + ", ".join(sorted(names, key=lat.index)) + "}"


def _write_output(path: str | None, text: str) -> None:
    """Write ``text`` to the file ``path``, or to stdout; an unwritable file exits 2."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as err:
        raise _Exit(USAGE_ERROR, f"cannot write {path}: {err}")


def _write_json(path: str, payload: dict) -> None:
    import json  # only reports need it, so plain runs skip the import

    _write_output(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _emit_report(args, command: str, checks: list[LawCheck], extra=None, lines=()) -> int:
    """Write the ``--json`` report, then print ``lines`` and one line per
    check, so a report that cannot be written leaves stdout empty."""
    ok = all(c.passed for c in checks)
    if getattr(args, "json", None):
        payload = {
            "command": command,
            "inputs": {
                k: v
                for k, v in sorted(vars(args).items())
                if k not in ("func", "json") and v is not None
            },
            "seed": getattr(args, "seed", None),
            "checks": [
                {
                    "name": c.law,
                    "passed": c.passed,
                    "witness": list(c.witness) if c.witness else None,
                }
                for c in checks
            ],
            "ok": ok,
        }
        if extra:
            payload.update(extra)
        _write_json(args.json, payload)
    for line in lines:
        print(line)
    for c in checks:
        mark = "PASS" if c.passed else "FAIL"
        witness = "" if c.witness is None else f"  witness ({', '.join(c.witness)})"
        print(f"{mark} {c.law}{witness}")
    return OK if ok else CHECK_FAILED


# -- commands -------------------------------------------------------------------


def _cmd_lattice_gen(args) -> int:
    names = args.names.split(",") if args.names else None
    try:
        lat = build_family(args.family, args.n, names)
    except ValueError as err:
        raise _Exit(USAGE_ERROR, str(err))
    _write_output(args.output, serialize(lat))
    return OK


def _cmd_lattice_verify(args) -> int:
    lat = _load(args.lattice_file, parse_lattice)
    report = lat.verify()
    return _emit_report(args, "lattice verify", list(report.checks))


def _cmd_propagate(args) -> int:
    lat = _load_for_maps(args.lattice)
    if args.measure:
        if args.measure not in lat:
            raise _Exit(USAGE_ERROR, f"unknown element {args.measure!r}")
        f = perfect_measurement_map(lat, args.measure)
    else:
        f = _load(args.map, parse_map, lat)
    initial = _parse_set(args.set, lat)
    if "0" in initial:
        raise _Exit(USAGE_ERROR, "actuality sets never contain 0")
    image = f.apply(initial)
    if args.json:
        payload = {
            "command": "propagate",
            "inputs": {"lattice": args.lattice, "map": args.map, "measure": args.measure,
                       "set": sorted(initial)},
            "image": sorted(image, key=lat.index),
            "ok": True,
            "seed": None,
        }
        _write_json(args.json, payload)
    print(_format_set(image, lat))
    return OK


def _cmd_quantale_verify(args) -> int:
    lat = _load_for_maps(args.lattice)
    report = quantale_report(
        lat, random.Random(args.seed), args.random_maps, args.pairs, args.join_maps
    )
    return _emit_report(args, "quantale verify", list(report.checks))


def _cmd_counterexample_order(args) -> int:
    lat = _load_for_maps(args.lattice)
    witness = find_order_counterexample(lat)
    if witness is None:
        checks = [LawCheck("counterexample-search", True, None)]
        return _emit_report(args, "counterexample order", checks, {"witness": None}, ["none"])
    ok = witness.recheck(lat)
    line = (
        f"witness: element={witness.element} other={witness.other} "
        f"argument={witness.argument} images=({witness.images[0]}, {witness.images[1]})"
    )
    checks = [
        LawCheck(
            "witness-recheck",
            ok,
            None if ok else (witness.element, witness.other),
        )
    ]
    extra = {
        "witness": {
            "element": witness.element,
            "other": witness.other,
            "argument": witness.argument,
            "images": list(witness.images),
        }
    }
    return _emit_report(args, "counterexample order", checks, extra, [line])


def _cmd_prop1(args) -> int:
    lat = _load_for_maps(args.lattice)
    report = measurement_map_identities(lat)
    return _emit_report(args, "prop1", list(report.checks))


def _cmd_prove(args) -> int:
    lat = _load_for_maps(args.lattice)
    chain = [args.measure, *args.then]
    for m in chain:  # a lattice that cannot measure m is refused before any proof
        perfect_measurement_map(lat, m)
    try:
        d = derive_chain(lat, args.actual, chain)
    except (GuardViolation, ValueError) as err:
        raise _Exit(CHECK_FAILED, str(err))
    verdict = check_derivation(lat, d)
    if not verdict.valid:
        raise _Exit(CHECK_FAILED, f"built derivation failed self-check: {verdict.failure}")
    render = pretty_sequent if args.unicode else ascii_sequent
    print(render(d.conclusion))
    if args.output:
        _write_output(args.output, serialize(d))
    return OK


def _cmd_check(args) -> int:
    lat = _load(args.lattice, parse_lattice)
    maps = _load_registry(lat, args.register)
    d = _load(args.derivation, parse_derivation, lat)
    verdict = check_derivation(lat, d, maps)
    lines = []
    if verdict.valid:
        checks = [LawCheck("derivation-valid", True, None)]
    else:
        f = verdict.failure
        lines.append(f"invalid at node {list(f.path)} ({f.rule}): {f.reason}")
        if f.conclusion is not None:
            lines.append(f"  at: {ascii_sequent(f.conclusion)}")
        checks = [LawCheck("derivation-valid", False, (f.rule, f.reason))]
    return _emit_report(args, "check", checks, lines=lines)


def _cmd_axiom_instantiate(args) -> int:
    lat = _load(args.lattice, parse_lattice)
    maps = _load_registry(lat, args.register)
    bindings = {}
    for item in args.bind:
        if "=" not in item:
            raise _Exit(USAGE_ERROR, f"bindings look like var=element, got {item!r}")
        k, v = item.split("=", 1)
        bindings[k] = v
    try:
        seq = instantiate_axiom(lat, args.schema, bindings, maps, unfold=args.unfold)
    except UnknownSchemaError as err:
        raise _Exit(USAGE_ERROR, str(err))
    except (GuardViolation, LatticeError, ValueError) as err:
        raise _Exit(CHECK_FAILED, f"guard failure: {err}")
    render = pretty_sequent if args.unicode else ascii_sequent
    print(render(seq))
    return OK


def _cmd_crosscheck(args) -> int:
    lat = _load_for_maps(args.lattice)
    maps = _load_registry(lat, args.register)
    d = _load(args.derivation, parse_derivation, lat)
    try:
        result = semantic_crosscheck(lat, d, maps)
    except NoAlgebraicReading as err:
        raise _Exit(USAGE_ERROR, f"{args.derivation}: {err}")
    if result.ok:
        line = (
            f"agree ({result.shape}): branches {_format_set(result.found, lat)} "
            f"match the propagated actuality set"
        )
    else:
        reason = result.reason or (
            f"branches {_format_set(result.found, lat)} != "
            f"propagated {_format_set(result.expected, lat)}"
        )
        line = f"disagree: {reason}"
    checks = [
        LawCheck(
            "logic-algebra-agreement",
            result.ok,
            None if result.ok else (result.reason or "branch sets differ",),
        )
    ]
    extra = {
        "shape": result.shape,
        "expected": sorted(result.expected, key=lat.index) if result.expected else None,
        "found": sorted(result.found, key=lat.index) if result.found else None,
    }
    return _emit_report(args, "crosscheck", checks, extra, [line])


# -- argument wiring ---------------------------------------------------------------


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing reads it and
    leaves it unchanged, and each call gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="omlogic",
        description="Verify orthomodular property lattices, propagation maps, "
        "and measurement derivations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False):
        p.add_argument("--json", metavar="PATH", help="write a structured report")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="seed for all sampling")

    lattice = sub.add_parser("lattice", help="generate and verify lattices")
    lattice_sub = lattice.add_subparsers(dest="subcommand", required=True)
    p = lattice_sub.add_parser("gen", help="generate a lattice family")
    p.add_argument("--family", required=True, choices=["boolean", "mo", "hexagon"])
    p.add_argument("--n", type=int, help="family size parameter")
    p.add_argument("--names", help="comma-separated atom names")
    p.add_argument("-o", "--output", help="output file (default stdout)")
    p.set_defaults(func=_cmd_lattice_gen)
    p = lattice_sub.add_parser("verify", help="check every lattice law")
    p.add_argument("lattice_file")
    common(p)
    p.set_defaults(func=_cmd_lattice_verify)

    p = sub.add_parser("propagate", help="apply a propagation map to a set")
    p.add_argument("--lattice", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--measure", help="measured element (two-outcome map)")
    source.add_argument("--map", help="map file")
    p.add_argument("--set", required=True, help="initial actuality set, e.g. '{b}'")
    common(p)
    p.set_defaults(func=_cmd_propagate)

    quantale = sub.add_parser("quantale", help="verify the transition-map algebra")
    quantale_sub = quantale.add_subparsers(dest="subcommand", required=True)

    def count(text: str) -> int:
        """A sample count: an integer of at least 0.  argparse calls a
        non-integer an "invalid count value", after this function's name."""
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
        return value

    p = quantale_sub.add_parser("verify")
    p.add_argument("--lattice", required=True)
    p.add_argument("--random-maps", type=count, default=200)
    p.add_argument("--pairs", type=count, default=100)
    p.add_argument("--join-maps", type=count, default=100)
    common(p, seed=True)
    p.set_defaults(func=_cmd_quantale_verify)

    counter = sub.add_parser("counterexample", help="order-preservation searches")
    counter_sub = counter.add_subparsers(dest="subcommand", required=True)
    p = counter_sub.add_parser("order")
    p.add_argument("--lattice", required=True)
    common(p)
    p.set_defaults(func=_cmd_counterexample_order)

    p = sub.add_parser("prop1", help="measurement-map identities")
    p.add_argument("--lattice", required=True)
    common(p)
    p.set_defaults(func=_cmd_prop1)

    prove = sub.add_parser("prove", help="build checked derivations")
    prove_sub = prove.add_subparsers(dest="subcommand", required=True)
    for name in ("measurement", "composed"):
        p = prove_sub.add_parser(name)
        p.add_argument("--lattice", required=True)
        p.add_argument("--actual", required=True)
        p.add_argument("--measure", required=True)
        if name == "composed":
            p.add_argument("--then", action="append", required=True,
                           help="next measured element; repeat for longer chains")
        p.add_argument("-o", "--output", help="derivation file")
        p.add_argument("--unicode", action="store_true")
        p.set_defaults(func=_cmd_prove, then=[])

    p = sub.add_parser("check", help="validate a derivation file")
    p.add_argument("derivation")
    p.add_argument("--lattice", required=True)
    p.add_argument("--register", action="append", default=[], help="map file for IND names")
    common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("axiom", help="axiom schemas")
    axiom_sub = p.add_subparsers(dest="subcommand", required=True)
    p = axiom_sub.add_parser("instantiate")
    p.add_argument("--lattice", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--bind", action="append", default=[], help="var=element")
    p.add_argument("--register", action="append", default=[], help="map file for alpha bindings")
    p.add_argument("--unfold", action="store_true")
    p.add_argument("--unicode", action="store_true")
    p.set_defaults(func=_cmd_axiom_instantiate)

    p = sub.add_parser("crosscheck", help="compare a derivation with the algebra")
    p.add_argument("derivation")
    p.add_argument("--lattice", required=True)
    p.add_argument("--register", action="append", default=[])
    common(p)
    p.set_defaults(func=_cmd_crosscheck)

    return parser


def run(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError as err:
        # nothing more reaches the reader; point stdout at the null device so
        # the flush at interpreter exit has nothing left to fail on
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"cannot write stdout: {err}", file=sys.stderr)
        return USAGE_ERROR
    except _Exit as exc:
        if exc.message:
            print(exc.message, file=sys.stderr)
        return exc.code
    except NotOrthomodularError as err:
        print(str(err), file=sys.stderr)
        return CHECK_FAILED
    except (ParseError, UnknownElementError, LatticeError) as err:
        print(str(err), file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
