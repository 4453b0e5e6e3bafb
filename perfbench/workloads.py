"""The three benchmark workloads.

Each workload is a closed loop with one client: an operation starts when the
previous one has returned.  ``setup`` builds the inputs from the seed,
``operations`` lists the batch as (kind, callable) pairs, and ``check``
compares one operation's outcome with a known answer.  Known answers come from
mathematics or from a layer other than the one under test, never from the
operation grading itself.

The program is reached only through its public entry points
(``omlogic.cli.run``, ``python -m omlogic`` and the modules' public
functions), always looked up on the module at call time so that the tracer's
wrappers are seen when they are installed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import sys
import time
from pathlib import Path

clock = time.perf_counter


def run_cli(om, argv: list[str]) -> dict:
    """One in-process ``omlogic`` invocation with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = om.cli.run(argv)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if line.strip()]


def _all_pass(result: dict) -> bool:
    lines = _lines(result["stdout"])
    return bool(lines) and all(line.startswith("PASS ") for line in lines)


# -- algebra ------------------------------------------------------------------------


class Algebra:
    """Full law checks of whole lattices through ``omlogic.cli.run``."""

    name = "algebra"
    operation = (
        "a full check of one lattice through omlogic.cli.run in-process: "
        "lattice verify, prop1, counterexample order, quantale verify --seed <seed>"
    )
    why = (
        "lattice and propagation do almost all the work while kernel and formats "
        "sit idle; mo(5) is the only lattice on the subset-oracle path and "
        "boolean(5) is the slow case"
    )
    min_batches = 4  # at least 20 operations, so verdict_ms_tail is p50
    spawns = False

    def __init__(self, seed: int, lattices=(("mo", 5), ("mo", 8), ("boolean", 4), ("boolean", 5)),
                 quantale_args: tuple[str, ...] = ()):
        self.seed = seed
        self.lattices = lattices
        self.quantale_args = quantale_args

    def setup(self, om, workdir: Path) -> dict:
        files = {}
        for family, n in self.lattices:
            lat = om.lattice.build_family(family, n)
            files[f"{family}({n})"] = (family, _write(workdir / f"{family}{n}.lat", om.formats.serialize(lat)))
        files["hexagon"] = ("hexagon", _write(workdir / "hexagon.lat", om.formats.serialize(om.lattice.hexagon())))
        return files

    def commands(self, path: str) -> list[list[str]]:
        return [
            ["lattice", "verify", path],
            ["prop1", "--lattice", path],
            ["counterexample", "order", "--lattice", path],
            ["quantale", "verify", "--lattice", path, "--seed", str(self.seed), *self.quantale_args],
        ]

    def operations(self, om, inputs: dict) -> list:
        def op(path):
            def full_check():
                steps = []
                for argv in self.commands(path):
                    t0 = clock()
                    result = run_cli(om, argv)
                    result["seconds"] = clock() - t0
                    steps.append(result)
                return steps
            return full_check

        return [(label, op(path)) for label, (_, path) in inputs.items()]

    def check(self, inputs: dict, label: str, steps: list[dict]) -> str | None:
        family = inputs[label][0]
        verify, prop1, order, quantale = steps
        if family == "hexagon":
            # 0 < a < b < 1 with b' < a': a <= b, yet a v (b ^ a') = a v 0 = a != b,
            # so orthomodularity fails at (a, b) and every other law holds.
            fails = [line for line in _lines(verify["stdout"]) if not line.startswith("PASS ")]
            if verify["rc"] != 1 or fails != ["FAIL orthomodularity  witness (a, b)"]:
                return f"hexagon lattice verify: rc {verify['rc']}, failures {fails}"
            for step, what in ((prop1, "prop1"), (order, "counterexample"), (quantale, "quantale verify")):
                if step["rc"] != 1:
                    return f"hexagon {what}: rc {step['rc']}, expected 1"
            return None
        for step, what in ((verify, "lattice verify"), (prop1, "prop1"), (quantale, "quantale verify")):
            if step["rc"] != 0 or not _all_pass(step):
                return f"{label} {what}: rc {step['rc']}, {step['stdout'][-200:]!r}"
        # MO(n >= 2) has atoms a, b in different blocks whose Sasaki order is
        # broken; a Boolean algebra is distributive, so it has no counterexample.
        first = (_lines(order["stdout"]) or [""])[0]
        expect = "witness:" if family == "mo" else "none"
        if order["rc"] != 0 or not first.startswith(expect):
            return f"{label} counterexample order: rc {order['rc']}, {first!r}"
        return None

    def baseline(self, outcomes) -> dict:
        """Quantale verify seconds per lattice in one batch, for the ROADMAP table."""
        return {label: steps[3]["seconds"] for label, steps in outcomes if steps}

    @staticmethod
    def roadmap(b: dict) -> str:
        return (f"quantale verify boolean(5) {b.get('boolean(5)', 0):.2f} s, mo(8) "
                f"{b.get('mo(8)', 0):.2f} s, boolean(4) {b.get('boolean(4)', 0):.2f} s "
                "(ROADMAP: 3.5-3.8 s, 0.84 s, 0.72 s)")


# -- proof-corpus ----------------------------------------------------------------------


class ProofCorpus:
    """Every measurement and composed derivation on mo(2) and boolean(3),
    plus seeded mutants the kernel must reject."""

    name = "proof-corpus"
    operation = (
        "one derivation through derive, serialize, parse_derivation, check_derivation and "
        "semantic_crosscheck; or one mutant through serialize, parse_derivation and "
        "check_derivation, which must reject it"
    )
    why = (
        "formats, kernel, axioms, syntax and derive do the work and lattice queries are "
        "cheap; parsing reads what serializing wrote, and the kernel both accepts and rejects"
    )
    min_batches = 2  # over 2,000 operations, so the tail is p99
    spawns = False

    def __init__(self, seed: int, lattices=(("mo", 2), ("boolean", 3)), mutants: int = 500,
                 composed: bool = True):
        self.seed = seed
        self.lattices = lattices
        self.mutants = mutants
        self.composed = composed

    def setup(self, om, workdir: Path) -> dict:
        prop = om.propagation
        specs, expected = [], {}
        for family, n in self.lattices:
            lat = om.lattice.build_family(family, n)
            nz = lat.nonzero()
            shapes = [itertools.product(nz, repeat=2)]
            if self.composed:
                shapes.append(itertools.product(nz, repeat=3))
            for spec in itertools.chain(*shapes):
                # the reference branch set comes from the propagation algebra
                a, *ms = spec
                if len(ms) == 1:
                    ref = prop.perfect_measurement_map(lat, ms[0]).apply({a})
                else:
                    ref = prop.quantale_compose(
                        prop.perfect_measurement_map(lat, ms[1]),
                        prop.perfect_measurement_map(lat, ms[0]),
                    ).apply({a})
                specs.append((lat, spec))
                expected[(lat.name, spec)] = ref
        lat = om.lattice.mo(2)
        pairs = list(itertools.product(lat.nonzero(), repeat=2))
        kinds = om.mutate.MUTATION_KINDS
        mutants = []
        for i in range(self.mutants):
            rng = random.Random(self.seed * 1_000_003 + i)
            kind = kinds[i % len(kinds)]
            if kind == "capture":
                _, mutant = om.mutate.capture_case(lat, rng)
            else:
                a, b = pairs[i % len(pairs)]
                mutant = om.mutate.mutate(om.derive.derive_measurement(lat, a, b), kind, rng, lat)
            if mutant is None:
                raise RuntimeError(f"mutation {kind} found no eligible node (mutant {i})")
            mutants.append((lat, kind, mutant))
        return {"specs": specs, "expected": expected, "mutants": mutants}

    def operations(self, om, inputs: dict) -> list:
        derive, formats, kernel = om.derive, om.formats, om.kernel

        def valid(lat, spec):
            def op():
                t0 = clock()
                if len(spec) == 2:
                    d = derive.derive_measurement(lat, *spec)
                else:
                    d = derive.derive_composed(lat, *spec)
                t1 = clock()
                text = formats.serialize(d)
                t2 = clock()
                parsed = formats.parse_derivation(text, lat)
                t3 = clock()
                verdict = kernel.check_derivation(lat, parsed)
                t4 = clock()
                cross = derive.semantic_crosscheck(lat, parsed)
                return {
                    "lattice": lat.name, "spec": spec, "built": d, "parsed": parsed,
                    "valid": verdict.valid, "cross_ok": cross.ok, "found": cross.found,
                    "parse_s": t3 - t2, "check_s": t4 - t3,
                }
            return op

        def mutant(lat, m):
            def op():
                text = formats.serialize(m)
                t2 = clock()
                parsed = formats.parse_derivation(text, lat)
                t3 = clock()
                verdict = kernel.check_derivation(lat, parsed)
                t4 = clock()
                return {"built": m, "parsed": parsed, "valid": verdict.valid,
                        "parse_s": t3 - t2, "check_s": t4 - t3}
            return op

        ops = [(f"derivation-{len(spec) - 1}", valid(lat, spec)) for lat, spec in inputs["specs"]]
        ops += [(f"mutant-{kind}", mutant(lat, m)) for lat, kind, m in inputs["mutants"]]
        return ops

    def check(self, inputs: dict, label: str, out: dict) -> str | None:
        # popped, so that a batch does not keep every derivation alive
        if out.pop("parsed") != out.pop("built"):
            return f"{label}: parse(serialize(d)) != d"
        if label.startswith("mutant"):
            return f"{label}: kernel accepted a mutant" if out["valid"] else None
        where = f"{label} {out['lattice']} {out['spec']}"
        if not out["valid"]:
            return f"{where}: kernel rejected a built derivation"
        ref = inputs["expected"][(out["lattice"], out["spec"])]
        if not out["cross_ok"] or out["found"] != ref:
            return f"{where}: branches {out['found']} != propagated {set(ref)}"
        return None

    def baseline(self, outcomes) -> dict:
        """Parse and check seconds in one batch, for the ROADMAP table."""
        parse = sum(o["parse_s"] for _, o in outcomes if o)
        check = sum(o["check_s"] for _, o in outcomes if o)
        return {"parse_derivation_s": parse, "check_derivation_s": check,
                "parse_over_check": parse / check if check else 0.0}

    @staticmethod
    def roadmap(b: dict) -> str:
        return (f"parse_derivation {b['parse_derivation_s']:.2f} s vs check_derivation "
                f"{b['check_derivation_s']:.2f} s per batch, {b['parse_over_check']:.0f}x "
                "(ROADMAP: 3.1 s vs 0.08 s on the boolean(3) composed corpus, parsing far "
                "slower than checking)")


# -- cli-batch ---------------------------------------------------------------------------


def _mo_atoms(n: int) -> list[str]:
    return [x for base in "abcdefgh"[:n] for x in (base, base + "'")]


def _partner(x: str) -> str:
    return x[:-1] if x.endswith("'") else x + "'"


class CliBatch:
    """A seeded mix of small ``python -m omlogic`` invocations, one at a time."""

    name = "cli-batch"
    operation = "one python -m omlogic subprocess on a small file, run one after another"
    why = (
        "interpreter start, import, argparse and file I/O dominate; a cache that helps "
        "proof-corpus gets no warm reuse here, so its cost shows"
    )
    min_batches = 2  # at least 100 operations, so the tail is p90
    spawns = True  # operations are child processes, run through a Spawner
    length = 50

    def __init__(self, seed: int, length: int | None = None):
        self.seed = seed
        if length is not None:
            self.length = length

    def setup(self, om, workdir: Path) -> dict:
        rng = random.Random(self.seed)
        mo2 = om.lattice.mo(2)
        f = om.formats
        mo2_file = _write(workdir / "mo2.lat", f.serialize(mo2))
        b3_file = _write(workdir / "boolean3.lat", f.serialize(om.lattice.boolean(3)))
        bad_file = _write(workdir / "bad.lat", "lattice bad\nelements 0 a 1\nleq a q\nend\n")
        atoms = _mo_atoms(2)
        a, m, then = rng.choice(atoms), rng.choice(atoms), rng.choice(atoms)
        valid = _write(workdir / "valid.drv", f.serialize(om.derive.derive_composed(mo2, a, m, then)))
        base = om.derive.derive_measurement(mo2, rng.choice(atoms), rng.choice(atoms))
        kind = rng.choice(("exchange", "contraction", "weakening"))
        mutant = _write(workdir / "mutant.drv", f.serialize(om.mutate.mutate(base, kind, rng, mo2)))
        out = workdir / "out"
        out.mkdir(exist_ok=True)
        ops = []  # (argv, expectation)

        def add(argv, rc, **expect):
            ops.append(([str(x) for x in argv], dict(expect, rc=rc)))

        def propagate(measure, x):
            # in MO(2) the Sasaki projection of an atom x onto m is m unless x = m'
            # (and symmetrically for m'), so {x} goes to {x} when x is m or m',
            # and to {m, m'} otherwise
            partner = _partner(measure)
            image = {x} if x in (measure, partner) else {measure, partner}
            add(["propagate", "--lattice", mo2_file, "--measure", measure, "--set", f"{{{x}}}"],
                0, stdout_set=image)

        def axiom():
            # guards on two atoms of MO(2), where u <= v only when u = v
            schema = rng.choice(("Adjust1", "Adjust2", "Trans"))
            u, v = rng.choice(atoms), rng.choice(atoms)
            if schema == "Trans":
                # the Sasaki projection of y onto z is 0 exactly when y = z'
                binds, ok = ["y=" + u, "z=" + v], u != _partner(v)
            elif schema == "Adjust1":
                # y !<= x and y !<= x'
                binds, ok = ["x=" + u, "y=" + v], v not in (u, _partner(u))
            else:
                # y <= x
                binds, ok = ["x=" + u, "y=" + v], v == u
            add(["axiom", "instantiate", "--lattice", mo2_file, "--schema", schema,
                 *itertools.chain.from_iterable(("--bind", b) for b in binds)], 0 if ok else 1)

        # the fixed part of the mix
        add(["lattice", "verify", mo2_file], 0, all_pass=True)
        add(["lattice", "verify", b3_file], 0, all_pass=True)
        add(["propagate", "--lattice", mo2_file, "--measure", "a", "--set", "{b}"], 0,
            stdout_exact="{a, a'}\n")
        drv1, drv2 = out / "measurement.drv", out / "composed.drv"
        add(["prove", "measurement", "--lattice", mo2_file, "--actual", a, "--measure", m,
             "-o", drv1], 0, writes=str(drv1))
        add(["prove", "composed", "--lattice", mo2_file, "--actual", a, "--measure", m,
             "--then", then, "-o", drv2], 0, writes=str(drv2))
        add(["check", valid, "--lattice", mo2_file], 0)
        add(["check", mutant, "--lattice", mo2_file], 1)
        add(["crosscheck", drv2, "--lattice", mo2_file], 0, stdout_prefix="agree")
        add(["axiom", "instantiate", "--lattice", mo2_file, "--schema", "Trans",
             "--bind", "y=b", "--bind", "z=a"], 0)
        json1, json2 = out / "quantale1.json", out / "quantale2.json"
        for path in (json1, json2):
            add(["quantale", "verify", "--lattice", mo2_file, "--seed", self.seed, "--json", path],
                0, all_pass=True)
        ops[-1][1]["same_json"] = (str(json1), str(json2))
        add(["lattice", "verify", bad_file], 2)

        # the seeded part
        templates = ("propagate", "prove", "check", "crosscheck", "axiom", "verify")
        while len(ops) < self.length:
            t = rng.choice(templates)
            if t == "propagate":
                propagate(rng.choice(atoms), rng.choice(atoms))
            elif t == "prove":
                add(["prove", "measurement", "--lattice", mo2_file, "--actual", rng.choice(atoms),
                     "--measure", rng.choice(atoms)], 0)
            elif t == "check":
                add(["check", rng.choice((valid, str(drv1))), "--lattice", mo2_file], 0)
            elif t == "crosscheck":
                add(["crosscheck", rng.choice((valid, str(drv2))), "--lattice", mo2_file], 0,
                    stdout_prefix="agree")
            elif t == "axiom":
                axiom()
            else:
                add(["lattice", "verify", rng.choice((mo2_file, b3_file))], 0, all_pass=True)
        return {"ops": ops[: self.length], "out": out}

    def operations(self, om, inputs: dict, spawner=None) -> list:
        """``python -m omlogic`` children when a spawner is given, else an
        in-process replay of the same argv list through ``omlogic.cli.run``."""
        for stale in inputs["out"].iterdir():  # so a file left by the last batch hides no failure
            stale.unlink()

        def child(argv):
            return lambda: spawner.run([sys.executable, "-m", "omlogic", *argv])

        def replay(argv):
            return lambda: run_cli(om, argv)

        make = child if spawner is not None else replay
        return [(f"{argv[0]}#{i}", make(argv)) for i, (argv, _) in enumerate(inputs["ops"])]

    def check(self, inputs: dict, label: str, out: dict) -> str | None:
        argv, expect = inputs["ops"][int(label.split("#")[1])]
        what = " ".join(argv[:2])
        if out["rc"] != expect["rc"]:
            return f"{what}: rc {out['rc']}, expected {expect['rc']}: {out['stderr'][-300:]!r}"
        stdout = out["stdout"]
        if "stdout_exact" in expect and stdout != expect["stdout_exact"]:
            return f"{what}: printed {stdout!r}, expected {expect['stdout_exact']!r}"
        if "stdout_set" in expect:
            got = {x.strip() for x in stdout.strip().strip("{}").split(",") if x.strip()}
            if got != expect["stdout_set"]:
                return f"{what}: printed {stdout!r}, expected {sorted(expect['stdout_set'])}"
        if "stdout_prefix" in expect and not stdout.startswith(expect["stdout_prefix"]):
            return f"{what}: printed {stdout[:200]!r}"
        if expect.get("all_pass") and not _all_pass(out):
            return f"{what}: not every check passed: {stdout[-200:]!r}"
        if "writes" in expect:
            path = Path(expect["writes"])
            if not path.is_file() or not path.stat().st_size:
                return f"{what}: wrote nothing to {path.name}"
        if "same_json" in expect:
            first, second = (Path(p).read_bytes() for p in expect["same_json"])
            if first != second:
                return f"{what}: two identical --json invocations differ"
        return None

    def baseline(self, outcomes) -> dict:
        return {}  # filled in from the probes after the run

    @staticmethod
    def roadmap(b: dict) -> str:
        return (f"one CLI call {b['cli_ms_p50']:.0f} ms = "
                f"{b['cli_ms_p50'] / b['interpreter_ms_p50']:.1f}x a bare interpreter "
                f"({b['interpreter_ms_p50']:.0f} ms) (ROADMAP: about 225 ms vs 68 ms, about 3x)")


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


WORKLOADS = {w.name: w for w in (Algebra, ProofCorpus, CliBatch)}
