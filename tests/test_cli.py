import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import omlogic
from omlogic.cli import run
from omlogic.derive import derive_chain, derive_measurement
from omlogic.formats import parse_derivation, parse_lattice, serialize
from omlogic.kernel import RuleApp
from omlogic.lattice import FiniteOrthoLattice, hexagon, mo
from omlogic.syntax import Lolli, Plus, Sequent, ascii_sequent


@pytest.fixture
def mo2_file(tmp_path):
    path = tmp_path / "mo2.lat"
    path.write_text(serialize(mo(2)))
    return str(path)


@pytest.fixture
def hexagon_file(tmp_path):
    path = tmp_path / "hex.lat"
    path.write_text(serialize(hexagon()))
    return str(path)


class TestLatticeCommands:
    def test_gen_then_verify(self, tmp_path, capsys):
        out = tmp_path / "mo2.lat"
        assert run(["lattice", "gen", "--family", "mo", "--n", "2", "-o", str(out)]) == 0
        assert run(["lattice", "verify", str(out)]) == 0
        assert "PASS orthomodularity" in capsys.readouterr().out

    def test_verify_hexagon_fails(self, hexagon_file, tmp_path, capsys):
        report = tmp_path / "r.json"
        assert run(["lattice", "verify", hexagon_file, "--json", str(report)]) == 1
        data = json.loads(report.read_text())
        failed = [c for c in data["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["orthomodularity"]
        assert failed[0]["witness"] == ["a", "b"]

    def test_gen_usage_error(self):
        assert run(["lattice", "gen", "--family", "boolean"]) == 2
        assert run(["lattice", "gen", "--family", "mo"]) == 2
        assert run(["lattice", "gen", "--family", "boolean", "--n", "9"]) == 2

    def test_parse_error_exit(self, tmp_path):
        bad = tmp_path / "bad.lat"
        bad.write_text("lattice x\nelements 0 1\nleq 0 zz\nend\n")
        assert run(["lattice", "verify", str(bad)]) == 2


@pytest.fixture(scope="module")
def mo128_file(tmp_path_factory):
    """0, 1 and 128 orthocomplementary pairs of atoms: 258 elements, two more
    than the propagation layer's byte tables hold."""
    pairs = [(f"x{i}", f"x{i}'") for i in range(128)]
    elements = ["0", *(e for pair in pairs for e in pair), "1"]
    leq = [("0", e) for e in elements] + [(e, "1") for e in elements]
    path = tmp_path_factory.mktemp("big") / "mo128.lat"
    path.write_text(serialize(FiniteOrthoLattice("mo128", elements, leq, pairs)))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["propagate", "--measure", "x0", "--set", "{x1}"],
        ["prop1"],
        ["counterexample", "order"],
        ["quantale", "verify"],
        ["crosscheck", "never-read.drv"],  # the lattice is refused first
        ["prove", "measurement", "--actual", "x0", "--measure", "x1"],
    ],
    ids=lambda argv: argv[0],
)
def test_more_than_256_elements_exit_2(mo128_file, argv, capsys):
    assert run([*argv, "--lattice", mo128_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "the propagation layer handles at most 256 elements; 'mo128' has 258\n"
    )


# what each command does on the hexagon, an ortholattice that is not
# orthomodular: a command that measures is refused with the measurement's
# text (exit 1); one that needs a verified lattice names the failing law
# (exit 1); `check` and `axiom instantiate`, defined on any ortholattice, run
HEX_MEASURE_A = (
    "measuring 'a': the branch onto \"a'\" projects 'b' to 0 although 'b' is not "
    "below 'a', so lattice 'hexagon' is not orthomodular\n"
)
HEX_MEASURE_B = (
    "measuring 'b': the branch onto 'b' projects \"a'\" to 0 although \"a'\" is not "
    "below \"b'\", so lattice 'hexagon' is not orthomodular\n"
)
HEX_UNVERIFIED = "lattice 'hexagon' fails: orthomodularity\n"
HEX_VERIFY = "".join(
    f"PASS {law}\n"
    for law in ("structure", "reflexivity", "antisymmetry", "transitivity", "bounds",
                "completeness", "ortho-involution", "ortho-antitone", "complement-meet",
                "complement-join")
) + "FAIL orthomodularity  witness (a, b)\n"


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["lattice", "verify", "LAT"], 1, HEX_VERIFY, ""),
        (["propagate", "--lattice", "LAT", "--measure", "b", "--set", "{a'}"],
         1, "", HEX_MEASURE_B),
        (["propagate", "--lattice", "LAT", "--map", "MAP", "--set", "{a'}"],
         2, "", "MAP: 1:1: " + HEX_MEASURE_A),
        (["prop1", "--lattice", "LAT"], 1, "", HEX_UNVERIFIED),
        (["quantale", "verify", "--lattice", "LAT"], 1, "", HEX_UNVERIFIED),
        (["counterexample", "order", "--lattice", "LAT"], 1, "", HEX_UNVERIFIED),
        (["prove", "measurement", "--lattice", "LAT", "--actual", "a", "--measure", "b"],
         1, "", HEX_MEASURE_B),
        (["prove", "measurement", "--lattice", "LAT", "--actual", "b", "--measure", "a"],
         1, "", HEX_MEASURE_A),
        (["prove", "measurement", "--lattice", "LAT", "--actual", "b", "--measure", "1"],
         0, "M(1) * (In(b) * R(b)) |- In(b) * R(b)\n", ""),
        (["check", "DRV", "--lattice", "LAT"], 0, "PASS derivation-valid\n", ""),
        (["crosscheck", "DRV", "--lattice", "LAT"], 1, "", HEX_MEASURE_B),
        (["axiom", "instantiate", "--lattice", "LAT", "--schema", "Trans",
          "--bind", "y=b", "--bind", "z=a"], 0, "|- In(b) * R(a) -o In(a) * R(a)\n", ""),
    ],
    ids=[
        "lattice verify", "propagate --measure", "propagate --map", "prop1",
        "quantale verify", "counterexample order", "prove a by b", "prove b by a",
        "prove b by 1", "check", "crosscheck", "axiom instantiate",
    ],
)
def test_every_command_on_the_hexagon(tmp_path, capsys, argv, code, out, err):
    files = {
        "LAT": serialize(hexagon()),
        "MAP": "map m over hexagon\nmeasure a\nend\n",
        "DRV": serialize(derive_measurement(hexagon(), "a", "b")),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
        argv = [str(tmp_path / name) if arg == name else arg for arg in argv]
        err = err.replace(name, str(tmp_path / name))
    assert run(argv) == code
    assert capsys.readouterr() == (out, err)


class TestPropagate:
    def test_spec_example(self, mo2_file, capsys):
        code = run(
            ["propagate", "--lattice", mo2_file, "--measure", "a", "--set", "{b}"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "{a, a'}"

    def test_map_file_source(self, mo2_file, tmp_path, capsys):
        map_file = tmp_path / "m.map"
        map_file.write_text("map blur over mo2\nmeasure a\nend\n")
        code = run(
            ["propagate", "--lattice", mo2_file, "--map", str(map_file), "--set", "{b, b'}"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "{a, a'}"

    @pytest.mark.parametrize("source", ["measure", "map"])
    def test_json_report(self, mo2_file, tmp_path, capsys, source):
        map_file = tmp_path / "blur.map"
        map_file.write_text("map blur over mo2\nmeasure a\nend\n")
        value = "a" if source == "measure" else str(map_file)
        report = tmp_path / "prop.json"
        argv = ["propagate", "--lattice", mo2_file, f"--{source}", value, "--set", "{b}"]
        assert run(argv + ["--json", str(report)]) == 0
        assert capsys.readouterr().out == "{a, a'}\n"
        assert json.loads(report.read_text()) == {
            "command": "propagate",
            "inputs": {
                "lattice": mo2_file,
                "map": value if source == "map" else None,
                "measure": value if source == "measure" else None,
                "set": ["b"],
            },
            "image": ["a", "a'"],
            "ok": True,
            "seed": None,
        }

    def test_non_orthomodular_measurement(self, hexagon_file, capsys):
        argv = ["propagate", "--lattice", hexagon_file, "--measure", "b", "--set", "{a'}"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "measuring 'b': the branch onto 'b' projects \"a'\" to 0 although \"a'\" "
            "is not below \"b'\", so lattice 'hexagon' is not orthomodular\n"
        )

    def test_unknown_element(self, mo2_file):
        assert run(["propagate", "--lattice", mo2_file, "--measure", "zz", "--set", "{b}"]) == 2

    def test_zero_in_set_rejected(self, mo2_file):
        assert run(["propagate", "--lattice", mo2_file, "--measure", "a", "--set", "{0}"]) == 2

    @pytest.mark.parametrize("value, message", [
        ("a,b", "expected a set like '{a, b}', got 'a,b'"),
        ("{q}", "unknown element 'q'"),
    ])
    def test_bad_set(self, mo2_file, capsys, value, message):
        assert run(["propagate", "--lattice", mo2_file, "--measure", "a", "--set", value]) == 2
        assert capsys.readouterr().err == message + "\n"


class TestQuantaleVerify:
    def test_mo2_all_pass(self, mo2_file):
        assert (
            run(
                [
                    "quantale", "verify", "--lattice", mo2_file,
                    "--random-maps", "20", "--pairs", "10", "--join-maps", "10",
                ]
            )
            == 0
        )

    def test_deterministic_reports(self, mo2_file, tmp_path):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        argv = [
            "quantale", "verify", "--lattice", mo2_file, "--seed", "5",
            "--random-maps", "10", "--pairs", "5", "--join-maps", "5",
        ]
        assert run(argv + ["--json", str(r1)]) == 0
        assert run(argv + ["--json", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_hexagon_rejected(self, hexagon_file):
        assert run(["quantale", "verify", "--lattice", hexagon_file]) == 1

    def test_non_member_composite_fails_cleanly(self, mo2_file, monkeypatch, capsys):
        bad = gen.non_transition_map(mo(2))
        monkeypatch.setattr("omlogic.propagation.quantale_compose", lambda f, g: bad)
        argv = [
            "quantale", "verify", "--lattice", mo2_file,
            "--random-maps", "5", "--pairs", "5", "--join-maps", "5",
        ]
        assert run(argv) == 1
        out = capsys.readouterr().out
        assert "FAIL morphism-compose-measurements  witness (0, 0)" in out
        assert "FAIL morphism-random-pairs  witness (compose closure sample 0)" in out

    @pytest.mark.parametrize("option", ["--random-maps", "--pairs", "--join-maps"])
    @pytest.mark.parametrize("value, message", [
        ("-1", "must be at least 0, got -1"),
        ("-3", "must be at least 0, got -3"),
        ("x", "invalid count value: 'x'"),
    ])
    def test_bad_count_exit_2(self, mo2_file, capsys, option, value, message):
        assert run(["quantale", "verify", "--lattice", mo2_file, option, value]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"omlogic quantale verify: error: argument {option}: {message}\n")

    def test_zero_counts_draw_nothing(self, mo2_file, capsys):
        argv = ["quantale", "verify", "--lattice", mo2_file,
                "--random-maps", "0", "--pairs", "0", "--join-maps", "0"]
        assert run(argv) == 0
        assert "PASS morphism-random-pairs\n" in capsys.readouterr().out


class TestCounterexample:
    def test_mo2_witness(self, mo2_file, tmp_path, capsys):
        report = tmp_path / "r.json"
        assert run(["counterexample", "order", "--lattice", mo2_file, "--json", str(report)]) == 0
        assert "witness" in capsys.readouterr().out
        data = json.loads(report.read_text())
        assert data["witness"] == {
            "element": "a", "other": "b", "argument": "b", "images": ["a", "b"],
        }

    def test_boolean_none(self, tmp_path, capsys):
        out = tmp_path / "b3.lat"
        run(["lattice", "gen", "--family", "boolean", "--n", "3", "-o", str(out)])
        assert run(["counterexample", "order", "--lattice", str(out)]) == 0
        assert capsys.readouterr().out.strip().splitlines()[0] == "none"

    def test_hexagon_rejected(self, hexagon_file):
        assert run(["counterexample", "order", "--lattice", hexagon_file]) == 1


class TestProveCheckCrosscheck:
    def test_pipeline(self, mo2_file, tmp_path, capsys):
        drv = tmp_path / "p.drv"
        assert (
            run(
                [
                    "prove", "measurement", "--lattice", mo2_file,
                    "--actual", "a", "--measure", "b", "-o", str(drv),
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out.strip()
        assert printed == "M(b) * (In(a) * R(a)) |- In(b) * R(b) + In(b') * R(b')"
        assert run(["check", str(drv), "--lattice", mo2_file]) == 0
        assert run(["crosscheck", str(drv), "--lattice", mo2_file]) == 0

    def test_unicode_rendering(self, mo2_file, capsys):
        assert (
            run(
                [
                    "prove", "measurement", "--lattice", mo2_file,
                    "--actual", "a", "--measure", "b", "--unicode",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "⊗" in out and "⊢" in out and "M(b, b⊥)" in out

    @pytest.mark.parametrize("command", ["check", "crosscheck"])
    @pytest.mark.parametrize("atom", ["In", "R"])
    def test_absurd_atom_after_normalization(self, mo2_file, tmp_path, capsys, command, atom):
        drv = tmp_path / "zero.drv"
        drv.write_text(f'(rule id (seq "In(a), {atom}(ortho(1)) |- In(a)"))\n')
        assert run([command, str(drv), "--lattice", mo2_file]) == 2
        assert capsys.readouterr().err == (
            f"{drv}: 1:15: in sequent string: 1:8: {atom} cannot hold the absurd property 0\n"
        )

    def test_zero_actual(self, mo2_file, capsys):
        argv = ["prove", "measurement", "--lattice", mo2_file, "--actual", "0", "--measure", "b"]
        assert run(argv) == 1
        assert capsys.readouterr().err == "actual property must be nonzero\n"

    def test_check_directory(self, mo2_file, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(["check", ".", "--lattice", mo2_file]) == 2
        assert capsys.readouterr().err.startswith("cannot read .: ")

    def test_crosscheck_invalid_derivation(self, mo2_file, tmp_path, capsys):
        drv, report = tmp_path / "bad.drv", tmp_path / "r.json"
        drv.write_text('(rule id (seq "In(a) |- In(b)"))\n')
        assert run(["crosscheck", str(drv), "--lattice", mo2_file, "--json", str(report)]) == 1
        reason = (
            "derivation invalid at (): id requires a single context formula equal to the succedent"
        )
        assert capsys.readouterr().out.splitlines()[0] == f"disagree: {reason}"
        data = json.loads(report.read_text())
        assert data["ok"] is False
        assert data["checks"] == [
            {"name": "logic-algebra-agreement", "passed": False, "witness": [reason]}
        ]

    def test_crosscheck_disagreement(self, mo2_file, tmp_path, capsys):
        # a valid tree whose conclusion gains the branch a by plus_r1
        core = derive_measurement(mo(2), "a", "b")
        (ctx,), goal = core.conclusion.context, core.conclusion.succedent
        wider = RuleApp("plus_r1", Sequent((ctx,), Plus(goal, ctx.right)), (core,))
        drv, report = tmp_path / "wide.drv", tmp_path / "r.json"
        drv.write_text(serialize(wider))
        assert run(["check", str(drv), "--lattice", mo2_file]) == 0
        capsys.readouterr()
        assert run(["crosscheck", str(drv), "--lattice", mo2_file, "--json", str(report)]) == 1
        assert capsys.readouterr().out.splitlines()[0] == (
            "disagree: branches {a, b, b'} != propagated {b, b'}"
        )
        data = json.loads(report.read_text())
        assert data["ok"] is False
        assert data["checks"] == [
            {"name": "logic-algebra-agreement", "passed": False, "witness": ["branch sets differ"]}
        ]
        assert (data["shape"], data["expected"], data["found"]) == (
            "measurement", ["b", "b'"], ["a", "b", "b'"]
        )

    def test_composed_pipeline(self, mo2_file, tmp_path):
        drv = tmp_path / "c.drv"
        assert (
            run(
                [
                    "prove", "composed", "--lattice", mo2_file,
                    "--actual", "a", "--measure", "b", "--then", "a", "-o", str(drv),
                ]
            )
            == 0
        )
        assert run(["check", str(drv), "--lattice", mo2_file]) == 0
        assert run(["crosscheck", str(drv), "--lattice", mo2_file]) == 0

    def test_repeated_then(self, mo2_file, tmp_path, capsys):
        drv = tmp_path / "chain.drv"
        argv = ["prove", "composed", "--lattice", mo2_file, "--actual", "a",
                "--measure", "b", "--then", "a", "--then", "b", "-o", str(drv)]
        assert run(argv) == 0
        chain = derive_chain(mo(2), "a", ["b", "a", "b"])
        assert capsys.readouterr().out == ascii_sequent(chain.conclusion) + "\n"
        assert drv.read_text() == serialize(chain)
        assert run(["check", str(drv), "--lattice", mo2_file]) == 0
        assert run(["crosscheck", str(drv), "--lattice", mo2_file]) == 0
        assert capsys.readouterr().out.startswith("PASS derivation-valid\nagree (composed)")

    def test_lolli_form_chain(self, mo2_file, tmp_path, capsys):
        core = derive_measurement(mo(2), "a", "a")
        (ctx,), goal = core.conclusion.context, core.conclusion.succedent
        drv = tmp_path / "lolli.drv"
        drv.write_text(serialize(RuleApp("lolli_r", Sequent((), Lolli(ctx, goal)), (core,))))
        assert run(["crosscheck", str(drv), "--lattice", mo2_file]) == 0
        assert capsys.readouterr().out.startswith("agree (measurement): branches {a}")

    def test_no_algebraic_reading(self, mo2_file, tmp_path, capsys):
        drv, report = tmp_path / "id.drv", tmp_path / "r.json"
        drv.write_text('(rule id (seq "M(0) |- M(1)"))\n')
        assert run(["check", str(drv), "--lattice", mo2_file]) == 0
        capsys.readouterr()
        assert run(["crosscheck", str(drv), "--lattice", mo2_file, "--json", str(report)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"{drv}: no algebraic reading for this conclusion; crosscheck reads "
            "measurement chains and IND(alpha) * In(a) propagation\n"
        )
        assert not report.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["prove", "measurement", "--actual", "a", "--measure", "b"],
            ["prove", "composed", "--actual", "a", "--measure", "b", "--then", "a"],
            ["axiom", "instantiate", "--schema", "Trans", "--bind", "y=b", "--bind", "z=a"],
        ],
        ids=["prove measurement", "prove composed", "axiom instantiate"],
    )
    def test_json_rejected_where_no_report(self, mo2_file, tmp_path, argv):
        report = tmp_path / "r.json"
        assert run(argv + ["--lattice", mo2_file, "--json", str(report)]) == 2
        assert not report.exists()

    def test_check_rejects_tampered_file(self, mo2_file, tmp_path, capsys):
        drv = tmp_path / "p.drv"
        run(
            [
                "prove", "measurement", "--lattice", mo2_file,
                "--actual", "a", "--measure", "b", "-o", str(drv),
            ]
        )
        lat = parse_lattice(serialize(mo(2)))
        d = parse_derivation(drv.read_text(), lat)
        import random

        from omlogic.mutate import mutate

        broken = mutate(d, "exchange", random.Random(1), lat)
        drv.write_text(serialize(broken))
        capsys.readouterr()
        assert run(["check", str(drv), "--lattice", mo2_file]) == 1
        assert "invalid at node" in capsys.readouterr().out

    def test_prove_checks_what_it_built(self, mo2_file, tmp_path, monkeypatch, capsys):
        # a built tree the kernel rejects is a fault of the builder: prove
        # exits 1 and writes nothing
        import random

        from omlogic import cli
        from omlogic.mutate import mutate

        def broken(lat, actual, chain):
            return mutate(derive_chain(lat, actual, chain), "weakening", random.Random(0), lat)

        monkeypatch.setattr(cli, "derive_chain", broken)
        drv = tmp_path / "p.drv"
        argv = ["prove", "measurement", "--lattice", mo2_file, "--actual", "a", "--measure", "b"]
        assert run(argv + ["-o", str(drv)]) == 1
        assert "built derivation failed self-check: " in capsys.readouterr().err
        assert not drv.exists()

    def test_check_shows_failing_sequent(self, mo2_file, tmp_path, capsys):
        drv, report = tmp_path / "k.drv", tmp_path / "r.json"
        run(["prove", "composed", "--lattice", mo2_file, "--actual", "a",
             "--measure", "b", "--then", "a", "-o", str(drv)])
        drv.write_text(drv.read_text().replace("plus_r1", "plus_r2", 1))
        capsys.readouterr()
        assert run(["check", str(drv), "--lattice", mo2_file, "--json", str(report)]) == 1
        assert capsys.readouterr().out == (
            "invalid at node [0, 0, 1, 0, 0, 0] (plus_r2): "
            "selected disjunct differs from the premise succedent\n"
            "  at: In(a), R(b) |- In(a) * R(b) + In(a) * R(b')\n"
            "FAIL derivation-valid  witness (plus_r2, selected disjunct differs from the "
            "premise succedent)\n"
        )
        # the report names the rule and the reason only, as before
        assert json.loads(report.read_text())["checks"] == [{
            "name": "derivation-valid", "passed": False,
            "witness": ["plus_r2", "selected disjunct differs from the premise succedent"],
        }]


class TestDeepInput:
    """Formulas and derivations of any depth get a verdict, never a
    RecursionError traceback."""

    def check_exit(self, tmp_path, mo2_file, capsys, text, code=2):
        """The output of ``check`` on ``text``, which exits with ``code``."""
        drv = tmp_path / "deep.drv"
        drv.write_text(text)
        capsys.readouterr()
        assert run(["check", str(drv), "--lattice", mo2_file]) == code
        got = capsys.readouterr()
        assert "Traceback" not in got.err
        return got

    def test_deeply_parenthesized_sequent(self, mo2_file, tmp_path, capsys):
        # 3,000 pairs of parentheses around an atom are the atom
        nested = "(" * 3000 + "In(a)" + ")" * 3000
        got = self.check_exit(tmp_path, mo2_file, capsys, f'(rule id (seq "{nested} |- In(a)"))\n',
                              code=0)
        assert (got.out, got.err) == ("PASS derivation-valid\n", "")

    def test_deep_plus_r1_chain(self, mo2_file, tmp_path, capsys):
        text = '(rule id (seq "In(a) |- In(a)"))'
        for _ in range(1500):
            text = f'(rule plus_r1 (seq "In(a) |- In(a) + R(a)")\n{text})'
        out = self.check_exit(tmp_path, mo2_file, capsys, text + "\n", code=1).out
        # the first plus_r1 over another selects the wrong disjunct
        assert out.startswith(f"invalid at node {[0] * 1498} (plus_r1): "
                              "selected disjunct differs from the premise succedent\n")

    def test_chain_depth_limit(self, tmp_path, capsys):
        # a chain's context nests one formula level per measurement, and the
        # reader has no depth cap: the files prove composed writes for 60, 99,
        # 100 and 150 alternating measurements on mo(4) check and crosscheck
        lat_file = tmp_path / "mo4.lat"
        lat_file.write_text(serialize(mo(4)))
        codes = {}
        for k in (60, 99, 100, 150):
            first, *rest = (["a", "b"] * 75)[:k]
            drv = tmp_path / f"k{k}.drv"
            argv = ["prove", "composed", "--lattice", str(lat_file), "--actual", "c",
                    "--measure", first, *(w for m in rest for w in ("--then", m)), "-o", str(drv)]
            assert run(argv) == 0
            codes[k] = [run([cmd, str(drv), "--lattice", str(lat_file)])
                        for cmd in ("check", "crosscheck")]
        assert codes == {60: [0, 0], 99: [0, 0], 100: [0, 0], 150: [0, 0]}
        assert capsys.readouterr().err == ""


    def test_long_sum_crosscheck(self, mo2_file, tmp_path, capsys):
        # a sum adds no nesting level: 10,000 terms parse and check, and
        # crosscheck finds no algebraic reading in them
        drv = tmp_path / "sum.drv"
        chain = " + ".join(["In(a)"] * 10_000)
        drv.write_text(f'(rule id (seq "{chain} |- {chain}"))\n')
        assert run(["check", str(drv), "--lattice", mo2_file]) == 0
        capsys.readouterr()
        assert run(["crosscheck", str(drv), "--lattice", mo2_file]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{drv}: no algebraic reading")
        assert "Traceback" not in err


class TestClosedStdout:
    """A reader that closes its end of the pipe ends the run with exit 2 and
    one stderr line, as an unwritable output path does: no traceback from the
    write that failed, and no complaint from the flush at interpreter exit."""

    @pytest.mark.parametrize("argv", [
        ["lattice", "verify", "L"],
        ["lattice", "gen", "--family", "boolean", "--n", "6"],
    ], ids=["lattice verify", "lattice gen"])
    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_exit_2(self, mo2_file, argv, unbuffered):
        env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
        proc = subprocess.Popen(
            [sys.executable, "-m", "omlogic", *(mo2_file if a == "L" else a for a in argv)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            cwd=Path(omlogic.__file__).parents[1],
        )
        proc.stdout.close()  # before the child has started to write
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 2
        assert "Traceback" not in err and "Exception ignored" not in err
        assert err.startswith("cannot write stdout: ") and err.count("\n") == 1


class TestUnwritableOutput:
    """An output path that cannot be written exits 2 naming it, as an input
    that cannot be read does, never with a traceback."""

    @pytest.mark.parametrize("argv, option", [
        (["lattice", "gen", "--family", "mo", "--n", "2"], "-o"),
        (["prove", "measurement", "--lattice", "L", "--actual", "a", "--measure", "b"], "-o"),
        (["lattice", "verify", "L"], "--json"),
    ], ids=["lattice gen", "prove", "json report"])
    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_exit_2(self, mo2_file, tmp_path, capsys, argv, option, where):
        path = tmp_path / "missing" / "out" if where == "missing directory" else tmp_path
        argv = [mo2_file if a == "L" else a for a in argv]
        assert run(argv + [option, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write {path}: [Errno ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["lattice", "verify", "L"],
        ["propagate", "--lattice", "L", "--measure", "a", "--set", "{b}"],
        ["quantale", "verify", "--lattice", "L", "--random-maps", "2", "--pairs", "2",
         "--join-maps", "2"],
        ["counterexample", "order", "--lattice", "L"],
        ["prop1", "--lattice", "L"],
        ["check", "D", "--lattice", "L"],
        ["check", "BAD", "--lattice", "L"],
        ["crosscheck", "D", "--lattice", "L"],
    ], ids=["lattice verify", "propagate", "quantale verify", "counterexample order", "prop1",
            "check valid", "check invalid", "crosscheck"])
    def test_json_written_before_stdout(self, mo2_file, tmp_path, capsys, argv):
        # an unwritable report leaves stdout empty; a written one leaves it
        # as a run without --json prints it
        drv, bad = tmp_path / "k.drv", tmp_path / "bad.drv"
        drv.write_text(serialize(derive_chain(mo(2), "a", ["b", "a"])))
        bad.write_text('(rule id (seq "In(a) |- In(b)"))\n')
        argv = [{"L": mo2_file, "D": str(drv), "BAD": str(bad)}.get(a, a) for a in argv]
        code = run(argv)
        plain = capsys.readouterr().out
        assert plain
        path = tmp_path / "missing" / "r.json"
        assert run(argv + ["--json", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"cannot write {path}: [Errno ")
        assert run(argv + ["--json", str(tmp_path / "r.json")]) == code
        assert capsys.readouterr().out == plain


class TestUndecodableInput:
    """A file that is not UTF-8 is an input error (exit 2) naming the path
    and the first bad byte, never a UnicodeDecodeError traceback."""

    def test_each_file_kind(self, mo2_file, tmp_path, capsys):
        lat = tmp_path / "bad.lat"
        lat.write_bytes(b"\xfflattice x\n")
        fmap = tmp_path / "bad.map"
        fmap.write_bytes(b"map m over mo2\non a -> {a\xe9}\nend\n")
        drv = tmp_path / "bad.drv"
        drv.write_bytes(b'(rule id (seq "In(a) |- In(a)"))\n# \x80\n')
        for argv, path, offset in [
            (["lattice", "verify", str(lat)], lat, 0),
            (["propagate", "--lattice", mo2_file, "--map", str(fmap), "--set", "{a}"], fmap, 25),
            (["check", str(drv), "--lattice", mo2_file], drv, 35),
            (["crosscheck", str(drv), "--lattice", mo2_file], drv, 35),
            (["check", mo2_file, "--lattice", str(lat)], lat, 0),
        ]:
            capsys.readouterr()
            assert run(argv) == 2
            out, err = capsys.readouterr()
            assert (out, err) == ("", f"cannot read {path}: byte {offset} is not UTF-8 text\n")

    def test_console_exit(self, mo2_file, tmp_path):
        drv = tmp_path / "bad.drv"
        drv.write_bytes(b"\xff(rule id)\n")
        proc = subprocess.run(
            [sys.executable, "-m", "omlogic", "check", str(drv), "--lattice", mo2_file],
            capture_output=True, text=True, cwd=Path(omlogic.__file__).parents[1],
        )
        assert proc.returncode == 2
        assert proc.stderr == f"cannot read {drv}: byte 0 is not UTF-8 text\n"


class TestAxiomInstantiate:
    def test_trans(self, mo2_file, capsys):
        assert (
            run(
                [
                    "axiom", "instantiate", "--lattice", mo2_file,
                    "--schema", "Trans", "--bind", "y=b", "--bind", "z=a",
                ]
            )
            == 0
        )
        assert capsys.readouterr().out.strip() == "|- In(b) * R(a) -o In(a) * R(a)"

    def test_unfold_flag(self, mo2_file, capsys):
        assert (
            run(
                [
                    "axiom", "instantiate", "--lattice", mo2_file, "--unfold",
                    "--schema", "Trans", "--bind", "y=b", "--bind", "z=a",
                ]
            )
            == 0
        )
        assert capsys.readouterr().out.strip() == "In(b) * R(a) |- In(a) * R(a)"

    def test_guard_failure_exit(self, mo2_file):
        code = run(
            [
                "axiom", "instantiate", "--lattice", mo2_file,
                "--schema", "Adjust1", "--bind", "x=a", "--bind", "y=a",
            ]
        )
        assert code == 1

    def test_general_propagation_with_registry(self, mo2_file, tmp_path, capsys):
        map_file = tmp_path / "m.map"
        map_file.write_text("map blur over mo2\nmeasure b\nend\n")
        assert (
            run(
                [
                    "axiom", "instantiate", "--lattice", mo2_file,
                    "--schema", "GeneralPropagation",
                    "--bind", "alpha=blur", "--bind", "x=a",
                    "--register", str(map_file),
                ]
            )
            == 0
        )
        assert capsys.readouterr().out.strip() == "|- IND(blur) * In(a) -o In(b) + In(b')"

    def test_unknown_schema(self, mo2_file):
        assert (
            run(["axiom", "instantiate", "--lattice", mo2_file, "--schema", "Nope"]) == 2
        )

    def test_binding_without_value(self, mo2_file, capsys):
        argv = ["axiom", "instantiate", "--lattice", mo2_file, "--schema", "Trans", "--bind", "y"]
        assert run(argv) == 2
        assert capsys.readouterr().err == "bindings look like var=element, got 'y'\n"


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "m.lat"
        proc = subprocess.run(
            [sys.executable, "-m", "omlogic", "lattice", "gen", "--family", "mo",
             "--n", "2", "-o", str(out)],
            capture_output=True,
            text=True,
            # the directory holding the package under test, so that
            # ``-m omlogic`` finds it without an install
            cwd=Path(omlogic.__file__).parents[1],
        )
        assert proc.returncode == 0
        assert parse_lattice(out.read_text()) == mo(2)

    def test_usage_error_exit_code(self):
        assert run(["no-such-command"]) == 2

    def test_console_script_target(self, tmp_path):
        """The ``[project.scripts]`` target, called the way the installed
        ``omlogic`` script calls it, with its return code as the exit code."""
        pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        module, func = re.search(r'^omlogic = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
        script = f"import sys; from {module} import {func}; sys.exit({func}())"
        lat = tmp_path / "mo2.lat"

        def script_run(*argv):
            return subprocess.run(
                [sys.executable, "-c", script, *argv], capture_output=True, text=True,
                cwd=Path(omlogic.__file__).parents[1],
            )

        gen = script_run("lattice", "gen", "--family", "mo", "--n", "2", "-o", str(lat))
        assert gen.returncode == 0
        assert parse_lattice(lat.read_text()) == mo(2)
        verify = script_run("lattice", "verify", str(lat))
        assert verify.returncode == 0 and "PASS orthomodularity" in verify.stdout
        assert script_run("no-such-command").returncode == 2

    def test_import_footprint(self):
        """Importing the CLI loads neither dataclasses (nor inspect through it)
        nor json, which only --json reports need."""
        code = (
            "import sys; before = set(sys.modules); import omlogic.cli; "
            "print(sorted({'dataclasses', 'inspect', 'json'} & (set(sys.modules) - before)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            cwd=Path(omlogic.__file__).parents[1],
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestParserReuse:
    """One argument parser serves every ``run`` in a process; no value of one
    call reaches the next."""

    def test_shorter_then_list(self, mo2_file, tmp_path):
        out = tmp_path / "out.drv"
        base = ["--lattice", mo2_file, "--actual", "a", "--measure", "b", "-o", str(out)]
        for argv, chain in (
            (["composed", *base, "--then", "a", "--then", "b"], ["b", "a", "b"]),
            (["composed", *base, "--then", "a"], ["b", "a"]),
            (["measurement", *base], ["b"]),
            (["measurement", *base], ["b"]),
        ):
            assert run(["prove", *argv]) == 0
            assert out.read_text() == serialize(derive_chain(mo(2), "a", chain)), argv

    def test_usage_error_then_valid_command(self, mo2_file, capsys):
        assert run(["prove", "composed", "--lattice", mo2_file]) == 2
        assert run(["lattice", "verify", mo2_file]) == 0
        assert "PASS orthomodularity" in capsys.readouterr().out

    def test_bind_and_register_do_not_carry_over(self, mo2_file, tmp_path, capsys):
        map_file = tmp_path / "m.map"
        map_file.write_text("map blur over mo2\nmeasure b\nend\n")
        base = ["axiom", "instantiate", "--lattice", mo2_file]
        general = base + [
            "--schema", "GeneralPropagation", "--bind", "alpha=blur", "--bind", "x=a"
        ]
        assert run(general + ["--register", str(map_file)]) == 0
        capsys.readouterr()
        # the map registered by the last call is gone
        assert run(general) == 1
        assert "unknown propagation map 'blur'" in capsys.readouterr().err
        # and so are its bindings: Trans takes exactly y and z
        assert run(base + ["--schema", "Trans", "--bind", "y=b", "--bind", "z=a"]) == 0
        assert capsys.readouterr().out == "|- In(b) * R(a) -o In(a) * R(a)\n"


def readme_commands() -> list[str]:
    """The ``omlogic`` lines of README's "Command line" block."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("omlogic ")]


def test_readme_command_line_block(tmp_path, monkeypatch, capsys):
    """Every README example runs, in order, from an empty directory, and exits 0."""
    commands = readme_commands()
    assert len(commands) >= 11
    monkeypatch.chdir(tmp_path)
    for line in commands:
        argv = shlex.split(line, comments=True)[1:]
        assert run(argv) == 0, (line, capsys.readouterr())
