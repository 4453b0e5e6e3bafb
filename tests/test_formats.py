import hashlib
import itertools
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from omlogic import formats
from omlogic.derive import derive_chain, derive_composed, derive_measurement
from omlogic.formats import (
    ParseError,
    SourceSpan,
    _DerivationParser,
    _Reader,
    _split_read,
    _tokenize,
    parse_derivation,
    parse_formula,
    parse_lattice,
    parse_map,
    parse_sequent,
    serialize,
)
from omlogic.kernel import AxiomApp, RuleApp, check_derivation
from omlogic.lattice import boolean, hexagon, mo
from omlogic.mutate import MUTATION_KINDS, capture_case, mutate
from omlogic.propagation import perfect_measurement_map
from omlogic.record import Store
from omlogic.syntax import (
    Actual,
    Const,
    Forall,
    Lolli,
    Measurement,
    OrthoTerm,
    Plus,
    Reachable,
    Sequent,
    Tensor,
    Var,
    ascii_formula,
    ascii_sequent,
)
from reference import MAX_DEPTH, FormulaParser


def In(x):
    return Actual(Const(x))


def R(x):
    return Reachable(Const(x))


class TestLatticeFormat:
    def test_round_trip_families(self):
        for lat in (boolean(3), mo(4), hexagon()):
            assert parse_lattice(serialize(lat)) == lat

    def test_comments_and_whitespace(self):
        text = """
# a tiny lattice
lattice demo
elements 0 a a' 1   # four elements
leq 0 a
leq a 1
leq 0 a'
leq a' 1
ortho a a'          # 0 1 implied
end
"""
        lat = parse_lattice(text)
        assert lat.verify().ok
        assert lat.ortho("a") == "a'"

    def test_unknown_element_span(self):
        text = "lattice x\nelements 0 1\nleq 0 zz\nend\n"
        with pytest.raises(ParseError) as err:
            parse_lattice(text)
        assert err.value.span.line == 3
        assert err.value.span.column == 7
        assert err.value.span.length == 2

    def test_missing_end(self):
        with pytest.raises(ParseError, match="end"):
            parse_lattice("lattice x\nelements 0 1\n")

    def test_duplicate_element(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_lattice("lattice x\nelements 0 1 a a\nend\n")

    @pytest.mark.parametrize("text, message", [
        ("lattice x\nelements 0 1 a\x85leq 0 zz\nend\n", "2:20: duplicate element name '0'"),
        ("lattice x\x0belements 0 1\nfoo\nend\n",
         "1:1: malformed 'lattice' line (expected lattice <name>)"),
    ], ids=["next line", "vertical tab"])
    def test_lines_end_only_at_newline(self, text, message):
        # a line ends at '\n' only, as in every other error of the program;
        # other line breaks that str.splitlines() knows are whitespace
        with pytest.raises(ParseError) as err:
            parse_lattice(text)
        assert str(err.value) == message

    def test_crlf_lines(self):
        text = serialize(mo(2))
        assert parse_lattice(text.replace("\n", "\r\n")) == parse_lattice(text)
        text = ("map g over mo2\non a -> {a}\non a' -> {a'}\non b -> {b}\non b' -> {b'}\n"
                "on 1 -> {1}\nend\n")
        crlf = parse_map(text.replace("\n", "\r\n"), mo(2))
        assert serialize(crlf) == serialize(parse_map(text, mo(2)))

    def test_unknown_directive_expected_set(self):
        with pytest.raises(ParseError) as err:
            parse_lattice("lattice x\nelements 0 1\nfoo 0 1\nend\n")
        assert "leq" in err.value.expected

    @pytest.mark.parametrize("text, message, length", [
        ("lattice x\nelements 0 1\nend\nleq 0 1\n", "4:1: content after 'end'", 3),
        ("lattice x y\nelements 0 1\nend\n",
         "1:1: malformed 'lattice' line (expected lattice <name>)", 7),
        ("lattice x\nlattice y\nend\n",
         "2:1: malformed 'lattice' line (expected lattice <name>)", 7),
        ("elements 0 1\nlattice x\nend\n",
         "1:1: file must start with 'lattice <name>' (expected lattice)", 8),
        ("lattice x\nelements\nend\n", "2:1: 'elements' needs at least one name", 8),
        ("lattice x\nelements 0 1\nleq 0\nend\n", "3:1: 'leq' takes two element names", 3),
        ("lattice x\nelements 0 1\northo 0 1 1\nend\n",
         "3:1: 'ortho' takes two element names", 5),
        ("lattice x\nelements 0 a 1 a\nend\n", "2:16: duplicate element name 'a'", 1),
        ("lattice x\nelements 0 1\nfoo 0 1\nend\n",
         "3:1: unknown directive 'foo' (expected elements, end, leq, ortho)", 3),
        ("# nothing\n\n", "1:1: empty lattice file (expected lattice)", 1),
        ("lattice x\nelements 0 1\nleq 0 1\n", "4:1: missing 'end' (expected end)", 1),
        ("lattice x\nelements a b\nend\n", "1:1: elements must include '0' and '1'", 1),
        ("lattice x\nelements 0 a a' 1\northo a a'\northo a 1\nend\n",
         "1:1: conflicting orthocomplement for 'a'", 1),
    ], ids=[
        "content after end", "lattice line arity", "second lattice line", "no lattice line",
        "empty elements", "leq arity", "ortho arity", "duplicate element", "unknown directive",
        "empty file", "missing end", "no bounds", "conflicting ortho",
    ])
    def test_line_error(self, text, message, length):
        with pytest.raises(ParseError) as err:
            parse_lattice(text)
        assert str(err.value) == message
        assert err.value.span.length == length


class TestMapFormat:
    def test_measure_form_expands(self):
        lat = mo(2)
        f = parse_map("map blur over mo2\nmeasure a\nend\n", lat)
        assert f == perfect_measurement_map(lat, "a")
        assert f.measured == "a"

    def test_general_round_trip(self):
        lat = mo(2)
        rng = random.Random(3)
        for _ in range(20):
            f = gen.random_map(lat, rng)
            assert parse_map(serialize(f), lat) == f

    def test_lattice_name_mismatch(self):
        with pytest.raises(ParseError, match="over"):
            parse_map("map m over other\nmeasure a\nend\n", mo(2))

    def test_missing_row(self):
        lat = mo(2)
        with pytest.raises(ParseError, match="missing"):
            parse_map("map m over mo2\non a -> {a}\nend\n", lat)

    def test_unknown_image_element_span(self):
        with pytest.raises(ParseError) as err:
            parse_map("map m over mo2\non a -> {zz}\nend\n", mo(2))
        assert (err.value.span.line, err.value.span.column, err.value.span.length) == (2, 10, 2)
        with pytest.raises(ParseError) as err:
            parse_map("map m over mo2\n  on a ->{ a ,  zz }\nend\n", mo(2))
        assert (err.value.span.line, err.value.span.column) == (2, 17)

    def test_on_lines_keep_map_name(self):
        # the image names of an 'on' line must not overwrite the map's name
        lat = mo(2)
        rows = "\n".join(f"on {e} -> {{{e}}}" for e in lat.nonzero())
        f = parse_map(f"map ident over mo2\n{rows}\nend\n", lat)
        assert f.label == "ident"
        assert serialize(f).startswith("map ident over mo2\n")

    def test_measured_maps_keep_their_own_labels(self):
        # the lattice keeps the measurement masks, but each parse gets its own map
        lat = mo(2)
        f = parse_map("map first over mo2\nmeasure a\nend\n", lat)
        g = parse_map("map second over mo2\nmeasure a\nend\n", lat)
        assert (f.label, g.label) == ("first", "second")
        assert f == g and f is not g
        assert perfect_measurement_map(lat, "a").label is None

    def test_measure_on_non_orthomodular_lattice_is_a_parse_error(self):
        lat = hexagon()
        for _ in range(2):  # a failed measurement is not kept: each parse raises
            with pytest.raises(ParseError, match="'hexagon' is not orthomodular"):
                parse_map("map m over hexagon\nmeasure a\nend\n", lat)

    def test_empty_image_allowed(self):
        lat = mo(2)
        rows = "\n".join(f"on {e} -> {{}}" for e in lat.nonzero())
        f = parse_map(f"map dead over mo2\n{rows}\nend\n", lat)
        assert all(not img for _, img in f.items())

    @pytest.mark.parametrize("text, message, length", [
        ("map m over\nmeasure a\nend\n",
         "1:1: malformed 'map' line (expected map <name> over <lattice>)", 3),
        ("map m onto mo2\nmeasure a\nend\n",
         "1:1: malformed 'map' line (expected map <name> over <lattice>)", 3),
        ("map m over mo2\nmap n over mo2\nend\n",
         "2:1: malformed 'map' line (expected map <name> over <lattice>)", 3),
        ("map m over mo3\nmeasure a\nend\n", "1:12: map is over lattice 'mo3', not 'mo2'", 3),
        ("measure a\nend\n",
         "1:1: file must start with 'map <name> over <lattice>' (expected map)", 7),
        ("map m over mo2\nmeasure a b\nend\n", "2:1: 'measure' takes one element", 7),
        ("map m over mo2\non a {a}\nend\n",
         "2:1: malformed 'on' line (expected on <element> -> {…})", 2),
        ("map m over mo2\non a -> {a}\non a -> {a}\nend\n",
         "3:4: duplicate 'on' line for 'a'", 1),
        ("map m over mo2\nmeasure a\nmeasure b\nend\n", "3:1: duplicate 'measure' line", 7),
        ("map m over mo2\nmeasure a\non a -> {a}\nend\n",
         "1:1: 'measure' and 'on' lines cannot be mixed", 1),
        ("map m over mo2\non a -> {a}\nend\n",
         "1:1: missing 'on' line for \"a'\" (expected on)", 1),
        ("\n# empty\n", "1:1: empty map file (expected map)", 1),
        ("map m over mo2\nmeasure a\nend\nmeasure b\n", "4:1: content after 'end'", 7),
        ("map m over mo2\nmeasure a\nfoo\nend\n",
         "3:1: unknown directive 'foo' (expected end, measure, on)", 3),
        ("map m over mo2\nmeasure a\n", "3:1: missing 'end' (expected end)", 1),
        ("map m over mo2\nmeasure zz\nend\n", "2:9: unknown element 'zz'", 2),
        ("map m over mo2\non zz -> {a}\nend\n", "2:4: unknown element 'zz'", 2),
        ("map m over mo2\non a -> {0}\non a' -> {a'}\non b -> {b}\non b' -> {b'}\n"
         "on 1 -> {1}\nend\n", "1:1: images must not contain 0", 1),
    ], ids=[
        "map line arity", "map line without over", "second map line", "other lattice",
        "no map line", "measure arity", "malformed on line", "duplicate on line",
        "duplicate measure line", "measure and on mixed", "missing on line", "empty file",
        "content after end", "unknown directive", "missing end", "unknown measured element",
        "unknown on element", "zero in an image",
    ])
    def test_line_error(self, text, message, length):
        with pytest.raises(ParseError) as err:
            parse_map(text, mo(2))
        assert str(err.value) == message
        assert err.value.span.length == length


class TestFormulaGrammar:
    def test_smallest_composite(self):
        lat = mo(2)
        assert parse_formula("In(a) * R(a)", lat) == Tensor(In("a"), R("a"))

    def test_measurement_sequent(self):
        lat = mo(2)
        text = "M(b) * (In(a) * R(a)) |- (In(b)*R(b)) + (In(ortho(b))*R(ortho(b)))"
        seq = parse_sequent(text, lat)
        expected = derive_measurement(lat, "a", "b").conclusion
        assert seq == expected

    def test_triple_tensor_rejected(self):
        lat = mo(2)
        with pytest.raises(ParseError, match="non-associative"):
            parse_formula("In(a) * R(a) * In(b)", lat)

    def test_tensor_grouping_preserved(self):
        lat = boolean(3)
        left = parse_formula("(In(a) * In(b)) * In(c)", lat)
        right = parse_formula("In(a) * (In(b) * In(c))", lat)
        assert left != right

    def test_plus_left_associative(self):
        lat = boolean(3)
        f = parse_formula("In(a) + In(b) + In(c)", lat)
        assert f == Plus(Plus(In("a"), In("b")), In("c"))

    def test_lolli_right_associative(self):
        lat = boolean(3)
        f = parse_formula("In(a) -o In(b) -o In(c)", lat)
        assert f.consequent.consequent == In("c")

    def test_ortho_constant_normalizes(self):
        lat = mo(2)
        assert parse_formula("In(ortho(a))", lat) == In("a'")
        assert parse_formula("In(ortho(ortho(a)))", lat) == In("a")

    def test_measurement_canonical(self):
        lat = mo(2)
        assert parse_formula("M(b')", lat) == parse_formula("M(b)", lat)

    def test_forall_with_guard(self):
        lat = mo(2)
        f = parse_formula("forall v {!<= b, !<= ortho(b)} . In(v) -o R(v)", lat)
        assert f.var == "v"
        assert len(f.guard) == 2
        assert parse_formula(serialize(f), lat) == f

    def test_zero_atom_rejected(self):
        lat = mo(2)
        # 0 after normalization counts too; the span points at the atom's head
        for text, column in [("In(0)", 1), ("In(a) * In(ortho(1))", 9), ("R(ortho(ortho(0)))", 1)]:
            with pytest.raises(ParseError, match="absurd") as err:
                parse_formula(text, lat)
            assert err.value.span.column == column

    def test_error_span_inside_token(self):
        lat = mo(2)
        with pytest.raises(ParseError) as err:
            parse_formula("In(a) @ R(a)", lat)
        assert err.value.span.column == 7

    def test_expected_tokens_on_bad_unit(self):
        lat = mo(2)
        with pytest.raises(ParseError) as err:
            parse_formula("In(a) * + R(a)", lat)
        assert {"In", "R", "M", "IND", "(", "forall"} <= err.value.expected

    def test_empty_context_sequent(self):
        lat = mo(2)
        seq = parse_sequent("|- In(a)", lat)
        assert seq == Sequent((), In("a"))

    def test_free_variable_parses(self):
        lat = mo(2)
        f = parse_formula("In(v)", lat)
        assert f == Actual(Var("v"))


class TestDerivationFormat:
    def test_round_trip_measurement(self):
        lat = mo(2)
        d = derive_measurement(lat, "a", "b")
        text = serialize(d)
        parsed = parse_derivation(text, lat)
        assert parsed == d
        assert check_derivation(lat, parsed).valid

    def test_witness_round_trip(self):
        from omlogic.kernel import RuleApp
        from omlogic.syntax import Forall

        lat = mo(2)
        quantified = Forall("x", (), Actual(Var("x")))
        leaf = RuleApp("id", Sequent((In("a"),), In("a")), ())
        d = RuleApp(
            "forall_l", Sequent((quantified,), In("a")), (leaf,), witness=Const("a")
        )
        assert parse_derivation(serialize(d), lat) == d

    def test_unknown_rule_rejected(self):
        lat = mo(2)
        with pytest.raises(ParseError) as err:
            parse_derivation('(rule zap (seq "In(a) |- In(a)"))', lat)
        assert "cut" in err.value.expected

    def test_inner_sequent_error_positioned(self):
        lat = mo(2)
        with pytest.raises(ParseError) as err:
            parse_derivation('(rule id (seq "In(a) |-"))', lat)
        assert err.value.span.line == 1
        assert "In" in err.value.expected


def deep_formulas(levels: int) -> dict[str, str]:
    """Formulas nested ``levels`` deep, one per kind of nesting."""
    return {
        "parentheses": "(" * (levels - 1) + "In(a)" + ")" * (levels - 1),
        "plus chain": " + ".join(["In(a)"] * levels),
        "lolli chain": " -o ".join(["In(a)"] * levels),
        "forall chain": "forall x . " * (levels - 1) + "In(x)",
        "ortho chain": "In(" + "ortho(" * (levels - 1) + "a" + ")" * levels,
    }


def plus_r1_chain(levels: int) -> str:
    text = '(rule id (seq "In(a) |- In(a)"))'
    for _ in range(levels - 1):
        text = f'(rule plus_r1 (seq "In(a) |- In(a) + R(a)")\n{text})'
    return text + "\n"


def deep_trees(lat, levels: int) -> dict:
    """The formulas of ``deep_formulas(levels)``, in its order, built
    through the lattice's store: the oracle past the reference grammar's
    cap."""
    make = lat._store.make
    a, x = make(Actual, make(Const, "a")), make(Actual, make(Var, "x"))
    plus, lolli, quantified = a, a, x
    for _ in range(levels - 1):
        plus, lolli = make(Plus, plus, a), make(Lolli, a, lolli)
        quantified = make(Forall, "x", make(tuple), quantified)
    complemented = make(Actual, make(Const, "a'" if levels % 2 == 0 else "a"))
    return {"parentheses": a, "plus chain": plus, "lolli chain": lolli,
            "forall chain": quantified, "ortho chain": complemented}


class TestDepthLimit:
    """Formulas, witnesses and derivations have no depth cap: nesting past
    the reference grammar's cap reads to the tree built through the store
    and round-trips, and the reference refuses it."""

    @pytest.mark.parametrize("kind", sorted(deep_formulas(2)))
    def test_limit_accepted(self, kind):
        lat = mo(2)
        f = parse_formula(deep_formulas(MAX_DEPTH)[kind], lat)
        assert parse_formula(serialize(f), lat) == f

    @pytest.mark.parametrize("levels", [MAX_DEPTH + 1, 3 * sys.getrecursionlimit()])
    @pytest.mark.parametrize("kind", sorted(set(deep_formulas(2)) - {"plus chain"}))
    def test_past_limit_rejected(self, kind, levels):
        # the reference grammar rejects past its cap; the reader reads the
        # tree built through the store, and reads its text back to it
        lat = mo(2)
        text = deep_formulas(levels)[kind]
        with pytest.raises(ParseError, match="nesting deeper"):
            FormulaParser(text, lat).parse_formula_text()
        f = parse_formula(text, lat)
        assert f is deep_trees(lat, levels)[kind]
        assert parse_formula(serialize(f), lat) is f

    @pytest.mark.parametrize("levels", [MAX_DEPTH + 1, 3 * sys.getrecursionlimit()])
    def test_long_sum_accepted(self, levels):
        # a '+' chain is read in a loop, so its terms are not nesting levels
        lat = mo(2)
        f = parse_formula(deep_formulas(levels)["plus chain"], lat)
        assert parse_formula(serialize(f), lat) is f

    def test_span_points_at_crossing_token(self):
        # the reference refuses 3,000 parentheses at the token that crosses
        # its cap; the reader reads the atom inside them, and a sum inside
        # them is the sum without them
        lat = mo(2)
        text = "(" * 3000 + "In(a)" + ")" * 3000
        with pytest.raises(ParseError) as err:
            FormulaParser(text, lat).parse_formula_text()
        assert (err.value.span.line, err.value.span.column) == (1, MAX_DEPTH + 1)
        assert parse_formula(text, lat) is parse_formula("In(a)", lat)
        chain = "+".join(["In(a)"] * 3000)
        nested = "(" * 3000 + chain + ")" * 3000
        assert parse_formula(nested, lat) is parse_formula(chain, lat)

    def test_derivation_limit(self):
        # derivation levels have no cap: one past MAX_DEPTH reads back
        lat = mo(2)
        d = parse_derivation(plus_r1_chain(MAX_DEPTH + 1), lat)
        assert parse_derivation(serialize(d), lat) is d

    @pytest.mark.parametrize("orthos", [0, MAX_DEPTH], ids=["name", "ortho"])
    def test_witness_at_depth_limit(self, orthos):
        # a witness of any depth stands under a node of any depth: the
        # reference's cap and one past it both read, and write back
        def text(n: int) -> str:
            witness = "ortho(" * n + "a" + ")" * n
            return (
                '(rule plus_r1 (seq "In(a) |- In(a) + R(a)")\n' * (2 * MAX_DEPTH)
                + f'(rule forall_l (seq "forall x . In(x) |- In(a)") (witness {witness}))'
                + ")" * (2 * MAX_DEPTH) + "\n"
            )

        lat = mo(2)
        for n in (orthos, orthos + 1) if orthos else (orthos,):
            d = parse_derivation(text(n), lat)
            assert d.children[0].rule == "plus_r1"
            node = d
            while node.children:
                node = node.children[0]
            witness = node.witness
            for _ in range(n):
                witness = witness.arg
            assert witness == Const("a")
            assert parse_derivation(serialize(d), lat) is d

    def test_derivation_beyond_recursion_limit(self):
        lat = mo(2)
        d = parse_derivation(plus_r1_chain(sys.getrecursionlimit() + 500), lat)
        assert parse_derivation(serialize(d), lat) is d

    def test_deep_witness_round_trips(self):
        # a forall_l whose witness holds 5,000 orthos (an even number, so it
        # is a) gets a verdict, and writes out and reads back to itself
        lat = mo(2)
        d = parse_derivation(deep_witness(5000), lat)
        assert check_derivation(lat, d).valid
        assert serialize(d).startswith(WITNESS_TEXT.split("ortho")[0] + "ortho(" * 5000 + "a)")
        assert parse_derivation(serialize(d), lat) is d

    def test_deep_forall_l_round_trips(self):
        # a forall_l over a body that nests '*' 10,000 levels deep gets a
        # verdict, writes out and reads back to itself, reads on a store that
        # never saw it to an equal tree, and two copies of it that no store
        # owns compare and hash
        def forall_l(build):
            def body(term):
                f = build(Actual, term)
                for _ in range(9999):
                    f = build(Tensor, build(Reachable, term), f)
                return f

            a = build(Const, "a")
            instance = body(a)
            quantified = build(Forall, "x", build(tuple), body(build(Var, "x")))
            leaf = build(RuleApp, "id", build(Sequent, build(tuple, instance), instance),
                         build(tuple), None)
            return build(RuleApp, "forall_l", build(Sequent, build(tuple, quantified), instance),
                         build(tuple, leaf), a)

        lat = mo(2)
        d = forall_l(lat._store.make)
        assert check_derivation(lat, d).valid
        text = serialize(d)
        assert parse_derivation(text, lat) is d
        assert parse_derivation(text, mo(2)) == d

        def plain(cls, *parts):
            return parts if cls is tuple else cls(*parts)

        first, second = forall_l(plain), forall_l(plain)
        assert first is not second and first == second and hash(first) == hash(second)
        assert first == d and first != d.children[0]

    def test_long_atom_in_parentheses_read_once(self, monkeypatch):
        # a 2 MB atom inside 98 pairs of parentheses is read in one pass:
        # one lookup of the piece, one of the outermost operand's inside and
        # one of the atom, and each token stepped through once; each is
        # stored once read
        steps = count_steps(monkeypatch)
        lat = mo(2)
        piece = "(" * 98 + "R(" + "x" * 2_000_000 + ")" + ")" * 98
        seq = parse_sequent(f"In(a) |- {piece}", lat)
        assert seq.succedent is lat._store.make(Reachable, lat._store.make(Var, "x" * 2_000_000))
        assert steps() == 4 + 2 * 98 + 4
        atom = "R(" + "x" * 2_000_000 + ")"
        assert set(lat._store.formulas) == {"In(a)", piece, piece[1:-1], atom}

    def test_deep_sequent_inside_derivation(self):
        lat = mo(2)
        text = '(rule id (seq "' + "(" * 3000 + "In(a)" + ")" * 3000 + ' |- In(a)"))'
        d = parse_derivation(text, lat)
        assert serialize(d) == '(rule id (seq "In(a) |- In(a)"))\n'
        assert parse_derivation(serialize(d), lat) is d


class TestRoundTripCorpus:
    def test_seeded_corpus(self):
        rng = random.Random(20260810)
        for i in range(60):
            lat = gen.random_lattice(rng)
            assert parse_lattice(serialize(lat)) == lat
            f = gen.random_map(lat, rng)
            assert parse_map(serialize(f), lat) == f
            formula = gen.random_normal_formula(lat, rng, rng.randint(0, 4))
            assert parse_formula(serialize(formula), lat) == formula
            seq = gen.random_sequent(lat, rng)
            assert parse_sequent(serialize(seq), lat) == seq
        for i in range(20):
            lat, d = gen.random_derivation(rng)
            assert parse_derivation(serialize(d), lat) == d

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_formula_round_trip_property(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = random.Random(seed)
        lat = mo(3)
        f = gen.random_normal_formula(lat, rng, 5)
        assert parse_formula(serialize(f), lat) == f

    def test_canonical_text_fixed_point(self):
        rng = random.Random(99)
        lat = gen.random_lattice(rng)
        text = serialize(lat)
        assert serialize(parse_lattice(text)) == text
        f = gen.random_normal_formula(lat, rng, 4)
        assert serialize(parse_formula(serialize(f), lat)) == serialize(f)


def composed_sequent_texts(chains) -> set[str]:
    """Every sequent string of the serialized two-measurement chains of
    ``chains``, a family's short chains (see ``conftest.short_chains``)."""
    texts = set()
    for d in chains[2]:
        texts.update(re.findall(r'\(seq "([^"]*)"\)', serialize(d)))
    return texts


def walk(node):
    """Every part of a parsed sequent: nodes, tuples and strings."""
    yield node
    parts = node if isinstance(node, tuple) else [getattr(node, n) for n in node.__slots__]
    for part in parts:
        if isinstance(part, str):
            yield part
        elif part is not None:
            yield from walk(part)


def assert_same_error(call):
    errors = []
    for _ in range(2):
        with pytest.raises(ParseError) as err:
            call()
        errors.append((str(err.value), err.value.span, err.value.expected))
    assert errors[0] == errors[1]


class TestSequentTable:
    @pytest.fixture(scope="class", params=["mo2", "boolean3"])
    def corpus(self, request, short_chains):
        lat = mo(2) if request.param == "mo2" else boolean(3)
        rng = random.Random(20261018)
        texts = sorted(composed_sequent_texts(short_chains(request.param)[1]))
        texts += [serialize(gen.random_sequent(lat, rng)) for _ in range(200)]
        return lat, texts

    def test_cached_equals_fresh_parse(self, corpus):
        lat, texts = corpus
        for text in texts:
            assert parse_sequent(text, lat) == FormulaParser(text, lat).parse_sequent_text()

    def test_repeat_returns_same_object(self, corpus):
        lat, texts = corpus
        first = [parse_sequent(text, lat) for text in texts]
        assert all(parse_sequent(t, lat) is seq for t, seq in zip(texts, first))

    def test_equal_parts_are_shared(self, corpus):
        lat, texts = corpus
        seen = {}
        for text in texts:
            for part in walk(parse_sequent(text, lat)):
                assert seen.setdefault(part, part) is part

    def test_equal_lattice_has_own_table(self, corpus):
        lat, texts = corpus
        twin = parse_lattice(serialize(lat))
        assert twin == lat and twin is not lat
        for text in texts:
            seq = parse_sequent(text, twin)
            assert seq == parse_sequent(text, lat)
        assert twin._store is not lat._store

    @pytest.mark.parametrize("text", [
        "In(a) |-", "In(a) * R(a) * In(a) |- In(a)", "In(0) |- In(a)",
        "In(a) |- In(a) @", "(" * (MAX_DEPTH + 5) + "In(a) |- In(a)",
    ])
    def test_errors_are_not_cached(self, text):
        lat = mo(2)
        assert_same_error(lambda: parse_sequent(text, lat))
        with pytest.raises(ParseError) as fresh:
            FormulaParser(text, lat).parse_sequent_text()
        with pytest.raises(ParseError) as cached:
            parse_sequent(text, lat)
        if "nesting deeper" in str(fresh.value):  # past the reference's cap
            assert str(cached.value) == "1:112: expected ')', found '|-' (expected ))"
        else:
            assert (str(cached.value), cached.value.span) == (str(fresh.value), fresh.value.span)
        assert text not in lat._store.texts


LEAF = '(rule plus_r1 (seq "In(a) |- In(a) + R(a)")\n  (rule id (seq "In(a) |- In(a)")))\n'


class TestErrorSpans:
    """Exact messages of multi-line derivation errors; lines and columns are
    worked out only when an error is raised."""

    @pytest.mark.parametrize("text, message", [
        (
            '# one leaf\n(rule plus_r1 (seq "In(a) |- In(a) + R(a)")\n'
            '  (rule id ~ (seq "In(a) |- In(a)")))\n',
            "3:12: unexpected character '~'",
        ),
        (
            '(rule plus_r1 (seq "In(a) |- In(a) + R(a)")\n\n  (rule id (seq "In(a) |- In(a) +")))\n',
            "3:17: in sequent string: 1:17: expected a formula, found 'end of input'"
            " (expected (, IND, In, M, R, forall)",
        ),
        (
            '(rule plus_r1 (seq "In(a) |- In(a) + R(a)")\n  (rule id (seq "In(a) |-\tIn(a$)")))\n',
            "2:17: in sequent string: 1:14: unexpected character '$'",
        ),
        (
            LEAF + '# done\n  (rule id (seq "In(a) |- In(a)"))\n',
            "4:3: trailing input after derivation (expected end of input)",
        ),
        (LEAF.rstrip()[:-1] + "\n# no close\n", "4:1: expected ')' (expected ))"),
        ('(rule plus_r1\n  (seq "In(a) |- In(a) + R(a)\n  ))\n', "2:8: unexpected character '\"'"),
        (
            # a sequent nested far past any cap is read, so its error, one
            # ')' short, stands where the grammar finds it
            '(rule id\n  (seq "' + "(" * 3000 + "In(a)" + ")" * 2999 + ' |- In(a)"))\n',
            "2:8: in sequent string: 1:6006: expected ')', found '|-' (expected ))",
        ),
    ], ids=[
        "character on line 3", "sequent on a later line", "character in a later sequent",
        "trailing input", "end of file inside a node", "unterminated string", "depth limit",
    ])
    def test_message(self, text, message):
        lat = mo(2)
        with pytest.raises(ParseError) as err:
            parse_derivation(text, lat)
        assert str(err.value) == message
        assert_same_error(lambda: parse_derivation(text, lat))


WITNESS_TEXT = (
    '(rule forall_l (seq "forall x . In(x) |- In(a)") (witness ortho(ortho(a)))\n'
    '  (rule id (seq "In(a) |- In(a)")))\n'
)
# whitespace that '\s' accepts, ASCII and Unicode, and comment text holding
# the characters that delimit tokens
SPACES = [" ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", " ", "　"]
COMMENT_CHARS = list('"()#=x -\t') + [" ", "\r"]


def tokens(text: str, parser) -> list[tuple[str, bool]]:
    """(token, whether it is a name) for each token of ``text`` in the
    grammar of ``parser``, a parser class, without the end's ``""``."""
    return [(tok, tok not in parser.marks and tok[0] != '"')
            for tok in _tokenize(text, parser) if tok]


def reflow(text: str, rng: random.Random, comments: bool = True) -> str:
    """``text`` with random whitespace, and comments unless ``comments`` is
    false, between any two tokens; two names keep at least one character
    between them."""
    out, prev = [], False
    for tok, name in tokens(text, _DerivationParser):
        gap = []
        for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
            if comments and rng.random() < 0.3:
                body = "".join(rng.choice(COMMENT_CHARS) for _ in range(rng.randrange(6)))
                gap.append("#" + body + "\n")
            else:
                gap.append("".join(rng.choice(SPACES) for _ in range(rng.randint(1, 3))))
        if not gap and prev and name:
            gap.append(rng.choice(SPACES))
        out.append("".join(gap) + tok)
        prev = name
    return "".join(out) + rng.choice(["", "\n", " # end\n", "#"] if comments else ["", "\n"])


def scanner_corpus():
    rng = random.Random(20261018)
    texts = [(mo(2), WITNESS_TEXT), (mo(2), LEAF), (mo(2), plus_r1_chain(MAX_DEPTH))]
    texts.append((mo(2), '(axiom Adjust1 (bind y=b x=a) (seq "In(a) |- In(a)"))'))
    texts += [(lat, serialize(d)) for lat, d in (gen.random_derivation(rng) for _ in range(12))]
    return texts


def malformed(text: str, rng: random.Random) -> str:
    """``text`` with one random edit: a character deleted, inserted or
    replaced, a cut, or a span removed."""
    pos = rng.randrange(len(text))
    noise = rng.choice(list('()"#=~ \n-') + ["witness", "(seq", "(rule id", "ortho(", "x=a"])
    return rng.choice([
        text[:pos] + text[pos + 1:],
        text[:pos] + noise + text[pos:],
        text[:pos] + noise + text[pos + len(noise):],
        text[:pos],
        text[:pos] + text[rng.randrange(pos, len(text)):],
    ])


def outcome(call):
    """The parse result, or the error's message, span and expected set."""
    try:
        return call()
    except ParseError as err:
        return (str(err), err.span, err.expected)


def described(result) -> str:
    """An :func:`outcome` as one line: an error's message, span and sorted
    expected set, or the value serialized."""
    if isinstance(result, tuple):
        message, span, expected = result
        return repr((message, (span.line, span.column, span.length), sorted(expected)))
    return serialize(result)


def sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# sha256 of the described outcomes of test_malformed_same_error's 1,500
# texts and of TestSplitSequent.test_malformed_pinned's 2,000, recorded
# before the tokenizer returned strings and found token starts only for an
# error: every message, span and expected set must stay as it was
MALFORMED_DERIVATIONS = "c7b5962af49071b67d50859b0fa2620f87f6ff1dce1876cd09070d7c9ac044f4"
MALFORMED_SEQUENTS = "3b7fb21099dadfc5c75f93d81ca2f6f30bcb1d50e6b10159ab317b652b71bbc9"


class TestScanner:
    """parse_derivation on reflowed, commented, witnessed and malformed text,
    against answers recorded when a scanner and a token parser each read
    derivations: the built tree, exact messages and the digests above."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return scanner_corpus()

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_reflowed_equals_token_parser(self, corpus, data):
        lat, text = data.draw(st.sampled_from(corpus))
        assert "#" not in text  # so a '#' in a reflow starts a comment
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        expected = parse_derivation(text, lat)
        for reflowed in (reflow(text, rng, comments=False), reflow(text, rng)):
            assert parse_derivation(reflowed, lat) is expected

    def test_witness_terms(self):
        lat = mo(2)
        assert parse_derivation(WITNESS_TEXT, lat).witness == OrthoTerm(OrthoTerm(Const("a")))
        text = WITNESS_TEXT.replace("ortho(ortho(a))", "q")
        assert parse_derivation(text, lat).witness == Var("q")
        # a witness keeps its orthos, as many as it has, past the
        # reference's cap too
        for levels in (MAX_DEPTH, MAX_DEPTH + 1):
            text = WITNESS_TEXT.replace("ortho(ortho(a))", "ortho(" * levels + "a" + ")" * levels)
            d = parse_derivation(text, lat)
            term = Const("a")
            for _ in range(levels):
                term = OrthoTerm(term)
            assert d.witness == term
            assert parse_derivation(serialize(d), lat) is d

    def test_witness_read_in_one_pass(self, monkeypatch):
        reads = []
        read = _DerivationParser.read
        monkeypatch.setattr(_DerivationParser, "read",
                            lambda parser: reads.append(parser.text) or read(parser))
        lat = mo(2)
        noisy = WITNESS_TEXT.replace("(witness ", "( # the term\n witness#)\n ")
        for text in (WITNESS_TEXT, noisy):
            assert parse_derivation(text, lat).witness == OrthoTerm(OrthoTerm(Const("a")))
        # each one split read, with no token read
        assert reads == []
        bad = WITNESS_TEXT.replace("ortho(ortho(a))", "ortho(ortho a)")
        with pytest.raises(ParseError, match="^1:71: expected '\\('"):
            parse_derivation(bad, lat)
        # a piece that does not read sends the whole text to the token
        # grammar, which words the error
        assert reads == [bad]

    def test_malformed_same_error(self, corpus):
        rng = random.Random(7)
        errors = 0
        outcomes = []
        for i in range(1500):
            lat, text = corpus[i % len(corpus)]
            if i % 2:
                text = reflow(text, rng)
            bad = malformed(text, rng)
            got = outcome(lambda: parse_derivation(bad, lat))
            errors += isinstance(got, tuple)
            outcomes.append(described(got))
        assert errors > 1000
        assert sha256(outcomes) == MALFORMED_DERIVATIONS

    @pytest.mark.parametrize("text, message", [
        # a comment of n '#' could split 2^n ways if a pattern's gap allowed
        # it: 24 of them would then take seconds, and 10,000 never end
        (LEAF[:-2] + "#" * 24 + "\n ~)\n", "3:2: unexpected character '~'"),
        (LEAF[:-2] + "#" * 10000 + "\n ~)\n", "3:2: unexpected character '~'"),
        (
            LEAF[:-2] + " " + "#" * 10000 + "\n)x",
            "3:2: trailing input after derivation (expected end of input)",
        ),
        (LEAF[:-2] + " " * 100000 + "~))\n", "2:100035: unexpected character '~'"),
        ("(rule" + " \n" * 50000 + ' id (seq "In(a) |- In(a)")' + "# #\n" * 20000 + "(",
         "70001:2: unexpected node head '' (expected axiom, rule)"),
    ], ids=["comment", "long comment", "long comment before trailing input", "long blank run",
            "blank lines and comments"])
    def test_no_backtracking_blowup(self, text, message):
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_derivation(text, mo(2))
        assert time.perf_counter() - start < 1.0
        assert str(err.value) == message

    @pytest.mark.parametrize("gap, message", [
        ("#" * 24 + "\n", "2:1: unexpected character '~'"),
        ("#" * 10000 + "\n", "2:1: unexpected character '~'"),
        (" # #\n" * 20000, "20001:1: unexpected character '~'"),
        ("\n" + " " * 100000, "2:100001: unexpected character '~'"),
    ], ids=["comment", "long comment", "comment lines", "long blank run"])
    def test_no_backtracking_inside_head(self, gap, message):
        # a mismatch after a gap inside a node head gives the gap back one
        # character at a time: a gap that could split its comments would
        # try 2^n ways for n '#'
        text = "(rule plus_r1" + gap + "~)"
        start = time.perf_counter()
        got = outcome(lambda: parse_derivation(text, mo(2)))
        assert time.perf_counter() - start < 1.0
        assert got[0] == message

    @pytest.mark.parametrize("tail", [" " * 100000, "\n" * 100000, "# x\n" * 20000],
                             ids=["spaces", "newlines", "comment lines"])
    def test_trailing_gap_one_match(self, tail):
        # the end of the text is a scanner item, so a long tail is one match,
        # not one failed match from each of its positions
        lat = mo(2)
        d = derive_composed(lat, "a", "b", "a")
        text = serialize(d) + tail
        start = time.perf_counter()
        assert parse_derivation(text, lat) is d
        assert time.perf_counter() - start < 1.0

    def test_patterns_compiled_on_first_use(self):
        code = (
            "import re\n"
            "compiled = []\n"
            "real = re.compile\n"
            "re.compile = lambda p, *a: compiled.append(p) or real(p, *a)\n"
            "import omlogic.cli\n"
            "from omlogic import formats\n"
            "from omlogic.lattice import mo\n"
            "print({formats._TOKEN_RE.pattern, formats._SEXPR_RE.pattern} <= set(compiled))\n"
            "del compiled[:]\n"
            "formats.parse_derivation('(rule id (seq \"In(a) |- In(a)\"))', mo(2))\n"
            "print(compiled == [])\n"
            f"formats.parse_derivation({WITNESS_TEXT!r}, mo(2))\n"
            "print(len(compiled))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            cwd=Path(formats.__file__).parents[1],
        )
        assert proc.returncode == 0, proc.stderr
        # importing compiles the two token grammars; a derivation's pieces
        # are read with the derivation grammar's and its sequents with the
        # formula grammar's, so no parse compiles a pattern
        assert proc.stdout == "True\nTrue\n0\n"


class TestLeafMemo:
    """An axiom leaf is a head piece and a sequent string: parse_derivation
    reads each structure piece by one lookup in the store's piece memo, each
    lattice has its own, and a leaf whose sequent does not parse raises and
    is never built."""

    TEXT = '(axiom Adjust1 (bind y=b x=a) (seq "In(a) |- In(a)"))'
    # the head piece, with the ')' that starts every other piece, the same
    # piece with its tokens joined by single spaces, and the end
    HEAD = ")(axiom Adjust1 (bind y=b x=a) (seq "
    PIECES = {HEAD, HEAD.rstrip(), "))"}

    def test_each_lattice_its_own_leaf(self):
        mo2, b3 = mo(2), boolean(3)
        leaves = [parse_derivation(self.TEXT, lat) for lat in (mo2, b3)]
        assert leaves[0] == leaves[1] and leaves[0] is not leaves[1]
        for lat, leaf in zip((mo2, b3), leaves):
            pieces = lat._store.pieces
            assert set(pieces) == self.PIECES
            # the head's program holds the bindings its own store built
            assert pieces[self.HEAD][4] is leaf.bindings
            # a second parse is lookups only: the same leaf, and no new piece
            assert lat._store.owns(leaf) and parse_derivation(self.TEXT, lat) is leaf
            assert set(pieces) == self.PIECES
        assert not mo2._store.owns(leaves[1])

    def test_commented_leaf(self, monkeypatch):
        reads = []
        read = _DerivationParser.read
        monkeypatch.setattr(_DerivationParser, "read",
                            lambda parser: reads.append(parser.text) or read(parser))
        lat = mo(2)
        plain = parse_derivation(self.TEXT, lat)
        known = set(lat._store.pieces)
        commented = ('( # the leaf\n axiom Adjust1#)\n(bind y=b # x=q\n x=a)(seq#(\n'
                     '"In(a) |- In(a)" # its sequent\n)# end\n)')
        assert parse_derivation(commented, lat) is plain
        # one split read, with no token read, whose two pieces are
        # remembered as the file wrote them
        assert reads == []
        assert set(lat._store.pieces) - known == {
            ")( # the leaf\n axiom Adjust1#)\n(bind y=b # x=q\n x=a)(seq#(\n",
            " # its sequent\n)# end\n)",
        }
        # quotes in comments send the text to the token grammar, which reads
        # the same leaf
        noisy = ('( # "(seq x=b)\n axiom Adjust1#)\n(bind y=b # x=q\n x=a)(seq#"\n'
                 '"In(a) |- In(a)" #")"\n)# end\n)')
        assert parse_derivation(noisy, lat) is plain
        assert reads == [noisy]

    BAD_LEAVES = {
        '(axiom Adjust1 (bind x=a) (seq "In(a) |-"))':
            "1:32: in sequent string: 1:9: expected a formula, found 'end of input'"
            " (expected (, IND, In, M, R, forall)",
        '(rule plus_r1 (seq "In(a) |- In(a) + R(a)")\n  (axiom Trans (bind) (seq "In(0) |- In(a)")))':
            "2:28: in sequent string: 1:1: In cannot hold the absurd property 0",
    }

    @pytest.mark.parametrize("text", list(BAD_LEAVES))
    def test_bad_leaf_not_remembered(self, text):
        lat = mo(2)
        got = [outcome(lambda: parse_derivation(text, lat)) for _ in range(2)]
        assert got[0] == got[1] and got[0][0] == self.BAD_LEAVES[text]
        # neither the leaf nor its sequent is remembered
        assert text.split('"')[-2] not in lat._store.texts
        assert not [node for node in lat._store.nodes.values() if isinstance(node, AxiomApp)]


def deep_witness(levels: int) -> str:
    return WITNESS_TEXT.replace("ortho(ortho(a))", "ortho(" * levels + "a" + ")" * levels)


# Texts the split read must refuse, each with the token grammar's outcome:
# None where it reads a node, else the error's message.
SPLIT_REFUSALS = {
    "quote in a comment between nodes": (LEAF.replace("\n  (rule id", ' # a "\n  (rule id'), None),
    "quoted word in a comment between nodes":
        (LEAF.replace("\n  (rule id", ' # a "word"\n  (rule id'), None),
    "quoted sequent in a comment after a node head": (
        '(rule plus_r1 (seq "In(a) |- In(a) + R(a)")\n'
        '  (rule id (seq # "In(b) |- In(b)")) (rule id (seq \n"In(a) |- In(a)")))\n',
        None,
    ),
    "quote in a comment on the last line": (LEAF + '# "', None),
    "quoted word in a comment on the last line": (LEAF + '# a "word"', None),
    "newline in a sequent":
        ('(rule id (seq "In(a) |-\n In(a)"))\n', "1:15: unexpected character '\"'"),
    "witness in an axiom leaf": (
        '(axiom Trans (bind) (seq "In(a) |- In(a)") (witness a))\n',
        "1:44: expected ')' (expected ))",
    ),
    "witness after an axiom leaf": (
        '(rule forall_l (seq "forall x . In(x) |- In(a)")\n'
        '  (axiom Trans (bind) (seq "In(a) |- In(a)")) (witness a))\n',
        "2:48: unexpected node head 'witness' (expected axiom, rule)",
    ),
    "second witness": (
        WITNESS_TEXT.replace("(witness ortho(ortho(a)))", "(witness ortho(ortho(a))) (witness a)"),
        "1:77: unexpected node head 'witness' (expected axiom, rule)",
    ),
    "one close too many": (
        LEAF.rstrip() + ")\n", "2:36: trailing input after derivation (expected end of input)",
    ),
    "one close too few": (LEAF.rstrip()[:-1] + "\n", "3:1: expected ')' (expected ))"),
    "a node after the root": (
        LEAF + '(rule id (seq "In(a) |- In(a)"))\n',
        "3:1: trailing input after derivation (expected end of input)",
    ),
    "witness past 100 levels, one ')' short": (
        WITNESS_TEXT.replace("ortho(ortho(a))", "ortho(" * (MAX_DEPTH + 1) + "a" + ")" * MAX_DEPTH),
        "2:3: expected ')' (expected ))",
    ),
}


class TestSplitRead:
    """parse_derivation splits a text at its quotes.  Where the split read
    refuses a text, the token grammar reads it whole, so every outcome is
    that grammar's: the same node, or the same error."""

    @pytest.mark.parametrize("name", list(SPLIT_REFUSALS))
    def test_refused(self, name):
        text, message = SPLIT_REFUSALS[name]
        lat = mo(2)
        expected = outcome(lambda: _DerivationParser(text, lat).read())
        assert _split_read(text, lat) is None
        got = outcome(lambda: parse_derivation(text, lat))
        if message is None:
            assert isinstance(expected, RuleApp) and got is expected
        else:
            assert got == expected and got[0] == message

    def test_witness_at_depth_limit_read_by_split(self):
        # a witness of any depth is one split read, as the token grammar
        # reads it
        lat = mo(2)
        for levels in (MAX_DEPTH, MAX_DEPTH + 1, 5000):
            expected = _DerivationParser(deep_witness(levels), lat).read()
            assert _split_read(deep_witness(levels), lat) is expected
            assert parse_derivation(deep_witness(levels), lat) is expected

    def test_reparse_adds_no_piece(self):
        lat = mo(2)
        text = serialize(derive_composed(lat, "a", "b", "a"))
        d = parse_derivation(text, lat)
        pieces = dict(lat._store.pieces)
        assert parse_derivation(text, lat) is d
        assert lat._store.pieces == pieces
        # the same pieces indented anew are found under their tokens, so
        # the memo gains only their own texts
        respaced = text.replace("\n  ", "\n\t ")
        assert parse_derivation(respaced, lat) is d
        assert all(lat._store.pieces[k] is v for k, v in pieces.items())
        added = set(lat._store.pieces) - set(pieces)
        assert added and all("\t" in piece for piece in added)


def distinct_nodes(d) -> list:
    """The distinct node objects of a derivation, compared by identity."""
    seen, todo = {}, [d]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            todo.extend(getattr(node, "children", ()))
    return list(seen.values())


class TestSharedNodes:
    """parse_derivation hash-conses every node it scans into the lattice's
    node table, so equal subtrees are one object."""

    def test_reparse_returns_same_object(self):
        lat = mo(2)
        for text in (WITNESS_TEXT, LEAF, serialize(derive_composed(lat, "a", "b", "a"))):
            assert parse_derivation(text, lat) is parse_derivation(text, lat)
            assert parse_derivation(text, mo(2)) is not parse_derivation(text, lat)

    def test_equal_subtrees_shared(self):
        lat = mo(2)
        composed = parse_derivation(serialize(derive_composed(lat, "a", "b", "a")), lat)
        nodes = distinct_nodes(composed)
        assert len(set(nodes)) == len(nodes)  # no two distinct objects are equal
        # the composed proof holds the (a, b) measurement proof at [0, 0]
        base = parse_derivation(serialize(derive_measurement(lat, "a", "b")), lat)
        assert composed.children[0].children[0] is base

    def test_chain_shares_more_than_builder(self):
        lat = mo(4)
        built = derive_chain(lat, "c", ["a", "b"] * 4)
        parsed = parse_derivation(serialize(built), lat)
        # counts first: a failing assert would print each list of nodes
        same = parsed == built
        shared, built_nodes = len(distinct_nodes(parsed)), len(distinct_nodes(built))
        assert same and shared == 159 <= built_nodes


def respace(text: str, rng: random.Random) -> str:
    """``text`` with random whitespace, ASCII and Unicode, around every
    formula token; two names keep at least one character between them."""
    out, prev = [], False
    for tok, name in tokens(text, _Reader):
        gap = "".join(rng.choice(SPACES) for _ in range(rng.choice([0, 0, 1, 2])))
        if not gap and prev and name:
            gap = rng.choice(SPACES)
        out.append(gap + tok)
        prev = name
    return "".join(out) + "".join(rng.choice(SPACES) for _ in range(rng.randrange(3)))


def deep_sequents(levels: int) -> list[str]:
    """Sequents with a formula nested ``levels`` deep in each position."""
    out = []
    for deep in deep_formulas(levels).values():
        out += [f"{deep} |- In(a)", f"In(a), {deep} |- In(a)", f"R(b) |- {deep}"]
    return out


# Texts the split read path must leave to the token parser, or where it must
# agree with it: comments, guards, quantifiers, empty pieces, separators in
# the wrong place and broken formulas.
SPLIT_CASES = [
    "In(a) |- In(a) # , R(b)",
    "In(a) # |- In(a)",
    "In(a), # comment\n R(b) |- In(a) * R(b)",
    "In(a) |- # no succedent\n In(a)",
    "forall x {<= a, !<= b} . In(x), R(a) |- In(a)",
    "forall x {<= a, !<= b, !in K(m)} . In(x) |- forall y {<= 1} . R(y)",
    "In(a), forall x {<= a, } . In(x) |- In(a)",
    "forall x . In(x) * R(x), In(a) |- forall y . In(y)",
    "forall a . In(a) -o R(a), In(a) |- forall x . In(ortho(x))",
    "In(a), forall x . In(x), In(x) |- In(a)",
    ", In(a) |- In(a)", "In(a), |- In(a)", "In(a) |- ", "In(a),, R(b) |- In(a)",
    " |- In(a)", "|-", "", "In(a)", "In(a), R(b)",
    "In(a) |- In(a) |- In(a)", "|- |- In(a)", "In(a) |- In(a), R(b)",
    "In(a) |-o In(a)", "In(a) - |- In(a)", "In(a) | - In(a)",
    "In(a) * R(a) * In(a) |- In(a)", "In(0) |- In(a)", "In(a) |- R(ortho(1))",
    "In(a) |- In(a) @", "In(a) |- In(q) + M(ortho(b))", "IND(blur), In(a) |- In(a)",
    "(In(a) |- In(a))", "In(a) |- (In(a)", "In(a) |- In(a))",
] + [text for levels in (MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1)
     for text in deep_sequents(levels)] + [
    # a new formula is cut at its top-level operator and each operand looked
    # up: `ortho` is a keyword, never an atom's term, and a quantifier's
    # scope runs past the operators of its body, whatever the memo holds
    "In(ortho) * R(a) |- R(a)", "In(a) + M(ortho) |- R(a)", "In(a) |- R(ortho ) -o In(a)",
    "forall u . In(u) |- In(a)", "In(u) * R(u) |- forall u . In(u) * R(u)",
    "forall u . In(u) -o R(u), In(u) + R(u) |- R(a)",
    # a parenthesized operand whose inner text is remembered
    "In(a) * R(a) |- In(b) + ( In(a) * R(a) )", "(In(a) * R(a)) * M(b) |- R(a)",
    "( (In(a) * R(a)) ) |- (R(a))",
    # a second top-level `*`, alone or in the last term of a sum
    "In(a) * R(a) * M(b) |- R(a)", "In(a) + In(b) * R(b) * M(b) |- R(a)",
    "In(a) * (R(a) * M(b)) * R(b) |- R(a)",
    # operands the token parser refuses or reads itself
    "In(a) * In(0) |- R(a)", "R(a) |- In(a) -o R(0)", "In(a) + R( 0 ) |- M(0) * R(a)",
    "In(ortho(a)) * R(a) |- R(ortho(a)) + In(a)", "IND(alpha) * In(a) |- IND(alpha) -o R(a)",
    "In(In) * R(M) |- R(IND) + R(q')", "In(a) * R(a) -o In(a) + R(a) |- R(a) -o R(a) -o M(a)",
    "In(a)-oR(a) |- In(a)+R(a)*M(a)", "In(a) * |- R(a)", "+ R(a) |- R(a)", "In(a) -o |- R(a)",
    "In(a) | -o R(a) |- R(a)", "In(a) * R(a) @ |- R(a)", "In (a) * R (a) |- R(a b)",
    # unbalanced parentheses
    "In(a)) * (R(a) |- R(a)", "(In(a) * R(a) |- R(a)", "In(a) * R(a)) |- R(a)",
    "In(a) + (R(a) |- R(a)", "In(a) |- R(a) + In(a))", "In(a) |- (R(a) -o In(a)",
    # flat sums at the depth limit and one term past it
    "In(a) |- " + " + ".join(["R(a)"] * MAX_DEPTH),
    "In(a) |- " + " + ".join(["R(a)"] * (MAX_DEPTH + 1)),
]


def deep_sequent_trees(lat, levels: int) -> dict:
    """Each text of ``deep_sequents(levels)`` with its sequent built through
    the lattice's store."""
    make = lat._store.make
    a, rb = make(Actual, make(Const, "a")), make(Reachable, make(Const, "b"))
    texts = iter(deep_sequents(levels))
    return {next(texts): make(Sequent, make(tuple, *ctx), rhs)
            for deep in deep_trees(lat, levels).values()
            for ctx, rhs in (((deep,), a), ((a, deep), a), ((rb,), deep))}


def oracle(text: str, lat) -> object:
    """The outcome the reference grammar gives ``text`` on ``lat``, its
    sequent taken into the lattice's store; past the reference's cap, the
    sequent built through the store."""
    expected = outcome(lambda: lat._store.intern(FormulaParser(text, lat).parse_sequent_text()))
    if isinstance(expected, tuple) and "nesting deeper" in expected[0]:
        return deep_sequent_trees(lat, MAX_DEPTH + 1)[text]
    return expected


def count_steps(monkeypatch):
    """A function giving the formula tokens the reader has stepped through
    since the last call: the tokens of each text it read, less those of
    each parenthesised operand the memo gave."""
    counts = [0]
    init, inside = _Reader.__init__, _Reader.inside

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        counts[0] += len(self.tokens) - 1  # not the end's

    def counted_inside(self, i):
        found = inside(self, i)
        if found and found[1] in self.lat._store.formulas:
            counts[0] -= found[0] - i + 1
        return found

    monkeypatch.setattr(_Reader, "__init__", counted_init)
    monkeypatch.setattr(_Reader, "inside", counted_inside)

    def steps() -> int:
        taken, counts[0] = counts[0], 0
        return taken

    return steps


def fresh_outcome(text: str) -> tuple:
    """(parse_sequent's outcome, the oracle's) on one fresh lattice; a
    sequent is compared by identity, an error by message, span and expected
    set."""
    lat = mo(2)
    got = outcome(lambda: parse_sequent(text, lat))
    return got, oracle(text, lat)


class TestSplitSequent:
    """parse_sequent reads a new sequent piece by piece, with each top-level
    formula read once per lattice; the reference grammar is its oracle, and
    past the reference's cap the trees built through the store."""

    def assert_same(self, text):
        got, expected = fresh_outcome(text)
        if isinstance(expected, Sequent):
            assert got is expected, text
        else:
            assert got == expected, text

    @pytest.mark.parametrize("text", SPLIT_CASES, ids=range(len(SPLIT_CASES)))
    def test_cases(self, text):
        self.assert_same(text)

    @pytest.fixture(scope="class")
    def texts(self, short_chains):
        # MALFORMED_SEQUENTS was recorded on these chains' sequents
        chains = short_chains("mo2", unmerged=True)[1]
        return sorted(composed_sequent_texts(chains)) + SPLIT_CASES[:10]

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_respaced_equals_token_parser(self, texts, data):
        text = data.draw(st.sampled_from(texts))
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        respaced = respace(text, rng) if "#" not in text else text
        cut = rng.randrange(len(respaced) + 1)
        noise = rng.choice([",", " , ", "|-", "#", "{", "", "(", "*"])
        for variant in (respaced, respaced[:cut] + noise + respaced[cut:]):
            self.assert_same(variant)

    def test_malformed_pinned(self, texts):
        # respaced texts with noise, stray characters among it, read by
        # parse_sequent and by the whole-text token parser
        rng = random.Random(20261019)
        lat = mo(2)
        noises = [",", " , ", "|-", "#", "{", "", "(", "*", "@", "!", "-", "|", "<", "'", "~"]
        outcomes = []
        for _ in range(2000):
            text = rng.choice(texts)
            respaced = respace(text, rng) if "#" not in text else text
            cut = rng.randrange(len(respaced) + 1)
            variant = respaced[:cut] + rng.choice(noises) + respaced[cut:]
            outcomes.append(described(outcome(lambda: parse_sequent(variant, lat))))
            outcomes.append(described(
                outcome(lambda: FormulaParser(variant, lat).parse_sequent_text())
            ))
        assert sha256(outcomes) == MALFORMED_SEQUENTS

    def test_warm_memo(self):
        # formula pieces and sequents have a memo each; whatever either holds,
        # every text gets the token parser's outcome
        lat = mo(2)
        texts = ["In(a) |- In(a)", "In(a)", "In(a) |- In(a) |- In(a)", "In(a) |- In(a), In(a)",
                 "In(a), In(a) |- In(a) |- In(a)", "In(a) |- R(b)", "R(b)", "|- R(b)"]
        for text in texts + SPLIT_CASES + texts[::-1]:
            got = outcome(lambda: parse_sequent(text, lat))
            expected = oracle(text, lat)
            assert got is expected if isinstance(expected, Sequent) else got == expected, text

    def test_seeded_corpus(self, short_chains):
        rng = random.Random(20261018)
        for family, lat in (("mo2", mo(2)), ("boolean3", boolean(3))):
            for text in sorted(composed_sequent_texts(short_chains(family)[1])):
                respaced = respace(text, rng)
                fresh = parse_lattice(serialize(lat))
                seq = parse_sequent(respaced, fresh)
                assert seq is fresh._store.intern(FormulaParser(text, fresh).parse_sequent_text())
                assert parse_sequent(text, lat) == seq

    def test_piece_shared_by_two_sequents_parsed_once(self, monkeypatch):
        calls = []
        real = formats._atom
        monkeypatch.setattr(formats, "_atom", lambda *a: calls.append(a) or real(*a))
        lat = mo(2)
        # each piece is cut at its operator, and In(a), an operand of both,
        # is built once: In(a), R(a), then R(b)
        first = parse_sequent("In(a) * R(a) |- In(a) + R(b)", lat)
        assert len(calls) == 3
        # the shared pieces, whatever their spacing, are memo hits; In(b) is
        # the one new atom
        second = parse_sequent("　In(a) * R(a)\t, In(b) |-In(a) + R(b) ", lat)
        assert len(calls) == 4
        assert second.context[0] is first.context[0]
        assert second.succedent is first.succedent
        # a text the split path leaves to the token parser parses every atom
        parse_sequent("In(a) * R(a) |- In(a) + R(b) # comment", lat)
        assert len(calls) == 8

    @pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
    def test_ortho_is_no_atom_term(self, warm):
        # `ortho` is a keyword of the term grammar: the token parser wants
        # its '(' where a plain atom's pattern would see a name
        lat = mo(2)
        if warm:
            parse_sequent("In(a) * R(a) |- R(a) + In(a)", lat)
        text = "In(ortho) * R(a) |- R(a)"
        for read in (lambda: parse_sequent(text, lat),
                     lambda: FormulaParser(text, lat).parse_sequent_text()):
            with pytest.raises(ParseError) as err:
                read()
            assert str(err.value) == "1:9: expected '(', found ')' (expected ()"
        assert "In(ortho)" not in lat._store.formulas

    @pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
    def test_forall_scope_not_cut(self, warm):
        # a remembered `forall u . In(u)` must not become the left operand of
        # the '*' its scope runs past
        lat = mo(2)
        if warm:
            parse_sequent("forall u . In(u) |- In(a)", lat)
            assert "forall u . In(u)" in lat._store.formulas
        text = "In(u) * R(u) |- forall u . In(u) * R(u)"
        seq = parse_sequent(text, lat)
        u = Var("u")
        assert seq.succedent == Forall("u", (), Tensor(Actual(u), Reachable(u)))
        assert seq is lat._store.intern(FormulaParser(text, lat).parse_sequent_text())

    def test_operands_remembered(self, monkeypatch):
        # the memo holds exactly what the reader looks up, each stored once
        # read: a piece under its stripped text, a parenthesised operand at
        # the top level under its inside, stripped, and a plain atom under
        # HEAD(name); a hit skips the operand's tokens
        steps = count_steps(monkeypatch)
        lat = mo(2)
        formulas = lat._store.formulas
        seq = parse_sequent("In(a) * R(a) |- In(b) + ( In(a) * R(a) )", lat)
        assert list(formulas) == ["In(a)", "R(a)", "In(a) * R(a)", "In(b)",
                                  "In(b) + ( In(a) * R(a) )"]
        assert formulas["In(a) * R(a)"] is seq.context[0]
        assert seq.succedent == Plus(In("b"), Tensor(In("a"), R("a")))
        # 9 tokens of the first piece, 16 of the second less the 11 of the
        # remembered operand
        assert steps() == 9 + 16 - 11
        # a new operand is read token by token, and stored under its inside
        # once its ')' closes; an operator's operands are not stored
        seq = parse_sequent("R(b) |- In(b) * R(b) + (R(b) * M(b))", lat)
        assert list(formulas)[5:] == ["R(b)", "M(b)", "R(b) * M(b)",
                                      "In(b) * R(b) + (R(b) * M(b))"]
        assert "In(b) * R(b)" not in formulas
        b = Const("b")
        assert seq.succedent == Plus(Tensor(In("b"), R("b")), Tensor(R("b"), Measurement(b)))
        assert steps() == 4 + 21
        # the inside of this piece's operand in parentheses is the piece
        # before, found by one lookup
        parse_sequent("R(b) |- (In(b) * R(b) + (R(b) * M(b))) * R(b)", lat)
        assert list(formulas)[9:] == ["(In(b) * R(b) + (R(b) * M(b))) * R(b)"]
        assert steps() == 28 - 23
        # a complement is read as any term is, and the operand holding it is
        # stored as any operand is; the atom In(ortho(a)) is not plain
        seq = parse_sequent("R(b) |- R(b) + (In(b) * In(ortho(a)))", lat)
        assert list(formulas)[10:] == ["In(b) * In(ortho(a))", "R(b) + (In(b) * In(ortho(a)))"]
        assert seq.succedent == Plus(R("b"), Tensor(In("b"), In("a'")))
        assert steps() == 19

    @pytest.mark.parametrize("terms", [MAX_DEPTH, 24])
    def test_long_sum_cut_once(self, terms, monkeypatch):
        # a sum of a few MB, with long names and inner parentheses, is read
        # in one pass, each token once: the memo holds the piece, the inside
        # of each term in parentheses and each plain atom, what the reader
        # looks up, in under two and a half times the piece's characters
        size = 2_400_000 // terms
        names = [f"n{i}_" + "x" * size for i in range(terms)]
        parts = [f"(In({n}) * R({n}))" if i % 4 == 0 else f"R({n})" for i, n in enumerate(names)]
        piece = " + ".join(parts)
        text = f"In(a) |- {piece}"
        assert len(text) > 2_000_000
        lat = mo(2)
        steps = count_steps(monkeypatch)
        seq = parse_sequent(text, lat)
        assert steps() == 4 + len(_tokenize(piece, _Reader)) - 1
        assert seq is lat._store.intern(FormulaParser(text, lat).parse_sequent_text())
        insides = {part[1:-1] for part in parts if part[0] == "("}
        atoms = {f"R({n})" for n in names} | {f"In({n})" for n in names[::4]}
        keys = set(lat._store.formulas) - {"In(a)"}
        assert keys == {piece} | insides | atoms
        assert sum(map(len, keys)) < 2.5 * len(piece)

    def test_chain_context_inside_remembered(self, monkeypatch):
        # a chain's context M(m_k) * (… (In(c) * R(c))) is read once, and
        # the inside of its operand in parentheses is stored, so the next
        # context the reader meets, one level shallower, is one lookup: the
        # reader steps through 18,521 tokens at k = 99, under a quarter of
        # the 78,942 in the file's distinct sequent strings
        lat = mo(4)
        d = derive_chain(lat, "c", (["a", "b"] * 50)[:99])
        text = serialize(d)
        steps = count_steps(monkeypatch)
        same = parse_derivation(text, lat) is d
        distinct = set(re.findall(r'\(seq "([^"]*)"\)', text))
        tokens = sum(len(_tokenize(seq, _Reader)) - 1 for seq in distinct)
        assert same and (steps(), tokens) == (18521, 78942)
        inner = d.conclusion.context[0].right
        assert lat._store.formulas[ascii_formula(inner)] is inner

    def test_strip_matches_token_whitespace(self):
        # the split path strips pieces with str.strip, the tokenizer skips \s
        chars = "".join(map(chr, range(sys.maxunicode + 1)))
        stripped = {c for c in chars if not c.strip()}
        assert stripped == set(re.findall(r"\s", chars)) == {c for c in chars if c.isspace()}
        assert set(SPACES) <= stripped


def preorder(d) -> list:
    """The node occurrences of a derivation in pre-order."""
    out, todo = [], [d]
    while todo:
        node = todo.pop()
        out.append(node)
        todo.extend(reversed(getattr(node, "children", ())))
    return out


def seeded_mutants(lat) -> list:
    """200 seeded mutants of measurement derivations over ``lat``, a lattice
    of the mo(2) family, one mutation kind after another."""
    pairs = list(itertools.product(lat.nonzero(), repeat=2))
    out = []
    for i in range(200):
        rng = random.Random(20261018 + i)
        kind = MUTATION_KINDS[i % len(MUTATION_KINDS)]
        if kind == "capture":
            out.append(capture_case(lat, rng)[1])
        else:
            out.append(mutate(derive_measurement(lat, *pairs[i % len(pairs)]), kind, rng, lat))
    return out


class TestSerializeMemo:
    """serialize renders each sequent once for its life; every sequent it
    writes must still be the plain renderer's text, and the text must parse
    back to the tree itself on its own lattice and to an equal tree on a
    lattice whose store never saw it."""

    @staticmethod
    def plain_text(seq, texts: dict) -> str:
        """``ascii_sequent(seq)``, worked out once per sequent object;
        ``texts`` keeps every sequent it names alive."""
        found = texts.get(id(seq))
        if found is None:
            found = texts[id(seq)] = (seq, ascii_sequent(seq))
        return found[1]

    def assert_oracle(self, d, lat, twin, texts):
        text = serialize(d)
        seqs = re.findall(r'\(seq "([^"]*)"\)', text)
        assert seqs == [self.plain_text(node.conclusion, texts) for node in preorder(d)]
        assert parse_derivation(text, lat) is d
        assert parse_derivation(text, twin) == d

    @pytest.mark.parametrize("family", ["mo2", "boolean3"])
    def test_every_short_chain(self, short_chains, family):
        lat, chains = short_chains(family)
        twin, texts = parse_lattice(serialize(lat)), {}
        for k, built in chains.items():
            assert len(built) == len(lat.nonzero()) ** (k + 1)
            for d in built:
                self.assert_oracle(d, lat, twin, texts)

    def test_seeded_mutants(self):
        lat, twin, texts = mo(2), mo(2), {}
        for m in seeded_mutants(lat):
            self.assert_oracle(m, lat, twin, texts)

    def test_written_text_not_remembered(self):
        # serialize fills no text memo of the reader: it does not know which
        # store it writes for, and a sequent built in a store need not parse
        # back to itself, so a reader's answer would depend on what was
        # written before
        lat = mo(2)
        make = lat._store.make
        for term, parsed in ((make(Const, "0"), None), (make(Var, "a"), Const("a"))):
            atom = make(Actual, term)
            d = make(RuleApp, "id", make(Sequent, make(tuple, atom), atom), make(tuple), None)
            text = serialize(d)
            assert text == f'(rule id (seq "In({term.name}) |- In({term.name})"))\n'
            assert not lat._store.texts and not lat._store.formulas
            got = [outcome(lambda: parse_derivation(text, target)) for target in (lat, mo(2))]
            if parsed is None:
                assert got[0] == got[1] == (
                    "1:15: in sequent string: 1:1: In cannot hold the absurd property 0",
                    SourceSpan(1, 15, 16), frozenset(),
                )
            else:  # the Var spelled like an element reads as the element
                assert got[0] == got[1] and got[0] is not d
                assert got[0].conclusion.succedent.term is make(Const, "a") == parsed

    def test_deep_flat_chain(self):
        # far deeper than the recursion limit; the parser's limit is 100
        seq = parse_sequent("In(a) |- In(a)", mo(2))
        d = RuleApp("id", seq, ())
        for _ in range(1199):
            d = RuleApp("plus_r1", seq, (d,))
        lines = ["  " * i + '(rule plus_r1 (seq "In(a) |- In(a)")' for i in range(1199)]
        lines.append("  " * 1199 + '(rule id (seq "In(a) |- In(a)"))')
        lines += ["  " * i + ")" for i in reversed(range(1199))]
        assert serialize(d) == "\n".join(lines) + "\n"


class TestFormulaMemo:
    """The store's formula memo holds exactly the texts the reader looks up,
    each stored once read: a sequent's top-level pieces, the insides of
    parenthesised operands at the top level and plain atoms, none inside a
    quantifier's scope.  So every key, read alone on a fresh lattice, gives
    its value."""

    # bound names that shadow elements, inside parentheses and in atoms
    SHADOWING = ["forall a . (In(a) * R(a)) |- In(a)",
                 "forall b {<= a} . In(b) -o (R(b) + In(a)) |- R(b)",
                 "(In(a)), forall a . ((R(a))) |- forall a . R(a) + (In(a))"]

    def test_every_key_reads_alone_to_its_value(self, short_chains):
        for family, fresh in (("mo2", lambda: mo(2)), ("boolean3", lambda: boolean(3))):
            lat = fresh()
            trees = [d for built in short_chains(family)[1].values() for d in built]
            if family == "mo2":
                trees += seeded_mutants(mo(2))
            for d in trees:
                assert parse_derivation(serialize(d), lat) == d
            for text in self.SHADOWING:
                parse_sequent(text, lat)
            for key, value in lat._store.formulas.items():
                assert parse_formula(key, fresh()) == value, key

    def test_comment_stores_nothing(self):
        lat = mo(2)
        parse_sequent("In(a) |- R(b)", lat)
        before = dict(lat._store.formulas)
        text = "(In(a) * R(a)) # a ( in a comment\n + (R(b) -o In(a)) # )"
        f = parse_formula(text, lat)
        assert lat._store.formulas == before
        assert f is lat._store.intern(FormulaParser(text, lat).parse_formula_text())


# sha256 of the bytes serialize wrote for TestHeadLines.trees, recorded
# again when chain stages came to be built bottom-up, with no head line or
# formula text kept on any object; the cached writer must write the same
# bytes
WRITER_DIGEST = "445a07bede6e12fa73a0813292ce52ad1e7fe25397b430216575a06957a74481"


class TestHeadLines:
    """serialize keeps each node's head line on the node, outside its fields;
    the bytes it writes are those of a writer that renders every node
    afresh."""

    @pytest.fixture(scope="class")
    def trees(self, short_chains) -> list:
        """Every chain of one to three measurements on mo(2) and boolean(3),
        built with unmerged stages as when the digest was recorded, seeded
        mutants on mo(2) and seeded random derivations, witnesses among
        them."""
        out = []
        for family in ("mo2", "boolean3"):
            lat, chains = short_chains(family, unmerged=True)
            out += [d for k in (1, 2, 3) for d in chains[k]]
        out += seeded_mutants(mo(2))
        rng = random.Random(20261018)
        out += [gen.random_derivation(rng)[1] for _ in range(40)]
        for term in ("ortho(ortho(a))", "q", "ortho(b)"):
            out.append(parse_derivation(WITNESS_TEXT.replace("ortho(ortho(a))", term), mo(2)))
        return out

    @staticmethod
    def digest(texts) -> str:
        return hashlib.sha256("\n".join(texts).encode()).hexdigest()

    def test_bytes_pinned(self, trees):
        assert self.digest(map(serialize, trees)) == WRITER_DIGEST

    def test_second_call_and_fresh_store(self, trees):
        first = [serialize(d) for d in trees]
        assert [serialize(d) for d in trees] == first  # every head line kept
        store, copied = Store(), {}

        def copy(obj):
            """``obj`` built again in ``store``, each distinct object once."""
            if obj is None or obj.__class__ is str:
                return obj
            if id(obj) not in copied:
                parts = obj if obj.__class__ is tuple else obj._values()
                copied[id(obj)] = store.make(obj.__class__, *map(copy, parts))
            return copied[id(obj)]

        copies = [copy(d) for d in trees]  # equal trees, nothing written yet
        assert not any(hasattr(node, "_text") for c in copies for node in distinct_nodes(c))
        assert [serialize(c) for c in copies] == first

    def test_head_line_is_the_nodes_line(self):
        d = parse_derivation(WITNESS_TEXT, mo(2))
        serialize(d)
        assert d._text == WITNESS_TEXT.split("\n")[0]
        assert d.children[0]._text == '(rule id (seq "In(a) |- In(a)"))'
