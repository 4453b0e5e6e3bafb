"""Characterization of the immutable node and result classes: ``repr``,
equality, hashing and immutability.  The digests were recorded from the
dataclass implementation these classes replaced, so ``repr`` output (which the
kernel prints for a malformed node) stays byte-identical."""

import copy
import hashlib
import pickle
import random

import pytest

import gen
from omlogic import record
from omlogic.derive import CrosscheckResult, derive_chain, semantic_crosscheck
from omlogic.formats import ParseError, parse_derivation, parse_lattice, parse_sequent, serialize
from omlogic.kernel import AxiomApp, CheckFailure, CheckResult, RuleApp, check_derivation
from omlogic.lattice import LawCheck, boolean, hexagon, mo
from omlogic.mutate import mutate
from omlogic.propagation import (
    find_order_counterexample,
    is_transition_map,
    perfect_measurement_map,
)
from omlogic.record import Store
from omlogic.syntax import (
    Actual,
    Const,
    Constraint,
    Forall,
    Induced,
    Lolli,
    Measurement,
    OrthoTerm,
    Plus,
    Reachable,
    Sequent,
    Tensor,
    Var,
    _ASCII,
    _render,
    ascii_sequent,
    pretty_formula,
)

LATTICES = {"mo2": mo(2), "boolean3": boolean(3), "hexagon": hexagon()}


def digest(objects, show=repr) -> str:
    return hashlib.sha256("\n".join(map(show, objects)).encode()).hexdigest()


def recorded_repr(x) -> str:
    """``repr(x)`` as it was when the digests were recorded: a failing kernel
    verdict's CheckFailure has since gained the failing node's conclusion."""
    if isinstance(x, CheckResult) and x.failure is not None:
        f = x.failure
        return (f"CheckResult(failure=CheckFailure(path={f.path!r}, rule={f.rule!r}, "
                f"reason={f.reason!r}))")
    return repr(x)


def sequents(name):
    rng = random.Random(11)
    return [gen.random_sequent(LATTICES[name], rng) for _ in range(300)]


def derivations():
    rng = random.Random(5)
    return [gen.random_derivation(rng) for _ in range(40)]


def crosscheck(lat, d) -> CrosscheckResult:
    """The crosscheck verdict with its sets sorted, so that its repr does not
    depend on string hashing."""
    r = semantic_crosscheck(lat, d)
    expected, found = (None if s is None else tuple(sorted(s)) for s in (r.expected, r.found))
    return CrosscheckResult(r.ok, r.shape, expected, found, r.reason)


def results():
    """Kernel, crosscheck, law and map verdicts, failing ones included."""
    out = []
    rng = random.Random(3)
    for lat, d in derivations()[:12]:
        out.append(check_derivation(lat, d))
        out.append(crosscheck(lat, d))
        for kind in ("exchange", "contraction", "weakening", "guard"):
            mutant = mutate(d, kind, rng, lat)
            if mutant is not None:
                out.append(check_derivation(lat, mutant))
                out.append(crosscheck(lat, mutant))
    for lat in LATTICES.values():
        out.append(lat.verify())
    out.append(find_order_counterexample(mo(3)))
    out.append(is_transition_map(perfect_measurement_map(mo(2), "a")))
    for text in ("In(a) |-", "|- In(0)", "In(a) & R(a)"):
        with pytest.raises(ParseError) as err:
            parse_sequent(text, mo(2))
        out.append(err.value.span)
    return out


EXPECTED = {
    "mo2": "e2f09430f562bc564002779ecd285472eb03a5860acc5aa6ff805f13d9800f71",
    "boolean3": "21537661d3e0eaa5f9274c3a453c503a91f0c7171545e7e93ebab54cadcee4d2",
    "hexagon": "58917931e2564585a7d660ab4c171dff124b7603bd823183b2409fde780a68c9",
    "derivations": "6cf73f3fba880cc85ccd339f894393d1fef330403b256438d8f1e3513c44054f",
    "results": "af918e6bcdeb0f3ba69805442cbedecb77c6407a08dda9fcfaf454986bf31af7",
}


class TestRepr:
    @pytest.mark.parametrize("name", sorted(LATTICES))
    def test_random_sequents(self, name):
        assert digest(sequents(name)) == EXPECTED[name]

    def test_random_derivations(self):
        assert digest(d for _, d in derivations()) == EXPECTED["derivations"]

    def test_results(self):
        assert digest(results(), recorded_repr) == EXPECTED["results"]

    def test_field_order_and_defaults(self):
        assert repr(Forall("x", (Constraint("<=", Const("a")),), Actual(Var("x")))) == (
            "Forall(var='x', guard=(Constraint(op='<=', rhs=Const(name='a')),), "
            "body=Actual(term=Var(name='x')))"
        )
        assert repr(CheckResult()) == "CheckResult(failure=None)"
        assert repr(LawCheck("law", True)) == "LawCheck(law='law', passed=True, witness=None)"

    def test_deep_sum(self):
        # a left-nested sum of 5,000 terms, written from an explicit stack
        b = Actual(Const("b"))
        f = Actual(Const("a"))
        for _ in range(4999):
            f = Plus(f, b)
        assert repr(f) == (
            "Plus(left=" * 4999 + "Actual(term=Const(name='a'))"
            + ", right=Actual(term=Const(name='b')))" * 4999
        )

    def test_tuples_as_python_writes_them(self):
        a = Actual(Const("a"))
        for value in ((), (a,), (a, (a,)), ((), ((),)), ("x", 1, None)):
            f = Forall("x", value, a)
            assert repr(f) == f"Forall(var='x', guard={value!r}, body={a!r})"


def fields(node) -> list:
    """The parts of a node or a tuple."""
    return list(node) if isinstance(node, tuple) else [getattr(node, n) for n in node.__slots__]


def parts(node):
    """Every node and tuple below ``node``, itself included."""
    yield node
    for part in fields(node):
        if not isinstance(part, (str, type(None))):
            yield from parts(part)


def rebuild(node):
    """A fresh copy of a tree, no node or tuple shared with ``node``."""
    if isinstance(node, (str, type(None))):
        return node
    rebuilt = [rebuild(part) for part in fields(node)]
    return tuple(rebuilt) if isinstance(node, tuple) else type(node)(*rebuilt)


class TestEquality:
    def test_equal_implies_equal_hash(self):
        pool = [
            part
            for name in sorted(LATTICES)
            for seq in sequents(name)[:100]
            for part in parts(seq)
        ]
        pool += [d for _, d in derivations()]
        for x in pool:
            twin = rebuild(x)
            assert twin == x and not twin != x and hash(twin) == hash(x)
        rng = random.Random(0)
        for _ in range(20000):
            x, y = rng.sample(pool, 2)
            if x == y:
                assert hash(x) == hash(y)

    def test_class_matters(self):
        p, q = Actual(Const("a")), Reachable(Const("b"))
        assert Const("a") != Var("a") and len({Const("a"), Var("a")}) == 2
        assert Tensor(p, q) != Plus(p, q) and len({Tensor(p, q), Plus(p, q)}) == 2
        assert Actual(Const("a")) != Reachable(Const("a"))
        assert CheckFailure((), "id", "x") != LawCheck((), "id", "x")
        assert Const("a") != ("a",) and Const("a") != "a"


    def test_shared_pair_taken_apart_once(self, monkeypatch):
        # a chain shares its subtrees; compared with its parse on a twin
        # lattice, each distinct pair of nodes is taken apart once
        lat = mo(4)
        d = derive_chain(lat, "c", ["a", "b", "a"])
        copy_ = parse_derivation(serialize(d), parse_lattice(serialize(lat)))
        distinct = {id(node): node for node in parts(d)}
        assert len(distinct) < sum(1 for _ in parts(d))
        opened = []
        real = record._parts
        monkeypatch.setattr(record, "_parts", lambda x: opened.append(x) or real(x))
        assert copy_ == d
        # each pair taken apart reads the parts of both its nodes
        assert 0 < len(opened) // 2 <= len(distinct)

    def test_difference_inside_shared_subtree(self):
        # a pair met again is skipped only once it was taken apart, so a
        # difference deep inside a subtree that occurs twice is still found
        def deep(name):
            f = Actual(Const(name))
            for _ in range(50):
                f = Tensor(Reachable(Const("a")), f)
            return f

        shared, other = deep("a"), deep("b")
        assert Plus(shared, shared) == Plus(rebuild(shared), rebuild(shared))
        assert Plus(shared, shared) != Plus(other, other)
        assert Plus(shared, shared) != Plus(shared, other)
        assert Plus(shared, shared) != Plus(rebuild(shared), other)
        assert Plus(shared, other) != Plus(shared, shared)


class TestImmutable:
    @pytest.mark.parametrize("node, field", [
        (Const("a"), "name"),
        (Tensor(Actual(Const("a")), Reachable(Const("a"))), "left"),
        (Sequent((), Actual(Const("a"))), "context"),
        (RuleApp("id", Sequent((), Actual(Const("a"))), ()), "children"),
        (AxiomApp("Trans", (), Sequent((), Actual(Const("a")))), "schema"),
        (CheckResult(), "failure"),
        (LawCheck("law", True), "passed"),
    ])
    def test_assignment_raises(self, node, field):
        before = repr(node)
        with pytest.raises(AttributeError):
            setattr(node, field, None)
        with pytest.raises(AttributeError):
            delattr(node, field)
        with pytest.raises(AttributeError):
            node.extra = 1
        assert repr(node) == before


NODE_CLASSES = (Const, Var, OrthoTerm, Actual, Reachable, Measurement, Induced, Tensor, Plus,
                Lolli, Constraint, Forall, Sequent, AxiomApp)


class TestConstructor:
    """Every record is built by Record.__init__, one value per field."""

    @pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
    def test_wrong_field_count_raises(self, cls):
        assert "__init__" not in vars(cls)
        n = len(cls.__slots__)
        for count in (0, n - 1, n + 1):
            with pytest.raises(TypeError, match=f"^{cls.__name__} takes {n} fields, got {count}$"):
                cls(*["x"] * count)

    def test_rule_app_witness_default(self):
        seq = Sequent((), Actual(Const("a")))
        assert RuleApp("id", seq, ()).witness is None
        assert RuleApp("id", seq, ()) == RuleApp("id", seq, (), None)
        for count in (2, 5):
            with pytest.raises(TypeError):
                RuleApp(*["x"] * count)

    def test_unserialized_sequent_serializes(self):
        a = Actual(Const("a"))
        d = RuleApp("id", Sequent((a,), a), ())
        assert serialize(d) == serialize(d) == '(rule id (seq "In(a) |- In(a)"))\n'


class TestStore:
    """``Store.make`` hands out one node per value it builds."""

    def test_empty_tuple_is_one_node(self):
        store = Store()
        assert store.make(tuple) is store.make(tuple) == ()
        assert list(store.nodes.values()) == [()]

    def test_miss_then_hit(self):
        store = Store()
        c = store.make(Const, "a")
        a = store.make(Actual, c)
        assert store.make(Const, "a") is c and store.make(Actual, c) is a
        assert len(store.nodes) == 2

    def test_wrong_field_count_leaves_no_entry(self):
        store = Store()
        c = store.make(Const, "a")
        for parts in ((), (c, c)):
            with pytest.raises(TypeError, match="^Actual takes 1 fields"):
                store.make(Actual, *parts)
        assert list(store.nodes.values()) == [c]


def test_copy_and_pickle():
    for _, d in derivations()[:5]:
        for twin in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
            assert twin == d and repr(twin) == repr(d)
    result = CrosscheckResult(False, reason="r")
    assert copy.deepcopy(result) == result and copy.deepcopy(result) is not result


def test_head_lines_outside_fields():
    """serialize keeps each node's head line, and the ASCII text of each
    sequent and of each of its formulas, in a slot outside their fields;
    repr, equality, hashing, copies and the recorded digests ignore it, and
    the pretty surface never reads it."""
    ds = [d for _, d in derivations()]
    formulas = list({id(f): f for d in ds for node in parts(d) if isinstance(node, Sequent)
                     for f in (*node.context, node.succedent)}.values())
    assert len(formulas) > 100
    hashes = [hash(x) for x in ds + formulas]
    pretty = [pretty_formula(f) for f in formulas]
    for d in ds:
        serialize(d)
    assert all(d._text.startswith(("(rule ", "(axiom ")) for d in ds)
    assert [f._text for f in formulas] == [_render(f, _ASCII) for f in formulas]
    assert [pretty_formula(f) for f in formulas] == pretty
    assert digest(ds) == EXPECTED["derivations"]
    assert [hash(x) for x in ds + formulas] == hashes
    for x in ds + formulas:
        assert "_text" not in repr(x)
        for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x)), rebuild(x)):
            assert twin == x and hash(twin) == hash(x)
            assert getattr(twin, "_text", None) is None
    for name in sorted(LATTICES):
        seqs = sequents(name)
        assert [ascii_sequent(q) for q in seqs] == [q._text for q in seqs]
        assert digest(seqs) == EXPECTED[name]
