import itertools
import pickle
import random

import pytest

import gen
from omlogic import syntax
from omlogic.axioms import GuardViolation, UnknownSchemaError, instantiate_axiom
from omlogic.cli import run
from omlogic.derive import (
    _modus_ponens,
    derive_chain,
    derive_measurement,
    semantic_crosscheck,
)
from omlogic.formats import (
    ParseError,
    SourceSpan,
    parse_derivation,
    parse_formula,
    parse_sequent,
    serialize,
)
from omlogic.kernel import AxiomApp, RuleApp, check_derivation
from omlogic.lattice import LatticeError, boolean, hexagon, mo
from omlogic.mutate import MUTATION_KINDS, capture_case, mutate
from omlogic.propagation import PowersetMap, perfect_measurement_map
from omlogic.record import Record
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
    actual,
    ascii_formula,
    ascii_sequent,
    free_vars,
    measurement,
    normalize_formula,
    normalize_term,
    pretty_formula,
    pretty_sequent,
    substitute,
)


def In(x):
    return Actual(Const(x))


def R(x):
    return Reachable(Const(x))


class TestSyntax:
    def test_double_ortho_normalizes(self):
        lat = mo(2)
        assert normalize_term(OrthoTerm(OrthoTerm(Const("a"))), lat) == Const("a")
        assert normalize_term(OrthoTerm(Const("a")), lat) == Const("a'")

    def test_measurement_canonical_pair(self):
        lat = mo(2)
        assert measurement(lat, "b") == measurement(lat, "b'")
        assert measurement(lat, "b").term == Const("b")
        assert measurement(lat, "0") == measurement(lat, "1")
        assert measurement(lat, "1").term == Const("1")

    def test_tensor_groupings_distinct(self):
        a, b, c = In("a"), In("b"), In("c")
        assert Tensor(Tensor(a, b), c) != Tensor(a, Tensor(b, c))

    def test_free_vars_and_substitution(self):
        lat = mo(2)
        f = Forall("x", (), Tensor(Actual(Var("x")), Actual(Var("y"))))
        assert free_vars(f) == {"y"}
        g = substitute(f.body, "x", Const("a"), lat)
        assert g == Tensor(In("a"), Actual(Var("y")))
        # an IND atom has none; ortho terms, both sides of -o and guard bounds do
        h = Forall(
            "x",
            (Constraint("<=", OrthoTerm(Var("z"))), Constraint("!<=", Var("x")),
             Constraint("!inK", "f")),
            Lolli(Induced("f"), Actual(OrthoTerm(Var("y")))),
        )
        assert free_vars(h) == {"y", "z"}
        assert free_vars(Lolli(Actual(Var("x")), Induced("f"))) == {"x"}

    def test_substitution_shadowing(self):
        lat = mo(2)
        f = Forall("x", (), Actual(Var("x")))
        assert substitute(f, "x", Const("a"), lat) == f
        guarded = Forall("x", (Constraint("<=", OrthoTerm(Var("x"))),), Actual(Var("x")))
        assert substitute(guarded, "x", Const("a"), lat) == guarded

    def test_substitution_normalizes_guards(self):
        lat = mo(2)
        f = Forall("y", (Constraint("<=", OrthoTerm(Var("x"))),), Actual(Var("y")))
        g = substitute(f, "x", Const("a"), lat)
        assert g.guard == (Constraint("<=", Const("a'")),)

    def test_substitute_returns_normal_forms(self):
        rng = random.Random(20261018)
        for lat in (mo(2), boolean(3), hexagon()):
            values = [Const(e) for e in lat.nonzero()] + [Var("z"), OrthoTerm(Var("z"))]
            for _ in range(300):
                f = gen.random_formula(lat, rng, rng.randint(0, 4))
                for var in ("u", "v"):
                    try:
                        g = substitute(f, var, rng.choice(values), lat)
                    except ValueError:  # an In or R atom became 0
                        continue
                    assert normalize_formula(g, lat) == g, ascii_formula(f)

    def test_ascii_rendering(self):
        lat = mo(2)
        f = Tensor(measurement(lat, "b"), Tensor(In("a"), R("a")))
        assert ascii_formula(f) == "M(b) * (In(a) * R(a))"
        s = Sequent((f,), Plus(Tensor(In("b"), R("b")), Tensor(In("b'"), R("b'"))))
        assert (
            ascii_sequent(s)
            == "M(b) * (In(a) * R(a)) |- In(b) * R(b) + In(b') * R(b')"
        )

    def test_pretty_rendering(self):
        lat = mo(2)
        f = Tensor(measurement(lat, "b"), In("a"))
        assert pretty_formula(f) == "M(b, b⊥) ⊗ In(a)"

    def test_non_formula_refused(self):
        # the public walks refuse a value that is no formula by its type
        with pytest.raises(TypeError, match="^not a formula: 3$"):
            normalize_formula(3, mo(2))
        with pytest.raises(TypeError, match="^not a formula: 3$"):
            pretty_formula(3)
        with pytest.raises(TypeError, match="^cannot serialize int$"):
            serialize(3)

    # one row per atom, connective, parenthesization rule and guard operator
    @pytest.mark.parametrize("text, pretty, ascii_", [
        ("In(a)", "In(a)", "In(a)"),
        ("R(ortho(u))", "R(u⊥)", "R(ortho(u))"),
        ("M(b')", "M(b, b⊥)", "M(b)"),
        ("M(ortho(ortho(u)))", "M(u, u⊥)", "M(u)"),
        ("IND(alpha)", "IND(alpha)", "IND(alpha)"),
        ("M(b) * (In(a) * R(a))", "M(b, b⊥) ⊗ (In(a) ⊗ R(a))", "M(b) * (In(a) * R(a))"),
        (
            "(In(a) + R(a)) * (In(a) -o R(a))",
            "(In(a) ⊕ R(a)) ⊗ (In(a) ⊸ R(a))",
            "(In(a) + R(a)) * (In(a) -o R(a))",
        ),
        ("In(a) + R(b) + M(b)", "In(a) ⊕ R(b) ⊕ M(b, b⊥)", "In(a) + R(b) + M(b)"),
        ("In(a) + (R(b) + M(b))", "In(a) ⊕ (R(b) ⊕ M(b, b⊥))", "In(a) + (R(b) + M(b))"),
        (
            "(In(a) -o R(a)) + (forall x . In(x))",
            "(In(a) ⊸ R(a)) ⊕ (∀x . In(x))",
            "(In(a) -o R(a)) + (forall x . In(x))",
        ),
        (
            "(In(a) -o R(a)) -o In(a) -o R(b)",
            "(In(a) ⊸ R(a)) ⊸ In(a) ⊸ R(b)",
            "(In(a) -o R(a)) -o In(a) -o R(b)",
        ),
        ("(forall x . In(x)) -o R(a)", "(∀x . In(x)) ⊸ R(a)", "(forall x . In(x)) -o R(a)"),
        (
            "forall x {<= a, !<= ortho(x), !in K(alpha)} . In(x) * R(x)",
            "∀x{≤ a, ≰ x⊥, ∉ K(alpha)} . In(x) ⊗ R(x)",
            "forall x {<= a, !<= ortho(x), !in K(alpha)} . In(x) * R(x)",
        ),
        (
            "forall x {} . forall y {<= ortho(x)} . In(y)",
            "∀x . ∀y{≤ x⊥} . In(y)",
            "forall x . forall y {<= ortho(x)} . In(y)",
        ),
    ])
    def test_rendering_table(self, text, pretty, ascii_):
        f = parse_formula(text, mo(2))
        assert (pretty_formula(f), ascii_formula(f)) == (pretty, ascii_)

    def test_sequent_and_term_rendering(self):
        lat = mo(2)
        for text, pretty, ascii_ in [
            ("|- In(a)", "⊢ In(a)", "|- In(a)"),
            ("In(a), M(b) |- R(a) + R(b)", "In(a), M(b, b⊥) ⊢ R(a) ⊕ R(b)", "In(a), M(b) |- R(a) + R(b)"),
        ]:
            s = parse_sequent(text, lat)
            assert (pretty_sequent(s), ascii_sequent(s)) == (pretty, ascii_)
        f = Actual(OrthoTerm(OrthoTerm(Var("u"))))
        assert (pretty_formula(f), ascii_formula(f)) == ("In(u⊥⊥)", "In(ortho(ortho(u)))")


def reference_render(f, s) -> str:
    """The recursive renderer that ``syntax._render`` replaced, kept as its
    oracle; it recurses two frames per level."""
    term = syntax._term
    if isinstance(f, Actual):
        return f"In({term(f.term, s)})"
    if isinstance(f, Reachable):
        return f"R({term(f.term, s)})"
    if isinstance(f, Measurement):
        return s.measurement.format(term(f.term, s))
    if isinstance(f, Induced):
        return f"IND({f.alpha})"

    def wrap(g, needed):
        return f"({reference_render(g, s)})" if needed else reference_render(g, s)

    if isinstance(f, Tensor):
        return (wrap(f.left, not isinstance(f.left, syntax.ATOMS)) + s.tensor
                + wrap(f.right, not isinstance(f.right, syntax.ATOMS)))
    if isinstance(f, Plus):
        return (wrap(f.left, isinstance(f.left, (Lolli, Forall))) + s.plus
                + wrap(f.right, isinstance(f.right, (Plus, Lolli, Forall))))
    if isinstance(f, Lolli):
        return (wrap(f.antecedent, isinstance(f.antecedent, (Lolli, Forall))) + s.lolli
                + reference_render(f.consequent, s))
    head = s.forall.format(f.var)
    if f.guard:
        head += s.guard.format(", ".join(
            s.ops[c.op] + (f"({c.rhs})" if c.op == "!inK" else term(c.rhs, s)) for c in f.guard
        ))
    return f"{head} . {reference_render(f.body, s)}"


def reference_normalize_term(t, lat, var=None, value=None):
    """The recursive term normalizer that ``syntax._fold`` replaced, kept
    with the two walks below as its oracle."""
    make = lat._store.make
    if isinstance(t, OrthoTerm):
        inner = reference_normalize_term(t.arg, lat, var, value)
        if isinstance(inner, Const):
            return make(Const, lat.ortho(inner.name))
        if isinstance(inner, OrthoTerm):
            return inner.arg
        return make(OrthoTerm, inner)
    if isinstance(t, Var) and t.name == var:
        return reference_normalize_term(value, lat)
    if isinstance(t, (Const, Var)):
        return make(t.__class__, t.name)
    return t


def reference_normalize_formula(f, lat, var=None, value=None):
    make, term = lat._store.make, reference_normalize_term
    if isinstance(f, (Actual, Reachable, Measurement)):
        return syntax._atom(lat, f.__class__, term(f.term, lat, var, value))
    if isinstance(f, Induced):
        return make(Induced, f.alpha)
    if isinstance(f, (Tensor, Plus)):
        return make(
            f.__class__,
            reference_normalize_formula(f.left, lat, var, value),
            reference_normalize_formula(f.right, lat, var, value),
        )
    if isinstance(f, Lolli):
        return make(
            Lolli,
            reference_normalize_formula(f.antecedent, lat, var, value),
            reference_normalize_formula(f.consequent, lat, var, value),
        )
    if isinstance(f, Forall):
        if f.var == var:
            var = value = None  # shadowed
        guard = make(tuple, *[
            make(Constraint, c.op, c.rhs if c.op == "!inK" else term(c.rhs, lat, var, value))
            for c in f.guard
        ])
        return make(Forall, f.var, guard, reference_normalize_formula(f.body, lat, var, value))
    raise TypeError(f"not a formula: {f!r}")


def reference_term_vars(t):
    if isinstance(t, Var):
        return frozenset({t.name})
    if isinstance(t, OrthoTerm):
        return reference_term_vars(t.arg)
    return frozenset()


def reference_free_vars(f):
    if isinstance(f, (Actual, Reachable, Measurement)):
        return reference_term_vars(f.term)
    if isinstance(f, Induced):
        return frozenset()
    if isinstance(f, (Tensor, Plus)):
        return reference_free_vars(f.left) | reference_free_vars(f.right)
    if isinstance(f, Lolli):
        return reference_free_vars(f.antecedent) | reference_free_vars(f.consequent)
    if isinstance(f, Forall):
        inner = reference_free_vars(f.body)
        for c in f.guard:
            if c.op != "!inK":
                inner |= reference_term_vars(c.rhs)
        return inner - {f.var}
    raise TypeError(f"not a formula: {f!r}")


def outcome(call):
    """The result of ``call``, or the text of the ValueError it raises."""
    try:
        return call()
    except ValueError as err:
        return str(err)


def same(got, want) -> bool:
    """Whether two outcomes are the same store object or the same error."""
    return got is want or (got.__class__ is str and got == want)


class TestFoldEqualsRecursiveWalks:
    """``syntax._fold`` gives what the recursive walks it replaced gave: the
    same store object, the same free variables and the same error, with and
    without a substitution, through shadowing binders and guard bounds."""

    @pytest.mark.parametrize("lat", [mo(2), boolean(3), hexagon()], ids=lambda lat: lat.name)
    def test_random_formulas(self, lat):
        rng = random.Random(20261020)
        z = Var("z")
        values = [Const(e) for e in lat.elements] + [
            z, OrthoTerm(z), OrthoTerm(OrthoTerm(z)), OrthoTerm(Const(lat.nonzero()[0])),
        ]
        shadowed = errors = 0
        for _ in range(400):
            f = gen.random_formula(lat, rng, rng.randint(0, 5))
            text = ascii_formula(f)
            assert free_vars(f) == reference_free_vars(f), text
            assert same(outcome(lambda: normalize_formula(f, lat)),
                        outcome(lambda: reference_normalize_formula(f, lat))), text
            for var in gen.VAR_POOL[:3]:
                value = rng.choice(values)
                got = outcome(lambda: substitute(f, var, value, lat))
                want = outcome(lambda: reference_normalize_formula(f, lat, var, value))
                assert same(got, want), (text, var, value)
                errors += want.__class__ is str
                shadowed += f"forall {var} " in text
        for _ in range(200):
            t = gen.random_term(lat, rng, 1)
            for _ in range(rng.randrange(3)):
                t = OrthoTerm(t)
            value = rng.choice(values)
            assert normalize_term(t, lat) is reference_normalize_term(t, lat)
            assert normalize_term(t, lat, "u", value) is reference_normalize_term(t, lat, "u", value)
        assert shadowed and errors  # the corpus reaches both

class TestAtoms:
    """actual, reachable, measurement and the parser build each atom once,
    in the lattice's store."""

    def test_store_objects(self):
        lat = mo(2)
        assert actual(lat, "a") is parse_formula("In(a)", lat)
        assert syntax.reachable(lat, "a'") is parse_formula("R(ortho(a))", lat)
        assert measurement(lat, "a'") is measurement(lat, "a") is parse_formula("M(a')", lat)
        assert normalize_formula(In("a"), lat) is actual(lat, "a")

    @pytest.mark.parametrize("text, message, span", [
        ("In(0)", "1:1: In cannot hold the absurd property 0", (1, 1, 2)),
        ("R(ortho(1))", "1:1: R cannot hold the absurd property 0", (1, 1, 1)),
    ])
    def test_absurd_atom_errors(self, text, message, span):
        with pytest.raises(ParseError) as err:
            parse_formula(text, mo(2))
        assert str(err.value) == message
        assert err.value.span == SourceSpan(*span)

    @pytest.mark.parametrize("build", [actual, syntax.reachable, measurement])
    def test_unknown_element(self, build):
        with pytest.raises(LatticeError, match="^unknown element 'zz' in lattice 'mo2'$"):
            build(mo(2), "zz")


class TestRenderDepth:
    """``_render`` walks an explicit stack, so a formula of any depth renders,
    and at every depth the recursive renderer reaches it writes the same."""

    SHAPES = {
        "left plus": lambda f, g: Plus(f, g),
        "right plus": lambda f, g: Plus(g, f),
        "right tensor": lambda f, g: Tensor(g, f),
        "left tensor": lambda f, g: Tensor(f, g),
        "right lolli": lambda f, g: Lolli(g, f),
        "left lolli": lambda f, g: Lolli(f, g),
        "forall": lambda f, g: Forall("x", (Constraint("<=", Const("a")),), Plus(g, f)),
    }

    def test_long_plus_chain(self):
        terms = [In("a") if i % 3 else R(Var("u")) for i in range(5000)]
        f = terms[0]
        for t in terms[1:]:
            f = Plus(f, t)
        for render, surface in ((ascii_formula, syntax._ASCII), (pretty_formula, syntax._PRETTY)):
            assert render(f) == surface.plus.join(reference_render(t, surface) for t in terms)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_equals_recursive_renderer(self, shape):
        # every depth up to 32, then every 32nd, until the reference's
        # recursion gives out
        grow = self.SHAPES[shape]
        f, depth = In("a"), 0
        while True:
            for surface in (syntax._ASCII, syntax._PRETTY) if depth < 32 or depth % 32 == 0 else ():
                try:
                    expected = reference_render(f, surface)
                except RecursionError:
                    assert depth > 100
                    return
                assert syntax._render(f, surface) == expected, depth
            f, depth = grow(f, R("b") if depth % 2 else Measurement(Const("b"))), depth + 1

    def test_random_formulas(self):
        rng = random.Random(20261018)
        for lat in (mo(2), boolean(3)):
            for _ in range(300):
                f = gen.random_formula(lat, rng, rng.randrange(7))
                for surface in (syntax._ASCII, syntax._PRETTY):
                    assert syntax._render(f, surface) == reference_render(f, surface)


class TestAxioms:
    def test_trans_example(self):
        lat = mo(2)
        seq = instantiate_axiom(lat, "Trans", {"y": "b", "z": "a"})
        assert seq == Sequent(
            (), Lolli(Tensor(In("b"), R("a")), Tensor(In("a"), R("a")))
        )
        unfolded = instantiate_axiom(lat, "Trans", {"y": "b", "z": "a"}, unfold=True)
        assert unfolded == Sequent(
            (Tensor(In("b"), R("a")),), Tensor(In("a"), R("a"))
        )

    def test_trans_zero_projection_rejected(self):
        lat = mo(2)
        with pytest.raises(GuardViolation):
            instantiate_axiom(lat, "Trans", {"y": "a'", "z": "a"})

    def test_adjust1_example(self):
        lat = mo(2)
        seq = instantiate_axiom(lat, "Adjust1", {"x": "b", "y": "a"})
        assert seq == Sequent(
            (),
            Lolli(
                Tensor(Measurement(Const("b")), Tensor(In("a"), R("a"))),
                Tensor(In("a"), Plus(R("b"), R("b'"))),
            ),
        )

    def test_adjust1_reflexive_guard_failure(self):
        lat = mo(2)
        with pytest.raises(GuardViolation, match="!<="):
            instantiate_axiom(lat, "Adjust1", {"x": "a", "y": "a"})

    def test_adjust2_requires_order(self):
        lat = boolean(2)
        seq = instantiate_axiom(lat, "Adjust2", {"x": "1", "y": "a"})
        assert seq.succedent.consequent == Tensor(In("a"), R("a"))
        with pytest.raises(GuardViolation):
            instantiate_axiom(lat, "Adjust2", {"x": "a", "y": "b"})

    def test_oql_join(self):
        lat = mo(2)
        seq = instantiate_axiom(lat, "OQL-Join", {"x": "a", "y": "b"})
        assert seq == Sequent((In("a"),), In("1"))

    def test_oql_meet(self):
        lat = boolean(3)
        seq = instantiate_axiom(lat, "OQL-Meet", {"x1": "ab", "x2": "ac"})
        assert seq == Sequent((Tensor(In("ab"), In("ac")),), In("a"))
        with pytest.raises(GuardViolation):
            instantiate_axiom(lat, "OQL-Meet", {"x1": "a", "x2": "b"})

    def test_general_propagation_example(self):
        lat = mo(2)
        maps = {"phi_b": perfect_measurement_map(lat, "b")}
        seq = instantiate_axiom(
            lat, "GeneralPropagation", {"alpha": "phi_b", "x": "a"}, maps
        )
        assert seq == Sequent(
            (),
            Lolli(Tensor(Induced("phi_b"), In("a")), Plus(In("b"), In("b'"))),
        )

    def test_general_propagation_unknown_map(self):
        with pytest.raises(GuardViolation, match="unknown"):
            instantiate_axiom(mo(2), "GeneralPropagation", {"alpha": "nope", "x": "a"})

    def test_unknown_schema(self):
        with pytest.raises(UnknownSchemaError):
            instantiate_axiom(mo(2), "Frobnicate", {})

    def test_unbound_variable(self):
        with pytest.raises(GuardViolation, match="unbound"):
            instantiate_axiom(mo(2), "Trans", {"y": "b"})

    @pytest.mark.parametrize("schema, bindings, message", [
        ("Adjust1", {"x": "a", "y": "a'"}, "y !<= ortho(x) violated: a' <= a'"),
        ("GeneralPropagation", {"alpha": "kill", "x": "a"}, "x !in K(kill) violated for 'a'"),
        ("Trans", {"y": "b", "z": "a", "w": "a"}, "unexpected binding 'w'"),
        ("OQL-Meet", {"x1": "a", "y": "b"}, "bindings must be x1, x2, ... (at least one)"),
    ], ids=["adjust1 ortho", "killed element", "extra binding", "meet binding name"])
    def test_guard_text(self, schema, bindings, message):
        lat = mo(2)
        with pytest.raises(GuardViolation) as err:
            instantiate_axiom(lat, schema, bindings, {"kill": dead_map(lat)})
        assert str(err.value) == message


def _id(formula: str) -> str:
    return f'(rule id (seq "{formula} |- {formula}"))'


A, B = _id("In(a)"), _id("In(b)")


def dead_map(lat) -> PowersetMap:
    """A map on mo(2)'s element names whose kill set is {a}."""
    return PowersetMap(lat, {"a": set(), "a'": {"a'"}, "b": {"b"}, "b'": {"b'"}, "1": {"1"}})


# Every reason the kernel can give, on mo(2): (tree, path, rule, reason).  A
# tree is derivation text, or a function of the lattice for what the parser
# refuses; a tree whose text names K(kill) is checked with dead_map as "kill".
REASONS = [
    (lambda lat: RuleApp("weaken", Sequent((), actual(lat, "a")), ()),
     (), "weaken", "unknown rule 'weaken'"),
    ('(rule cut (seq "In(a) |- In(a)"))', (), "cut", "cut expects 2 premises, got 0"),
    ('(rule id (seq "In(a) |- In(a)") (witness a))', (), "id", "id takes no witness"),
    ('(rule id (seq "In(a) |- In(b)"))',
     (), "id", "id requires a single context formula equal to the succedent"),
    ('(rule plus_r1 (seq "In(a) |- In(a) + In(b)") (rule id (seq "In(a) |- In(b)")))',
     (0,), "id", "id requires a single context formula equal to the succedent"),
    (lambda lat: RuleApp("plus_r1", Sequent((), actual(lat, "a")), ("leaf",)),
     (0,), "?", "not a derivation node: 'leaf'"),
    (f'(rule cut (seq "In(a) |- In(b)") {A} {A})',
     (), "cut", "cut conclusion succedent differs from the right premise"),
    (f'(rule cut (seq "In(b) |- In(a)") {A} {A})',
     (), "cut", "no cut-formula position reproduces the conclusion context"),
    (f'(rule tensor_r (seq "In(a), In(b) |- In(a) + In(b)") {A} {B})',
     (), "tensor_r", "tensor_r succedent is not a tensor"),
    (f'(rule tensor_r (seq "In(a), In(b) |- In(b) * In(a)") {A} {B})',
     (), "tensor_r", "tensor parts differ from the premise succedents"),
    (f'(rule tensor_r (seq "In(b), In(a) |- In(a) * In(b)") {A} {B})',
     (), "tensor_r", "context is not the ordered concatenation of the premises"),
    (f'(rule tensor_l (seq "In(a) * In(b) |- In(b)") {A})',
     (), "tensor_l", "tensor_l changes the succedent"),
    (f'(rule tensor_l (seq "In(b) * In(a) |- In(a)") {A})',
     (), "tensor_l", "no tensor position splits into the premise context"),
    (f'(rule plus_r1 (seq "In(a) |- In(a) * In(b)") {A})',
     (), "plus_r1", "plus_r1 succedent is not a plus"),
    (f'(rule plus_r2 (seq "In(a) |- In(a) * In(b)") {A})',
     (), "plus_r2", "plus_r2 succedent is not a plus"),
    (f'(rule plus_r2 (seq "In(a) |- In(a) + In(b)") {A})',
     (), "plus_r2", "selected disjunct differs from the premise succedent"),
    (f'(rule plus_r2 (seq "In(b), In(b) |- In(a) + In(b)") {B})',
     (), "plus_r2", "plus_r2 changes the context"),
    (f'(rule plus_l (seq "In(a) + In(b) |- In(a)") {A} {B})',
     (), "plus_l", "plus_l premises must share the conclusion succedent"),
    (f'(rule plus_l (seq "In(b) + In(a) |- In(a)") {A} {A})',
     (), "plus_l", "no plus position matches both premise contexts"),
    (f'(rule lolli_r (seq "|- In(a) * In(a)") {A})',
     (), "lolli_r", "lolli_r succedent is not an implication"),
    (f'(rule lolli_r (seq "|- In(a) -o In(b)") {A})',
     (), "lolli_r", "premise succedent differs from the consequent"),
    (f'(rule lolli_r (seq "In(a) |- In(a) -o In(a)") {A})',
     (), "lolli_r", "premise context must be the antecedent followed by the context"),
    (f'(rule lolli_l (seq "In(a), In(a) -o In(b) |- In(a)") {A} {B})',
     (), "lolli_l", "lolli_l conclusion succedent differs from the right premise"),
    (f'(rule lolli_l (seq "In(a) -o In(b), In(a) |- In(b)") {A} {B})',
     (), "lolli_l", "no implication position reproduces the conclusion context"),
    (f'(rule forall_r (seq "In(a) |- In(a)") {A})',
     (), "forall_r", "forall_r succedent is not a quantifier"),
    (f'(rule forall_r (seq "In(a) |- forall x . In(b)") {A})',
     (), "forall_r", "premise succedent differs from the quantifier body"),
    (f'(rule forall_r (seq "In(a), In(a) |- forall x . In(a)") {A})',
     (), "forall_r", "forall_r changes the context"),
    (f'(rule forall_r (seq "In(x) |- forall x . In(x)") {_id("In(x)")})',
     (), "forall_r", "eigenvariable 'x' is free in the context"),
    (f'(rule forall_l (seq "forall x . In(x) |- In(a)") {A})',
     (), "forall_l", "forall_l requires an explicit witness term"),
    (f'(rule forall_l (seq "forall x . In(x) |- In(a)") (witness y) {A})',
     (), "forall_l", "witness y is not ground"),
    (f'(rule forall_l (seq "forall x . In(x) |- In(b)") (witness a) {A})',
     (), "forall_l", "forall_l changes the succedent"),
    (f'(rule forall_l (seq "forall x . In(ortho(x)) |- In(a)") (witness 1) {A})',
     (), "forall_l", "instance for witness 1: In cannot hold the absurd property 0"),
    (f'(rule forall_l (seq "forall x . In(x) |- In(a)") (witness b) {A})',
     (), "forall_l", "no quantifier position matches the instantiated premise"),
    (f'(rule forall_l (seq "forall x {{<= b}} . In(x) |- In(a)") (witness a) {A})',
     (), "forall_l", "guard violated: <= b fails for a"),
    (f'(rule forall_l (seq "forall x {{!<= a}} . In(x) |- In(a)") (witness a) {A})',
     (), "forall_l", "guard violated: !<= a fails for a"),
    (f'(rule forall_l (seq "forall x {{<= y}} . In(x) |- In(a)") (witness a) {A})',
     (), "forall_l", "guard violated: guard bound y is not ground"),
    (f'(rule forall_l (seq "forall x {{!in K(f)}} . In(x) |- In(a)") (witness a) {A})',
     (), "forall_l", "guard violated: unknown propagation map 'f'"),
    (f'(rule forall_l (seq "forall x {{!in K(kill)}} . In(x) |- In(a)") (witness a) {A})',
     (), "forall_l", "guard violated: !in K(kill) fails for a"),
    ('(axiom Nope (bind) (seq "In(a) |- In(a)"))',
     (), "axiom Nope", "unknown axiom schema 'Nope'"),
    ('(axiom Adjust1 (bind x=a y=a) (seq "In(a) |- In(a)"))',
     (), "axiom Adjust1", "guard violated: y !<= x violated: a <= a"),
    ('(axiom Trans (bind y=b z=q) (seq "In(a) |- In(a)"))',
     (), "axiom Trans", "unknown element 'q' in lattice 'mo2'"),
    ('(axiom OQL-Join (bind x=0 y=a) (seq "In(a) |- In(a)"))',
     (), "axiom OQL-Join", "In cannot hold the absurd property 0"),
    ('(axiom Trans (bind y=b z=a) (seq "In(a) |- In(a)"))',
     (), "axiom Trans", "conclusion does not match the instantiated schema"),
]


class TestKernelRules:
    @pytest.mark.parametrize("tree, path, rule, reason", REASONS, ids=[r[3] for r in REASONS])
    def test_every_reason(self, tree, path, rule, reason):
        lat = mo(2)
        maps = None
        if callable(tree):
            d = tree(lat)
        else:
            d = parse_derivation(tree, lat)
            maps = {"kill": dead_map(lat)} if "K(kill)" in tree else None
        failure = check_derivation(lat, d, maps).failure
        assert (failure.path, failure.rule, failure.reason) == (path, rule, reason)
        node = d
        for i in path:
            node = node.children[i]
        assert failure.conclusion == getattr(node, "conclusion", None)

    def test_id_leaf(self):
        lat = mo(2)
        d = RuleApp("id", Sequent((In("a"),), In("a")), ())
        assert check_derivation(lat, d).valid

    def test_id_rejects_mismatch(self):
        lat = mo(2)
        d = RuleApp("id", Sequent((In("a"),), In("b")), ())
        assert not check_derivation(lat, d).valid

    def test_id_rejects_regrouped_tensor(self):
        lat = boolean(3)
        left = Tensor(Tensor(In("a"), In("b")), In("c"))
        right = Tensor(In("a"), Tensor(In("b"), In("c")))
        d = RuleApp("id", Sequent((left,), right), ())
        res = check_derivation(lat, d)
        assert not res.valid

    def test_modus_ponens_shape(self):
        lat = mo(2)
        a, b = In("a"), In("b")
        ab = Lolli(a, b)
        elim = RuleApp(
            "lolli_l",
            Sequent((a, ab), b),
            (RuleApp("id", Sequent((a,), a), ()), RuleApp("id", Sequent((b,), b), ())),
        )
        assert check_derivation(lat, elim).valid

    def test_lolli_l_respects_order(self):
        lat = mo(2)
        a, b = In("a"), In("b")
        ab = Lolli(a, b)
        swapped = RuleApp(
            "lolli_l",
            Sequent((ab, a), b),
            (RuleApp("id", Sequent((a,), a), ()), RuleApp("id", Sequent((b,), b), ())),
        )
        res = check_derivation(lat, swapped)
        assert not res.valid and res.failure.rule == "lolli_l"

    def test_cut_chains_oql_join(self):
        lat = boolean(3)
        for x, y, z in itertools.product(lat.nonzero(), repeat=3):
            first = AxiomApp(
                "OQL-Join",
                (("x", x), ("y", y)),
                instantiate_axiom(lat, "OQL-Join", {"x": x, "y": y}),
            )
            middle = lat.join(x, y)
            second = AxiomApp(
                "OQL-Join",
                (("x", middle), ("y", z)),
                instantiate_axiom(lat, "OQL-Join", {"x": middle, "y": z}),
            )
            chained = RuleApp(
                "cut",
                Sequent((In(x),), In(lat.join_set([x, y, z]))),
                (first, second),
            )
            assert check_derivation(lat, chained).valid, (x, y, z)

    def test_axiom_leaf_guard_reevaluated(self):
        lat = mo(2)
        good = instantiate_axiom(lat, "Adjust1", {"x": "b", "y": "a"})
        forged = AxiomApp("Adjust1", (("x", "a"), ("y", "a")), good)
        res = check_derivation(lat, forged)
        assert not res.valid and "guard" in res.failure.reason

    def test_axiom_leaf_conclusion_must_match(self):
        lat = mo(2)
        wrong = Sequent((), Lolli(In("a"), In("b")))
        forged = AxiomApp("Trans", (("y", "b"), ("z", "a")), wrong)
        assert not check_derivation(lat, forged).valid

    def test_axiom_leaf_accepts_unfolded_form(self):
        lat = mo(2)
        seq = instantiate_axiom(lat, "Trans", {"y": "b", "z": "a"}, unfold=True)
        leaf = AxiomApp("Trans", (("y", "b"), ("z", "a")), seq)
        assert check_derivation(lat, leaf).valid

    def test_lolli_r_antecedent_comes_first(self):
        lat = mo(2)
        a, b = In("a"), In("b")
        pair = RuleApp(
            "tensor_r",
            Sequent((a, b), Tensor(a, b)),
            (RuleApp("id", Sequent((a,), a), ()), RuleApp("id", Sequent((b,), b), ())),
        )
        good = RuleApp("lolli_r", Sequent((b,), Lolli(a, Tensor(a, b))), (pair,))
        assert check_derivation(lat, good).valid
        # the discharged formula must be the front of the premise context
        bad = RuleApp("lolli_r", Sequent((a,), Lolli(b, Tensor(a, b))), (pair,))
        assert not check_derivation(lat, bad).valid

    def test_tensor_l_inside_context(self):
        lat = mo(2)
        x, a, b = In("a'"), In("a"), In("b")
        inner = RuleApp(
            "tensor_r",
            Sequent((a, b), Tensor(a, b)),
            (RuleApp("id", Sequent((a,), a), ()), RuleApp("id", Sequent((b,), b), ())),
        )
        wide = RuleApp(
            "tensor_r",
            Sequent((x, a, b), Tensor(x, Tensor(a, b))),
            (RuleApp("id", Sequent((x,), x), ()), inner),
        )
        fused = RuleApp(
            "tensor_l",
            Sequent((x, Tensor(a, b)), Tensor(x, Tensor(a, b))),
            (wide,),
        )
        assert check_derivation(lat, fused).valid

    def test_arity_mismatch(self):
        lat = mo(2)
        d = RuleApp("cut", Sequent((In("a"),), In("a")), ())
        res = check_derivation(lat, d)
        assert not res.valid and "premises" in res.failure.reason

    def test_failure_path_points_at_node(self):
        lat = mo(2)
        bad_leaf = RuleApp("id", Sequent((In("a"),), In("b")), ())
        ok_leaf = RuleApp("id", Sequent((In("b"),), In("b")), ())
        d = RuleApp(
            "cut", Sequent((In("a"),), In("b")), (bad_leaf, ok_leaf)
        )
        res = check_derivation(lat, d)
        assert res.failure.path == (0,)


class TestQuantifierRules:
    def test_forall_r_vacuous(self):
        lat = mo(2)
        body = Actual(Var("x"))
        leaf = RuleApp("id", Sequent((body,), body), ())
        d = RuleApp("forall_r", Sequent((body,), Forall("y", (), body)), (leaf,))
        assert check_derivation(lat, d).valid

    def test_forall_r_capture_rejected(self):
        lat = mo(2)
        body = Actual(Var("x"))
        leaf = RuleApp("id", Sequent((body,), body), ())
        d = RuleApp("forall_r", Sequent((body,), Forall("x", (), body)), (leaf,))
        res = check_derivation(lat, d)
        assert not res.valid and "eigenvariable" in res.failure.reason

    def test_forall_l_with_witness(self):
        lat = mo(2)
        quantified = Forall("x", (), Actual(Var("x")))
        leaf = RuleApp("id", Sequent((In("a"),), In("a")), ())
        d = RuleApp(
            "forall_l",
            Sequent((quantified,), In("a")),
            (leaf,),
            witness=Const("a"),
        )
        assert check_derivation(lat, d).valid

    def test_forall_l_skips_other_context_formulas(self, tmp_path, capsys):
        # the quantifier is the second context formula: the first is passed
        # over, and the instance takes the quantifier's place
        lat = mo(2)
        quantified = Forall("x", (), Actual(Var("x")))
        a, b = In("a"), In("b")
        leaf = RuleApp(
            "tensor_r",
            Sequent((b, a), Tensor(b, a)),
            (RuleApp("id", Sequent((b,), b), ()), RuleApp("id", Sequent((a,), a), ())),
        )
        d = RuleApp("forall_l", Sequent((b, quantified), Tensor(b, a)), (leaf,), witness=Const("a"))
        assert check_derivation(lat, d).valid
        (tmp_path / "mo2.lat").write_text(serialize(lat))
        (tmp_path / "w.drv").write_text(serialize(d))
        assert run(["check", str(tmp_path / "w.drv"), "--lattice", str(tmp_path / "mo2.lat")]) == 0
        assert "PASS derivation-valid" in capsys.readouterr().out

    def test_forall_l_instance_out_of_place(self):
        # the premise is valid, but its In(a) stands before In(b), where no
        # quantifier of the conclusion stands
        lat = mo(2)
        quantified = Forall("x", (), Actual(Var("x")))
        a, b = In("a"), In("b")
        leaf = RuleApp(
            "tensor_r",
            Sequent((a, b), Tensor(a, b)),
            (RuleApp("id", Sequent((a,), a), ()), RuleApp("id", Sequent((b,), b), ())),
        )
        assert check_derivation(lat, leaf).valid
        d = RuleApp("forall_l", Sequent((b, quantified), Tensor(a, b)), (leaf,), witness=Const("a"))
        res = check_derivation(lat, d)
        assert res.failure.path == ()
        assert res.failure.reason == "no quantifier position matches the instantiated premise"

    def test_forall_r_over_ground_context(self):
        # a ground context has no free variable to capture
        lat = mo(2)
        leaf = RuleApp("id", Sequent((In("a"),), In("a")), ())
        d = RuleApp("forall_r", Sequent((In("a"),), Forall("x", (), In("a"))), (leaf,))
        assert check_derivation(lat, d).valid

    def test_forall_l_nested_guard(self):
        # the instance's inner guard bound ortho(a) must normalize to a'
        lat = mo(2)
        outer = parse_formula("forall x . forall y {<= ortho(x)} . In(y)", lat)
        inner = parse_formula("forall y {<= a'} . In(y)", lat)
        leaf = RuleApp("id", Sequent((inner,), inner), ())
        d = RuleApp("forall_l", Sequent((outer,), inner), (leaf,), witness=Const("a"))
        assert check_derivation(lat, d).valid

    def test_forall_l_absurd_instance_rejected(self):
        lat = mo(2)
        quantified = Forall("x", (), Actual(OrthoTerm(Var("x"))))
        leaf = RuleApp("id", Sequent((In("a"),), In("a")), ())
        d = RuleApp("forall_l", Sequent((quantified,), In("a")), (leaf,), witness=Const("1"))
        res = check_derivation(lat, d)
        assert not res.valid
        assert res.failure.reason == "instance for witness 1: In cannot hold the absurd property 0"

    def test_forall_l_missing_witness(self):
        lat = mo(2)
        quantified = Forall("x", (), Actual(Var("x")))
        leaf = RuleApp("id", Sequent((In("a"),), In("a")), ())
        d = RuleApp("forall_l", Sequent((quantified,), In("a")), (leaf,))
        res = check_derivation(lat, d)
        assert not res.valid and "witness" in res.failure.reason

    def test_forall_l_guard_enforced(self):
        lat = mo(2)
        guard = (Constraint("!<=", Const("b")),)
        quantified = Forall("x", guard, Actual(Var("x")))
        leaf = RuleApp("id", Sequent((In("b"),), In("b")), ())
        d = RuleApp(
            "forall_l",
            Sequent((quantified,), In("b")),
            (leaf,),
            witness=Const("b"),
        )
        res = check_derivation(lat, d)
        assert not res.valid and "guard" in res.failure.reason

    def test_forall_l_kill_set_guard(self):
        lat = mo(2)
        maps = {"f": dead_map(lat)}
        quantified = Forall("x", (Constraint("!inK", "f"),), Actual(Var("x")))

        def node(el):
            leaf = RuleApp("id", Sequent((In(el),), In(el)), ())
            return RuleApp(
                "forall_l", Sequent((quantified,), In(el)), (leaf,), witness=Const(el)
            )

        assert check_derivation(lat, node("b"), maps).valid
        res = check_derivation(lat, node("a"), maps)
        assert not res.valid and "K(f)" in res.failure.reason

    def test_forall_l_kill_guard_refuses_a_map_of_another_lattice(self):
        # read by element name, this map over boolean(2) would kill a and spare b
        lat = mo(2)
        maps = {"kill": PowersetMap(boolean(2), {"a": set(), "b": {"b"}, "1": {"1"}})}
        reason = "map 'kill' is over a different lattice"
        for w in ("a", "b"):
            text = (f'(rule forall_l (seq "forall x {{!in K(kill)}} . In(x) |- In({w})")'
                    f' (witness {w}) {_id(f"In({w})")})')
            failure = check_derivation(lat, parse_derivation(text, lat), maps).failure
            assert (failure.path, failure.reason) == ((), f"guard violated: {reason}")
        # the GeneralPropagation schema refuses the map with the same text
        with pytest.raises(GuardViolation, match=f"^{reason}$"):
            instantiate_axiom(lat, "GeneralPropagation", {"alpha": "kill", "x": "b"}, maps)
        # a map over an equal lattice is read as over this one
        text = f'(rule forall_l (seq "forall x {{!in K(kill)}} . In(x) |- In(b)") (witness b) {B})'
        assert check_derivation(lat, parse_derivation(text, lat), {"kill": dead_map(mo(2))}).valid


def plus_r1_chain(depth: int, corrupt_at: int | None = None) -> RuleApp:
    """A library-built chain of ``depth`` plus_r1 steps over an id leaf; the
    step ``corrupt_at`` levels below the root selects the wrong disjunct."""
    f = In("a")
    d = RuleApp("id", Sequent((f,), f), ())
    for level in range(depth - 1, -1, -1):
        f = Plus(f, R("a"))
        concl = Plus(R("b"), R("a")) if level == corrupt_at else f
        d = RuleApp("plus_r1", Sequent((In("a"),), concl), (d,))
    return d


class TestDepth:
    """The kernel walks with an explicit stack, so library-built trees far
    deeper than the recursion limit get a verdict."""

    def test_deep_chain_valid(self):
        assert check_derivation(mo(2), plus_r1_chain(1200)).valid

    def test_failure_path_at_depth(self):
        d = plus_r1_chain(1200, corrupt_at=1000)
        failure = check_derivation(mo(2), d).failure
        assert failure.path == (0,) * 1000
        assert failure.rule == "plus_r1"
        assert failure.reason == "selected disjunct differs from the premise succedent"
        node = d
        for i in failure.path:
            node = node.children[i]
        assert failure.conclusion is node.conclusion

    @pytest.mark.parametrize("terms", [400, 5000])
    def test_deep_formulas_that_differ(self, terms):
        # left-nested '+' chains that differ only in their innermost atom:
        # the rules compare the store's parts by identity, never by walking them
        lat = mo(2)
        make = lat._store.make

        def chain(first):
            f = actual(lat, first)
            for _ in range(terms - 1):
                f = make(Plus, f, actual(lat, "b"))
            return f

        a, a2 = chain("a"), chain("a'")
        failure = check_derivation(lat, RuleApp("id", Sequent((a,), a2), ())).failure
        assert (failure.rule, failure.reason) == (
            "id", "id requires a single context formula equal to the succedent"
        )
        assert check_derivation(lat, RuleApp("id", Sequent((a2,), a2), ())).valid


def long_sum(lat, term, terms: int = 10_000):
    """A store-built left-nested '+' chain of ``terms`` atoms over ``term``,
    In and R by turns."""
    make = lat._store.make
    f = make(Actual, term)
    for i in range(terms - 1):
        f = make(Plus, f, make(Reachable if i % 2 else Actual, term))
    return f


class TestFoldDepth:
    """The fold keeps an explicit stack, so the normalizer, substitution,
    free variables and the quantifier rules reach far past the recursion
    limit."""

    def test_normal_form_is_itself(self):
        lat = mo(2)
        f = long_sum(lat, lat._store.make(OrthoTerm, lat._store.make(Var, "x")))
        assert normalize_formula(f, lat) is f
        assert free_vars(f) == {"x"}
        assert substitute(f, "x", Const("a"), lat) is long_sum(lat, lat._store.make(Const, "a'"))

    def test_forall_l_valid(self):
        lat = mo(2)
        make = lat._store.make
        body, instance = long_sum(lat, make(Var, "x")), long_sum(lat, make(Const, "a"))
        quantified = make(Forall, "x", make(tuple), body)
        leaf = RuleApp("id", make(Sequent, make(tuple, instance), instance), ())
        d = RuleApp("forall_l", make(Sequent, make(tuple, quantified), instance), (leaf,),
                    make(Const, "a"))
        assert check_derivation(lat, d).valid

    def test_forall_r_eigenvariable(self):
        lat = mo(2)
        make = lat._store.make
        body = long_sum(lat, make(Var, "x"))
        leaf = RuleApp("id", make(Sequent, make(tuple, body), body), ())
        goal = make(Forall, "x", make(tuple), body)
        d = RuleApp("forall_r", make(Sequent, make(tuple, body), goal), (leaf,))
        assert check_derivation(lat, d).failure.reason == "eigenvariable 'x' is free in the context"

    def test_sequent_round_trip(self):
        lat = mo(2)
        f = long_sum(lat, lat._store.make(Const, "a"))
        s = lat._store.make(Sequent, lat._store.make(tuple, f), f)
        assert parse_sequent(serialize(s), lat) is s


def memo_corpus(short_chains) -> list[tuple[str, str]]:
    """(lattice, derivation text) for every measurement and composed
    derivation on mo(2) and boolean(3), then 500 seeded mutants on mo(2)."""
    out = []
    for family in ("mo2", "boolean3"):
        lat, chains = short_chains(family)
        out += [(lat.name, serialize(d)) for d in chains[1] + chains[2]]
    lat = mo(2)
    pairs = list(itertools.product(lat.nonzero(), repeat=2))
    for i in range(500):
        rng = random.Random(90_000 + i)
        kind = MUTATION_KINDS[i % len(MUTATION_KINDS)]
        if kind == "capture":
            mutant = capture_case(lat, rng)[1]
        else:
            mutant = mutate(derive_measurement(lat, *pairs[i % len(pairs)]), kind, rng, lat)
        out.append((lat.name, serialize(mutant)))
    return out


def store_parts(d) -> list:
    """The distinct records and tuples in ``d``, each once."""
    seen, todo = {}, [d]
    while todo:
        part = todo.pop()
        if id(part) in seen or not isinstance(part, (tuple, Record)):
            continue
        seen[id(part)] = part
        todo.extend(part if isinstance(part, tuple) else [getattr(part, f) for f in part.__slots__])
    return list(seen.values())


def verdicts(lat, text):
    d = parse_derivation(text, lat)
    return check_derivation(lat, d), semantic_crosscheck(lat, d)


class TestVerdictMemo:
    """Valid verdicts are remembered per lattice by node identity; the memo
    must never change a verdict."""

    def test_warm_lattice_equals_fresh(self, short_chains):
        build = {lat().name: lat for lat in (lambda: mo(2), lambda: boolean(3))}
        warm = {name: make() for name, make in build.items()}
        corpus = memo_corpus(short_chains)
        assert len(corpus) == 1042
        rejected = 0
        for name, text in corpus:
            got = verdicts(warm[name], text)
            assert got == verdicts(build[name](), text), text
            rejected += not got[0].valid
        assert rejected == 500

    def test_registry_verdicts_not_remembered(self):
        lat = mo(2)
        maps = {"blur": perfect_measurement_map(lat, "b")}
        seq = instantiate_axiom(lat, "GeneralPropagation", {"alpha": "blur", "x": "a"}, maps)
        leaf = AxiomApp("GeneralPropagation", (("alpha", "blur"), ("x", "a")), seq)
        text = serialize(_modus_ponens(lat._store.make, leaf))
        reason = "guard violated: unknown propagation map 'blur'"
        for with_registry_first in (True, False):
            lat = mo(2)
            maps = {"blur": perfect_measurement_map(lat, "b")}
            d = parse_derivation(text, lat)
            runs = [(maps, True), ({}, False)]
            for registry, valid in runs if with_registry_first else runs[::-1]:
                result = check_derivation(lat, d, registry)
                assert result.valid == valid
                if not valid:
                    assert result.failure.reason == reason
                    assert result.failure.path == (0,)

    @staticmethod
    def rule_checks(monkeypatch) -> list:
        """The rule nodes the kernel checks from now on, one entry per check."""
        from omlogic import kernel

        calls = []
        real = kernel._check_rule
        monkeypatch.setattr(kernel, "_check_rule", lambda *a: calls.append(a[1]) or real(*a))
        return calls

    def test_shared_subproof_checked_once(self, monkeypatch):
        calls = self.rule_checks(monkeypatch)
        lat = mo(2)
        d = derive_chain(lat, "a", ["b", "a", "b"])
        assert check_derivation(lat, d).valid
        # counts first: a failing assert would print each list of nodes
        rules = sum(isinstance(part, RuleApp) for part in store_parts(d))
        checked, distinct = len(calls), len(set(map(id, calls)))
        assert checked == distinct == rules == 112
        # the verdicts last as long as the lattice: checking the built tree
        # again, or the tree parsed back from it, computes none
        assert check_derivation(lat, d).valid
        parsed = parse_derivation(serialize(d), lat)
        assert parsed is d and check_derivation(lat, parsed).valid
        checked = len(calls)
        assert checked == rules

    def test_crosscheck_after_check_is_a_lookup(self, monkeypatch):
        calls = self.rule_checks(monkeypatch)
        lat = mo(2)
        d = derive_chain(lat, "a", ["b", "a", "b"])
        assert check_derivation(lat, d).valid
        calls.clear()
        assert semantic_crosscheck(lat, d).ok
        assert calls == []

    def test_built_trees_leave_the_lattice_memo_alone(self):
        # 1,000 equal built or foreign trees add at most one tree's distinct
        # nodes to the store
        lat = mo(2)
        store = lat._store
        d = derive_measurement(lat, "a", "b")
        assert check_derivation(lat, d).valid
        size = (len(store.nodes), len(store.verdicts))
        assert 0 < size[1] < size[0] <= len(store_parts(d))
        foreign = pickle.dumps(derive_measurement(mo(2), "a", "b"))
        for i in range(1000):
            tree = derive_measurement(lat, "a", "b") if i % 2 else pickle.loads(foreign)
            assert tree == d and (tree is d) == bool(i % 2)
            assert check_derivation(lat, tree).valid
        assert (len(store.nodes), len(store.verdicts)) == size
        # a new node over a stored subtree adds only itself and its new parts
        wrapped = RuleApp("plus_r1", Sequent(d.conclusion.context, Plus(
            d.conclusion.succedent, actual(lat, "a"))), (d,))
        assert check_derivation(lat, wrapped).valid
        assert (len(store.nodes), len(store.verdicts)) == (size[0] + 4, size[1] + 1)
