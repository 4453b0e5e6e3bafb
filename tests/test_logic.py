import itertools
import random

import pytest

import gen
from omlogic.axioms import GuardViolation, UnknownSchemaError, instantiate_axiom
from omlogic.derive import (
    _modus_ponens,
    derive_chain,
    derive_composed,
    derive_measurement,
    semantic_crosscheck,
)
from omlogic.formats import parse_derivation, parse_formula, parse_sequent, serialize
from omlogic.kernel import AxiomApp, RuleApp, check_derivation
from omlogic.lattice import boolean, hexagon, mo
from omlogic.mutate import MUTATION_KINDS, capture_case, mutate
from omlogic.propagation import PowersetMap, perfect_measurement_map
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


class TestKernelRules:
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
        dead = PowersetMap(
            lat, {"a": set(), "a'": {"a'"}, "b": {"b"}, "b'": {"b'"}, "1": {"1"}}
        )
        maps = {"f": dead}
        quantified = Forall("x", (Constraint("!inK", "f"),), Actual(Var("x")))

        def node(el):
            leaf = RuleApp("id", Sequent((In(el),), In(el)), ())
            return RuleApp(
                "forall_l", Sequent((quantified,), In(el)), (leaf,), witness=Const(el)
            )

        assert check_derivation(lat, node("b"), maps).valid
        res = check_derivation(lat, node("a"), maps)
        assert not res.valid and "K(f)" in res.failure.reason


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


def memo_corpus() -> list[tuple[str, str]]:
    """(lattice, derivation text) for every measurement and composed
    derivation on mo(2) and boolean(3), then 500 seeded mutants on mo(2)."""
    out = []
    for lat in (mo(2), boolean(3)):
        nz = lat.nonzero()
        out += [(lat.name, serialize(derive_measurement(lat, a, b)))
                for a, b in itertools.product(nz, repeat=2)]
        out += [(lat.name, serialize(derive_composed(lat, *spec)))
                for spec in itertools.product(nz, repeat=3)]
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


def verdicts(lat, text):
    d = parse_derivation(text, lat)
    return check_derivation(lat, d), semantic_crosscheck(lat, d)


class TestVerdictMemo:
    """Valid verdicts are remembered per lattice by node identity; the memo
    must never change a verdict."""

    def test_warm_lattice_equals_fresh(self):
        build = {lat().name: lat for lat in (lambda: mo(2), lambda: boolean(3))}
        warm = {name: make() for name, make in build.items()}
        corpus = memo_corpus()
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
        text = serialize(_modus_ponens(leaf))
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

    def test_shared_subproof_checked_once(self, monkeypatch):
        from omlogic import kernel

        calls = []
        real = kernel._check_rule
        monkeypatch.setattr(kernel, "_check_rule", lambda *a: calls.append(a[1]) or real(*a))
        lat = mo(2)
        # 258 node occurrences of 198 objects, 183 of them rule nodes
        d = derive_chain(lat, "a", ["b", "a", "b"])
        assert check_derivation(lat, d).valid
        assert len(calls) == len(set(map(id, calls))) == 183
        # a built tree's verdicts last one call
        assert check_derivation(lat, d).valid
        assert len(calls) == 2 * 183
        # a parsed tree's last as long as the lattice: checking it again and
        # crosschecking it compute none
        parsed = parse_derivation(serialize(d), lat)
        calls.clear()
        assert check_derivation(lat, parsed).valid
        rules, todo = {}, [parsed]
        while todo:
            node = todo.pop()
            if isinstance(node, RuleApp) and id(node) not in rules:
                rules[id(node)] = node
                todo.extend(node.children)
        assert len(calls) == len(set(map(id, calls))) == len(rules) < 183
        assert check_derivation(lat, parsed).valid and semantic_crosscheck(lat, parsed).ok
        assert len(calls) == len(rules)

    def test_built_trees_leave_the_lattice_memo_alone(self):
        lat = mo(2)
        memo = lat._sequent_table[2]
        parsed = parse_derivation(serialize(derive_measurement(lat, "a", "b")), lat)
        assert check_derivation(lat, parsed).valid
        size = len(memo)
        assert size > 0
        for _ in range(1000):
            assert check_derivation(lat, derive_measurement(lat, "a", "b")).valid
        assert len(memo) == size
        # nor is a built node over a parsed subtree remembered on the lattice
        wrapped = RuleApp("plus_r1", Sequent(parsed.conclusion.context, Plus(
            parsed.conclusion.succedent, actual(lat, "a"))), (parsed,))
        assert check_derivation(lat, wrapped).valid
        assert len(memo) == size
