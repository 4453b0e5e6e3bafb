import hashlib
import itertools
import random

import pytest

import omlogic.derive as derive_module
from omlogic.derive import (
    NoAlgebraicReading,
    _plus_leaves,
    derive_chain,
    derive_composed,
    derive_distributivity,
    derive_measurement,
    semantic_crosscheck,
)
from omlogic.formats import parse_derivation, serialize
from omlogic.kernel import RuleApp, check_derivation
from omlogic.lattice import boolean, mo
from omlogic.mutate import MUTATION_KINDS, capture_case, mutate
from omlogic.propagation import perfect_measurement_map, quantale_compose
from omlogic.syntax import (
    Actual,
    Const,
    Plus,
    Reachable,
    Sequent,
    Tensor,
    ascii_sequent,
)
from reference import chain, reference_extend


def In(x):
    return Actual(Const(x))


def R(x):
    return Reachable(Const(x))


def chain_image(lat, a, measures):
    """The actuality set of {a} under the quantale composite of the
    measurement maps, last measurement outermost."""
    composite = perfect_measurement_map(lat, measures[0])
    for m in measures[1:]:
        composite = quantale_compose(perfect_measurement_map(lat, m), composite)
    return composite.apply({a})


def repeats_disjunct(d) -> bool:
    """Whether some branch occurs twice in the disjunction ``d`` concludes."""
    leaves = _plus_leaves(d.conclusion.succedent)
    return len(set(map(id, leaves))) < len(leaves)


class TestDistributivity:
    def test_measurement_step_instance(self):
        lat = mo(2)
        d = derive_distributivity(In("a"), R("b"), R("b'"))
        assert d.conclusion == Sequent(
            (Tensor(In("a"), Plus(R("b"), R("b'"))),),
            Plus(Tensor(In("a"), R("b")), Tensor(In("a"), R("b'"))),
        )
        assert check_derivation(lat, d).valid

    def test_uniform_instantiation(self):
        lat = mo(2)
        A = In("a")
        d = derive_distributivity(A, A, A)
        assert d.conclusion.succedent == Plus(Tensor(A, A), Tensor(A, A))
        assert check_derivation(lat, d).valid

    def test_only_structural_rules_used(self):
        d = derive_distributivity(In("a"), R("b"), R("b'"))
        rules = set()

        def collect(node):
            rules.add(node.rule)
            for c in node.children:
                collect(c)

        collect(d)
        assert rules <= {"id", "tensor_r", "tensor_l", "plus_r1", "plus_r2", "plus_l"}


class TestDeriveMeasurement:
    def test_mo2_two_branch_conclusion(self):
        lat = mo(2)
        d = derive_measurement(lat, "a", "b")
        assert (
            ascii_sequent(d.conclusion)
            == "M(b) * (In(a) * R(a)) |- In(b) * R(b) + In(b') * R(b')"
        )
        assert check_derivation(lat, d).valid

    def test_adjusted_route_when_under_outcome(self):
        lat = mo(2)
        d = derive_measurement(lat, "a", "a")
        assert ascii_sequent(d.conclusion) == "M(a) * (In(a) * R(a)) |- In(a) * R(a)"
        assert check_derivation(lat, d).valid

    def test_boolean_atom_self_measurement(self):
        lat = boolean(2)
        d = derive_measurement(lat, "a", "a")
        assert d.conclusion.succedent == Tensor(In("a"), R("a"))
        assert check_derivation(lat, d).valid

    def test_under_opposite_outcome(self):
        lat = mo(2)
        d = derive_measurement(lat, "a'", "a")
        assert d.conclusion.succedent == Tensor(In("a'"), R("a'"))
        assert check_derivation(lat, d).valid

    def test_degenerate_measurement_of_top(self):
        lat = mo(2)
        d = derive_measurement(lat, "b", "1")
        assert d.conclusion.succedent == Tensor(In("b"), R("b"))
        assert check_derivation(lat, d).valid

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            derive_measurement(mo(2), "0", "b")

    @pytest.mark.parametrize("lat", [mo(2), boolean(3)], ids=lambda l: l.name)
    def test_every_admissible_pair_checks(self, lat):
        for a, b in itertools.product(lat.nonzero(), repeat=2):
            d = derive_measurement(lat, a, b)
            assert check_derivation(lat, d).valid, (a, b)


class TestDeriveComposed:
    def test_composition_collapses(self):
        lat = mo(2)
        d = derive_composed(lat, "a", "b", "a")
        assert check_derivation(lat, d).valid
        result = semantic_crosscheck(lat, d)
        assert result.ok
        assert result.found == {"a", "a'"}
        assert result.found == chain_image(lat, "a", ["b", "a"])

    def test_repeated_measurement_fixes_branches(self):
        lat = mo(2)
        d = derive_composed(lat, "a", "b", "b")
        result = semantic_crosscheck(lat, d)
        assert result.ok and result.found == {"b", "b'"}

    def test_nested_context_shape(self):
        lat = mo(2)
        d = derive_composed(lat, "a", "b", "a")
        assert (
            ascii_sequent(d.conclusion).split(" |- ")[0]
            == "M(a) * (M(b) * (In(a) * R(a)))"
        )

    @pytest.mark.parametrize("lat", [mo(2), boolean(3)], ids=lambda l: l.name)
    def test_every_admissible_triple_checks(self, lat):
        for a, b, c in itertools.product(lat.nonzero(), repeat=3):
            d = derive_composed(lat, a, b, c)
            assert check_derivation(lat, d).valid, (a, b, c)
            assert semantic_crosscheck(lat, d).ok, (a, b, c)


class TestDeriveChain:
    """Chains of measurements, each an extension of the last."""

    def check_chain(self, lat, a, measures):
        d = derive_chain(lat, a, measures)
        assert check_derivation(lat, d).valid, (a, measures)
        assert parse_derivation(serialize(d), lat) == d
        result = semantic_crosscheck(lat, d)
        assert result.ok and result.shape == "composed", (a, measures)
        assert result.found == chain_image(lat, a, measures)
        return d

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_alternating_incompatible_measurements(self, k):
        lat = mo(4)
        measures = ["a", "b"] * 3
        d = self.check_chain(lat, "c", measures[:k])
        # every measurement splits every branch in two, and the two sums that
        # result are one: In(a) * R(a) + In(a') * R(a') or the same over b
        assert len(_plus_leaves(d.conclusion.succedent)) == 2

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_boolean(self, k):
        lat = boolean(3)
        rng = random.Random(k)
        for _ in range(10):
            a = rng.choice(lat.nonzero())
            self.check_chain(lat, a, [rng.choice(lat.nonzero()) for _ in range(k)])

    def test_branches_share_subproofs(self, monkeypatch):
        calls = []
        real = derive_module._measurement

        def counted(lat, u, then):
            calls.append((u, then))
            return real(lat, u, then)

        monkeypatch.setattr(derive_module, "_measurement", counted)
        d = derive_chain(mo(4), "c", ["a", "b"] * 4)
        # one call per distinct (element, measurement) of each stage: 1 + 7 * 2
        assert len(calls) <= 15
        text = serialize(d)
        # the digest of the same chain with each stage built bottom-up, one
        # subproof per distinct subtree of the stage before, sibling sums
        # that reach the same next stage merged, and the chain so far cut
        # into each stage proof
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "8777828e4797a60c9aac428ddc545bf94dea408ec8ce1fa921ecdde6bed99796"
        )

    def test_chain_levels(self):
        # each stage adds two levels outside its body: a cut of the chain so
        # far into the stage proof, and a tensor_l
        lat = mo(4)
        levels = {k: derivation_levels(derive_chain(lat, "c", (["a", "b"] * 10)[:k]))
                  for k in range(2, 21)}
        assert levels == {k: 2 * k + 7 for k in range(2, 21)}

    @pytest.mark.parametrize("family", ["mo2", "boolean3"])
    def test_short_chains_repeat_no_disjunct(self, short_chains, family):
        _, chains = short_chains(family)
        repeated = sum(repeats_disjunct(d) for built in chains.values() for d in built)
        assert repeated == 0

    @pytest.mark.parametrize("lat", [mo(2), boolean(3), mo(4)], ids=lambda l: l.name)
    def test_seeded_chains_repeat_no_disjunct(self, lat):
        # 400 chains of one to eight measurements; each is valid and reaches
        # the algebra's branch set, each branch once
        rng = random.Random(20261021)
        nz = lat.nonzero()
        faults = []
        for _ in range(400):
            a, *ms = (rng.choice(nz) for _ in range(rng.randint(2, 9)))
            d = derive_chain(lat, a, ms)
            result = semantic_crosscheck(lat, d)
            if repeats_disjunct(d) or not (result.ok and result.found == chain_image(lat, a, ms)):
                faults.append(f"{a} {ms}")
        assert faults == []

    @pytest.mark.parametrize("k", [20, 30, 150])
    def test_long_chain_round_trips(self, k):
        # alternating a and b on mo(4): the context nests one level per
        # measurement, and the reader has no depth cap
        measures = (["a", "b"] * 75)[:k]
        lat = mo(4)
        d = derive_chain(lat, "c", measures)
        text = serialize(d)
        fresh = mo(4)
        parsed = parse_derivation(text, fresh)
        result = semantic_crosscheck(fresh, parsed)
        rewritten = serialize(parsed) == text
        assert rewritten and result.ok and result.found == chain_image(fresh, "c", measures)
        assert parse_derivation(text, lat) is d

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError, match="at least one measurement"):
            derive_chain(mo(2), "a", [])

    def test_zero_in_later_measurement_rejected(self):
        with pytest.raises(ValueError, match="measured property must be nonzero"):
            derive_chain(mo(2), "a", ["b", "a", "0"])


def plus_nodes(f) -> list:
    """Every sum in the plus tree ``f``, with an explicit stack."""
    sums, todo = [], [f]
    while todo:
        f = todo.pop()
        if isinstance(f, Plus):
            sums.append(f)
            todo += (f.right, f.left)
    return sums


def derivation_levels(d) -> int:
    """The number of nodes on the longest path from the root to a leaf."""
    deepest, todo = 0, [(d, 1)]
    while todo:
        node, level = todo.pop()
        deepest = max(deepest, level)
        todo.extend((child, level + 1) for child in getattr(node, "children", ()))
    return deepest


def distinct_nodes(d) -> int:
    seen, todo = set(), [d]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(getattr(node, "children", ()))
    return len(seen)


class TestChainEqualsReference:
    """``derive_chain`` builds each stage bottom-up and agrees with the
    top-down builder it replaced (``reference.reference_extend``): the same
    context and the same branch set, though no sum in its conclusion has two
    equal sides, a valid tree whose branches are the algebra's, the same
    text for one measurement, and never more distinct nodes."""

    @staticmethod
    def faults(lat, a, measures, d) -> list[str]:
        """What ``d`` gets wrong, by name.  Nothing here asserts: a failure
        report shows its frame's arguments, and a chain's repr writes out
        every path through the tree."""
        ref = chain(lat, a, measures, reference_extend)
        result = semantic_crosscheck(lat, d)
        succedent = d.conclusion.succedent
        checks = {
            "context": d.conclusion.context is ref.conclusion.context,
            "leaves": set(_plus_leaves(succedent)) == set(_plus_leaves(ref.conclusion.succedent)),
            "no equal sides": not any(isinstance(f, Plus) and f.left is f.right
                                      for f in plus_nodes(succedent)),
            "valid": check_derivation(lat, d).valid,
            "crosscheck": result.ok and result.found == chain_image(lat, a, measures),
            "text": len(measures) > 1 or serialize(d) == serialize(ref),
            "nodes": distinct_nodes(d) <= distinct_nodes(ref),
        }
        return [f"{a} {measures}: {name}" for name, ok in checks.items() if not ok]

    @pytest.mark.parametrize("family", ["mo2", "boolean3"])
    def test_every_short_chain(self, short_chains, family):
        lat, chains = short_chains(family)
        nz = lat.nonzero()
        faults = [
            fault
            for k, built in chains.items()
            for (a, *ms), d in zip(itertools.product(nz, repeat=k + 1), built)
            for fault in self.faults(lat, a, ms, d)
        ]
        assert faults == []

    @pytest.mark.parametrize("lat", [mo(4), boolean(3)], ids=lambda l: l.name)
    def test_seeded_longer_chains(self, lat):
        rng = random.Random(20261020)
        nz = lat.nonzero()
        faults = []
        for k in range(4, 9):
            for _ in range(10):
                a, *ms = (rng.choice(nz) for _ in range(k + 1))
                faults += self.faults(lat, a, ms, derive_chain(lat, a, ms))
        assert faults == []

    def test_alternating_chain_counts(self, monkeypatch):
        # counts only: the 2,724 distinct nodes and 41.7 MB of the reference
        # are not built
        lat = mo(4)
        d = derive_chain(lat, "c", ["a", "b"] * 5)
        nodes = distinct_nodes(d)
        assert nodes == 163
        size = len(serialize(d))
        assert size == 76_287
        # one measurement proof per distinct (measurement, branch) of the
        # chain: the first, then (b, a), (b, a'), (a, b) and (a, b'); from the
        # fourth measurement on each stage is the store's proof of the stage
        # two before it
        calls = []
        real = derive_module.derive_measurement
        monkeypatch.setattr(derive_module, "derive_measurement",
                            lambda *args: calls.append(args) or real(*args))
        lat = mo(4)
        valid = check_derivation(lat, derive_chain(lat, "c", ["a", "b"] * 7)).valid
        assert len(calls) == 5 and valid


class TestStageMemo:
    """``derive._extend`` keeps each stage proof in the store, under the
    measured element as given and the id of the subtree it proves; what a
    warm store builds is what a fresh one builds."""

    def test_second_chain_is_the_first(self):
        lat = mo(4)
        d = derive_chain(lat, "c", ["a", "b"] * 3)
        store = lat._store
        nodes, stages = len(store.nodes), len(store.stages)
        assert derive_chain(lat, "c", ["a", "b"] * 3) is d
        assert (len(store.nodes), len(store.stages)) == (nodes, stages)

    def test_complement_measurement_keyed_apart(self):
        # M(b) is M(b'), but measuring b and b' order the branches apart
        lat = mo(4)
        first = serialize(derive_chain(lat, "c", ["a", "b"]))
        warm = serialize(derive_chain(lat, "c", ["a", "b'"]))
        assert warm == serialize(derive_chain(mo(4), "c", ["a", "b'"])) != first

    @pytest.mark.parametrize("family", ["mo2", "boolean3"])
    def test_warm_store_equals_fresh(self, family):
        make = {"mo2": lambda: mo(2), "boolean3": lambda: boolean(3)}[family]
        lat = make()
        nz = lat.nonzero()
        chains = [c for k in (1, 2, 3) for c in itertools.product(nz, repeat=k + 1)]
        random.Random(20261021).shuffle(chains)
        differ = [
            (a, ms) for a, *ms in chains
            if serialize(derive_chain(lat, a, ms)) != serialize(derive_chain(make(), a, ms))
        ]
        assert differ == []


class TestSemanticCrosscheck:
    def test_measurement_agreement(self):
        lat = mo(2)
        d = derive_measurement(lat, "a", "b")
        result = semantic_crosscheck(lat, d)
        assert result.ok and result.shape == "measurement"
        assert result.expected == perfect_measurement_map(lat, "b").apply({"a"})

    def test_adjusted_route_agreement(self):
        lat = boolean(3)
        d = derive_measurement(lat, "a", "ab")
        result = semantic_crosscheck(lat, d)
        assert result.ok and result.found == {"a"}

    def test_exhaustive_measurement_agreement(self):
        for lat in (mo(2), mo(3), boolean(3)):
            for a, b in itertools.product(lat.nonzero(), repeat=2):
                result = semantic_crosscheck(lat, derive_measurement(lat, a, b))
                assert result.ok, (lat.name, a, b, result)

    def test_general_propagation_shape(self):
        from omlogic.kernel import AxiomApp
        from omlogic.axioms import instantiate_axiom

        lat = mo(2)
        maps = {"blur": perfect_measurement_map(lat, "b")}
        seq = instantiate_axiom(lat, "GeneralPropagation", {"alpha": "blur", "x": "a"}, maps)
        leaf = AxiomApp("GeneralPropagation", (("alpha", "blur"), ("x", "a")), seq)
        result = semantic_crosscheck(lat, leaf, maps)
        assert result.ok and result.shape == "general-propagation"
        assert result.found == {"b", "b'"}

    def test_general_propagation_matches_measurement_branches(self):
        lat = mo(3)
        from omlogic.kernel import AxiomApp
        from omlogic.axioms import instantiate_axiom
        from omlogic.propagation import kill_set

        for y in lat.nonzero():
            f = perfect_measurement_map(lat, y)
            maps = {"f": f}
            for x in lat.nonzero():
                if x in kill_set(f):
                    continue
                seq = instantiate_axiom(
                    lat, "GeneralPropagation", {"alpha": "f", "x": x}, maps
                )
                leaf = AxiomApp("GeneralPropagation", (("alpha", "f"), ("x", x)), seq)
                result = semantic_crosscheck(lat, leaf, maps)
                assert result.ok and result.found == f.apply({x})

    def test_unrecognized_shape_reported(self):
        lat = mo(2)
        from omlogic.kernel import RuleApp

        d = RuleApp("id", Sequent((In("a"),), In("a")), ())
        with pytest.raises(NoAlgebraicReading, match="no algebraic reading"):
            semantic_crosscheck(lat, d)

    def test_invalid_derivation_reported(self):
        lat = mo(2)
        d = derive_measurement(lat, "a", "b")
        broken = mutate(d, "weakening", random.Random(3), lat)
        result = semantic_crosscheck(lat, broken)
        assert not result.ok and "invalid" in result.reason


class TestMutations:
    @pytest.mark.parametrize("kind", [k for k in MUTATION_KINDS if k != "capture"])
    def test_each_kind_rejected(self, kind):
        lat = mo(2)
        rng = random.Random(11)
        for a, b in itertools.product(lat.nonzero(), repeat=2):
            d = derive_measurement(lat, a, b)
            assert check_derivation(lat, d).valid
            mutant = mutate(d, kind, rng, lat)
            assert mutant is not None
            assert mutant != d
            assert not check_derivation(lat, mutant).valid, (kind, a, b)

    def test_capture_pair(self):
        lat = mo(2)
        rng = random.Random(5)
        for _ in range(20):
            valid, captured = capture_case(lat, rng)
            assert check_derivation(lat, valid).valid
            res = check_derivation(lat, captured)
            assert not res.valid and "eigenvariable" in res.failure.reason

    def test_mutations_on_composed(self):
        lat = boolean(3)
        rng = random.Random(23)
        d = derive_composed(lat, "a", "b", "c")
        for kind in ("exchange", "contraction", "weakening", "guard"):
            mutant = mutate(d, kind, rng, lat)
            assert mutant is not None
            assert not check_derivation(lat, mutant).valid, kind

    def test_exchange_of_long_sums(self):
        # the two context formulas are distinct 2,000-term sums; telling them
        # apart must walk neither
        lat = mo(2)
        make = lat._store.make

        def long_sum(name):
            term = make(Const, name)
            f = make(Actual, term)
            for i in range(1999):
                f = make(Plus, f, make(Reachable if i % 2 else Actual, term))
            return f

        def id_leaf(f):
            return make(RuleApp, "id", make(Sequent, make(tuple, f), f), make(tuple), None)

        x, y = long_sum("a"), long_sum("b")
        seq = make(Sequent, make(tuple, x, y), make(Tensor, x, y))
        d = make(RuleApp, "tensor_r", seq, make(tuple, id_leaf(x), id_leaf(y)), None)
        assert check_derivation(lat, d).valid
        mutant = mutate(d, "exchange", random.Random(0), lat)
        swapped = mutant.conclusion.context[0] is y and mutant.conclusion.context[1] is x
        valid = check_derivation(lat, mutant).valid
        assert swapped and not valid

    def test_deep_chain_under_weakening(self):
        # 1,500 plus_r1 levels, far past the recursion limit: the walk and
        # the rebuild of the path to the mutated node use explicit stacks
        lat = mo(2)
        make = lat._store.make
        a, r = make(Actual, make(Const, "a")), make(Reachable, make(Const, "a"))
        ctx, f = make(tuple, a), a
        d = make(RuleApp, "id", make(Sequent, ctx, a), make(tuple), None)
        for _ in range(1500):
            f = make(Plus, f, r)
            d = make(RuleApp, "plus_r1", make(Sequent, ctx, f), make(tuple, d), None)
        valid = check_derivation(lat, d).valid
        mutant = mutate(d, "weakening", random.Random(0), lat)
        rejected = mutant is not d and not check_derivation(lat, mutant).valid
        assert valid and rejected

    def test_seeded_sweep_all_rejected(self):
        lat = mo(2)
        pairs = list(itertools.product(lat.nonzero(), repeat=2))
        rejected = 0
        total = 200
        for i in range(total):
            rng = random.Random(1000 + i)
            kind = MUTATION_KINDS[i % len(MUTATION_KINDS)]
            if kind == "capture":
                _, mutant = capture_case(lat, rng)
            else:
                a, b = pairs[i % len(pairs)]
                mutant = mutate(derive_measurement(lat, a, b), kind, rng, lat)
            if not check_derivation(lat, mutant).valid:
                rejected += 1
        assert rejected == total
