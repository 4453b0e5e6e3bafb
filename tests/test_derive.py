import hashlib
import itertools
import random

import pytest

import omlogic.derive as derive_module
from omlogic.derive import (
    NoAlgebraicReading,
    derive_chain,
    derive_composed,
    derive_distributivity,
    derive_measurement,
    semantic_crosscheck,
)
from omlogic.formats import parse_derivation, serialize
from omlogic.kernel import check_derivation
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


def count_branches(f):
    return count_branches(f.left) + count_branches(f.right) if isinstance(f, Plus) else 1


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
    """Chains of three to five measurements, each an extension of the last."""

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
        # every measurement splits every branch in two
        assert count_branches(d.conclusion.succedent) == 2**k

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
        # the digest of the same chain built with one subproof per branch
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "84963cfbe986565b34ab10b49df01366597bc7b4bc5d6f5d52a28d8e624d80e5"
        )

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError, match="at least one measurement"):
            derive_chain(mo(2), "a", [])

    def test_zero_in_later_measurement_rejected(self):
        with pytest.raises(ValueError, match="measured property must be nonzero"):
            derive_chain(mo(2), "a", ["b", "a", "0"])


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
