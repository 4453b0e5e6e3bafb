import functools
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
import omlogic
from omlogic import propagation
from omlogic.lattice import (
    FiniteOrthoLattice,
    IncompleteLatticeError,
    NotOrthomodularError,
    boolean,
    hexagon,
    mo,
)
from omlogic.propagation import (
    CounterexampleWitness,
    JoinMap,
    LatticeMismatchError,
    PowersetMap,
    TransitionMapError,
    compose_join,
    find_order_counterexample,
    identity_map,
    is_transition_map,
    kill_set,
    lift_join_map,
    measurement_map_identities,
    perfect_measurement_map,
    pointwise_join,
    quantale_compose,
    quantale_report,
    quantale_union,
    random_join_map,
    random_transition_map,
    random_union_preserving_map,
    sasaki_map,
    sasaki_preorder,
    sup_morphism,
    transition_oracle,
)


def oml_families():
    return [boolean(n) for n in range(1, 5)] + [mo(n) for n in range(1, 5)]


def mo2_reordered():
    """mo(2) with its elements listed so that 0 is neither first nor last."""
    lat = mo(2)
    order = ["a", "b'", "0", "1", "a'", "b"]
    return FiniteOrthoLattice("mo2_reordered", order, lat.covers(), lat.ortho_pairs())


def chain4():
    """The chain 0 < a < b < 1: a is its only atom, but b and 1 are
    join-irreducible too."""
    return FiniteOrthoLattice(
        "chain4", ["0", "a", "b", "1"], [("0", "a"), ("a", "b"), ("b", "1")], [("a", "b")]
    )


def reference_oracle(f):
    """The subset oracle as plain Python: subset joins and image joins by
    dynamic programming over bitmasks, then one bucket per join value."""
    lat = f.lattice
    join, zero = lat._table("join"), lat._zero
    domain = [b for b in range(len(lat)) if b != zero]
    m = len(domain)
    img_sup = []
    for b in domain:
        s = zero
        for c in range(len(lat)):
            if f._masks[b] >> c & 1:
                s = join[s][c]
        img_sup.append(s)
    set_join = [zero] * (1 << m)
    img_join = [zero] * (1 << m)
    for mask in range(1, 1 << m):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        set_join[mask] = join[set_join[rest]][domain[low]]
        img_join[mask] = join[img_join[rest]][img_sup[low]]
    buckets = {}
    for mask in range(1 << m):
        j = set_join[mask]
        if j in buckets:
            other = buckets[j]
            if img_join[mask] != img_join[other]:
                to_set = lambda mk: frozenset(
                    lat.elements[domain[i]] for i in range(m) if mk >> i & 1
                )
                return propagation.MapCheck(False, (to_set(other), to_set(mask)))
        else:
            buckets[j] = mask
    return propagation.MapCheck(True)


def reference_join_violation(lat, f):
    """_join_violation on a list of indices, one row entry at a time."""
    join = lat._table("join")
    for j in lat._join_irreducibles():
        row, fj = join[j], join[f[j]]
        for y, jy in enumerate(row):
            if f[jy] != fj[f[y]]:
                return j, y
    return None


def reference_compose_join(f, g):
    """compose_join on lists of indices: apply g, then f."""
    return [f[v] for v in g]


def reference_pointwise_join(lat, maps):
    """pointwise_join on lists of indices, one join at a time."""
    join = lat._table("join")
    values = [lat._zero] * len(lat)
    for m in maps:
        values = [join[s][v] for s, v in zip(values, m)]
    return values


def reference_lift(f):
    """lift_join_map on a list of indices: b -> {f(b)}, 0 images dropped."""
    zero = f.lattice._zero
    return [0 if zero in (b, v) else 1 << v for b, v in enumerate(f._values)]


def reference_union(fs):
    """quantale_union on lists of masks, one image at a time."""
    masks = [0] * len(fs[0].lattice)
    for f in fs:
        masks = [m | image for m, image in zip(masks, f._masks)]
    return masks


def reference_random_union_preserving_map(
    lat: FiniteOrthoLattice, rng: random.Random
) -> PowersetMap:
    """Random singleton action; union-preserving by representation but with no
    further constraint, so membership in the transition maps is incidental."""
    domain = [b for b in range(len(lat)) if b != lat._zero]
    masks = [0] * len(lat)
    for b in domain:
        masks[b] = sum(1 << c for c in domain if rng.random() < 0.35)
    return PowersetMap(lat, _masks=masks)


def reference_random_join_map(lat: FiniteOrthoLattice, rng: random.Random) -> JoinMap:
    """Random join-preserving self-map, assembled from Sasaki projections,
    the identity, and constant-on-nonzero maps, closed under composition and
    pointwise join."""
    n, zero = len(lat), lat._zero

    def basic() -> JoinMap:
        roll = rng.random()
        if roll < 0.5:
            return sasaki_map(lat, rng.choice(lat.elements))
        if roll < 0.7:
            return JoinMap(lat, _values=bytes(range(n)))
        c = rng.choice(range(n))
        return JoinMap(lat, _values=bytes([zero if b == zero else c for b in range(n)]))

    def chain() -> JoinMap:
        f = basic()
        for _ in range(rng.randint(0, 2)):
            f = compose_join(rng.choice([f, basic()]), f)
        return f

    parts = [chain() for _ in range(rng.randint(1, 3))]
    f = pointwise_join(parts)
    bad = f.join_preserving_violation()
    if bad is not None:
        raise RuntimeError(f"random join map does not preserve the join of {bad}")
    return f


def reference_random_transition_map(
    lat: FiniteOrthoLattice, rng: random.Random
) -> PowersetMap:
    """Random member of the transition maps: a finite union of lifted join
    maps, which always satisfies the equal-join condition."""
    lifts = [
        lift_join_map(reference_random_join_map(lat, rng)) for _ in range(rng.randint(1, 3))
    ]
    return quantale_union(lifts)


def unmemoized_pairs(measurements, sups, combine, expected):
    """The measurement-pair law deciding every pair (a, b), equal maps or not."""
    els = measurements[0].lattice.elements
    for a, b in itertools.product(range(len(measurements)), repeat=2):
        sa, sb = sups[a], sups[b]
        if sa is None or sb is None:
            return (els[a], els[b])
        if propagation._sup_or_none(combine(measurements[a], measurements[b])) != expected(sa, sb):
            return (els[a], els[b])
    return None


def reference_order_counterexample(lat):
    """find_order_counterexample by element names, deciding the projection
    preorder of each candidate pair with sasaki_preorder."""
    lat.ensure_verified()
    for a in lat.elements:
        if a in ("0", "1"):
            continue
        for other in lat.elements:
            if lat.meet(a, other) != "0" or lat.leq(other, lat.ortho(a)):
                continue
            joined = lat.join(a, other)
            if not sasaki_preorder(lat, a, joined):
                continue
            for x in lat.elements:
                small, big = lat.sasaki(a, x), lat.sasaki(joined, x)
                if not lat.leq(small, big):
                    return CounterexampleWitness(a, other, x, (small, big))
    return None


def v_poset():
    """0 < a, b and a 1 above nothing: no join for (0, 1), no orthocomplement
    for a or b."""
    return FiniteOrthoLattice("V", ["0", "a", "b", "1"], [("0", "a"), ("0", "b")])


class TestMeasurementMap:
    def test_mo2_blurs_other_pair(self):
        lat = mo(2)
        f = perfect_measurement_map(lat, "a")
        assert f.singleton("b") == {"a", "a'"}
        assert f.singleton("b'") == {"a", "a'"}

    def test_measured_element_fixed(self):
        for lat in oml_families():
            for a in lat.nonzero():
                f = perfect_measurement_map(lat, a)
                assert f.singleton(a) == {a}

    def test_elements_under_outcome_fixed(self):
        for lat in oml_families():
            for a in lat.nonzero():
                f = perfect_measurement_map(lat, a)
                for x in lat.nonzero():
                    if lat.leq(x, a):
                        assert f.singleton(x) == {x}

    def test_degenerate_measurement_is_identity(self):
        for lat in (mo(2), boolean(3)):
            assert perfect_measurement_map(lat, "1") == identity_map(lat)
            assert perfect_measurement_map(lat, "0") == identity_map(lat)

    def test_no_empty_images(self):
        for lat in oml_families():
            for a in lat.elements:
                assert not kill_set(perfect_measurement_map(lat, a))

    def test_maps_over_equal_lattices_are_equal(self):
        lat = mo(2)
        f = perfect_measurement_map(lat, "a")
        assert f == perfect_measurement_map(lat, "a")
        assert f == perfect_measurement_map(mo(2), "a")
        assert f != perfect_measurement_map(mo2_reordered(), "a")
        assert f != perfect_measurement_map(mo(3), "a")
        assert sasaki_map(lat, "a") == sasaki_map(mo(2), "a")
        assert sasaki_map(lat, "a") != sasaki_map(mo(3), "a")

    def test_zero_projection_names_the_branch(self):
        # hexagon is not orthomodular: a' is not below b', yet b meet (a' join b') = 0
        with pytest.raises(ValueError) as err:
            perfect_measurement_map(hexagon(), "b")
        assert str(err.value) == (
            "measuring 'b': the branch onto 'b' projects \"a'\" to 0 although \"a'\" "
            "is not below \"b'\", so lattice 'hexagon' is not orthomodular"
        )

    def test_factorizes_through_lifted_projections(self):
        # union of the two lifted one-outcome projections = the measurement map
        for lat in (mo(2), boolean(3)):
            for a in lat.nonzero():
                lifted = [
                    lift_join_map(sasaki_map(lat, a)),
                    lift_join_map(sasaki_map(lat, lat.ortho(a))),
                ]
                assert quantale_union(lifted) == perfect_measurement_map(lat, a)


class TestApply:
    def test_mo2_pair_image(self):
        lat = mo(2)
        f = perfect_measurement_map(lat, "a")
        assert f.apply({"b", "b'"}) == {"a", "a'"}

    def test_empty_set(self):
        f = perfect_measurement_map(mo(2), "a")
        assert f.apply(set()) == frozenset()

    def test_outcomes_fixed(self):
        f = perfect_measurement_map(mo(2), "a")
        assert f.apply({"a", "a'"}) == {"a", "a'"}

    def test_foreign_element_rejected(self):
        f = perfect_measurement_map(mo(2), "a")
        with pytest.raises(LatticeMismatchError):
            f.apply({"zz"})

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_union_preservation_on_random_set_pairs(self, data):
        lat = mo(3)
        f = random_union_preserving_map(lat, random.Random(7))
        elems = st.sets(st.sampled_from(lat.nonzero()))
        A = data.draw(elems)
        B = data.draw(elems)
        assert f.apply(A | B) == f.apply(A) | f.apply(B)


class TestSupMorphism:
    def test_mo2_measurement_blurs_to_top(self):
        lat = mo(2)
        g = sup_morphism(perfect_measurement_map(lat, "a"))
        assert g("b") == "1"
        assert g("b'") == "1"

    def test_identity(self):
        for lat in (mo(2), boolean(3)):
            g = sup_morphism(identity_map(lat))
            assert all(g(x) == x for x in lat.elements)

    def test_compatible_elements_fixed(self):
        for lat in oml_families():
            for a in lat.nonzero():
                g = sup_morphism(perfect_measurement_map(lat, a))
                for x in lat.elements:
                    if lat.compatible(x, a):
                        assert g(x) == x

    def test_equals_pointwise_join_of_projections(self):
        for lat in oml_families():
            for a in lat.nonzero():
                g = sup_morphism(perfect_measurement_map(lat, a))
                h = pointwise_join(
                    [sasaki_map(lat, a), sasaki_map(lat, lat.ortho(a))]
                )
                assert g == h

    def test_rejects_non_transition_map(self):
        lat = mo(2)
        f = gen.non_transition_map(lat)
        with pytest.raises(TransitionMapError) as err:
            sup_morphism(f)
        A, B = err.value.witness_a, err.value.witness_b
        assert lat.join_set(A) == lat.join_set(B)


MEMO_LATTICES = (
    [functools.partial(mo, n) for n in range(1, 6)]
    + [functools.partial(boolean, n) for n in range(1, 5)]
    + [mo2_reordered]
)


def sampled_maps(lat, rng, count):
    """Measurement maps, then ``count`` seeded random union-preserving and
    transition maps, alternating."""
    maps = [perfect_measurement_map(lat, a) for a in lat.elements]
    for i in range(count):
        generate = random_union_preserving_map if i % 2 else random_transition_map
        maps.append(generate(lat, rng))
    return maps


class TestJoinMemo:
    def test_sups_match_a_fold_of_names(self):
        for make in MEMO_LATTICES:
            lat = make()
            for f in sampled_maps(lat, random.Random(41), 40):
                sups = f._sups()
                assert sups[lat._zero] == lat._zero
                for b in lat.nonzero():
                    assert lat.elements[sups[lat.index(b)]] == lat.join_set(f.singleton(b)), (
                        lat.name, b
                    )
            assert lat._joins

    def test_filled_memo_equals_fresh_lattice(self):
        for make in MEMO_LATTICES:
            warm = make()
            maps = sampled_maps(warm, random.Random(43), 200)
            for f in maps:
                f._sups()
            for f in maps:  # each map again, on the filled memo and on an empty one
                again = PowersetMap(warm, _masks=f._masks)._sups()
                assert again == PowersetMap(make(), _masks=f._masks)._sups(), warm.name

    def test_reports_on_one_lattice_keep_one_reports_joins(self):
        # each report empties the table before its first draw: ten reports on
        # one lattice read as on fresh lattices and leave one report's masks
        warm = boolean(5)
        for seed in range(10):
            fresh = boolean(5)
            report = quantale_report(fresh, random.Random(seed))
            assert quantale_report(warm, random.Random(seed)) == report, seed
        assert 0 < len(warm._joins) <= len(fresh._joins)


class TestTransitionMembership:
    def test_measurement_maps_always_members(self):
        for lat in oml_families():
            for a in lat.elements:
                f = perfect_measurement_map(lat, a)
                assert is_transition_map(f).ok
                assert transition_oracle(f).ok

    def test_identity_member(self):
        assert is_transition_map(identity_map(mo(3))).ok

    def test_spec_counterexample_map(self):
        lat = mo(2)
        f = PowersetMap(
            lat, {"a": {"a"}, "a'": {"a'"}, "b": {"a"}, "b'": {"a"}, "1": {"a"}}
        )
        assert not is_transition_map(f).ok
        assert not transition_oracle(f).ok
        # the documented witness re-checks: equal joins, unequal image joins
        A, B = frozenset({"a", "a'"}), frozenset({"b", "b'"})
        assert lat.join_set(A) == lat.join_set(B) == "1"
        assert lat.join_set(f.apply(A)) == "1"
        assert lat.join_set(f.apply(B)) == "a"

    def test_fast_check_agrees_with_oracle_on_random_maps(self):
        # hexagon: b is join-irreducible but not an atom
        rng = random.Random(13)
        for lat in [boolean(2), boolean(3), mo(2), mo(3), hexagon(), mo2_reordered(), chain4()]:
            for _ in range(50):
                f = random_union_preserving_map(lat, rng)
                assert is_transition_map(f).ok == transition_oracle(f).ok

    def test_failure_witness_is_an_equal_join_pair(self):
        rng = random.Random(3)
        for lat in (mo(3), hexagon(), mo2_reordered()):
            for _ in range(30):
                f = random_union_preserving_map(lat, rng)
                check = is_transition_map(f)
                if check.ok:
                    continue
                A, B = check.witness
                assert lat.join_set(A) == lat.join_set(B)
                assert lat.join_set(f.apply(A)) != lat.join_set(f.apply(B))

    def test_join_preserving_violation_matches_all_pairs(self):
        def all_pairs(f):
            lat = f.lattice
            return f("0") == "0" and all(
                f(lat.join(x, y)) == lat.join(f(x), f(y))
                for x, y in itertools.product(lat.elements, repeat=2)
            )

        rng = random.Random(5)
        for lat in (boolean(3), mo(3), hexagon(), mo2_reordered(), chain4()):
            els = lat.elements
            maps = [JoinMap(lat, {e: rng.choice(els) for e in els}) for _ in range(100)]
            maps += [JoinMap(lat, {e: e for e in els})]
            maps += [JoinMap(lat, {e: "0" if e == "0" else c for e in els}) for c in els]
            if lat.verify().ok:
                maps += [random_join_map(lat, rng) for _ in range(20)]
            verdicts = set()
            for f in maps:
                bad = f.join_preserving_violation()
                assert (bad is None) == all_pairs(f), (lat.name, [f(e) for e in els])
                if bad not in (None, ("0", "0")):
                    x, y = bad
                    assert f(lat.join(x, y)) != lat.join(f(x), f(y))
                verdicts.add(bad is None)
            assert verdicts == {True, False}

    def test_hand_made_map_not_join_preserving(self):
        # identity on hexagon except 1 -> b: f(a v b') = b but f(a) v f(b') = 1
        lat = hexagon()
        f = JoinMap(lat, {e: "b" if e == "1" else e for e in lat.elements})
        assert f.join_preserving_violation() == ("a", "b'")
        assert not f.is_join_preserving

    def test_oracle_witness_recheck(self):
        lat = mo(2)
        f = PowersetMap(
            lat, {"a": {"a"}, "a'": {"a'"}, "b": {"a"}, "b'": {"a"}, "1": {"1"}}
        )
        check = transition_oracle(f)
        assert not check.ok
        # mask 3 = {a, a'} opens the bucket of 1; mask 5 = {a, b} is the first
        # subset in it whose image join differs
        assert check.witness == (frozenset({"a", "a'"}), frozenset({"a", "b"}))
        A, B = check.witness
        assert lat.join_set(A) == lat.join_set(B)
        assert lat.join_set(f.apply(A)) != lat.join_set(f.apply(B))

    def test_oracle_matches_reference(self):
        rng = random.Random(11)
        lattices = [boolean(n) for n in range(1, 4)] + [mo(n) for n in range(1, 5)]
        lattices += [hexagon(), mo2_reordered(), chain4()]
        verdicts = set()
        for lat in lattices:
            maps = [random_union_preserving_map(lat, rng) for _ in range(40)]
            if lat.name != "chain4":  # no ortholattice: random_join_map raises on it
                maps += [random_transition_map(lat, rng) for _ in range(10)]
            for f in maps:
                check = transition_oracle(f)
                assert check == reference_oracle(f), (lat.name, f._masks)
                verdicts.add(check.ok)
        assert verdicts == {True, False}

    def test_byte_join_map_ops_match_reference(self):
        rng = random.Random(13)
        verdicts, witnesses = set(), set()
        # with 1 first, a failure can show first at y = index 0
        top_first = FiniteOrthoLattice(
            "mo2_top_first", ["1", "a", "a'", "0", "b", "b'"], mo(2).covers(), mo(2).ortho_pairs()
        )
        for lat in (boolean(3), mo(3), hexagon(), chain4(), mo2_reordered(), top_first):
            n, zero = len(lat), lat._zero
            # arbitrary self-maps fixing 0, most of which do not preserve joins
            maps = [
                JoinMap(lat, _values=bytes([zero if b == zero else rng.randrange(n) for b in range(n)]))
                for _ in range(60)
            ]
            joins = [sasaki_map(lat, e) for e in lat.elements]
            if lat.verify().ok:
                joins += [random_join_map(lat, rng) for _ in range(20)]
            # each moved at one nonzero element, so they fail at few pairs
            for f in joins:
                values = bytearray(f._values)
                values[rng.choice([b for b in range(n) if b != zero])] = rng.randrange(n)
                maps += [f, JoinMap(lat, _values=bytes(values))]
            for f in maps:
                bad = propagation._join_violation(lat, f._values)
                assert bad == reference_join_violation(lat, list(f._values)), (lat.name, f._values)
                verdicts.add(bad is None)
                witnesses.add(bad)
            for _ in range(40):
                f, g = rng.choice(maps), rng.choice(maps)
                assert list(compose_join(f, g)._values) == reference_compose_join(
                    list(f._values), list(g._values)
                )
                parts = rng.sample(maps, rng.randint(1, 3))
                assert list(pointwise_join(parts)._values) == reference_pointwise_join(
                    lat, [list(m._values) for m in parts]
                )
        assert verdicts == {True, False}
        assert len(witnesses) > 10

    def test_oracle_rejects_more_than_256_elements(self):
        # 0, 1 and 255 atoms: the oracle refuses before enumerating anything
        atoms = [f"x{i}" for i in range(255)]
        lat = FiniteOrthoLattice(
            "atoms255", ["0", "1"] + atoms, [("0", x) for x in atoms] + [(x, "1") for x in atoms]
        )
        with pytest.raises(ValueError, match="at most 256 elements; 'atoms255' has 257"):
            transition_oracle(identity_map(lat))


class TestIncompleteLattice:
    """On a poset that lacks a join, every check raises the lattice's own
    error rather than tripping over a missing table entry."""

    def identity(self, lat):
        return PowersetMap(lat, {e: {e} for e in lat.nonzero()})

    @pytest.mark.parametrize(
        "check", [is_transition_map, sup_morphism, transition_oracle], ids=lambda c: c.__name__
    )
    def test_membership_checks_raise(self, check):
        with pytest.raises(IncompleteLatticeError, match=r"no join for \('0', '1'\)"):
            check(self.identity(v_poset()))

    def test_join_preserving_violation_raises(self):
        lat = v_poset()
        f = JoinMap(lat, {e: e for e in lat.elements})
        with pytest.raises(IncompleteLatticeError, match=r"no join for \('0', '1'\)"):
            f.join_preserving_violation()
        with pytest.raises(IncompleteLatticeError):
            pointwise_join([f, f])

    def test_measurement_map_raises(self):
        lat = v_poset()
        with pytest.raises(IncompleteLatticeError, match="no orthocomplement for 'a'"):
            perfect_measurement_map(lat, "a")
        with pytest.raises(IncompleteLatticeError):
            perfect_measurement_map(lat, "0")


class TestQuantaleOps:
    def test_compose_on_singleton(self):
        lat = mo(2)
        fb = perfect_measurement_map(lat, "b")
        fc = perfect_measurement_map(lat, "a")
        composed = quantale_compose(fc, fb)
        assert composed.apply({"a"}) == fc.apply(fb.apply({"a"}))

    def test_identity_unit(self):
        lat = mo(2)
        f = perfect_measurement_map(lat, "a")
        assert quantale_compose(f, identity_map(lat)) == f
        assert quantale_compose(identity_map(lat), f) == f

    def test_composition_is_the_four_projection_set(self):
        # second measurement projects each surviving branch of the first
        for lat in (mo(2), mo(3), boolean(3)):
            for a, b, c in itertools.product(lat.nonzero(), repeat=3):
                composed = quantale_compose(
                    perfect_measurement_map(lat, c), perfect_measurement_map(lat, b)
                )
                bo, co = lat.ortho(b), lat.ortho(c)
                expected = set()
                for mid in (b, bo):
                    if lat.leq(a, lat.ortho(mid)):
                        continue
                    u = lat.sasaki(mid, a)
                    for out in (c, co):
                        if not lat.leq(u, lat.ortho(out)):
                            expected.add(lat.sasaki(out, u))
                assert composed.apply({a}) == expected, (lat.name, a, b, c)

    def test_union_idempotent(self):
        f = perfect_measurement_map(mo(2), "a")
        assert quantale_union([f, f]) == f

    def test_lattice_mismatch(self):
        with pytest.raises(LatticeMismatchError):
            quantale_compose(
                perfect_measurement_map(mo(2), "a"),
                perfect_measurement_map(boolean(2), "a"),
            )

    def test_morphism_laws_on_measurement_pairs(self):
        for lat in oml_families():
            maps = [perfect_measurement_map(lat, a) for a in lat.nonzero()]
            for f, g in itertools.product(maps, repeat=2):
                assert sup_morphism(quantale_compose(f, g)) == compose_join(
                    sup_morphism(f), sup_morphism(g)
                )
                assert sup_morphism(quantale_union([f, g])) == pointwise_join(
                    [sup_morphism(f), sup_morphism(g)]
                )

    def test_memoized_pair_law_finds_the_first_failing_pair(self):
        # deliberately wrong expectations: the memo must return the pair that
        # deciding every pair returns, and must still find that nothing fails
        wrong = [
            (quantale_compose, lambda p, q: compose_join(q, p)),
            (quantale_compose, lambda p, q: compose_join(p, p)),
            (quantale_compose, lambda p, q: compose_join(q, q)),
            (lambda f, g: quantale_union([f, g]), lambda p, q: p),
        ]
        found = set()
        for lat in (mo(2), mo(3), boolean(2), mo2_reordered()):
            measurements = [perfect_measurement_map(lat, a) for a in lat.elements]
            sups = [propagation._sup_or_none(f) for f in measurements]
            for combine, expected in wrong:
                got = propagation._measurement_pairs(measurements, sups, combine, expected)
                assert got == unmemoized_pairs(measurements, sups, combine, expected), lat.name
                found.add(got)
        assert {None, ("0", "a"), ("a", "0"), ("a", "b'")} <= found

    def test_morphism_laws_on_random_transition_pairs(self):
        rng = random.Random(29)
        lat = mo(3)
        for _ in range(40):
            f = random_transition_map(lat, rng)
            g = random_transition_map(lat, rng)
            assert sup_morphism(quantale_compose(f, g)) == compose_join(
                sup_morphism(f), sup_morphism(g)
            )
            assert sup_morphism(quantale_union([f, g])) == pointwise_join(
                [sup_morphism(f), sup_morphism(g)]
            )

    def test_closure_under_compose_and_union(self):
        rng = random.Random(31)
        lat = mo(2)
        for _ in range(30):
            f = random_transition_map(lat, rng)
            g = random_transition_map(lat, rng)
            assert is_transition_map(quantale_compose(f, g)).ok
            assert is_transition_map(quantale_union([f, g])).ok


class TestLift:
    def test_lift_identity(self):
        lat = mo(2)
        assert lift_join_map(JoinMap(lat, {a: a for a in lat.elements})) == identity_map(lat)

    def test_zero_images_dropped(self):
        lat = mo(2)
        lifted = lift_join_map(sasaki_map(lat, "a"))
        assert lifted.singleton("a'") == frozenset()
        assert kill_set(lifted) == {"a'"}

    def test_random_join_map_checks_its_output_under_O(self):
        # the check must survive python -O, which strips assert statements
        code = (
            "import random\n"
            "from omlogic import lattice, propagation\n"
            "propagation.JoinMap.join_preserving_violation = lambda self: ('a', 'b')\n"
            "try:\n"
            "    propagation.random_join_map(lattice.mo(2), random.Random(0))\n"
            "except RuntimeError:\n"
            "    raise SystemExit(3)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(omlogic.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True)
        assert proc.returncode == 3, proc.stderr

    def test_lift_and_union_match_list_references(self):
        rng = random.Random(23)
        for lat in (mo(2), mo(3), boolean(3), mo2_reordered(), chain4()):
            n, zero = len(lat), lat._zero
            # arbitrary self-maps fixing 0, so images of 0 and empty images occur
            joins = [
                JoinMap(lat, _values=bytes([zero if b == zero else rng.randrange(n) for b in range(n)]))
                for _ in range(20)
            ]
            joins += [sasaki_map(lat, e) for e in lat.elements]
            lifts = [lift_join_map(f) for f in joins]
            assert [f._masks for f in lifts] == [reference_lift(f) for f in joins]
            assert any(not mask for f in lifts for b, mask in enumerate(f._masks) if b != zero)
            maps = lifts + [random_union_preserving_map(lat, rng) for _ in range(10)]
            for k in (1, 2, 3):
                for _ in range(20):
                    fs = rng.sample(maps, k)
                    assert quantale_union(fs)._masks == reference_union(fs)
            f = lifts[0]
            assert quantale_union([f])._masks is not f._masks

    def test_generators_match_the_map_level_reference(self):
        lats = [mo(n) for n in range(1, 6)] + [boolean(n) for n in range(1, 5)]
        for lat in lats + [mo2_reordered()]:
            for seed in range(50):
                rng, ref = random.Random(seed), random.Random(seed)
                for _ in range(2):
                    f, g = random_join_map(lat, rng), reference_random_join_map(lat, ref)
                    assert f._values == g._values, (lat.name, seed)
                    assert rng.getstate() == ref.getstate()
                    f, g = random_transition_map(lat, rng), reference_random_transition_map(lat, ref)
                    assert f._masks == g._masks, (lat.name, seed)
                    assert rng.getstate() == ref.getstate()
                    f = random_union_preserving_map(lat, rng)
                    g = reference_random_union_preserving_map(lat, ref)
                    assert f._masks == g._masks, (lat.name, seed)
                    assert rng.getstate() == ref.getstate()

    def test_sup_after_lift_is_identity_on_join_maps(self):
        rng = random.Random(17)
        for lat in (mo(2), mo(3), boolean(3)):
            for _ in range(30):
                f = random_join_map(lat, rng)
                assert sup_morphism(lift_join_map(f)) == f


class TestSasakiPreorder:
    def test_top_is_maximum(self):
        lat = mo(2)
        for a in lat.elements:
            assert sasaki_preorder(lat, a, "1")

    def test_reflexive(self):
        lat = mo(2)
        for a in lat.elements:
            assert sasaki_preorder(lat, a, a)

    def test_matches_lattice_order_on_omls(self):
        for lat in oml_families():
            for a, b in itertools.product(lat.elements, repeat=2):
                assert sasaki_preorder(lat, a, b) == lat.leq(a, b)

    def test_mo2_preorder_without_pointwise_order(self):
        lat = mo(2)
        assert lat.join("a", "b") == "1"
        assert sasaki_preorder(lat, "a", "1")
        assert not lat.leq(lat.sasaki("a", "b"), lat.sasaki("1", "b"))


class TestOrderCounterexample:
    def test_mo2_witness(self):
        lat = mo(2)
        w = find_order_counterexample(lat)
        assert w is not None
        assert (w.element, w.other) == ("a", "b")
        assert w.argument == "b"
        assert w.images == ("a", "b")
        assert w.recheck(lat)

    def test_boolean_has_none(self):
        for n in (1, 2, 3, 4):
            assert find_order_counterexample(boolean(n)) is None

    def test_hexagon_rejected(self):
        from omlogic.lattice import NotOrthomodularError

        with pytest.raises(NotOrthomodularError):
            find_order_counterexample(hexagon())

    def test_matches_name_level_reference(self):
        rng = random.Random(17)
        lattices = [boolean(n) for n in range(1, 5)] + [mo(n) for n in range(1, 8)]
        lattices += [mo2_reordered()] + [gen.random_lattice(rng) for _ in range(40)]
        lattices += [gen.random_structure(rng, i) for i in range(300)]
        found = []
        for lat in lattices:
            if lat.verify().ok:
                w = find_order_counterexample(lat)
                assert w == reference_order_counterexample(lat), lat.name
                found.append(w is not None)
        assert len(found) > 60 and any(found) and not all(found)

    def test_all_mo_witnesses_recheck(self):
        for n in (2, 3, 4):
            lat = mo(n)
            w = find_order_counterexample(lat)
            assert w is not None and w.recheck(lat)


class TestMeasurementIdentities:
    @pytest.mark.parametrize("lat", oml_families(), ids=lambda l: l.name)
    def test_both_parts_pass(self, lat):
        assert measurement_map_identities(lat).ok

    def test_equal_maps_of_unpaired_elements_are_a_witness(self, monkeypatch):
        # measuring b gives the map of measuring a, and b' that of a'
        real = propagation.perfect_measurement_map
        monkeypatch.setattr(
            propagation, "perfect_measurement_map",
            lambda lat, x: real(lat, {"b": "a", "b'": "a'"}.get(x, x)),
        )
        assert failing_laws(measurement_map_identities(mo(2))) == {"pair-separation": ("a", "b")}

    def test_reflexive_case(self):
        lat = mo(2)
        assert perfect_measurement_map(lat, "a") == perfect_measurement_map(lat, "a")


class TestBranchInvariants:
    def test_branch_soundness(self):
        # every propagated branch lies under one of the two outcomes
        for lat in oml_families():
            for a in lat.nonzero():
                f = perfect_measurement_map(lat, a)
                ao = lat.ortho(a)
                for b in lat.nonzero():
                    for c in f.singleton(b):
                        assert lat.leq(c, a) or lat.leq(c, ao)

    def test_compatibility_preservation(self):
        # compatible actual properties stay actual: branches under b, join b
        for lat in oml_families():
            for a in lat.nonzero():
                f = perfect_measurement_map(lat, a)
                for b in lat.nonzero():
                    if not lat.compatible(a, b):
                        continue
                    img = f.singleton(b)
                    assert all(lat.leq(c, b) for c in img)
                    assert lat.join_set(img) == b


QUANTALE_LAWS = [
    "measurement-membership",
    "measurement-membership-oracle",
    "random-map-agreement",
    "morphism-compose-measurements",
    "morphism-union-measurements",
    "morphism-random-pairs",
    "surjectivity-lift-section",
    "branch-soundness",
    "compatibility-preservation",
]
ORACLE_LAWS = ("measurement-membership-oracle", "random-map-agreement")


def small_report(lat):
    return quantale_report(lat, random.Random(0), random_maps=20, pairs=10, join_maps=10)


def failing_laws(report) -> dict:
    """Each failing law of ``report`` with its witness."""
    return {c.law: c.witness for c in report.checks if not c.passed}


class TestQuantaleReport:
    def test_oracle_branch_all_pass(self):
        lat = mo(3)
        assert len(lat) <= propagation.ORACLE_LIMIT
        report = small_report(lat)
        assert [c.law for c in report.checks] == QUANTALE_LAWS
        assert report.ok

    def test_without_oracle_all_pass(self):
        lat = boolean(4)
        assert len(lat) > propagation.ORACLE_LIMIT
        report = small_report(lat)
        assert [c.law for c in report.checks] == [
            law for law in QUANTALE_LAWS if law not in ORACLE_LAWS
        ]
        assert report.ok

    def test_non_orthomodular_rejected(self):
        with pytest.raises(NotOrthomodularError):
            small_report(hexagon())

    def test_boolean6_is_practical(self):
        assert small_report(boolean(6)).ok

    def test_non_member_composite_is_a_witness(self, monkeypatch):
        lat = mo(2)
        bad = gen.non_transition_map(lat)
        monkeypatch.setattr(propagation, "quantale_compose", lambda f, g: bad)
        report = small_report(lat)
        compose = report["morphism-compose-measurements"]
        assert not compose.passed
        assert compose.witness == ("0", "0")
        pairs = report["morphism-random-pairs"]
        assert not pairs.passed
        assert pairs.witness == ("compose closure sample 0",)
        assert report["morphism-union-measurements"].passed

    def test_non_member_measurement_is_a_witness(self, monkeypatch):
        # measuring b gives a map outside the quantale: membership names b,
        # and each measurement-pair law stops at the first pair without a
        # join map
        real = propagation.perfect_measurement_map
        monkeypatch.setattr(
            propagation, "perfect_measurement_map",
            lambda lat, x: gen.non_transition_map(lat) if x == "b" else real(lat, x),
        )
        assert failing_laws(small_report(mo(2))) == {
            "measurement-membership": ("b",),
            "measurement-membership-oracle": ("b",),
            "morphism-compose-measurements": ("0", "b"),
            "morphism-union-measurements": ("0", "b"),
            "branch-soundness": ("b", "a", "a"),
            "compatibility-preservation": ("b", "b"),
        }

    # Each test below breaks one law by patching a name the report reads,
    # and every other law keeps its verdict: on mo(2) all of them pass.

    def test_disagreeing_membership_check_is_a_witness(self, monkeypatch):
        # the fast check contradicts the oracle from the fourth random map on
        calls = []

        def flipped(f):
            calls.append(f)
            ok = transition_oracle(f).ok
            return propagation.MapCheck(ok != (len(calls) > 3))

        monkeypatch.setattr(propagation, "is_transition_map", flipped)
        assert failing_laws(small_report(mo(2))) == {"random-map-agreement": ("3",)}
        assert len(calls) == 20  # every sample is drawn after the first failure

    def test_non_member_random_pair_is_a_witness(self, monkeypatch):
        lat = mo(2)
        monkeypatch.setattr(
            propagation, "random_transition_map", lambda lat, rng: gen.non_transition_map(lat)
        )
        assert failing_laws(small_report(lat)) == {"morphism-random-pairs": ("member sample 0",)}

    def test_wrong_random_composite_is_a_witness(self, monkeypatch):
        # measurement maps compose as before; random pairs compose swapped
        real = propagation.quantale_compose
        monkeypatch.setattr(
            propagation, "quantale_compose",
            lambda f, g: real(f, g) if f.measured is not None else real(g, f),
        )
        assert failing_laws(small_report(mo(2))) == {"morphism-random-pairs": ("compose sample 5",)}

    def test_wrong_lift_is_a_witness(self, monkeypatch):
        # every lift is the lift of the projection onto a: still a member
        real = propagation.lift_join_map
        monkeypatch.setattr(
            propagation, "lift_join_map", lambda f: real(sasaki_map(f.lattice, "a"))
        )
        assert failing_laws(small_report(mo(2))) == {"surjectivity-lift-section": ("sample 0",)}

    @pytest.mark.parametrize("law, image, witness", [
        # the identity keeps b, which lies under neither a nor a'
        ("branch-soundness", identity_map, ("a", "b", "b")),
        # everything goes to a: under a, but a' is compatible with a
        ("compatibility-preservation",
         lambda lat: PowersetMap(lat, {e: {"a"} for e in lat.nonzero()}), ("a", "a'")),
    ])
    def test_wrong_measurement_branches_are_a_witness(self, monkeypatch, law, image, witness):
        # measuring a gives another member of the quantale
        real = propagation.perfect_measurement_map
        monkeypatch.setattr(
            propagation, "perfect_measurement_map",
            lambda lat, a: image(lat) if a == "a" else real(lat, a),
        )
        assert failing_laws(small_report(mo(2))) == {law: witness}
