import itertools
import random

import pytest

import gen

from omlogic.lattice import (
    FiniteOrthoLattice,
    IncompleteLatticeError,
    LatticeError,
    UnknownElementError,
    boolean,
    build_family,
    distributivity_oracle,
    hexagon,
    mo,
)


def small_oml_families():
    return [boolean(n) for n in range(1, 5)] + [mo(n) for n in range(1, 5)]


class TestFamilies:
    def test_mo2_shape(self):
        lat = mo(2)
        assert lat.elements == ("0", "a", "a'", "b", "b'", "1")
        atoms = ["a", "a'", "b", "b'"]
        for x, y in itertools.combinations(atoms, 2):
            assert not lat.leq(x, y) and not lat.leq(y, x)

    def test_boolean3_shape(self):
        lat = boolean(3)
        assert len(lat) == 8
        for x, y in itertools.product(lat.elements, repeat=2):
            assert lat.compatible(x, y)

    def test_boolean_naming(self):
        lat = boolean(3)
        assert set(lat.elements) == {"0", "a", "b", "c", "ab", "ac", "bc", "1"}
        assert lat.ortho("a") == "bc"
        assert lat.join("a", "b") == "ab"

    def test_hexagon_breaks_orthomodularity(self):
        lat = hexagon()
        assert lat.leq("a", "b")
        assert lat.join("a", lat.meet(lat.ortho("a"), "b")) == "a"

    def test_join_irreducibles(self):
        def names(lat):
            return [lat.elements[i] for i in lat._join_irreducibles()]

        assert names(boolean(3)) == ["a", "b", "c"]
        assert names(mo(2)) == ["a", "a'", "b", "b'"]
        # b and a' each cover one element only, so they are not atoms
        assert names(hexagon()) == ["a", "b", "b'", "a'"]

    def test_size_bounds(self):
        with pytest.raises(ValueError):
            boolean(7)
        with pytest.raises(ValueError):
            mo(9)
        with pytest.raises(ValueError):
            boolean(0)

    def test_custom_names(self):
        lat = mo(2, names=["x", "y"])
        assert "x'" in lat.elements and "y'" in lat.elements

    def test_build_family_dispatch(self):
        assert build_family("mo", 2) == mo(2)
        assert build_family("hexagon") == hexagon()
        with pytest.raises(ValueError):
            build_family("chain", 3)


class TestConstruction:
    def test_duplicate_names_rejected(self):
        with pytest.raises(LatticeError):
            FiniteOrthoLattice("bad", ["0", "a", "a", "1"])

    def test_bounds_required(self):
        with pytest.raises(LatticeError):
            FiniteOrthoLattice("bad", ["a", "b"])

    def test_conflicting_ortho_rejected(self):
        with pytest.raises(LatticeError):
            FiniteOrthoLattice(
                "bad", ["0", "a", "b", "c", "1"], [], [("a", "b"), ("a", "c")]
            )

    def test_equality(self):
        lat = mo(2)
        assert lat == lat
        assert lat == mo(2) and mo(2) == lat
        renamed = FiniteOrthoLattice("other", lat.elements, lat.covers(), lat.ortho_pairs())
        assert renamed != lat
        for other in (mo(3), boolean(2), hexagon(), build_family("mo", 2, ["a", "c"])):
            assert lat != other and other != lat

    def test_unknown_element(self):
        lat = mo(2)
        with pytest.raises(UnknownElementError):
            lat.leq("a", "zz")
        with pytest.raises(UnknownElementError):
            lat.index("q")


class TestVerify:
    @pytest.mark.parametrize("lat", small_oml_families(), ids=lambda l: l.name)
    def test_families_pass_all_laws(self, lat):
        report = lat.verify()
        assert report.ok, report.failed()

    def test_hexagon_fails_exactly_orthomodularity(self):
        report = hexagon().verify()
        failed = report.failed()
        assert [c.law for c in failed] == ["orthomodularity"]
        assert failed[0].witness == ("a", "b")

    def test_missing_ortho_is_structural(self):
        lat = FiniteOrthoLattice(
            "partial", ["0", "a", "b", "1"], [("0", "a"), ("a", "1"), ("0", "b"), ("b", "1")]
        )
        report = lat.verify()
        assert not report["structure"].passed
        assert report["structure"].witness == ("a",)

    def test_incomparable_pair_breaks_completeness(self):
        # two maximal elements below nothing: no join
        lat = FiniteOrthoLattice(
            "nolub",
            ["0", "a", "b", "c", "d", "1"],
            [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
             ("c", "1"), ("d", "1")],
            [("a", "c"), ("b", "d")],
        )
        assert not lat.verify()["completeness"].passed
        assert lat.verify()["completeness"].witness == ("a", "b")

    def test_cycle_breaks_antisymmetry(self):
        lat = FiniteOrthoLattice(
            "cyc", ["0", "a", "b", "1"],
            [("0", "a"), ("a", "b"), ("b", "a"), ("b", "1")],
            [("a", "b")],
        )
        assert not lat.verify()["antisymmetry"].passed
        assert lat.verify()["antisymmetry"].witness == ("a", "b")

    def test_element_off_the_bounds(self):
        # b lies under 1 but not over 0, so 0 and b have no meet, and a <= 1
        # but not 1' = 0 <= a' = b
        lat = FiniteOrthoLattice(
            "unbounded", ["0", "a", "b", "1"], [("0", "a"), ("a", "1"), ("b", "1")], [("a", "b")]
        )
        assert failures(lat) == [
            ("bounds", ("b",)),
            ("completeness", ("0", "b")),
            ("ortho-antitone", ("a", "1")),
        ]

    def test_self_orthocomplement_breaks_antitone(self):
        # on the chain 0 < a < b < 1 with a' = a and b' = b, a <= b but not b' <= a'
        lat = FiniteOrthoLattice(
            "selfortho", ["0", "a", "b", "1"], [("0", "a"), ("a", "b"), ("b", "1")],
            [("a", "a"), ("b", "b")],
        )
        assert failures(lat) == [
            ("ortho-antitone", ("a", "b")),
            ("complement-meet", ("a",)),
            ("complement-join", ("a",)),
            ("orthomodularity", ("a", "b")),
        ]

    def test_complements_off_0_and_1(self):
        # atoms a and b under c under 1: a ^ a' = 0 but a v a' = c, and c ^ c' = c;
        # a <= 1 but a v (a' ^ 1) = c
        lat = FiniteOrthoLattice(
            "nocomp", ["0", "a", "b", "c", "1"],
            [("0", "a"), ("0", "b"), ("a", "c"), ("b", "c"), ("c", "1")],
            [("a", "b"), ("c", "c")],
        )
        assert failures(lat) == [
            ("ortho-antitone", ("a", "c")),
            ("complement-meet", ("c",)),
            ("complement-join", ("a",)),
            ("orthomodularity", ("a", "1")),
        ]

    def test_random_structures_match_the_laws_as_stated(self):
        rng = random.Random(12)
        failing = set()
        for i in range(2000):
            lat = gen.random_structure(rng, i)
            report = lat.verify()
            stated = [(law, w is None, w) for law, w in stated_laws(lat)]
            assert [(c.law, c.passed, c.witness) for c in report.checks] == stated, lat.name
            failing.update(c.law for c in report.failed())
        assert failing == set(LAWS) - {"reflexivity", "transitivity", "ortho-involution"}


def failures(lat):
    return [(c.law, c.witness) for c in lat.verify().failed()]


LAWS = (
    "structure", "reflexivity", "antisymmetry", "transitivity", "bounds", "completeness",
    "ortho-involution", "ortho-antitone", "complement-meet", "complement-join",
    "orthomodularity",
)


def stated_laws(lat):
    """Each law of ``lat.verify()`` with its first witness, restated on
    element names, with the order's and the tables' entries read directly."""
    els = lat.elements
    index = lat.index
    le = {(x, y) for x, y in itertools.product(els, repeat=2) if lat.leq(x, y)}
    above = {x: {y for y in els if (x, y) in le} for x in els}

    def o(x):
        k = lat._ortho[index(x)]
        return None if k is None else els[k]

    def meet(x, y):
        k = lat._meet[index(x)][index(y)]
        return None if k is None else els[k]

    def join(x, y):
        k = lat._join[index(x)][index(y)]
        return None if k is None else els[k]

    def first(witnesses):
        return next(iter(witnesses), None)

    pairs = list(itertools.product(els, repeat=2))
    paired = [x for x in els if o(x) is not None]
    witnesses = {
        "structure": first((x,) for x in els if o(x) is None),
        "reflexivity": first((x,) for x in els if (x, x) not in le),
        "antisymmetry": first(
            (x, y) for x, y in pairs if x != y and (x, y) in le and (y, x) in le
        ),
        "transitivity": first(
            (x,) for x in els if any(not above[y] <= above[x] for y in above[x])
        ),
        "bounds": first((x,) for x in els if ("0", x) not in le or (x, "1") not in le),
        "completeness": first(
            (x, y)
            for i, x in enumerate(els)
            for y in els[i:]
            if meet(x, y) is None or join(x, y) is None
        ),
        "ortho-involution": first((x,) for x in paired if o(o(x)) != x),
        "ortho-antitone": first(
            (x, y)
            for x in paired
            for y in paired
            if (x, y) in le and (o(y), o(x)) not in le
        ),
        "complement-meet": first(
            (x,) for x in paired if meet(x, o(x)) is not None and meet(x, o(x)) != "0"
        ),
        "complement-join": first(
            (x,) for x in paired if join(x, o(x)) is not None and join(x, o(x)) != "1"
        ),
        "orthomodularity": first(
            (x, y)
            for x in paired
            for y in els
            if (x, y) in le
            and meet(o(x), y) is not None
            and join(x, meet(o(x), y)) not in (None, y)
        ),
    }
    return [(law, witnesses[law]) for law in LAWS]


def reference_bound(rel: list[int], i: int, j: int) -> int | None:
    """The greatest common lower bound of i and j when ``rel`` is ``_down``,
    the least common upper bound when it is ``_up``; None when there is
    none."""
    common = rel[i] & rel[j]
    m = common
    while m:
        k = (m & -m).bit_length() - 1
        if common & ~rel[k] == 0:
            return k
        m &= m - 1
    return None


class TestBoundTables:
    """The meet and join tables, one mask lookup per entry, against the
    per-pair search over common bounds."""

    @staticmethod
    def assert_tables_match(lat):
        n = len(lat)
        for table, rel in ((lat._meet, lat._down), (lat._join, lat._up)):
            expected = [[reference_bound(rel, i, j) for j in range(n)] for i in range(n)]
            assert table == expected, lat.name

    @pytest.mark.parametrize(
        "lat",
        [boolean(n) for n in range(1, 7)] + [mo(n) for n in range(1, 9)] + [hexagon()],
        ids=lambda lat: lat.name,
    )
    def test_generated_families(self, lat):
        self.assert_tables_match(lat)

    def test_hand_made_structures(self):
        chain4 = FiniteOrthoLattice(
            "chain4", ["0", "a", "b", "1"], [("0", "a"), ("a", "b"), ("b", "1")], [("a", "b")]
        )
        # 0 < a, b and a 1 above nothing: (0, 1) has no join, (a, b) none either
        v_poset = FiniteOrthoLattice("V", ["0", "a", "b", "1"], [("0", "a"), ("0", "b")])
        top_first = FiniteOrthoLattice(
            "mo2_top_first", ["1", "a", "a'", "0", "b", "b'"], mo(2).covers(), mo(2).ortho_pairs()
        )
        # a and b below each other: both bound every pair that either bounds,
        # and the first listed answers
        cycle = FiniteOrthoLattice(
            "cyc", ["0", "b", "a", "1"], [("0", "a"), ("a", "b"), ("b", "a"), ("b", "1")]
        )
        for lat in (chain4, v_poset, top_first, cycle):
            self.assert_tables_match(lat)
        assert v_poset._join[0][3] is None and v_poset._join[1][2] is None
        assert cycle._meet[1][2] == cycle._join[1][2] == 1

    def test_random_structures(self):
        rng = random.Random(5)
        for i in range(500):
            self.assert_tables_match(gen.random_structure(rng, i))


class TestQueries:
    def test_join_of_mo2_atoms(self):
        lat = mo(2)
        assert lat.join("a", "b") == "1"
        assert lat.meet("a", "b") == "0"

    def test_complement_meet(self):
        for lat in small_oml_families():
            for x in lat.elements:
                assert lat.meet(x, lat.ortho(x)) == "0"

    def test_set_folds(self):
        lat = boolean(3)
        assert lat.join_set([]) == "0"
        assert lat.meet_set([]) == "1"
        assert lat.join_set(["a", "b", "c"]) == "1"
        assert lat.meet_set(["ab", "ac"]) == "a"

    def test_ortho_of_boolean_atom_set(self):
        lat = boolean(2)
        assert lat.ortho("a") == "b"
        assert lat.ortho("b") == "a"

    def test_incomplete_query_raises(self):
        lat = FiniteOrthoLattice(
            "nolub",
            ["0", "a", "b", "c", "d", "1"],
            [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
             ("c", "1"), ("d", "1")],
        )
        with pytest.raises(IncompleteLatticeError):
            lat.join("a", "b")

    def test_covers_of_boolean2(self):
        lat = boolean(2)
        assert set(lat.covers()) == {("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")}


class TestCompatibility:
    def test_mo2_atoms_incompatible(self):
        lat = mo(2)
        assert not lat.compatible("a", "b")

    def test_ortho_pair_always_compatible(self):
        for lat in small_oml_families():
            for x in lat.elements:
                assert lat.compatible(x, lat.ortho(x))

    def test_boolean_all_compatible(self):
        lat = boolean(3)
        for x, y in itertools.product(lat.elements, repeat=2):
            assert lat.compatible(x, y)

    def test_criterion_agrees_with_oracle(self):
        # every generated family that passes verify, up to 16 elements
        families = [boolean(n) for n in range(1, 5)] + [mo(n) for n in range(1, 8)]
        for lat in families:
            for x, y in itertools.product(lat.elements, repeat=2):
                assert lat.compatible(x, y) == distributivity_oracle(lat, x, y), (
                    lat.name,
                    x,
                    y,
                )


class TestSasaki:
    def test_mo2_projection(self):
        lat = mo(2)
        assert lat.sasaki("a", "b") == "a"

    def test_projection_onto_orthocomplement_is_zero(self):
        for lat in small_oml_families():
            for x in lat.elements:
                assert lat.sasaki(x, lat.ortho(x)) == "0"

    @pytest.mark.parametrize("lat", small_oml_families(), ids=lambda l: l.name)
    def test_pointwise_laws_exhaustive(self, lat):
        for a, b in itertools.product(lat.elements, repeat=2):
            img = lat.sasaki(a, b)
            assert lat.leq(img, a)
            assert lat.sasaki(a, img) == img  # idempotent
            assert (img == "0") == lat.leq(b, lat.ortho(a))
            assert (img == b) == lat.leq(b, a)
            if lat.leq(b, a):
                assert img == b
            if lat.compatible(a, b):
                assert img == lat.meet(a, b)
