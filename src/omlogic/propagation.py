"""Propagation of actuality sets under measurements.

Two kinds of maps live here.  A :class:`PowersetMap` acts on sets of nonzero
properties and is stored by its singleton action, which makes union
preservation structural: the only membership condition with content is that
equal-join argument sets must have equal-join images, checked by
:func:`is_transition_map`.  A :class:`JoinMap` is a self-map of the lattice;
:func:`sup_morphism` sends each transition map to the join map describing how
definite actual properties propagate.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from omlogic.lattice import FiniteOrthoLattice, LawCheck, VerificationReport

__all__ = [
    "LatticeMismatchError",
    "TransitionMapError",
    "PowersetMap",
    "JoinMap",
    "MapCheck",
    "CounterexampleWitness",
    "perfect_measurement_map",
    "identity_map",
    "sasaki_map",
    "sup_morphism",
    "is_transition_map",
    "transition_oracle",
    "kill_set",
    "quantale_compose",
    "quantale_union",
    "lift_join_map",
    "sasaki_preorder",
    "find_order_counterexample",
    "measurement_map_identities",
    "quantale_report",
    "random_union_preserving_map",
    "random_join_map",
    "random_transition_map",
]


class LatticeMismatchError(Exception):
    """An element or map belongs to a different lattice."""


class TransitionMapError(Exception):
    """Equal-join argument sets with unequal-join images."""

    def __init__(self, witness_a: frozenset[str], witness_b: frozenset[str]):
        self.witness_a = witness_a
        self.witness_b = witness_b
        super().__init__(
            f"equal-join sets {sorted(witness_a)} and {sorted(witness_b)} "
            "have unequal-join images"
        )


@dataclass(frozen=True)
class MapCheck:
    """Membership verdict with an (A, B) witness when it fails."""

    ok: bool
    witness: tuple[frozenset[str], frozenset[str]] | None = None


class PowersetMap:
    """Union-preserving self-map of the nonzero-property powerset, stored by
    its singleton action.  Images never contain 0; empty images are allowed
    for general maps (the kill set) but never occur for measurement maps.

    ``kind`` is one of ``measurement``, ``lifted``, ``general``; equality
    compares the lattice and the action table only.
    """

    def __init__(
        self,
        lattice: FiniteOrthoLattice,
        action: Mapping[str, Iterable[str]],
        kind: str = "general",
        label: str | None = None,
        measured: str | None = None,
    ):
        if kind not in ("measurement", "lifted", "general"):
            raise ValueError(f"unknown map kind {kind!r}")
        self.lattice = lattice
        domain = lattice.nonzero()
        table: dict[str, frozenset[str]] = {}
        for b in domain:
            if b not in action:
                raise ValueError(f"singleton action missing element {b!r}")
            img = frozenset(action[b])
            for c in img:
                lattice.index(c)
                if c == "0":
                    raise ValueError("images must not contain 0")
            table[b] = img
        extra = set(action) - set(domain)
        if extra:
            raise ValueError(f"action defined on non-domain names {sorted(extra)}")
        self._table = table
        self.kind = kind
        self.label = label
        self.measured = measured

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowersetMap):
            return NotImplemented
        return self.lattice == other.lattice and self._table == other._table

    def __repr__(self) -> str:
        tag = self.label or self.kind
        return f"PowersetMap({tag!r} over {self.lattice.name!r})"

    def singleton(self, b: str) -> frozenset[str]:
        self.lattice.index(b)
        if b == "0":
            raise ValueError("0 is outside the map domain")
        return self._table[b]

    def apply(self, actuality: Iterable[str]) -> frozenset[str]:
        """Image of a set: the union of singleton images."""
        out: set[str] = set()
        for b in actuality:
            if b not in self.lattice:
                raise LatticeMismatchError(
                    f"{b!r} is not an element of {self.lattice.name!r}"
                )
            out |= self.singleton(b)
        return frozenset(out)

    def items(self) -> list[tuple[str, frozenset[str]]]:
        return [(b, self._table[b]) for b in self.lattice.nonzero()]


class JoinMap:
    """A self-map of the lattice, total on all elements including 0."""

    def __init__(self, lattice: FiniteOrthoLattice, table: Mapping[str, str]):
        self.lattice = lattice
        values: dict[str, str] = {}
        for e in lattice.elements:
            if e not in table:
                raise ValueError(f"join map missing element {e!r}")
            lattice.index(table[e])
            values[e] = table[e]
        self._table = values

    def __eq__(self, other) -> bool:
        if not isinstance(other, JoinMap):
            return NotImplemented
        return self.lattice == other.lattice and self._table == other._table

    def __repr__(self) -> str:
        return f"JoinMap(over {self.lattice.name!r})"

    def __call__(self, a: str) -> str:
        self.lattice.index(a)
        return self._table[a]

    def join_preserving_violation(self) -> tuple[str, str] | None:
        """First pair (x, y) with f(x v y) != f(x) v f(y), or the pair
        ('0', '0') when f(0) != 0; None when the map preserves joins."""
        lat = self.lattice
        if self._table["0"] != "0":
            return ("0", "0")
        for x, y in itertools.product(lat.elements, repeat=2):
            if self(lat.join(x, y)) != lat.join(self(x), self(y)):
                return (x, y)
        return None

    @property
    def is_join_preserving(self) -> bool:
        return self.join_preserving_violation() is None


def _same_lattice(*maps: PowersetMap) -> FiniteOrthoLattice:
    lat = maps[0].lattice
    for m in maps[1:]:
        if m.lattice != lat:
            raise LatticeMismatchError(
                f"maps over {lat.name!r} and {m.lattice.name!r} cannot be combined"
            )
    return lat


def perfect_measurement_map(lat: FiniteOrthoLattice, a: str) -> PowersetMap:
    """The two-outcome propagation map of measuring {a, a'}: each nonzero b is
    sent to its Sasaki projections onto a and onto a', keeping only nonzero
    branches (b not under the opposite outcome).
    """
    ao = lat.ortho(a)
    action = {}
    for b in lat.nonzero():
        img = set()
        if not lat.leq(b, ao):
            img.add(lat.sasaki(a, b))
        if not lat.leq(b, a):
            img.add(lat.sasaki(ao, b))
        action[b] = img
    return PowersetMap(lat, action, kind="measurement", measured=a)


def identity_map(lat: FiniteOrthoLattice) -> PowersetMap:
    return PowersetMap(lat, {b: {b} for b in lat.nonzero()}, kind="lifted")


def sasaki_map(lat: FiniteOrthoLattice, a: str) -> JoinMap:
    """The Sasaki projection onto a as a join map."""
    return JoinMap(lat, {b: lat.sasaki(a, b) for b in lat.elements})


def is_transition_map(f: PowersetMap) -> MapCheck:
    """Fast membership check: the induced map b -> join of the singleton image
    (with 0 -> 0) must preserve joins.  Returns an (A, B) equal-join witness
    pair on failure.  Authoritative; :func:`transition_oracle` re-derives the
    same verdict by subset enumeration.
    """
    lat = f.lattice
    sup = {b: lat.join_set(f.singleton(b)) for b in lat.nonzero()}
    sup["0"] = "0"
    for x, y in itertools.product(lat.nonzero(), repeat=2):
        j = lat.join(x, y)
        if sup[j] != lat.join(sup[x], sup[y]):
            return MapCheck(False, (frozenset({x, y}), frozenset({j})))
    return MapCheck(True)


def transition_oracle(f: PowersetMap) -> MapCheck:
    """Enumerate every subset of the nonzero elements, bucket by join, and
    compare image joins within each bucket.  Exponential; intended for
    lattices with at most ~12 elements.
    """
    lat = f.lattice
    domain = lat.nonzero()
    m = len(domain)
    idx = {e: i for i, e in enumerate(domain)}
    # subset joins and image joins by dynamic programming over bitmasks
    set_join = ["0"] * (1 << m)
    img_join = ["0"] * (1 << m)
    img_sup = [lat.join_set(f.singleton(b)) for b in domain]
    for mask in range(1, 1 << m):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        set_join[mask] = lat.join(set_join[rest], domain[low])
        img_join[mask] = lat.join(img_join[rest], img_sup[low])
    buckets: dict[str, int] = {}
    for mask in range(1 << m):
        j = set_join[mask]
        if j in buckets:
            other = buckets[j]
            if img_join[mask] != img_join[other]:
                to_set = lambda mk: frozenset(
                    domain[i] for i in range(m) if mk >> i & 1
                )
                return MapCheck(False, (to_set(other), to_set(mask)))
        else:
            buckets[j] = mask
    return MapCheck(True)


def kill_set(f: PowersetMap) -> frozenset[str]:
    """Elements whose singleton image is empty."""
    return frozenset(b for b, img in f.items() if not img)


def sup_morphism(f: PowersetMap) -> JoinMap:
    """Send a transition map to the join map of definite actual properties:
    a -> join of f({a}), with 0 -> 0 and the empty join equal to 0.

    Raises :class:`TransitionMapError` with an equal-join witness pair when f
    fails the membership condition.
    """
    check = is_transition_map(f)
    if not check.ok:
        raise TransitionMapError(*check.witness)
    lat = f.lattice
    table = {b: lat.join_set(f.singleton(b)) for b in lat.nonzero()}
    table["0"] = "0"
    return JoinMap(lat, table)


def quantale_compose(f: PowersetMap, g: PowersetMap) -> PowersetMap:
    """(f o g): apply g first, then f, unioning over intermediate branches."""
    lat = _same_lattice(f, g)
    action = {b: f.apply(g.singleton(b)) for b in lat.nonzero()}
    return PowersetMap(lat, action)


def quantale_union(fs: Sequence[PowersetMap]) -> PowersetMap:
    """Pointwise union of singleton actions (at least one map)."""
    if not fs:
        raise ValueError("union of no maps")
    lat = _same_lattice(*fs)
    action = {
        b: frozenset().union(*(f.singleton(b) for f in fs)) for b in lat.nonzero()
    }
    return PowersetMap(lat, action)


def lift_join_map(f: JoinMap) -> PowersetMap:
    """View a join map as a powerset map: b -> {f(b)} with 0 images dropped."""
    action = {b: {f(b)} - {"0"} for b in f.lattice.nonzero()}
    return PowersetMap(f.lattice, action, kind="lifted")


def compose_join(f: JoinMap, g: JoinMap) -> JoinMap:
    lat = f.lattice
    if g.lattice != lat:
        raise LatticeMismatchError("join maps over different lattices")
    return JoinMap(lat, {a: f(g(a)) for a in lat.elements})


def pointwise_join(maps: Sequence[JoinMap]) -> JoinMap:
    lat = maps[0].lattice
    return JoinMap(
        lat, {a: lat.join_set([m(a) for m in maps]) for a in lat.elements}
    )


def sasaki_preorder(lat: FiniteOrthoLattice, a: str, a2: str) -> bool:
    """Projection preorder: composing the projection onto a after the
    projection onto a2 reproduces the projection onto a."""
    pa, pa2 = sasaki_map(lat, a), sasaki_map(lat, a2)
    return compose_join(pa, pa2) == pa


@dataclass(frozen=True)
class CounterexampleWitness:
    """A pair ordered under the projection preorder whose projections are not
    pointwise ordered: at ``argument`` the two images are incomparable."""

    element: str
    other: str
    argument: str
    images: tuple[str, str]

    def recheck(self, lat: FiniteOrthoLattice) -> bool:
        joined = lat.join(self.element, self.other)
        img_small = lat.sasaki(self.element, self.argument)
        img_big = lat.sasaki(joined, self.argument)
        return (
            sasaki_preorder(lat, self.element, joined)
            and (img_small, img_big) == self.images
            and not lat.leq(img_small, img_big)
        )


def find_order_counterexample(
    lat: FiniteOrthoLattice,
) -> CounterexampleWitness | None:
    """Search for a pair (a, a2) with a ^ a2 = 0 and a2 not under a' whose
    projections witness that the preorder embedding does not preserve the
    pointwise order.  Requires a verified orthomodular lattice; returns None
    when no pair qualifies (e.g. on Boolean lattices).
    """
    lat.ensure_verified()
    for a in lat.elements:
        if a in ("0", "1"):
            continue
        ao = lat.ortho(a)
        for a2 in lat.elements:
            if lat.meet(a, a2) != "0" or lat.leq(a2, ao):
                continue
            joined = lat.join(a, a2)
            if not sasaki_preorder(lat, a, joined):
                continue
            for x in lat.elements:
                small, big = lat.sasaki(a, x), lat.sasaki(joined, x)
                if not lat.leq(small, big):
                    return CounterexampleWitness(a, a2, x, (small, big))
    return None


def measurement_map_identities(lat: FiniteOrthoLattice) -> VerificationReport:
    """Exhaustive identities of measurement maps: (i) measuring a and
    measuring a' give the same map; (ii) two elements give the same map only
    when they form an orthocomplementary pair."""
    lat.ensure_verified()
    maps = {a: perfect_measurement_map(lat, a) for a in lat.elements}
    checks = []
    w = None
    for a in lat.elements:
        if maps[a] != maps[lat.ortho(a)]:
            w = (a,)
            break
    checks.append(LawCheck("ortho-pair-symmetry", w is None, w))
    w = None
    for a, b in itertools.product(lat.elements, repeat=2):
        same = maps[a] == maps[b]
        if same != (b in (a, lat.ortho(a))):
            w = (a, b)
            break
    checks.append(LawCheck("pair-separation", w is None, w))
    return VerificationReport(tuple(checks))


ORACLE_LIMIT = 12  # subset enumeration beyond this is pointless at a desk


def _sup_or_none(f: PowersetMap) -> JoinMap | None:
    """sup_morphism(f), or None when f is not a transition map."""
    try:
        return sup_morphism(f)
    except TransitionMapError:
        return None


def quantale_report(
    lat: FiniteOrthoLattice,
    rng: random.Random,
    random_maps: int = 200,
    pairs: int = 100,
    join_maps: int = 100,
) -> VerificationReport:
    """The quantale laws of the transition maps on an orthomodular lattice:
    measurement maps are members (checked against the subset oracle, with
    ``random_maps`` random maps, up to ``ORACLE_LIMIT`` elements);
    :func:`sup_morphism` respects composition and union of measurement maps
    and of ``pairs`` random members, and lifting is its section on
    ``join_maps`` random join maps; measurement branches are sound and fix
    compatible elements.  A map's membership is decided once, by the
    :func:`sup_morphism` call that needs it, so a composite or union outside
    the quantale is a witness.  A seed for ``rng`` fixes the report.
    """
    lat.ensure_verified()
    measurements = {a: perfect_measurement_map(lat, a) for a in lat.elements}
    sups = {a: _sup_or_none(f) for a, f in measurements.items()}

    def membership():
        return next(((a,) for a in lat.elements if sups[a] is None), None)

    def membership_oracle():
        for a in lat.elements:
            if not transition_oracle(measurements[a]).ok or sups[a] is None:
                return (a,)
        return None

    def random_map_agreement():
        first = None  # draw every sample, so later laws see the same rng state
        for i in range(random_maps):
            f = random_union_preserving_map(lat, rng)
            if is_transition_map(f).ok != transition_oracle(f).ok:
                first = first or (str(i),)
        return first

    def union2(f, g):
        return quantale_union([f, g])

    def join2(p, q):
        return pointwise_join([p, q])

    def on_measurements(combine, expected):
        for a, b in itertools.product(lat.elements, repeat=2):
            sa, sb = sups[a], sups[b]
            if sa is None or sb is None:
                return (a, b)
            if _sup_or_none(combine(measurements[a], measurements[b])) != expected(sa, sb):
                return (a, b)
        return None

    def random_pairs():
        for i in range(pairs):
            f = random_transition_map(lat, rng)
            g = random_transition_map(lat, rng)
            sf, sg = _sup_or_none(f), _sup_or_none(g)
            if sf is None or sg is None:
                return (f"member sample {i}",)
            for name, combine, expected in (
                ("compose", quantale_compose, compose_join),
                ("union", union2, join2),
            ):
                got = _sup_or_none(combine(f, g))
                if got is None:
                    return (f"{name} closure sample {i}",)
                if got != expected(sf, sg):
                    return (f"{name} sample {i}",)
        return None

    def lift_section():
        for i in range(join_maps):
            f = random_join_map(lat, rng)
            if _sup_or_none(lift_join_map(f)) != f:
                return (f"sample {i}",)
        return None

    def branch_soundness():
        for a in lat.nonzero():
            ao = lat.ortho(a)
            for b in lat.nonzero():
                for c in measurements[a].singleton(b):
                    if not (lat.leq(c, a) or lat.leq(c, ao)):
                        return (a, b, c)
        return None

    def compatibility_preservation():
        for a in lat.nonzero():
            for b in lat.nonzero():
                if not lat.compatible(a, b):
                    continue
                img = measurements[a].singleton(b)
                if not all(lat.leq(c, b) for c in img) or lat.join_set(img) != b:
                    return (a, b)
        return None

    laws = [("measurement-membership", membership)]
    if len(lat) <= ORACLE_LIMIT:
        laws += [
            ("measurement-membership-oracle", membership_oracle),
            ("random-map-agreement", random_map_agreement),
        ]
    laws += [
        ("morphism-compose-measurements", lambda: on_measurements(quantale_compose, compose_join)),
        ("morphism-union-measurements", lambda: on_measurements(union2, join2)),
        ("morphism-random-pairs", random_pairs),
        ("surjectivity-lift-section", lift_section),
        ("branch-soundness", branch_soundness),
        ("compatibility-preservation", compatibility_preservation),
    ]
    checks = []
    for name, law in laws:  # in report order, which is also the order of rng draws
        w = law()
        checks.append(LawCheck(name, w is None, w))
    return VerificationReport(tuple(checks))


# -- seeded generators ---------------------------------------------------------


def random_union_preserving_map(
    lat: FiniteOrthoLattice, rng: random.Random
) -> PowersetMap:
    """Random singleton action; union-preserving by representation but with no
    further constraint, so membership in the transition maps is incidental."""
    domain = lat.nonzero()
    action = {
        b: {e for e in domain if rng.random() < 0.35} for b in domain
    }
    return PowersetMap(lat, action)


def random_join_map(lat: FiniteOrthoLattice, rng: random.Random) -> JoinMap:
    """Random join-preserving self-map, assembled from Sasaki projections,
    the identity, and constant-on-nonzero maps, closed under composition and
    pointwise join."""

    def basic() -> JoinMap:
        roll = rng.random()
        if roll < 0.5:
            return sasaki_map(lat, rng.choice(lat.elements))
        if roll < 0.7:
            return JoinMap(lat, {a: a for a in lat.elements})
        c = rng.choice(lat.elements)
        return JoinMap(
            lat, {a: ("0" if a == "0" else c) for a in lat.elements}
        )

    def chain() -> JoinMap:
        f = basic()
        for _ in range(rng.randint(0, 2)):
            f = compose_join(rng.choice([f, basic()]), f)
        return f

    parts = [chain() for _ in range(rng.randint(1, 3))]
    f = pointwise_join(parts)
    assert f.is_join_preserving
    return f


def random_transition_map(
    lat: FiniteOrthoLattice, rng: random.Random
) -> PowersetMap:
    """Random member of the transition maps: a finite union of lifted join
    maps, which always satisfies the equal-join condition."""
    lifts = [
        lift_join_map(random_join_map(lat, rng)) for _ in range(rng.randint(1, 3))
    ]
    return quantale_union(lifts)
