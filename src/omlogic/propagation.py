"""Propagation of actuality sets under measurements.

Two kinds of maps live here.  A :class:`PowersetMap` acts on sets of nonzero
properties and is stored by its singleton action, which makes union
preservation structural: the only membership condition with content is that
equal-join argument sets must have equal-join images, checked by
:func:`is_transition_map`.  A :class:`JoinMap` is a self-map of the lattice;
:func:`sup_morphism` sends each transition map to the join map describing how
definite actual properties propagate.

Maps are stored by element index: a powerset map holds one image bitmask per
element (bit i stands for ``lattice.elements[i]``) and a join map one element
index per element, as ``bytes``.  Everything here computes on those and on
the lattice's tables: meet, join and orthocomplement, and the byte tables of
its join rows and Sasaki projections, which hold at most 256 elements.
Element names appear only at the boundary: the public constructors,
``singleton``/``apply``/``items``/``__call__``, and witnesses.
"""

from __future__ import annotations

import itertools
import random
from functools import partial
from operator import or_
from typing import Iterable, Iterator, Mapping, Sequence

from omlogic.lattice import FiniteOrthoLattice, VerificationReport, _first, _report
from omlogic.record import Record

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


class MapCheck(Record):
    """Membership verdict with an (A, B) witness when it fails."""

    __slots__ = ("ok", "witness")

    def __init__(
        self, ok: bool, witness: tuple[frozenset[str], frozenset[str]] | None = None
    ):
        super().__init__(ok, witness)


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _names(lat: FiniteOrthoLattice, mask: int) -> frozenset[str]:
    els = lat.elements
    return frozenset([els[i] for i in _bits(mask)])


def _action_masks(
    lat: FiniteOrthoLattice, action: Mapping[str, Iterable[str]]
) -> list[int]:
    """Validate a singleton action given by names and encode it by index."""
    masks = [0] * len(lat)
    for b, e in enumerate(lat.elements):
        if b == lat._zero:
            continue
        if e not in action:
            raise ValueError(f"singleton action missing element {e!r}")
        for c in frozenset(action[e]):
            i = lat.index(c)
            if i == lat._zero:
                raise ValueError("images must not contain 0")
            masks[b] |= 1 << i
    extra = set(action) - set(lat.nonzero())
    if extra:
        raise ValueError(f"action defined on non-domain names {sorted(extra)}")
    return masks


class PowersetMap:
    """Union-preserving self-map of the nonzero-property powerset, stored by
    its singleton action: one image bitmask per element index, empty for 0.
    Images never contain 0; empty images are allowed for general maps (the
    kill set) but never occur for measurement maps.

    Equality compares the lattice and the action table only.  Callers give
    ``action`` by names; this module builds maps from already-valid masks
    with ``_masks``.
    """

    def __init__(
        self,
        lattice: FiniteOrthoLattice,
        action: Mapping[str, Iterable[str]] | None = None,
        label: str | None = None,
        measured: str | None = None,
        *,
        _masks: list[int] | None = None,
    ):
        self.lattice = lattice
        self._masks = _masks if _masks is not None else _action_masks(lattice, action)
        self._sup: list[int] | None = None
        self.label = label
        self.measured = measured

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowersetMap):
            return NotImplemented
        return self.lattice == other.lattice and self._masks == other._masks

    def __repr__(self) -> str:
        return f"PowersetMap({self.label or 'unnamed'!r} over {self.lattice.name!r})"

    def _domain_index(self, b: str) -> int:
        i = self.lattice.index(b)
        if i == self.lattice._zero:
            raise ValueError("0 is outside the map domain")
        return i

    def singleton(self, b: str) -> frozenset[str]:
        return _names(self.lattice, self._masks[self._domain_index(b)])

    def apply(self, actuality: Iterable[str]) -> frozenset[str]:
        """Image of a set: the union of singleton images."""
        mask = 0
        for b in actuality:
            if b not in self.lattice:
                raise LatticeMismatchError(
                    f"{b!r} is not an element of {self.lattice.name!r}"
                )
            mask |= self._masks[self._domain_index(b)]
        return _names(self.lattice, mask)

    def items(self) -> list[tuple[str, frozenset[str]]]:
        lat = self.lattice
        return [
            (e, _names(lat, self._masks[b]))
            for b, e in enumerate(lat.elements)
            if b != lat._zero
        ]

    def _sups(self) -> bytes:
        """Join of each singleton image by element index, 0 for an empty
        image and for 0 itself.  Computed once per map; each distinct image
        mask is joined once per lattice and kept in its ``_joins``."""
        if self._sup is None:
            lat = self.lattice
            rows, zero, joins = lat._join_rows(), lat._zero, lat._joins
            sups = []
            for mask in self._masks:
                s = joins.get(mask)
                if s is None:
                    s, rest = zero, mask
                    while rest:  # _bits, inlined: this loop runs once per distinct mask
                        low = rest & -rest
                        s = rows[s][low.bit_length() - 1]
                        rest ^= low
                    joins[mask] = s
                sups.append(s)
            self._sup = bytes(sups)
        return self._sup


def _join_violation(lat: FiniteOrthoLattice, f: bytes) -> tuple[int, int] | None:
    """First (j, y) by index, j join-irreducible, with f(j v y) != f(j) v f(y)
    for a self-map f given by index with f(0) = 0; None when there is none.
    The first n bytes of row j of the join table, translated through f, are
    y -> f(j v y), and f translated through row f(j) is y -> f(j) v f(y);
    only f is padded, to serve as a translate table.  Each distinct map is
    decided once per lattice, and its answer kept under its bytes in the
    lattice's ``_violations``: outside a report that table grows with the
    distinct maps checked, as ``_joins`` does with masks, and each
    :func:`quantale_report` empties both."""
    violations = lat._violations
    if f in violations:
        return violations[f]
    rows, n, ft = lat._join_rows(), len(f), f + lat._pad()
    bad = None
    for j in lat._join_irreducibles():
        row, fj = rows[j], rows[f[j]]
        if row[:n].translate(ft) != f.translate(fj):
            bad = j, next(y for y in range(n) if ft[row[y]] != fj[f[y]])
            break
    violations[f] = bad
    return bad


class JoinMap:
    """A self-map of the lattice, total on all elements including 0, stored
    as ``bytes``, one element index per element index.  Callers give
    ``table`` by names; this module builds maps from already-valid indices
    with ``_values``."""

    def __init__(
        self,
        lattice: FiniteOrthoLattice,
        table: Mapping[str, str] | None = None,
        *,
        _values: bytes | None = None,
    ):
        self.lattice = lattice
        if _values is None:
            lattice._pad()  # the indices must fit in a byte
            values = []
            for e in lattice.elements:
                if e not in table:
                    raise ValueError(f"join map missing element {e!r}")
                values.append(lattice.index(table[e]))
            _values = bytes(values)
        self._values = _values

    def __eq__(self, other) -> bool:
        if not isinstance(other, JoinMap):
            return NotImplemented
        return self.lattice == other.lattice and self._values == other._values

    def __repr__(self) -> str:
        return f"JoinMap(over {self.lattice.name!r})"

    def __call__(self, a: str) -> str:
        return self.lattice.elements[self._values[self.lattice.index(a)]]

    def join_preserving_violation(self) -> tuple[str, str] | None:
        """First pair (j, y), j join-irreducible, with f(j v y) != f(j) v f(y),
        or the pair ('0', '0') when f(0) != 0; None when the map preserves
        joins.

        Join-irreducible j suffice: every x other than 0 is join-irreducible
        or x1 v x2 with x1, x2 < x, and then, by induction on x,
        f(x v y) = f(x1) v f(x2 v y) = f(x1) v f(x2) v f(y) = f(x) v f(y);
        for x = 0 the equation is f(0) = 0.  That is |J| * n checks, not n * n.
        The pair (j, y) stands for the equal-join sets ({j, y}, {j v y}).
        """
        lat = self.lattice
        if self._values[lat._zero] != lat._zero:
            return ("0", "0")
        bad = _join_violation(lat, self._values)
        return None if bad is None else (lat.elements[bad[0]], lat.elements[bad[1]])

    @property
    def is_join_preserving(self) -> bool:
        return self.join_preserving_violation() is None


def _same_lattice(*maps: PowersetMap | JoinMap) -> FiniteOrthoLattice:
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

    The lattice computes each element's image masks once; every call returns
    a new map over them, so a caller may relabel it.
    """
    masks = lat._measurement_masks(lat.index(a))
    return PowersetMap(lat, measured=a, _masks=masks)


def identity_map(lat: FiniteOrthoLattice) -> PowersetMap:
    masks = [0 if b == lat._zero else 1 << b for b in range(len(lat))]
    return PowersetMap(lat, _masks=masks)


def sasaki_map(lat: FiniteOrthoLattice, a: str) -> JoinMap:
    """The Sasaki projection onto a as a join map."""
    return JoinMap(lat, _values=lat._sasaki_row(lat.index(a)))


def is_transition_map(f: PowersetMap) -> MapCheck:
    """Fast membership check: the induced map s: b -> join of f({b}), with
    s(0) = 0, must preserve joins.  It suffices that s(j v y) = s(j) v s(y)
    for every join-irreducible j and every y: every x other than 0 is
    join-irreducible or x1 v x2 with x1, x2 < x, and then, by induction on x,
    s(x v y) = s(x1) v s(x2 v y) = s(x1) v s(x2) v s(y) = s(x) v s(y).

    On failure the witness is the equal-join pair ({j, y}, {j v y}).
    Authoritative; :func:`transition_oracle` re-derives the same verdict by
    subset enumeration.
    """
    lat = f.lattice
    bad = _join_violation(lat, f._sups())
    if bad is None:
        return MapCheck(True)
    j, y = bad
    els = lat.elements
    jy = els[lat._table("join")[j][y]]
    return MapCheck(False, (frozenset({els[j], els[y]}), frozenset({jy})))


def transition_oracle(f: PowersetMap) -> MapCheck:
    """Enumerate every subset of the nonzero elements, bucket by join, and
    compare image joins within each bucket.  Exponential: 2^(n-1) subsets
    for n elements.  Independent of :func:`is_transition_map`: it joins the
    images itself and never uses join-irreducibles.

    Subset joins and image joins are kept one byte per subset mask (bit i
    stands for the i-th nonzero element), built by doubling: adding an
    element appends the table so far translated through that element's join
    row, held by the lattice.  Element indices must fit in a byte, so
    lattices of more than 256 elements raise :class:`ValueError`.
    """
    lat = f.lattice
    n = len(lat)
    rows, zero = lat._join_rows(), lat._zero  # byte c of rows[b] is b v c
    domain = [b for b in range(n) if b != zero]
    m = len(domain)
    set_join = img_join = bytes([zero])
    for b in domain:
        s = zero
        for c in _bits(f._masks[b]):
            s = rows[s][c]
        set_join += set_join.translate(rows[b])
        img_join += img_join.translate(rows[s])
    # each join value answers with the image join of its first subset; every
    # element is some subset's join: 0 of the empty set, the rest of themselves
    first = bytes([img_join[set_join.find(v)] for v in range(n)]) + bytes(256 - n)
    expected = set_join.translate(first)
    if expected == img_join:
        return MapCheck(True)
    mask = next(k for k in range(1 << m) if expected[k] != img_join[k])
    other = set_join.find(set_join[mask])
    to_set = lambda mk: frozenset(lat.elements[domain[i]] for i in range(m) if mk >> i & 1)
    return MapCheck(False, (to_set(other), to_set(mask)))


def kill_set(f: PowersetMap) -> frozenset[str]:
    """Elements whose singleton image is empty."""
    lat = f.lattice
    return frozenset(
        e for b, e in enumerate(lat.elements) if b != lat._zero and not f._masks[b]
    )


def sup_morphism(f: PowersetMap) -> JoinMap:
    """Send a transition map to the join map of definite actual properties:
    a -> join of f({a}), with 0 -> 0 and the empty join equal to 0.  The
    membership check and the join map use the same per-element joins.

    Raises :class:`TransitionMapError` with an equal-join witness pair when f
    fails the membership condition.
    """
    check = is_transition_map(f)
    if not check.ok:
        raise TransitionMapError(*check.witness)
    return JoinMap(f.lattice, _values=f._sups())


def quantale_compose(f: PowersetMap, g: PowersetMap) -> PowersetMap:
    """(f o g): apply g first, then f, unioning over intermediate branches."""
    lat = _same_lattice(f, g)
    fm = f._masks
    masks = []
    for mask in g._masks:
        image = 0
        while mask:  # _bits, inlined
            low = mask & -mask
            image |= fm[low.bit_length() - 1]
            mask ^= low
        masks.append(image)
    return PowersetMap(lat, _masks=masks)


def quantale_union(fs: Sequence[PowersetMap]) -> PowersetMap:
    """Pointwise union of singleton actions (at least one map)."""
    if not fs:
        raise ValueError("union of no maps")
    lat = _same_lattice(*fs)
    masks = list(fs[0]._masks)
    for f in fs[1:]:
        masks = list(map(or_, masks, f._masks))
    return PowersetMap(lat, _masks=masks)


def lift_join_map(f: JoinMap) -> PowersetMap:
    """View a join map as a powerset map: b -> {f(b)} with 0 images dropped."""
    lat = f.lattice
    bits = [1 << v for v in range(len(lat))]
    bits[lat._zero] = 0
    masks = list(map(bits.__getitem__, f._values))
    masks[lat._zero] = 0
    return PowersetMap(lat, _masks=masks)


def compose_join(f: JoinMap, g: JoinMap) -> JoinMap:
    lat = f.lattice
    if g.lattice != lat:
        raise LatticeMismatchError("join maps over different lattices")
    return JoinMap(lat, _values=g._values.translate(f._values + lat._pad()))


def _joined(lat: FiniteOrthoLattice, parts: Sequence[bytes]) -> bytes:
    """The pointwise join of self-maps given by index (at least one): byte b
    is the join of every part's byte b."""
    rows = lat._join_rows()
    values = parts[0]
    for part in parts[1:]:  # byte b: row values[b] of the join table at part[b]
        values = bytes(map(bytes.__getitem__, map(rows.__getitem__, values), part))
    return values


def pointwise_join(maps: Sequence[JoinMap]) -> JoinMap:
    lat = _same_lattice(*maps)
    return JoinMap(lat, _values=_joined(lat, [m._values for m in maps]))


def sasaki_preorder(lat: FiniteOrthoLattice, a: str, a2: str) -> bool:
    """Projection preorder: composing the projection onto a after the
    projection onto a2 reproduces the projection onto a."""
    pa, pa2 = sasaki_map(lat, a), sasaki_map(lat, a2)
    return compose_join(pa, pa2) == pa


class CounterexampleWitness(Record):
    """A pair ordered under the projection preorder whose projections are not
    pointwise ordered: at ``argument`` the two images are incomparable."""

    __slots__ = ("element", "other", "argument", "images")

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
    pointwise order.  Every pair is ordered under the projection preorder,
    so the search does not test it: on an orthomodular lattice a <= a v a2,
    and a <= b implies phi_a o phi_b = phi_a, where phi_x is the projection
    onto x.  Requires a verified orthomodular lattice; returns None when no
    pair qualifies (e.g. on Boolean lattices).
    """
    lat.ensure_verified()
    els, up, zero = lat.elements, lat._up, lat._zero
    meet, join = lat._table("meet"), lat._table("join")
    for a, name in enumerate(els):
        if name in ("0", "1"):
            continue
        ao, onto_a = lat._ortho_of(a), lat._sasaki_row(a)
        for a2 in range(len(lat)):
            if meet[a][a2] != zero or up[a2] >> ao & 1:
                continue
            onto_joined = lat._sasaki_row(join[a][a2])
            for x, (small, big) in enumerate(zip(onto_a, onto_joined)):
                if not up[small] >> big & 1:
                    return CounterexampleWitness(
                        name, els[a2], els[x], (els[small], els[big])
                    )
    return None


def measurement_map_identities(lat: FiniteOrthoLattice) -> VerificationReport:
    """Exhaustive identities of measurement maps: (i) measuring a and
    measuring a' give the same map; (ii) two elements give the same map only
    when they form an orthocomplementary pair."""
    lat.ensure_verified()
    els, ortho = lat.elements, lat._ortho
    maps = [perfect_measurement_map(lat, a) for a in els]
    n = len(lat)
    return _report([
        ("ortho-pair-symmetry", _first(
            (els[a],) for a in range(n) if maps[a] != maps[ortho[a]]
        )),
        ("pair-separation", _first(
            (els[a], els[b])
            for a, b in itertools.product(range(n), repeat=2)
            if (maps[a] == maps[b]) != (b in (a, ortho[a]))
        )),
    ])


ORACLE_LIMIT = 12  # subset enumeration beyond this is pointless at a desk


def _sup_or_none(f: PowersetMap) -> JoinMap | None:
    """sup_morphism(f), or None when f is not a transition map."""
    sups = f._sups()
    return JoinMap(f.lattice, _values=sups) if _join_violation(f.lattice, sups) is None else None


def _measurement_pairs(measurements, sups, combine, expected) -> tuple[str, str] | None:
    """First (a, b) by index, as names, where a or b has no join map or
    ``sup_morphism`` does not send ``combine`` of their measurement maps to
    ``expected`` of their join maps; None when there is none.  The verdict
    depends only on the two maps, and measuring a and a' gives the same map,
    so it is decided once per distinct pair of maps, each map keyed by the
    first element measured to it.  Only passes are kept: the first failure
    ends the search."""
    els = measurements[0].lattice.elements
    first: dict[tuple[int, ...], int] = {}
    canon = [first.setdefault(tuple(f._masks), a) for a, f in enumerate(measurements)]
    passed = set()
    for a, b in itertools.product(range(len(measurements)), repeat=2):
        key = (canon[a], canon[b])
        if key in passed:
            continue
        sa, sb = sups[a], sups[b]
        if sa is None or sb is None:
            return (els[a], els[b])
        if _sup_or_none(combine(measurements[a], measurements[b])) != expected(sa, sb):
            return (els[a], els[b])
        passed.add(key)
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

    The lattice's ``_joins`` and ``_violations`` are emptied before the
    first draw, so a lattice holds one report's mask joins and map verdicts
    at most; within the report each distinct image mask is joined once and
    each distinct join map is decided once.  A negative sample count raises
    ``ValueError``; a count of 0 draws no sample of that kind.
    """
    for name, count in (("random_maps", random_maps), ("pairs", pairs), ("join_maps", join_maps)):
        if count < 0:
            raise ValueError(f"{name} must be at least 0, got {count}")
    lat.ensure_verified()
    lat._joins.clear()
    lat._violations.clear()
    els, n = lat.elements, len(lat)
    measurements = [perfect_measurement_map(lat, a) for a in els]
    sups = [_sup_or_none(f) for f in measurements]
    nonzero = [b for b in range(n) if b != lat._zero]
    meet, join, ortho, down = lat._table("meet"), lat._table("join"), lat._ortho, lat._down
    # each quantale operation on two transition maps and on their join maps
    operations = (
        ("compose", quantale_compose, compose_join),
        ("union", lambda f, g: quantale_union([f, g]), lambda p, q: pointwise_join([p, q])),
    )

    def membership():
        return _first((els[a],) for a in range(n) if sups[a] is None)

    def membership_oracle():
        return _first(
            (els[a],)
            for a in range(n)
            if not transition_oracle(measurements[a]).ok or sups[a] is None
        )

    def random_map_agreement():
        first = None  # draw every sample, so later laws see the same rng state
        for i in range(random_maps):
            f = random_union_preserving_map(lat, rng)
            if is_transition_map(f).ok != transition_oracle(f).ok:
                first = first or (str(i),)
        return first

    def random_pairs():
        for i in range(pairs):
            f = random_transition_map(lat, rng)
            g = random_transition_map(lat, rng)
            sf, sg = _sup_or_none(f), _sup_or_none(g)
            if sf is None or sg is None:
                return (f"member sample {i}",)
            for name, combine, expected in operations:
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
        # every branch lies under a or under a'
        for a in nonzero:
            under, images = down[a] | down[ortho[a]], measurements[a]._masks
            for b in nonzero:
                stray = images[b] & ~under
                if stray:
                    return (els[a], els[b], els[next(_bits(stray))])
        return None

    def compatibility_preservation():
        # a compatible b (a = (a ^ b) v (a ^ b')): b's branches lie under b and join to b
        for a in nonzero:
            images, image_sups = measurements[a]._masks, measurements[a]._sups()
            for b in nonzero:
                if join[meet[a][b]][meet[a][ortho[b]]] != a:
                    continue
                if images[b] & ~down[b] or image_sups[b] != b:
                    return (els[a], els[b])
        return None

    laws = [("measurement-membership", membership)]
    if len(lat) <= ORACLE_LIMIT:
        laws += [
            ("measurement-membership-oracle", membership_oracle),
            ("random-map-agreement", random_map_agreement),
        ]
    laws += [
        (f"morphism-{name}-measurements",
         partial(_measurement_pairs, measurements, sups, combine, expected))
        for name, combine, expected in operations
    ]
    laws += [
        ("morphism-random-pairs", random_pairs),
        ("surjectivity-lift-section", lift_section),
        ("branch-soundness", branch_soundness),
        ("compatibility-preservation", compatibility_preservation),
    ]
    # one law at a time, in report order, which is also the order of rng draws
    return _report((name, law()) for name, law in laws)


# -- seeded generators ---------------------------------------------------------


def random_union_preserving_map(
    lat: FiniteOrthoLattice, rng: random.Random
) -> PowersetMap:
    """Random singleton action; union-preserving by representation but with no
    further constraint, so membership in the transition maps is incidental."""
    domain = [b for b in range(len(lat)) if b != lat._zero]
    masks = [0] * len(lat)
    draw = rng.random
    for b in domain:
        masks[b] = sum(1 << c for c in domain if draw() < 0.35)
    return PowersetMap(lat, _masks=masks)


def random_join_map(lat: FiniteOrthoLattice, rng: random.Random) -> JoinMap:
    """Random join-preserving self-map, assembled from Sasaki projections,
    the identity, and constant-on-nonzero maps, closed under composition and
    pointwise join.  The parts are built as bytes, one element index per
    element index, and only the result is a :class:`JoinMap`."""
    n, zero, pad = len(lat), lat._zero, lat._pad()
    draw, below = rng.random, rng.randrange
    identity = bytes(range(n))

    def basic() -> bytes:
        roll = draw()
        if roll < 0.5:
            return lat._sasaki_row(below(n))
        if roll < 0.7:
            return identity
        row = bytearray([below(n)]) * n
        row[zero] = zero
        return bytes(row)

    def chain() -> bytes:
        f = basic()
        for _ in range(below(3)):  # compose_join: f first, then f or a new part
            g = basic()  # drawn even when f is chosen, so the draws stay in order
            f = f.translate((g if below(2) else f) + pad)
        return f

    parts = [chain() for _ in range(1 + below(3))]
    f = JoinMap(lat, _values=_joined(lat, parts))
    bad = f.join_preserving_violation()
    if bad is not None:
        raise RuntimeError(f"random join map does not preserve the join of {bad}")
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
