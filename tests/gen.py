"""Seeded random corpora for round-trip testing."""

from __future__ import annotations

import itertools
import random

from omlogic.derive import derive_measurement
from omlogic.lattice import FiniteOrthoLattice, boolean, hexagon, mo
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
    normalize_formula,
)
from reference import chain, unmerged_extend

VAR_POOL = ("u", "v", "w", "p", "q", "r")
NAME_POOL = ("north", "south", "spin_up", "spin_dn", "left", "right", "x1", "x2", "y1", "y2", "z1", "z2", "t1", "t2")


def random_lattice(rng: random.Random) -> FiniteOrthoLattice:
    """A generated family, optionally with renamed elements (<= 16 elements)."""
    kind = rng.randrange(3)
    if kind == 0:
        lat = boolean(rng.randint(1, 4))
    elif kind == 1:
        lat = mo(rng.randint(1, 7))
    else:
        lat = hexagon()
    if rng.random() < 0.4:
        fresh = list(NAME_POOL)
        rng.shuffle(fresh)
        mapping = {}
        for e in lat.elements:
            mapping[e] = e if e in ("0", "1") else (fresh.pop() if fresh else e)
        lat = FiniteOrthoLattice(
            lat.name + "_renamed",
            [mapping[e] for e in lat.elements],
            [(mapping[x], mapping[y]) for x, y in lat.covers()],
            [(mapping[x], mapping[y]) for x, y in lat.ortho_pairs()],
        )
    return lat


def random_structure(rng: random.Random, index: int = 0) -> FiniteOrthoLattice:
    """A structure of 2 to 8 elements that is buildable but need not be a
    lattice: elements in shuffled order, a ranked order with a few pairs
    against the ranks (which may close a cycle), 0 and 1 sometimes left
    unrelated, and a partial orthocomplement table that may pair an element
    with itself."""
    names = [f"e{i}" for i in range(rng.randint(0, 6))]
    elements = ["0", "1"] + names
    rng.shuffle(elements)
    rank = {"0": 0, "1": 4, **{e: rng.randint(1, 3) for e in names}}
    density = rng.choice([0.3, 0.6, 0.9])
    leq = []
    for x, y in itertools.product(elements, repeat=2):
        if x == y:
            continue
        if x == "0" or y == "1":
            keep = rank[x] < rank[y] and rng.random() < 0.97
        elif rank[x] < rank[y]:
            keep = rng.random() < density
        else:
            keep = rng.random() < 0.01
        if keep:
            leq.append((x, y))
    rng.shuffle(names)
    ortho = []
    while len(names) >= 2 and rng.random() < 0.9:
        ortho.append((names.pop(), names.pop()))
    if names and rng.random() < 0.2:
        ortho.append((names[-1], names[-1]))
    return FiniteOrthoLattice(f"random{index}", elements, leq, ortho)


def random_map(lat: FiniteOrthoLattice, rng: random.Random) -> PowersetMap:
    if rng.random() < 0.3 and lat.verify().ok:
        f = perfect_measurement_map(lat, rng.choice(lat.nonzero()))
        return PowersetMap(
            lat, dict(f.items()), label=f"m{rng.randrange(100)}", measured=f.measured,
        )
    domain = lat.nonzero()
    action = {b: {e for e in domain if rng.random() < 0.3} for b in domain}
    return PowersetMap(lat, action, label=f"g{rng.randrange(100)}")


def random_term(lat, rng: random.Random, depth: int):
    nonzero_ortho = [e for e in lat.nonzero() if lat.ortho(e) != "0"]
    roll = rng.random()
    if depth > 0 and roll < 0.2 and nonzero_ortho:
        # single former only: doubles would normalize away and break identity
        inner = rng.choice([Const(rng.choice(nonzero_ortho)), Var(rng.choice(VAR_POOL))])
        return OrthoTerm(inner) if isinstance(inner, Var) else Const(lat.ortho(inner.name))
    if roll < 0.7:
        return Const(rng.choice(lat.nonzero()))
    return Var(rng.choice(VAR_POOL))


def random_formula(lat, rng: random.Random, depth: int):
    def atom():
        roll = rng.randrange(4)
        if roll == 0:
            return Actual(random_term(lat, rng, depth))
        if roll == 1:
            return Reachable(random_term(lat, rng, depth))
        if roll == 2:
            t = random_term(lat, rng, depth)
            if isinstance(t, Const):
                pair = [p for p in (t.name, lat.ortho(t.name)) if p != "0"]
                t = Const(min(pair, key=lat.index))
            return Measurement(t)
        return Induced(rng.choice(("alpha", "beta", "gamma")))

    if depth <= 0:
        return atom()
    roll = rng.random()
    if roll < 0.35:
        return atom()
    if roll < 0.55:
        return Tensor(random_formula(lat, rng, depth - 1), random_formula(lat, rng, depth - 1))
    if roll < 0.75:
        return Plus(random_formula(lat, rng, depth - 1), random_formula(lat, rng, depth - 1))
    if roll < 0.9:
        return Lolli(random_formula(lat, rng, depth - 1), random_formula(lat, rng, depth - 1))

    def bound():
        # any constant (0 and 1 included) or any term, ortho(<variable>) among them
        if rng.random() < 0.5:
            return Const(rng.choice(lat.elements))
        return random_term(lat, rng, depth)

    guard = []
    for _ in range(rng.randrange(3)):
        k = rng.random()
        if k < 0.4:
            guard.append(Constraint("<=", bound()))
        elif k < 0.8:
            guard.append(Constraint("!<=", bound()))
        else:
            guard.append(Constraint("!inK", rng.choice(("alpha", "beta"))))
    return Forall(
        rng.choice(VAR_POOL), tuple(guard), random_formula(lat, rng, depth - 1)
    )


def random_normal_formula(lat, rng: random.Random, depth: int):
    return normalize_formula(random_formula(lat, rng, depth), lat)


def random_sequent(lat, rng: random.Random) -> Sequent:
    ctx = tuple(
        random_normal_formula(lat, rng, rng.randint(0, 3))
        for _ in range(rng.randint(0, 3))
    )
    return Sequent(ctx, random_normal_formula(lat, rng, rng.randint(0, 3)))


def random_derivation(rng: random.Random):
    """A measurement or a two-measurement chain on mo(2) or boolean(3).  The
    chain's second stage is built by ``reference.unmerged_extend``, as when
    the digests of the corpora drawn from here were recorded."""
    lat = mo(2) if rng.random() < 0.5 else boolean(3)
    names = lat.nonzero()
    if rng.random() < 0.5:
        d = derive_measurement(lat, rng.choice(names), rng.choice(names))
    else:
        d = chain(lat, rng.choice(names), [rng.choice(names), rng.choice(names)],
                  unmerged_extend)
    return lat, d


def non_transition_map(lat: FiniteOrthoLattice) -> PowersetMap:
    """A map on mo(2) outside the transition maps: {b, b'} and {a, a'} have
    equal joins, but their images {a} and {a, a'} do not."""
    return PowersetMap(
        lat, {"a": {"a"}, "a'": {"a'"}, "b": {"a"}, "b'": {"a"}, "1": {"a"}}
    )
