"""Axiom schemas with semantically evaluated guards.

Each schema is instantiated against a bound lattice: guards are checked as
lattice relations, lattice-valued subterms (projections, meets, joins, map
images) are computed, and the result is a closed sequent over constants,
built in the lattice's store.
Implication-shaped schemas conclude an empty-context sequent by default;
``unfold=True`` moves the antecedent into the context instead.
"""

from __future__ import annotations

import re
from typing import Mapping

from omlogic.lattice import FiniteOrthoLattice
from omlogic.propagation import PowersetMap, kill_set
from omlogic.syntax import (
    Induced,
    Lolli,
    Plus,
    Sequent,
    Tensor,
    actual,
    measurement,
    reachable,
)

__all__ = [
    "GuardViolation",
    "UnknownSchemaError",
    "SCHEMAS",
    "instantiate_axiom",
    "unfolded",
]

MapRegistry = Mapping[str, PowersetMap]


class GuardViolation(Exception):
    """A schema guard failed; the message names the violated constraint."""


class UnknownSchemaError(Exception):
    pass


def _need(bindings: dict[str, str], *names: str) -> list[str]:
    missing = [v for v in names if v not in bindings]
    if missing:
        raise GuardViolation(f"unbound variable {missing[0]!r}")
    extra = set(bindings) - set(names)
    if extra:
        raise GuardViolation(f"unexpected binding {sorted(extra)[0]!r}")
    return [bindings[v] for v in names]


def _in_and_r(lat: FiniteOrthoLattice, x: str) -> Tensor:
    return lat._store.make(Tensor, actual(lat, x), reachable(lat, x))


def _implication(lat: FiniteOrthoLattice, antecedent, consequent) -> Sequent:
    """The sequent |- antecedent -o consequent."""
    make = lat._store.make
    return make(Sequent, make(tuple), make(Lolli, antecedent, consequent))


def _oql_meet(lat, bindings, maps):
    keys = sorted(bindings)
    if not keys or any(not re.fullmatch(r"x[0-9]+", k) for k in keys):
        raise GuardViolation("bindings must be x1, x2, ... (at least one)")
    keys.sort(key=lambda k: int(k[1:]))
    xs = [bindings[k] for k in keys]
    m = lat.meet_set(xs)
    if m == "0":
        raise GuardViolation("meet of the bound properties is 0")
    make = lat._store.make
    lhs = actual(lat, xs[0])
    for x in xs[1:]:
        lhs = make(Tensor, lhs, actual(lat, x))
    return make(Sequent, make(tuple, lhs), actual(lat, m))


def _oql_join(lat, bindings, maps):
    x, y = _need(bindings, "x", "y")
    make = lat._store.make
    return make(Sequent, make(tuple, actual(lat, x)), actual(lat, lat.join(x, y)))


def _trans(lat, bindings, maps):
    y, z = _need(bindings, "y", "z")
    w = lat.sasaki(z, y)
    if w == "0":
        raise GuardViolation(f"projection of {y!r} onto {z!r} is 0")
    antecedent = lat._store.make(Tensor, actual(lat, y), reachable(lat, z))
    return _implication(lat, antecedent, _in_and_r(lat, w))


def _adjust1(lat, bindings, maps):
    x, y = _need(bindings, "x", "y")
    lat.index(y)
    if lat.leq(y, x):
        raise GuardViolation(f"y !<= x violated: {y} <= {x}")
    if lat.leq(y, lat.ortho(x)):
        raise GuardViolation(f"y !<= ortho(x) violated: {y} <= {lat.ortho(x)}")
    make = lat._store.make
    antecedent = make(Tensor, measurement(lat, x), _in_and_r(lat, y))
    consequent = make(
        Tensor, actual(lat, y), make(Plus, reachable(lat, x), reachable(lat, lat.ortho(x)))
    )
    return _implication(lat, antecedent, consequent)


def _adjust2(lat, bindings, maps):
    x, y = _need(bindings, "x", "y")
    lat.index(x)
    if not lat.leq(y, x):
        raise GuardViolation(f"y <= x violated: {y} !<= {x}")
    antecedent = lat._store.make(Tensor, measurement(lat, x), _in_and_r(lat, y))
    return _implication(lat, antecedent, _in_and_r(lat, y))


def _general_propagation(lat, bindings, maps):
    alpha, x = _need(bindings, "alpha", "x")
    if alpha not in maps:
        raise GuardViolation(f"unknown propagation map {alpha!r}")
    f = maps[alpha]
    if f.lattice != lat:
        raise GuardViolation(f"map {alpha!r} is over a different lattice")
    lat.index(x)
    if x == "0" or x in kill_set(f):
        raise GuardViolation(f"x !in K({alpha}) violated for {x!r}")
    branches = sorted(f.singleton(x), key=lat.index)
    make = lat._store.make
    rhs = actual(lat, branches[0])
    for z in branches[1:]:
        rhs = make(Plus, rhs, actual(lat, z))
    return _implication(lat, make(Tensor, make(Induced, alpha), actual(lat, x)), rhs)


# each schema's builder: it checks the bindings and the guard, and builds the
# conclusion in the lattice's store
SCHEMAS = {
    "OQL-Meet": _oql_meet,
    "OQL-Join": _oql_join,
    "Trans": _trans,
    "Adjust1": _adjust1,
    "Adjust2": _adjust2,
    "GeneralPropagation": _general_propagation,
}


def instantiate_axiom(
    lat: FiniteOrthoLattice,
    schema: str,
    bindings: Mapping[str, str],
    maps: MapRegistry | None = None,
    unfold: bool = False,
) -> Sequent:
    """Instantiate a schema; guards are evaluated in the lattice and failures
    raise :class:`GuardViolation` naming the violated constraint.  With
    ``unfold`` an implication-shaped conclusion is returned with its
    antecedent as the (single-formula) context.
    """
    if schema not in SCHEMAS:
        raise UnknownSchemaError(f"unknown axiom schema {schema!r}")
    seq = SCHEMAS[schema](lat, dict(bindings), maps or {})
    return unfolded(lat, seq) if unfold else seq


def unfolded(lat: FiniteOrthoLattice, seq: Sequent) -> Sequent:
    """An implication-shaped conclusion ``|- A -o B`` as ``A |- B``, built in
    the lattice's store, which must own ``seq``; any other sequent
    unchanged."""
    f = seq.succedent
    if seq.context or not isinstance(f, Lolli):
        return seq
    make = lat._store.make
    return make(Sequent, make(tuple, f.antecedent), f.consequent)
