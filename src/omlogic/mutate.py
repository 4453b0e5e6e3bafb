"""Seeded mutations that damage valid derivations in fixed ways.

Used to harden the kernel: a checker with implicit exchange, weakening, or
contraction, lazy guard evaluation, or a missing eigenvariable condition
would accept at least one of these mutants.  Mutants are built in the
lattice's store, like any other derivation over it.
"""

from __future__ import annotations

import random

from omlogic.kernel import AxiomApp, Derivation, RuleApp
from omlogic.lattice import FiniteOrthoLattice
from omlogic.syntax import Actual, Forall, Reachable, Sequent, Tensor, Var

__all__ = ["MUTATION_KINDS", "mutate", "capture_case"]

MUTATION_KINDS = ("exchange", "contraction", "weakening", "guard", "capture")


def _walk(d: Derivation):
    """Each node of ``d`` with its path from the root, in pre-order, found
    with an explicit stack."""
    todo = [((), d)]
    while todo:
        path, d = todo.pop()
        yield path, d
        if isinstance(d, RuleApp):
            i = len(d.children)
            while i:  # the last child first, so the first is popped next
                i -= 1
                todo.append((path + (i,), d.children[i]))


def _replace(make, d: Derivation, path: tuple[int, ...], new: Derivation) -> Derivation:
    """``d`` with its node at ``path`` replaced by ``new``: the nodes on the
    path are rebuilt, deepest first."""
    spine = []
    for i in path:
        spine.append(d)
        d = d.children[i]
    for parent, i in zip(reversed(spine), reversed(path)):
        kids = list(parent.children)
        kids[i] = new
        new = make(RuleApp, parent.rule, parent.conclusion, make(tuple, *kids), parent.witness)
    return new


def _with_context(make, node: Derivation, ctx: list) -> Derivation:
    seq = make(Sequent, make(tuple, *ctx), node.conclusion.succedent)
    if isinstance(node, RuleApp):
        return make(RuleApp, node.rule, seq, node.children, node.witness)
    return make(AxiomApp, node.schema, node.bindings, seq)


def mutate(
    d: Derivation, kind: str, rng: random.Random, lat: FiniteOrthoLattice
) -> Derivation | None:
    """Apply one mutation kind; None when no node in the tree is eligible."""
    make = lat._store.make
    d = lat._store.intern(d)
    if kind == "exchange":
        candidates = []
        for path, node in _walk(d):
            ctx = node.conclusion.context
            pairs = [
                (i, j)
                for i in range(len(ctx))
                for j in range(i + 1, len(ctx))
                if ctx[i] is not ctx[j]  # the tree is interned: no walk over either
            ]
            if pairs:
                candidates.append((path, node, pairs))
        if not candidates:
            return None
        path, node, pairs = rng.choice(candidates)
        i, j = rng.choice(pairs)
        ctx = list(node.conclusion.context)
        ctx[i], ctx[j] = ctx[j], ctx[i]
        return _replace(make, d, path, _with_context(make, node, ctx))

    if kind in ("contraction", "weakening"):
        candidates = [
            (path, node) for path, node in _walk(d) if node.conclusion.context
        ]
        if not candidates:
            return None
        path, node = rng.choice(candidates)
        ctx = list(node.conclusion.context)
        i = rng.randrange(len(ctx))
        if kind == "contraction":
            ctx.insert(i, ctx[i])
        else:
            del ctx[i]
        return _replace(make, d, path, _with_context(make, node, ctx))

    if kind == "guard":
        candidates = [
            (path, node)
            for path, node in _walk(d)
            if isinstance(node, AxiomApp) and node.schema in ("Adjust1", "Adjust2")
        ]
        if not candidates:
            return None
        path, node = rng.choice(candidates)
        bindings = dict(node.bindings)
        if node.schema == "Adjust1":
            bindings["y"] = bindings["x"]  # y !<= x now fails reflexively
        else:
            violating = [
                e for e in lat.nonzero() if not lat.leq(e, bindings["x"])
            ]
            if violating:
                bindings["y"] = rng.choice(violating)
            else:
                bindings["x"] = "0"  # y <= 0 is unsatisfiable for nonzero y
        binds = make(tuple, *[make(tuple, *b) for b in sorted(bindings.items())])
        return _replace(make, d, path, make(AxiomApp, node.schema, binds, node.conclusion))

    if kind == "capture":
        raise ValueError("capture mutants are built by capture_case")
    raise ValueError(f"unknown mutation kind {kind!r}")


def capture_case(
    lat: FiniteOrthoLattice, rng: random.Random
) -> tuple[Derivation, Derivation]:
    """A valid quantifier introduction over a variable-bearing identity leaf,
    and its capture mutant: the bound variable renamed onto a variable that is
    free in the context."""
    v = rng.choice(["u", "v", "w"])
    fresh = rng.choice(["p", "q", "r"])
    shape = rng.randrange(3)
    make = lat._store.make
    t = make(Var, v)
    in_t, r_t = make(Actual, t), make(Reachable, t)
    body = [in_t, r_t, make(Tensor, in_t, r_t)][shape]
    context, none = make(tuple, body), make(tuple)
    leaf = make(RuleApp, "id", make(Sequent, context, body), none, None)

    def forall_r(var):
        seq = make(Sequent, context, make(Forall, var, none, body))
        return make(RuleApp, "forall_r", seq, make(tuple, leaf), None)

    return forall_r(fresh), forall_r(v)
