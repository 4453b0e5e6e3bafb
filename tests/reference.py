"""Chain builders that ``derive._extend`` replaced, kept as references.

``reference_extend`` is the top-down step: a separate ``mirror`` walk builds
the next goal, and every branch proof climbs through plus_r steps to it.
``unmerged_extend`` is the bottom-up step before sibling sums that reach the
same next stage were merged: every sum L + R of a stage becomes L' + R', so
a chain's conclusion holds 2^k branches.  The reader corpora whose answers
were recorded on those trees (``conftest.short_chains(family, unmerged=True)``
and ``gen.random_derivation``) are built with it.
"""

from __future__ import annotations

from omlogic.derive import _id, _in_and_r, _rule, derive_measurement
from omlogic.syntax import Plus, Tensor, measurement


def _close(lat, base, then, body):
    """The chain from M(then) * C, where ``base`` proves C |- S and ``body``
    proves (M(then), S) |- S', joined the way ``derive._extend`` joined it
    before it cut ``base`` into ``body``: ``base`` widened by tensor_r to
    M(then) * S, then cut against ``body`` fused by tensor_l, three levels
    and five nodes outside ``body``.  The references keep this join."""
    make = lat._store.make
    m_then = measurement(lat, then)
    stage_one, goal_rhs = base.conclusion.succedent, body.conclusion.succedent
    m_stage_one = make(Tensor, m_then, stage_one)
    fused_body = _rule(make, "tensor_l", (m_stage_one,), goal_rhs, body)
    base_ctx = base.conclusion.context[0]
    widen = _rule(make, "tensor_r", (m_then, base_ctx), m_stage_one, _id(make, m_then), base)
    m_base = make(Tensor, m_then, base_ctx)
    fused_widen = _rule(make, "tensor_l", (m_base,), m_stage_one, widen)
    return _rule(make, "cut", (m_base,), goal_rhs, fused_widen, fused_body)


def _branch(lat, f, then, goal=None):
    """(M(then), f) |- goal, where f is a branch In(u) * R(u): its measurement
    proof cut against M(then), f |- M(then) * f.  ``goal`` defaults to the
    measurement's conclusion."""
    make = lat._store.make
    m_then = measurement(lat, then)
    c = derive_measurement(lat, _in_and_r(f), then)
    pair = _rule(make, "tensor_r", (m_then, f), c.conclusion.context[0],
                 _id(make, m_then), _id(make, f))
    return _rule(make, "cut", (m_then, f), goal or c.conclusion.succedent, pair, c)


def reference_extend(lat, base, then):
    """The top-down chain step."""
    make = lat._store.make
    stage_one = base.conclusion.succedent
    m_then = measurement(lat, then)

    def mirror(f):
        if isinstance(f, Plus):
            return make(Plus, mirror(f.left), mirror(f.right))
        return derive_measurement(lat, _in_and_r(f), then).conclusion.succedent

    goal_rhs = mirror(stage_one)

    def prove(f, goal, climb):
        if isinstance(f, Plus):
            left = prove(f.left, goal.left, (("plus_r1", goal),) + climb)
            right = prove(f.right, goal.right, (("plus_r2", goal),) + climb)
            return _rule(make, "plus_l", (m_then, f), goal_rhs, left, right)
        out = _branch(lat, f, then, goal)
        for rule, parent in climb:
            out = _rule(make, rule, (m_then, f), parent, out)
        return out

    return _close(lat, base, then, prove(stage_one, goal_rhs, ()))


def unmerged_extend(lat, base, then):
    """The bottom-up chain step with no merge: one proof of
    (M(then), f) |- f' per distinct subtree f of the stage, and a sum is
    plus_l over its sides' proofs, each lifted once into L' + R'."""
    make = lat._store.make
    m_then = measurement(lat, then)
    proofs = {}

    def prove(f):
        if id(f) not in proofs:
            if isinstance(f, Plus):
                left, right = prove(f.left), prove(f.right)
                goal = make(Plus, left.conclusion.succedent, right.conclusion.succedent)
                proofs[id(f)] = _rule(make, "plus_l", (m_then, f), goal,
                                      _rule(make, "plus_r1", (m_then, f.left), goal, left),
                                      _rule(make, "plus_r2", (m_then, f.right), goal, right))
            else:
                proofs[id(f)] = _branch(lat, f, then)
        return proofs[id(f)]

    return _close(lat, base, then, prove(base.conclusion.succedent))


def chain(lat, a, measures, extend):
    """``derive_chain(lat, a, measures)`` with each later stage built by
    ``extend``."""
    d = derive_measurement(lat, a, measures[0])
    for m in measures[1:]:
        d = extend(lat, d, m)
    return d
