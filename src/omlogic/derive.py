"""Derivation builders for the measurement sequents, plus the algebraic
crosscheck that re-computes their branch sets through the propagation maps.

All builders emit trees over the kernel rules only; modus ponens is not
primitive and is expanded as an identity leaf under an implication-left step
followed by a cut against the axiom leaf.
"""

from __future__ import annotations

from dataclasses import dataclass

from omlogic.axioms import MapRegistry, instantiate_axiom
from omlogic.kernel import AxiomApp, CheckResult, Derivation, RuleApp, check_derivation
from omlogic.lattice import FiniteOrthoLattice
from omlogic.propagation import perfect_measurement_map, quantale_compose
from omlogic.syntax import (
    Actual,
    Const,
    Formula,
    Induced,
    Lolli,
    Measurement,
    Plus,
    Reachable,
    Sequent,
    Tensor,
    actual,
    measurement,
    reachable,
)

__all__ = [
    "derive_distributivity",
    "derive_measurement",
    "derive_composed",
    "composed_branches",
    "CrosscheckResult",
    "semantic_crosscheck",
]


def _id(f: Formula) -> RuleApp:
    return RuleApp("id", Sequent((f,), f), ())


def _bindings(**kw: str) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(kw.items()))


def _modus_ponens(leaf: Derivation) -> RuleApp:
    """From a leaf concluding |- A -o B, derive A |- B (id + lolli_l + cut)."""
    lolli = leaf.conclusion.succedent
    assert isinstance(lolli, Lolli) and not leaf.conclusion.context
    a, b = lolli.antecedent, lolli.consequent
    elim = RuleApp("lolli_l", Sequent((a, lolli), b), (_id(a), _id(b)))
    return RuleApp("cut", Sequent((a,), b), (leaf, elim))


def derive_distributivity(z: Formula, x: Formula, y: Formula) -> RuleApp:
    """Derivation of  z * (x + y) |- (z * x) + (z * y)  from id, tensor and
    plus rules only (the entailment direction actually used; the converse is
    neither assumed nor derived)."""
    goal_rhs = Plus(Tensor(z, x), Tensor(z, y))
    left = RuleApp(
        "plus_r1",
        Sequent((z, x), goal_rhs),
        (RuleApp("tensor_r", Sequent((z, x), Tensor(z, x)), (_id(z), _id(x))),),
    )
    right = RuleApp(
        "plus_r2",
        Sequent((z, y), goal_rhs),
        (RuleApp("tensor_r", Sequent((z, y), Tensor(z, y)), (_id(z), _id(y))),),
    )
    split = RuleApp("plus_l", Sequent((z, Plus(x, y)), goal_rhs), (left, right))
    return RuleApp("tensor_l", Sequent((Tensor(z, Plus(x, y)),), goal_rhs), (split,))


def derive_measurement(lat: FiniteOrthoLattice, actual_el: str, measured: str) -> RuleApp:
    """Derivation for one two-outcome measurement on an entity whose actual
    and reachable property is ``actual_el``.

    When the actual property is comparable to neither outcome, the adjustment
    schema with the two-branch conclusion applies and the result ends in a
    disjunction of the two projected branches; when it lies under one of the
    outcomes, the degenerate adjustment applies and the entity is unchanged.
    """
    a, b = actual_el, measured
    for name, el in (("actual", a), ("measured", b)):
        lat.index(el)
        if el == "0":
            raise ValueError(f"{name} property must be nonzero")
    bo = lat.ortho(b)

    if lat.leq(a, b) or lat.leq(a, bo):
        outcome = b if lat.leq(a, b) else bo
        leaf = AxiomApp(
            "Adjust2",
            _bindings(x=outcome, y=a),
            instantiate_axiom(lat, "Adjust2", {"x": outcome, "y": a}),
        )
        return _modus_ponens(leaf)

    adjust = AxiomApp(
        "Adjust1",
        _bindings(x=b, y=a),
        instantiate_axiom(lat, "Adjust1", {"x": b, "y": a}),
    )
    step1 = _modus_ponens(adjust)  # M(b) * (In(a) * R(a)) |- In(a) * (R(b) + R(b'))

    step2 = derive_distributivity(actual(lat, a), reachable(lat, b), reachable(lat, bo))

    def trans_branch(z: str) -> RuleApp:
        leaf = AxiomApp(
            "Trans", _bindings(y=a, z=z), instantiate_axiom(lat, "Trans", {"y": a, "z": z})
        )
        return _modus_ponens(leaf)  # In(a) * R(z) |- In(w) * R(w)

    step3, step4 = trans_branch(b), trans_branch(bo)
    d1, d2 = step3.conclusion.succedent, step4.conclusion.succedent
    goal_rhs = Plus(d1, d2)

    lift1 = RuleApp("plus_r1", Sequent(step3.conclusion.context, goal_rhs), (step3,))
    lift2 = RuleApp("plus_r2", Sequent(step4.conclusion.context, goal_rhs), (step4,))
    branch_plus = Plus(step3.conclusion.context[0], step4.conclusion.context[0])
    joined = RuleApp("plus_l", Sequent((branch_plus,), goal_rhs), (lift1, lift2))

    after_distribution = RuleApp(
        "cut", Sequent(step2.conclusion.context, goal_rhs), (step2, joined)
    )
    return RuleApp(
        "cut", Sequent(step1.conclusion.context, goal_rhs), (step1, after_distribution)
    )


def _plus_leaves(f: Formula) -> list[tuple[Formula, tuple[str, ...]]]:
    """Leaves of a plus tree with their left/right paths, left to right."""
    if isinstance(f, Plus):
        return [(g, ("L",) + p) for g, p in _plus_leaves(f.left)] + [
            (g, ("R",) + p) for g, p in _plus_leaves(f.right)
        ]
    return [(f, ())]


def _subformula(f: Formula, path: tuple[str, ...]) -> Formula:
    for step in path:
        f = f.left if step == "L" else f.right
    return f


def derive_composed(
    lat: FiniteOrthoLattice, actual_el: str, first: str, then: str
) -> RuleApp:
    """Extend a measurement derivation by a second measurement.  The result
    concludes from the nested context  M(then) * (M(first) * (In(a) * R(a)))
    a disjunction of up to four actual-and-reachable branches, one per
    surviving projected outcome of the two measurements in order.
    """
    lat.index(then)
    if then == "0":
        raise ValueError("measured property must be nonzero")
    base = derive_measurement(lat, actual_el, first)
    stage_one = base.conclusion.succedent
    m_then = measurement(lat, then)

    # second-stage proof and conclusion for each first-stage branch
    cores: dict[tuple[str, ...], RuleApp] = {}
    for leaf, path in _plus_leaves(stage_one):
        assert isinstance(leaf, Tensor) and isinstance(leaf.left, Actual)
        u = leaf.left.term.name
        cores[path] = derive_measurement(lat, u, then)

    def mirror(f: Formula, path: tuple[str, ...]) -> Formula:
        if isinstance(f, Plus):
            return Plus(mirror(f.left, path + ("L",)), mirror(f.right, path + ("R",)))
        return cores[path].conclusion.succedent

    goal_rhs = mirror(stage_one, ())

    def prove(f: Formula, path: tuple[str, ...]) -> RuleApp:
        """(M(then), f) |- goal_rhs, recursing over the first-stage tree."""
        if isinstance(f, Plus):
            left = prove(f.left, path + ("L",))
            right = prove(f.right, path + ("R",))
            return RuleApp("plus_l", Sequent((m_then, f), goal_rhs), (left, right))
        core = cores[path]  # [M(then) * f] |- S_u
        fused = core.conclusion.context[0]
        pair = RuleApp(
            "tensor_r", Sequent((m_then, f), fused), (_id(m_then), _id(f))
        )
        s_u = core.conclusion.succedent
        out = RuleApp("cut", Sequent((m_then, f), s_u), (pair, core))
        # climb from this leaf's disjunct position up to the full tree
        for depth in range(len(path), 0, -1):
            prefix = path[:depth]
            parent = _subformula(goal_rhs, prefix[:-1])
            rule = "plus_r1" if prefix[-1] == "L" else "plus_r2"
            out = RuleApp(rule, Sequent((m_then, f), parent), (out,))
        return out

    body = prove(stage_one, ())
    fused_body = RuleApp(
        "tensor_l", Sequent((Tensor(m_then, stage_one),), goal_rhs), (body,)
    )

    base_ctx = base.conclusion.context[0]
    widen = RuleApp(
        "tensor_r",
        Sequent((m_then, base_ctx), Tensor(m_then, stage_one)),
        (_id(m_then), base),
    )
    fused_widen = RuleApp(
        "tensor_l",
        Sequent((Tensor(m_then, base_ctx),), Tensor(m_then, stage_one)),
        (widen,),
    )
    return RuleApp(
        "cut", Sequent((Tensor(m_then, base_ctx),), goal_rhs), (fused_widen, fused_body)
    )


# -- semantic crosscheck ---------------------------------------------------------


@dataclass(frozen=True)
class CrosscheckResult:
    ok: bool
    shape: str | None = None
    expected: frozenset[str] | None = None
    found: frozenset[str] | None = None
    reason: str | None = None


def _branch_set(lat, f: Formula, with_reachable: bool) -> frozenset[str] | None:
    """In-arguments of a plus tree whose leaves are In(z) * R(z) (or bare
    In(z) when ``with_reachable`` is false); None when the shape is off."""
    out = set()
    for leaf, _ in _plus_leaves(f):
        if with_reachable:
            if not (
                isinstance(leaf, Tensor)
                and isinstance(leaf.left, Actual)
                and isinstance(leaf.right, Reachable)
                and isinstance(leaf.left.term, Const)
                and leaf.left.term == leaf.right.term
            ):
                return None
            out.add(leaf.left.term.name)
        else:
            if not (isinstance(leaf, Actual) and isinstance(leaf.term, Const)):
                return None
            out.add(leaf.term.name)
    return frozenset(out)


def _measurement_chain(lat, f: Formula) -> tuple[str, list[str]] | None:
    """Peel M(m_k) * ( ... (In(a) * R(a))); returns (a, [m_1 .. m_k]) with the
    innermost measurement first, or None when the shape is off."""
    sequence: list[str] = []
    while (
        isinstance(f, Tensor)
        and isinstance(f.left, Measurement)
        and isinstance(f.left.term, Const)
    ):
        sequence.append(f.left.term.name)
        f = f.right
    if not sequence:
        return None
    if not (
        isinstance(f, Tensor)
        and isinstance(f.left, Actual)
        and isinstance(f.right, Reachable)
        and isinstance(f.left.term, Const)
        and f.left.term == f.right.term
    ):
        return None
    sequence.reverse()
    return f.left.term.name, sequence


def semantic_crosscheck(
    lat: FiniteOrthoLattice, d: Derivation, maps: MapRegistry | None = None
) -> CrosscheckResult:
    """Check a recognized-shape conclusion against the propagation algebra:
    the disjunction's branch set must equal the actuality set computed
    independently by the corresponding maps.  Unrecognized shapes are
    reported, not guessed.
    """
    maps = maps or {}
    verdict: CheckResult = check_derivation(lat, d, maps)
    if not verdict.valid:
        fail = verdict.failure
        return CrosscheckResult(
            False, reason=f"derivation invalid at {fail.path}: {fail.reason}"
        )
    seq = d.conclusion

    if len(seq.context) == 1:
        chain = _measurement_chain(lat, seq.context[0])
        found = _branch_set(lat, seq.succedent, with_reachable=True)
        if chain is not None and found is not None:
            start, sequence = chain
            current = frozenset({start})
            for m in sequence:
                current = perfect_measurement_map(lat, m).apply(current)
            shape = "measurement" if len(sequence) == 1 else "composed"
            return CrosscheckResult(current == found, shape, current, found)

    if not seq.context and isinstance(seq.succedent, Lolli):
        ante, cons = seq.succedent.antecedent, seq.succedent.consequent
        ctx_like = Sequent((ante,), cons)
        inner = _general_propagation_shape(lat, ctx_like, maps)
        if inner is not None:
            return inner
    if len(seq.context) == 1:
        inner = _general_propagation_shape(lat, seq, maps)
        if inner is not None:
            return inner

    return CrosscheckResult(False, reason="unrecognized sequent shape")


def _general_propagation_shape(lat, seq: Sequent, maps) -> CrosscheckResult | None:
    f = seq.context[0]
    if not (
        isinstance(f, Tensor)
        and isinstance(f.left, Induced)
        and isinstance(f.right, Actual)
        and isinstance(f.right.term, Const)
    ):
        return None
    found = _branch_set(lat, seq.succedent, with_reachable=False)
    if found is None:
        return None
    alpha = f.left.alpha
    if alpha not in maps:
        return CrosscheckResult(
            False, reason=f"unknown propagation map {alpha!r}"
        )
    expected = maps[alpha].apply({f.right.term.name})
    return CrosscheckResult(
        expected == found, "general-propagation", expected, found
    )


def composed_branches(
    lat: FiniteOrthoLattice, actual_el: str, first: str, then: str
) -> frozenset[str]:
    """Branch set of the two-measurement composition, computed on the algebra
    side (used to cross-check the derivation builders)."""
    composed = quantale_compose(
        perfect_measurement_map(lat, then), perfect_measurement_map(lat, first)
    )
    return composed.apply({actual_el})
