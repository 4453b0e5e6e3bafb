"""Derivation builders for the measurement sequents, plus the algebraic
crosscheck that re-computes their branch sets through the propagation maps.

All builders emit trees over the kernel rules only; modus ponens is not
primitive and is expanded as an identity leaf under an implication-left step
followed by a cut against the axiom leaf.
"""

from __future__ import annotations

from collections.abc import Sequence

from omlogic.axioms import MapRegistry, instantiate_axiom, unfolded
from omlogic.kernel import AxiomApp, CheckResult, Derivation, RuleApp, check_derivation
from omlogic.lattice import FiniteOrthoLattice
from omlogic.propagation import perfect_measurement_map
from omlogic.record import Record, Store
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
    "derive_chain",
    "derive_composed",
    "CrosscheckResult",
    "NoAlgebraicReading",
    "semantic_crosscheck",
]


def _rule(make, rule: str, context: tuple, succedent: Formula, *children) -> RuleApp:
    """The ``rule`` node concluding ``context |- succedent``, built by ``make``."""
    concl = make(Sequent, make(tuple, *context), succedent)
    return make(RuleApp, rule, concl, make(tuple, *children), None)


def _id(make, f: Formula) -> RuleApp:
    return _rule(make, "id", (f,), f)


def _modus_ponens(make, leaf: Derivation) -> RuleApp:
    """From a leaf concluding |- A -o B, derive A |- B (id + lolli_l + cut)."""
    lolli = leaf.conclusion.succedent
    assert isinstance(lolli, Lolli) and not leaf.conclusion.context
    a, b = lolli.antecedent, lolli.consequent
    elim = _rule(make, "lolli_l", (a, lolli), b, _id(make, a), _id(make, b))
    return _rule(make, "cut", (a,), b, leaf, elim)


def _axiom_step(lat: FiniteOrthoLattice, schema: str, **bindings: str) -> RuleApp:
    """Modus ponens on one instance of an implication-shaped schema."""
    make = lat._store.make
    binds = make(tuple, *[make(tuple, *b) for b in sorted(bindings.items())])
    leaf = make(AxiomApp, schema, binds, instantiate_axiom(lat, schema, bindings))
    return _modus_ponens(make, leaf)


def _check_nonzero(lat: FiniteOrthoLattice, role: str, el: str) -> None:
    lat.index(el)
    if el == "0":
        raise ValueError(f"{role} property must be nonzero")


def derive_distributivity(z: Formula, x: Formula, y: Formula) -> RuleApp:
    """Derivation of  z * (x + y) |- (z * x) + (z * y)  from id, tensor and
    plus rules only (the entailment direction actually used; the converse is
    neither assumed nor derived).  The tree is built in a store of its own,
    since no lattice is given."""
    return _distributivity(Store().make, z, x, y)


def _distributivity(make, z: Formula, x: Formula, y: Formula) -> RuleApp:
    zx, zy = make(Tensor, z, x), make(Tensor, z, y)
    goal_rhs = make(Plus, zx, zy)
    left = _rule(make, "plus_r1", (z, x), goal_rhs,
                 _rule(make, "tensor_r", (z, x), zx, _id(make, z), _id(make, x)))
    right = _rule(make, "plus_r2", (z, y), goal_rhs,
                  _rule(make, "tensor_r", (z, y), zy, _id(make, z), _id(make, y)))
    x_or_y = make(Plus, x, y)
    split = _rule(make, "plus_l", (z, x_or_y), goal_rhs, left, right)
    return _rule(make, "tensor_l", (make(Tensor, z, x_or_y),), goal_rhs, split)


def derive_measurement(lat: FiniteOrthoLattice, actual_el: str, measured: str) -> RuleApp:
    """Derivation for one two-outcome measurement on an entity whose actual
    and reachable property is ``actual_el``, built in the lattice's store,
    which remembers it: a second call with the same elements returns the
    same tree.

    When the actual property is comparable to neither outcome, the adjustment
    schema with the two-branch conclusion applies and the result ends in a
    disjunction of the two projected branches; when it lies under one of the
    outcomes, the degenerate adjustment applies and the entity is unchanged.
    """
    cores = lat._store.cores
    d = cores.get((actual_el, measured))
    if d is None:
        d = cores[actual_el, measured] = _measurement(lat, actual_el, measured)
    return d


def _measurement(lat: FiniteOrthoLattice, a: str, b: str) -> RuleApp:
    _check_nonzero(lat, "actual", a)
    _check_nonzero(lat, "measured", b)
    bo = lat.ortho(b)

    if lat.leq(a, b) or lat.leq(a, bo):
        return _axiom_step(lat, "Adjust2", x=b if lat.leq(a, b) else bo, y=a)

    make = lat._store.make
    # M(b) * (In(a) * R(a)) |- In(a) * (R(b) + R(b'))
    step1 = _axiom_step(lat, "Adjust1", x=b, y=a)
    step2 = _distributivity(make, actual(lat, a), reachable(lat, b), reachable(lat, bo))
    # In(a) * R(z) |- In(w) * R(w), for z = b and z = b', joined over their sum
    step3, step4 = (_axiom_step(lat, "Trans", y=a, z=z) for z in (b, bo))
    joined = _sum(make, step3, step4)
    goal_rhs = joined.conclusion.succedent
    after_distribution = _rule(make, "cut", step2.conclusion.context, goal_rhs, step2, joined)
    return _rule(make, "cut", step1.conclusion.context, goal_rhs, step1, after_distribution)


def _sum(make, left: RuleApp, right: RuleApp) -> RuleApp:
    """From proofs of G, L |- L' and G, R |- R', plus_l concluding
    G, L + R |- L' + R', each side lifted once by plus_r; when L' is R',
    plus_l concludes L' itself (A + A |- A needs no lift)."""
    lctx, rctx = left.conclusion.context, right.conclusion.context
    goal, other = left.conclusion.succedent, right.conclusion.succedent
    if goal is not other:
        goal = make(Plus, goal, other)
        left = _rule(make, "plus_r1", lctx, goal, left)
        right = _rule(make, "plus_r2", rctx, goal, right)
    return _rule(make, "plus_l", (*lctx[:-1], make(Plus, lctx[-1], rctx[-1])), goal, left, right)


def _plus_leaves(f: Formula) -> list[Formula]:
    """Leaves of a plus tree, left to right, found with an explicit stack."""
    leaves, todo = [], [f]
    while todo:
        f = todo.pop()
        if isinstance(f, Plus):
            todo += (f.right, f.left)
        else:
            leaves.append(f)
    return leaves


def derive_chain(
    lat: FiniteOrthoLattice, actual_el: str, measures: Sequence[str]
) -> RuleApp:
    """Derivation for a sequence of two-outcome measurements, first to last,
    on an entity whose actual and reachable property is ``actual_el``, built
    in the lattice's store.  The result concludes from the nested context
    M(m_k) * ( ... (M(m_1) * (In(a) * R(a)))) a disjunction of
    actual-and-reachable branches.  Each further measurement adds one stage,
    whose proof holds one subproof per distinct subtree of the stage before
    (:func:`_extend`); sibling sums that reach the same next stage are
    merged, so the chain's size follows its distinct branches, not 2^k.  One
    cut and one tensor_l join a stage to the chain so far, so each stage adds
    two derivation levels outside its own proof.
    """
    if not measures:
        raise ValueError("a measurement chain needs at least one measurement")
    for m in measures[1:]:  # reject a bad later measurement before building
        _check_nonzero(lat, "measured", m)
    d = derive_measurement(lat, actual_el, measures[0])
    for m in measures[1:]:
        d = _extend(lat, d, m)
    return d


def derive_composed(
    lat: FiniteOrthoLattice, actual_el: str, first: str, then: str
) -> RuleApp:
    """The two-measurement chain ``derive_chain(lat, actual_el, (first, then))``."""
    return derive_chain(lat, actual_el, (first, then))


def _extend(lat: FiniteOrthoLattice, base: RuleApp, then: str) -> RuleApp:
    """Extend a chain derivation by one more measurement: from M(then) * C,
    where ``base`` proves C |- S, conclude S': S with each branch In(u) * R(u)
    replaced by the conclusion of measuring ``then`` on u, and each sum of two
    equal sides by that side.  The stage proof is built bottom-up: each
    subtree f of S gets one proof of (M(then), f) |- f', and S repeats no
    subtree, since its branches are distinct and its equal sums merged.  A branch
    cuts its measurement proof; a sum is :func:`_sum` over the proofs of its
    sides.  Each proof is kept in the store's ``stages`` memo under
    (then, id(f)), so a subtree that a later stage or chain meets again under
    the same measurement is proved once per store.  One cut of ``base`` into
    the stage proof concludes (M(then), C) |- S', and one tensor_l fuses the
    context."""
    make, stages = lat._store.make, lat._store.stages
    m_then = measurement(lat, then)

    def prove(f: Formula) -> RuleApp:
        # keyed by ``then`` as given, as ``cores`` is: M(b) is M(b'), while
        # measuring b and b' order the branches of f' differently
        key = (then, id(f))
        p = stages.get(key)
        if p is not None:
            return p
        if isinstance(f, Plus):
            p = _sum(make, prove(f.left), prove(f.right))
        else:  # a branch In(u) * R(u)
            c = derive_measurement(lat, _in_and_r(f), then)  # [M(then) * f] |- f'
            pair = _rule(make, "tensor_r", (m_then, f), c.conclusion.context[0],
                         _id(make, m_then), _id(make, f))
            p = _rule(make, "cut", (m_then, f), c.conclusion.succedent, pair, c)
        stages[key] = p
        return p

    body = prove(base.conclusion.succedent)
    goal_rhs, base_ctx = body.conclusion.succedent, base.conclusion.context[0]
    joined = _rule(make, "cut", (m_then, base_ctx), goal_rhs, base, body)
    return _rule(make, "tensor_l", (make(Tensor, m_then, base_ctx),), goal_rhs, joined)


# -- semantic crosscheck ---------------------------------------------------------


class CrosscheckResult(Record):
    __slots__ = ("ok", "shape", "expected", "found", "reason")

    def __init__(
        self,
        ok: bool,
        shape: str | None = None,
        expected: frozenset[str] | None = None,
        found: frozenset[str] | None = None,
        reason: str | None = None,
    ):
        super().__init__(ok, shape, expected, found, reason)


class NoAlgebraicReading(ValueError):
    """A valid derivation whose conclusion is neither a measurement chain nor
    an IND(alpha) * In(a) propagation, so the algebra has nothing to compare."""


def _in_and_r(f: Formula) -> str | None:
    """The element u when ``f`` is In(u) * R(u) with a constant u, else None."""
    if (
        isinstance(f, Tensor)
        and isinstance(f.left, Actual)
        and isinstance(f.right, Reachable)
        and isinstance(f.left.term, Const)
        and f.left.term == f.right.term
    ):
        return f.left.term.name
    return None


def _in(f: Formula) -> str | None:
    """The element u when ``f`` is In(u) with a constant u, else None."""
    return f.term.name if isinstance(f, Actual) and isinstance(f.term, Const) else None


def _branch_set(f: Formula, read) -> frozenset[str] | None:
    """The elements ``read`` finds in the leaves of a plus tree; None when it
    finds none in some leaf."""
    names = [read(leaf) for leaf in _plus_leaves(f)]
    return None if None in names else frozenset(names)


def _measurement_chain(f: Formula) -> tuple[str, list[str]] | None:
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
    start = _in_and_r(f)
    if not sequence or start is None:
        return None
    return start, sequence[::-1]


def semantic_crosscheck(
    lat: FiniteOrthoLattice, d: Derivation, maps: MapRegistry | None = None
) -> CrosscheckResult:
    """Check a valid derivation's conclusion, read as ``A |- B`` whether it
    is written so or as ``|- A -o B``, against the propagation algebra: the
    disjunction's branch set must equal the actuality set computed
    independently by the corresponding maps.  A conclusion that is neither a
    measurement chain nor an IND(alpha) * In(a) propagation raises
    :class:`NoAlgebraicReading`.
    """
    maps = maps or {}
    verdict: CheckResult = check_derivation(lat, d, maps)
    if not verdict.valid:
        fail = verdict.failure
        return CrosscheckResult(
            False, reason=f"derivation invalid at {fail.path}: {fail.reason}"
        )
    seq = unfolded(lat, lat._store.intern(d.conclusion))
    ctx = seq.context[0] if len(seq.context) == 1 else None

    chain = _measurement_chain(ctx)
    found = _branch_set(seq.succedent, _in_and_r)
    if chain is not None and found is not None:
        start, sequence = chain
        current = frozenset({start})
        for m in sequence:
            current = perfect_measurement_map(lat, m).apply(current)
        shape = "measurement" if len(sequence) == 1 else "composed"
        return CrosscheckResult(current == found, shape, current, found)

    if isinstance(ctx, Tensor) and isinstance(ctx.left, Induced):
        start, found = _in(ctx.right), _branch_set(seq.succedent, _in)
        if start is not None and found is not None:
            alpha = ctx.left.alpha
            if alpha not in maps:
                return CrosscheckResult(False, reason=f"unknown propagation map {alpha!r}")
            expected = maps[alpha].apply({start})
            return CrosscheckResult(expected == found, "general-propagation", expected, found)

    raise NoAlgebraicReading(
        "no algebraic reading for this conclusion; crosscheck reads measurement "
        "chains and IND(alpha) * In(a) propagation"
    )
