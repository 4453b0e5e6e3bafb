"""Proof kernel: derivation trees and their validation.

Rules (single succedent, no exchange/weakening/contraction; contexts are
ordered and split exactly):

    id        A |- A
    cut       G |- A   and   G1, A, G2 |- D      gives  G1, G, G2 |- D
    tensor_r  G1 |- A  and   G2 |- B             gives  G1, G2 |- A * B
    tensor_l  G1, A, B, G2 |- D                  gives  G1, (A * B), G2 |- D
    plus_r1   G |- A                             gives  G |- A + B
    plus_r2   G |- B                             gives  G |- A + B
    plus_l    G1, A, G2 |- D  and  G1, B, G2 |- D  gives  G1, (A + B), G2 |- D
    lolli_r   A, G |- B                          gives  G |- A -o B
    lolli_l   G |- A   and   G1, B, G2 |- D      gives  G1, G, (A -o B), G2 |- D
    forall_r  G |- A                             gives  G |- forall x . A
              (x not free in G)
    forall_l  G1, A[w/x], G2 |- D                gives  G1, forall x A, G2 |- D
              (explicit ground witness w; the guard must hold for w)

Axiom leaves carry a schema name and bindings; they are valid when the
re-instantiated schema (in either its implication or unfolded form)
reproduces the stored conclusion and its guard passes.
"""

from __future__ import annotations

from operator import is_
from typing import Union

from omlogic.axioms import (
    GuardViolation, MapRegistry, UnknownSchemaError, instantiate_axiom, unfolded
)
from omlogic.lattice import FiniteOrthoLattice, LatticeError
from omlogic.propagation import kill_set
from omlogic.record import Record
from omlogic.syntax import (
    Const,
    Constraint,
    Forall,
    Lolli,
    Plus,
    Sequent,
    Tensor,
    Term,
    _Rendered,
    ascii_term,
    free_vars,
    normalize_term,
    substitute,
)

__all__ = [
    "RuleApp",
    "AxiomApp",
    "Derivation",
    "RULE_ARITY",
    "CheckFailure",
    "CheckResult",
    "check_derivation",
]


class RuleApp(_Rendered):
    """An inference step; ``witness`` is the instance term of ``forall_l``."""

    __slots__ = ("rule", "conclusion", "children", "witness")

    def __init__(
        self,
        rule: str,
        conclusion: Sequent,
        children: tuple[Derivation, ...],
        witness: Term | None = None,
    ):
        super().__init__(rule, conclusion, children, witness)


class AxiomApp(_Rendered):
    """An axiom leaf; ``bindings`` are sorted (variable, value) pairs."""

    __slots__ = ("schema", "bindings", "conclusion")

    schema: str
    bindings: tuple[tuple[str, str], ...]
    conclusion: Sequent


Derivation = Union[RuleApp, AxiomApp]

RULE_ARITY = {
    "id": 0,
    "cut": 2,
    "tensor_r": 2,
    "tensor_l": 1,
    "plus_r1": 1,
    "plus_r2": 1,
    "plus_l": 2,
    "lolli_r": 1,
    "lolli_l": 2,
    "forall_r": 1,
    "forall_l": 1,
}


class CheckFailure(Record):
    """The first failing node: its path from the root, rule, reason and
    conclusion (None when the node is not a derivation node)."""

    __slots__ = ("path", "rule", "reason", "conclusion")

    def __init__(
        self, path: tuple[int, ...], rule: str, reason: str, conclusion: Sequent | None = None
    ):
        super().__init__(path, rule, reason, conclusion)


class CheckResult(Record):
    """The verdict of one :func:`check_derivation` call; ``failure`` is None
    when valid."""

    __slots__ = ("failure",)

    def __init__(self, failure: CheckFailure | None = None):
        super().__init__(failure)

    @property
    def valid(self) -> bool:
        return self.failure is None


_VALID = CheckResult()  # every valid verdict: records are immutable, so one is shared

def _eval_guard(
    lat: FiniteOrthoLattice, guard: tuple[Constraint, ...], w: str, maps: MapRegistry
) -> str | None:
    """Evaluate a guard for the element ``w``; returns the violated
    constraint text, or None when all conjuncts hold."""
    for c in guard:
        if c.op == "!inK":
            if c.rhs not in maps:
                return f"unknown propagation map {c.rhs!r}"
            if maps[c.rhs].lattice != lat:
                return f"map {c.rhs!r} is over a different lattice"
            if w == "0" or w in kill_set(maps[c.rhs]):
                return f"!in K({c.rhs}) fails for {w}"
            continue
        if not isinstance(c.rhs, Const):
            return f"guard bound {ascii_term(c.rhs)} is not ground"
        holds = lat.leq(w, c.rhs.name)
        if c.op == "<=" and not holds:
            return f"<= {c.rhs.name} fails for {w}"
        if c.op == "!<=" and holds:
            return f"!<= {c.rhs.name} fails for {w}"
    return None


def check_derivation(
    lat: FiniteOrthoLattice, d: Derivation, maps: MapRegistry | None = None
) -> CheckResult:
    """Validate every node; the verdict carries the first failing node (in
    post-order) with its path from the root, a reason and its conclusion.

    The tree is first taken into the lattice's store (a tree built or parsed
    over the lattice is there already, and any other is copied in once), so
    equal trees are one tree and every part the rules compare or build is
    the store's: the rules compare parts by identity, never by walking them.
    The walk keeps an explicit stack, so a tree of any depth gets a verdict.
    Each node found valid is remembered by identity and skipped wherever it
    occurs again: in a shared subproof, in a later call on the same tree, in
    another tree that shares it.  The memo lives in the store, which keeps
    every node it names alive; a call with a map registry keeps a memo of
    its own, because its verdicts depend on the maps.  Only valid verdicts
    are kept, so the first failing node, its path and its reason are those
    of a full walk, and the failure names the node of the tree as given.
    """
    given, d = d, lat._store.intern(d)
    valid = set() if maps else lat._store.verdicts
    if id(d) in valid:
        return _VALID
    maps = maps or {}
    stack = [[d, 0]]  # the node being checked and its ancestors, each with its next child
    while stack:
        frame = stack[-1]
        node = frame[0]
        if isinstance(node, RuleApp):
            children, i = node.children, frame[1]
            while i < len(children) and id(children[i]) in valid:
                i += 1
            if i < len(children):
                frame[1] = i + 1
                stack.append([children[i], 0])
                continue
            reason = _check_rule(lat, node, maps)
        elif isinstance(node, AxiomApp):
            reason = _check_axiom(lat, node, maps)
        else:
            reason = f"not a derivation node: {node!r}"
        if reason is not None:
            return _failure(given, [frame[1] - 1 for frame in stack[:-1]], reason)
        valid.add(id(node))
        stack.pop()
    return _VALID


def _failure(d: Derivation, path: list[int], reason: str) -> CheckResult:
    """The verdict for the node of ``d`` at ``path``, which failed."""
    node = d
    for i in path:
        node = node.children[i]
    path = tuple(path)
    if isinstance(node, RuleApp):
        rule = node.rule
    elif isinstance(node, AxiomApp):
        rule = f"axiom {node.schema}"
    else:
        return CheckResult(CheckFailure(path, "?", reason))
    return CheckResult(CheckFailure(path, rule, reason, node.conclusion))


def _same(a: tuple, b: tuple) -> bool:
    """Whether two contexts hold the same store formulas, in order."""
    return len(a) == len(b) and all(map(is_, a, b))


def _check_axiom(lat, node: AxiomApp, maps) -> str | None:
    try:
        base = instantiate_axiom(lat, node.schema, dict(node.bindings), maps)
    except GuardViolation as g:
        return f"guard violated: {g}"
    except (LatticeError, ValueError, UnknownSchemaError) as err:
        return str(err)
    if node.conclusion is not base and node.conclusion is not unfolded(lat, base):
        return "conclusion does not match the instantiated schema"
    return None


def _check_rule(lat, node: RuleApp, maps) -> str | None:
    rule = node.rule
    if rule not in RULE_ARITY:
        return f"unknown rule {rule!r}"
    if len(node.children) != RULE_ARITY[rule]:
        return (
            f"{rule} expects {RULE_ARITY[rule]} premises, "
            f"got {len(node.children)}"
        )
    if node.witness is not None and rule != "forall_l":
        return f"{rule} takes no witness"
    prem = [c.conclusion for c in node.children]
    concl = node.conclusion
    ctx, rhs = concl.context, concl.succedent

    if rule == "id":
        if len(ctx) == 1 and ctx[0] is rhs:
            return None
        return "id requires a single context formula equal to the succedent"

    if rule == "cut":
        left, right = prem
        if rhs is not right.succedent:
            return "cut conclusion succedent differs from the right premise"
        for j, f in enumerate(right.context):
            if f is not left.succedent:
                continue
            expected = right.context[:j] + left.context + right.context[j + 1 :]
            if _same(ctx, expected):
                return None
        return "no cut-formula position reproduces the conclusion context"

    if rule == "tensor_r":
        left, right = prem
        if not isinstance(rhs, Tensor):
            return "tensor_r succedent is not a tensor"
        if rhs.left is not left.succedent or rhs.right is not right.succedent:
            return "tensor parts differ from the premise succedents"
        if not _same(ctx, left.context + right.context):
            return "context is not the ordered concatenation of the premises"
        return None

    if rule == "tensor_l":
        (p,) = prem
        if rhs is not p.succedent:
            return "tensor_l changes the succedent"
        for j, f in enumerate(ctx):
            if not isinstance(f, Tensor):
                continue
            expected = ctx[:j] + (f.left, f.right) + ctx[j + 1 :]
            if _same(p.context, expected):
                return None
        return "no tensor position splits into the premise context"

    if rule in ("plus_r1", "plus_r2"):
        (p,) = prem
        if not isinstance(rhs, Plus):
            return f"{rule} succedent is not a plus"
        part = rhs.left if rule == "plus_r1" else rhs.right
        if part is not p.succedent:
            return "selected disjunct differs from the premise succedent"
        if not _same(ctx, p.context):
            return f"{rule} changes the context"
        return None

    if rule == "plus_l":
        left, right = prem
        if left.succedent is not rhs or right.succedent is not rhs:
            return "plus_l premises must share the conclusion succedent"
        for j, f in enumerate(ctx):
            if not isinstance(f, Plus):
                continue
            if (
                _same(left.context, ctx[:j] + (f.left,) + ctx[j + 1 :])
                and _same(right.context, ctx[:j] + (f.right,) + ctx[j + 1 :])
            ):
                return None
        return "no plus position matches both premise contexts"

    if rule == "lolli_r":
        (p,) = prem
        if not isinstance(rhs, Lolli):
            return "lolli_r succedent is not an implication"
        if p.succedent is not rhs.consequent:
            return "premise succedent differs from the consequent"
        if not _same(p.context, (rhs.antecedent,) + ctx):
            return "premise context must be the antecedent followed by the context"
        return None

    if rule == "lolli_l":
        left, right = prem
        if rhs is not right.succedent:
            return "lolli_l conclusion succedent differs from the right premise"
        for j, f in enumerate(right.context):
            expected = (
                right.context[:j]
                + left.context
                + (lat._store.make(Lolli, left.succedent, f),)
                + right.context[j + 1 :]
            )
            if _same(ctx, expected):
                return None
        return "no implication position reproduces the conclusion context"

    if rule == "forall_r":
        (p,) = prem
        if not isinstance(rhs, Forall):
            return "forall_r succedent is not a quantifier"
        if p.succedent is not rhs.body:
            return "premise succedent differs from the quantifier body"
        if not _same(p.context, ctx):
            return "forall_r changes the context"
        for f in ctx:
            if rhs.var in free_vars(f):
                return f"eigenvariable {rhs.var!r} is free in the context"
        return None

    # forall_l, the last rule
    (p,) = prem
    if node.witness is None:
        return "forall_l requires an explicit witness term"
    witness = normalize_term(node.witness, lat)
    if not isinstance(witness, Const):
        return f"witness {ascii_term(node.witness)} is not ground"
    if rhs is not p.succedent:
        return "forall_l changes the succedent"
    failure = None
    for j, f in enumerate(ctx):
        if not isinstance(f, Forall):
            continue
        try:
            instance = substitute(f.body, f.var, witness, lat)
        except ValueError as err:  # the witness makes an In or R atom absurd
            failure = f"instance for witness {witness.name}: {err}"
            continue
        if not _same(p.context, ctx[:j] + (instance,) + ctx[j + 1 :]):
            continue
        violation = _eval_guard(lat, f.guard, witness.name, maps)
        if violation is None:
            return None
        failure = f"guard violated: {violation}"
    return failure or "no quantifier position matches the instantiated premise"
