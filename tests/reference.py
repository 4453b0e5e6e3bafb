"""Code the library replaced, kept as references.

``FormulaParser`` is the recursive token grammar of formulas and sequents
that ``formats._Reader`` replaced, with its cap of ``MAX_DEPTH`` nesting
levels: the reader's trees and errors are compared against it.

``reference_extend`` is the top-down step: a separate ``mirror`` walk builds
the next goal, and every branch proof climbs through plus_r steps to it.
``unmerged_extend`` is the bottom-up step before sibling sums that reach the
same next stage were merged: every sum L + R of a stage becomes L' + R', so
a chain's conclusion holds 2^k branches.  The reader corpora whose answers
were recorded on those trees (``conftest.short_chains(family, unmerged=True)``
and ``gen.random_derivation``) are built with it.
"""

from __future__ import annotations

import re

from omlogic.derive import _id, _in_and_r, _rule, derive_measurement
from omlogic.formats import _ATOM_CLASSES, _TOKEN_RE, _TOKENS, _Parser
from omlogic.syntax import (
    Constraint,
    Const,
    Forall,
    Induced,
    Lolli,
    OrthoTerm,
    Plus,
    Sequent,
    Tensor,
    Var,
    _atom,
    measurement,
    normalize_term,
)

# Deepest formula nesting the reference grammar accepts: parentheses, '-o',
# 'forall' and 'ortho' (a '+' chain is read in a loop), counted from each
# formula of a sequent.  It recurses per level, so the cap keeps every input
# far from Python's recursion limit.
MAX_DEPTH = 100


class FormulaParser(_Parser):
    """The recursive token grammar of formulas and sequents."""

    pattern = _TOKEN_RE
    token = re.compile(_TOKENS).match
    marks = frozenset(["-o", "|-", "!<=", "!in", "<=", *"()*+,.{}", ""])

    def __init__(self, text, lat):
        super().__init__(text, lat)
        self.depth = 0
        self.bound: list[str] = []

    def descend(self) -> None:
        """Enter one nesting level at the next token; callers step back out
        by decrementing ``depth``."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.error(f"nesting deeper than {MAX_DEPTH} levels")

    def expect(self, text: str) -> str:
        tok = self.peek()
        if tok != text:
            self.error(f"expected {text!r}, found {tok or 'end of input'!r}", {text})
        return self.advance()

    # grammar: formula := lolli; lolli := sum [-o lolli];
    # sum := product (+ product)*; product := unit [* unit];
    # unit := atom | ( formula ) | forall

    def parse_formula_text(self):
        f = self.formula()
        if self.peek():
            self.error(f"trailing input {self.peek()!r}", {"end of input"})
        return f

    def parse_sequent_text(self):
        ctx = []
        if self.peek() != "|-":
            ctx.append(self.formula())
            while self.peek() == ",":
                self.advance()
                ctx.append(self.formula())
        if self.peek() != "|-":
            self.error("expected '|-'", {"|-", ","})
        self.advance()
        rhs = self.formula()
        if self.peek():
            self.error(f"trailing input {self.peek()!r}", {"end of input"})
        return self.make(Sequent, self.make(tuple, *ctx), rhs)

    def formula(self):
        self.descend()
        out = self.sum()
        if self.peek() == "-o":
            self.advance()
            out = self.make(Lolli, out, self.formula())
        self.depth -= 1
        return out

    def sum(self):
        out = self.product()
        while self.peek() == "+":
            self.advance()
            out = self.make(Plus, out, self.product())
        return out

    def product(self):
        left = self.unit()
        if self.peek() != "*":
            return left
        self.advance()
        right = self.unit()
        if self.peek() == "*":
            self.error(
                "'*' is non-associative; parenthesize nested conjunctions",
                {"+", "-o", ")", ",", "|-", "end of input"},
            )
        return self.make(Tensor, left, right)

    def unit(self):
        tok = self.peek()
        if tok == "(":
            self.advance()
            f = self.formula()
            self.expect(")")
            return f
        if tok == "forall":
            return self.forall()
        if tok in ("In", "R", "M", "IND"):
            return self.atom()
        self.error(
            f"expected a formula, found {tok or 'end of input'!r}",
            {"In", "R", "M", "IND", "(", "forall"},
        )

    def atom(self):
        at = self.pos
        head = self.advance()
        self.expect("(")
        if head == "IND":
            name = self.name("expected a map name")
            self.expect(")")
            return self.make(Induced, name)
        term = self.normal_term()
        self.expect(")")
        try:
            return _atom(self.lat, _ATOM_CLASSES[head], term)
        except ValueError as err:  # In or R of 0
            self.error(str(err), at=at)

    def normal_term(self):
        t = self.term()
        return normalize_term(t, self.lat) if t.__class__ is OrthoTerm else t

    def term(self):
        tok = self.peek()
        if tok == "ortho":
            self.descend()
            self.advance()
            self.expect("(")
            inner = self.term()
            self.expect(")")
            self.depth -= 1
            return self.make(OrthoTerm, inner)
        if not self.is_name(tok):
            self.error("expected a term", {"<name>", "ortho"})
        self.advance()
        if tok in self.lat and tok not in self.bound:
            return self.make(Const, tok)
        return self.make(Var, tok)

    def forall(self):
        self.expect("forall")
        var = self.name("expected a variable name")
        guard = []
        if self.peek() == "{":
            self.advance()
            if self.peek() != "}":
                guard.append(self.constraint())
                while self.peek() == ",":
                    self.advance()
                    guard.append(self.constraint())
            self.expect("}")
        self.expect(".")
        self.bound.append(var)
        try:
            body = self.formula()
        finally:
            self.bound.pop()
        return self.make(Forall, var, self.make(tuple, *guard), body)

    def constraint(self):
        tok = self.peek()
        if tok == "<=" or tok == "!<=":
            self.advance()
            return self.make(Constraint, tok, self.normal_term())
        if tok == "!in":
            self.advance()
            self.expect("K")
            self.expect("(")
            name = self.name("expected a map name")
            self.expect(")")
            return self.make(Constraint, "!inK", name)
        self.error("expected a guard constraint", {"<=", "!<=", "!in"})


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
