"""Formula language for property transitions.

Atoms state that a property is actual (``In``), that exactly one property is
reachable (``R``), that a two-outcome measurement context is imposed (``M``),
or that a named propagation map is induced (``IND``).  Connectives are a
non-associative multiplicative conjunction, an additive disjunction, and a
linear implication, plus a guarded universal quantifier over property terms.

Terms are constants (lattice element names), variables, or an
orthocomplement former.  Normalization reduces the former over constants and
cancels double complements; the measurement atom is canonicalized to one
representative of its unordered outcome pair.  Formula equality is plain
structural equality of the normalized trees; in particular the two groupings
of a triple conjunction are distinct formulas.
"""

from __future__ import annotations

from typing import NamedTuple, Union

from omlogic.lattice import FiniteOrthoLattice
from omlogic.record import Record, _set

__all__ = [
    "Const",
    "Var",
    "OrthoTerm",
    "Term",
    "Actual",
    "Reachable",
    "Measurement",
    "Induced",
    "Tensor",
    "Plus",
    "Lolli",
    "Forall",
    "Constraint",
    "Formula",
    "Sequent",
    "normalize_term",
    "actual",
    "reachable",
    "measurement",
    "free_vars",
    "substitute",
    "ascii_term",
    "ascii_formula",
    "ascii_sequent",
    "pretty_formula",
    "pretty_sequent",
]


class Const(Record):
    __slots__ = ("name",)

    name: str


class Var(Record):
    __slots__ = ("name",)

    name: str


class OrthoTerm(Record):
    __slots__ = ("arg",)

    arg: Term


Term = Union[Const, Var, OrthoTerm]


class _Rendered(Record):
    """A slot below a record's fields, which the constructor leaves unset and
    ``repr``, equality, hashing and copies ignore.  It is filled the first
    time the record is written in ASCII, so each object is rendered once for
    its life: a formula's or a sequent's ``_text`` is its ASCII text (see
    :func:`_ascii`), a derivation node's its head line, unindented (see
    ``formats.serialize``).  The pretty surface never reads it."""

    __slots__ = ("_text",)


class Actual(_Rendered):
    __slots__ = ("term",)

    term: Term


class Reachable(_Rendered):
    __slots__ = ("term",)

    term: Term


class Measurement(_Rendered):
    __slots__ = ("term",)

    term: Term


class Induced(_Rendered):
    __slots__ = ("alpha",)

    alpha: str


class Tensor(_Rendered):
    __slots__ = ("left", "right")

    left: Formula
    right: Formula


class Plus(_Rendered):
    __slots__ = ("left", "right")

    left: Formula
    right: Formula


class Lolli(_Rendered):
    __slots__ = ("antecedent", "consequent")

    antecedent: Formula
    consequent: Formula


class Constraint(Record):
    """One guard conjunct.  ``op`` is ``<=`` or ``!<=`` with a term on the
    right, or ``!inK`` with a propagation-map name on the right."""

    __slots__ = ("op", "rhs")

    op: str
    rhs: Term | str


class Forall(_Rendered):
    __slots__ = ("var", "guard", "body")

    var: str
    guard: tuple[Constraint, ...]
    body: Formula


Formula = Union[Actual, Reachable, Measurement, Induced, Tensor, Plus, Lolli, Forall]

ATOMS = (Actual, Reachable, Measurement, Induced)


class Sequent(_Rendered):
    """Ordered context and a single succedent.  Order is significant: there is
    no implicit exchange, weakening, or contraction."""

    __slots__ = ("context", "succedent")

    context: tuple[Formula, ...]
    succedent: Formula


# -- normalization -------------------------------------------------------------


def normalize_term(
    t: Term, lat: FiniteOrthoLattice, var: str | None = None, value: Term | None = None
) -> Term:
    """Reduce complement formers: over constants evaluate via the lattice,
    and cancel double complements everywhere.  With ``var`` given, that
    variable is first replaced by ``value``.  The result is built in the
    lattice's store."""
    make = lat._store.make
    if isinstance(t, OrthoTerm):
        inner = normalize_term(t.arg, lat, var, value)
        if isinstance(inner, Const):
            return make(Const, lat.ortho(inner.name))
        if isinstance(inner, OrthoTerm):
            return inner.arg
        return make(OrthoTerm, inner)
    if isinstance(t, Var) and t.name == var:
        return normalize_term(value, lat)
    if isinstance(t, (Const, Var)):
        return make(t.__class__, t.name)
    return t


def _atom(lat: FiniteOrthoLattice, cls: type, term: Term) -> Formula:
    """The ``cls`` atom (``Actual``, ``Reachable`` or ``Measurement``) of the
    normalized ``term``, built in the lattice's store.  A constant must be an
    element; ``In``/``R`` of 0 raise :class:`ValueError`; a measurement of a
    constant is made canonical as :func:`measurement` says."""
    make = lat._store.make
    if isinstance(term, Const):
        name = term.name
        lat.index(name)
        if cls is Measurement:
            pair = [p for p in (name, lat.ortho(name)) if p != "0"]
            term = make(Const, min(pair, key=lat.index))
        elif name == "0":
            atom = "In" if cls is Actual else "R"
            raise ValueError(f"{atom} cannot hold the absurd property 0")
    return make(cls, term)


def actual(lat: FiniteOrthoLattice, name: str) -> Actual:
    return _atom(lat, Actual, lat._store.make(Const, name))


def reachable(lat: FiniteOrthoLattice, name: str) -> Reachable:
    return _atom(lat, Reachable, lat._store.make(Const, name))


def measurement(lat: FiniteOrthoLattice, name: str) -> Measurement:
    """Measurement atom, canonicalized to one member of the unordered outcome
    pair {x, x'}: the nonzero member of least index."""
    return _atom(lat, Measurement, lat._store.make(Const, name))


def normalize_formula(
    f: Formula, lat: FiniteOrthoLattice, var: str | None = None, value: Term | None = None
) -> Formula:
    """The normal form of ``f``, built in the lattice's store: terms and guard
    bounds normalized, measurement atoms canonical.  With ``var`` given, its
    free occurrences are first replaced by ``value`` (a quantifier binding
    ``var`` shadows it, guard included).  ``In``/``R`` of 0 raise
    :class:`ValueError`."""
    make = lat._store.make
    if isinstance(f, (Actual, Reachable, Measurement)):
        return _atom(lat, f.__class__, normalize_term(f.term, lat, var, value))
    if isinstance(f, Induced):
        return make(Induced, f.alpha)
    if isinstance(f, (Tensor, Plus)):
        return make(
            f.__class__,
            normalize_formula(f.left, lat, var, value),
            normalize_formula(f.right, lat, var, value),
        )
    if isinstance(f, Lolli):
        return make(
            Lolli,
            normalize_formula(f.antecedent, lat, var, value),
            normalize_formula(f.consequent, lat, var, value),
        )
    if isinstance(f, Forall):
        if f.var == var:
            var = value = None  # shadowed
        guard = make(tuple, *[
            make(Constraint, c.op,
                 c.rhs if c.op == "!inK" else normalize_term(c.rhs, lat, var, value))
            for c in f.guard
        ])
        return make(Forall, f.var, guard, normalize_formula(f.body, lat, var, value))
    raise TypeError(f"not a formula: {f!r}")


# -- variables and substitution --------------------------------------------------


def _term_vars(t: Term) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset({t.name})
    if isinstance(t, OrthoTerm):
        return _term_vars(t.arg)
    return frozenset()


def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, (Actual, Reachable, Measurement)):
        return _term_vars(f.term)
    if isinstance(f, Induced):
        return frozenset()
    if isinstance(f, (Tensor, Plus)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, Lolli):
        return free_vars(f.antecedent) | free_vars(f.consequent)
    if isinstance(f, Forall):
        inner = free_vars(f.body)
        for c in f.guard:
            if c.op != "!inK":
                inner |= _term_vars(c.rhs)
        return inner - {f.var}
    raise TypeError(f"not a formula: {f!r}")


def substitute(f: Formula, var: str, value: Term, lat: FiniteOrthoLattice) -> Formula:
    """Replace a free variable by a term; the result is in normal form."""
    return normalize_formula(f, lat, var, value)


# -- rendering -------------------------------------------------------------------


class _Surface(NamedTuple):
    """The symbols of one surface syntax; ``{}`` marks where a part goes."""

    ortho: str  # complement of a term
    measurement: str  # M atom, its term as {0}
    tensor: str
    plus: str
    lolli: str
    turnstile: str
    forall: str  # quantifier head, the variable as {}
    guard: str  # a nonempty guard after the head, its conjuncts as {}
    ops: dict[str, str]  # guard operator -> symbol before its right-hand side


_ASCII = _Surface(
    "ortho({})", "M({0})", " * ", " + ", " -o ", "|-", "forall {}", " {{{}}}",
    {"<=": "<= ", "!<=": "!<= ", "!inK": "!in K"},
)
_PRETTY = _Surface(
    "{}⊥", "M({0}, {0}⊥)", " ⊗ ", " ⊕ ", " ⊸ ", "⊢", "∀{}", "{{{}}}",
    {"<=": "≤ ", "!<=": "≰ ", "!inK": "∉ K"},
)


def _term(t: Term, s: _Surface) -> str:
    if isinstance(t, OrthoTerm):
        return s.ortho.format(_term(t.arg, s))
    return t.name


def _render(f: Formula, s: _Surface) -> str:
    """The multiplicative conjunction requires explicit parentheses for
    nesting; the additive disjunction is written left-associated; the
    implication is right-associated and lowest.  The walk keeps an explicit
    stack of formulas and literal text, so a formula of any depth renders."""
    out = []
    todo = [f]
    while todo:
        f = todo.pop()
        if f.__class__ is str:
            out.append(f)
        elif isinstance(f, Actual):
            out.append(f"In({_term(f.term, s)})")
        elif isinstance(f, Reachable):
            out.append(f"R({_term(f.term, s)})")
        elif isinstance(f, Measurement):
            out.append(s.measurement.format(_term(f.term, s)))
        elif isinstance(f, Induced):
            out.append(f"IND({f.alpha})")
        elif isinstance(f, Tensor):
            todo += _wrap(f.right, not isinstance(f.right, ATOMS))
            todo.append(s.tensor)
            todo += _wrap(f.left, not isinstance(f.left, ATOMS))
        elif isinstance(f, Plus):
            todo += _wrap(f.right, isinstance(f.right, (Plus, Lolli, Forall)))
            todo.append(s.plus)
            todo += _wrap(f.left, isinstance(f.left, (Lolli, Forall)))
        elif isinstance(f, Lolli):
            todo += (f.consequent, s.lolli)
            todo += _wrap(f.antecedent, isinstance(f.antecedent, (Lolli, Forall)))
        elif isinstance(f, Forall):
            head = s.forall.format(f.var)
            if f.guard:
                head += s.guard.format(", ".join(
                    s.ops[c.op] + (f"({c.rhs})" if c.op == "!inK" else _term(c.rhs, s))
                    for c in f.guard
                ))
            out.append(f"{head} . ")
            todo.append(f.body)
        else:
            raise TypeError(f"not a formula: {f!r}")
    return "".join(out)


def _wrap(f: Formula, needed: bool) -> tuple:
    """``f`` as ``_render`` pushes it, in parentheses when ``needed``."""
    return (")", f, "(") if needed else (f,)


def _ascii(x: Formula | Sequent) -> str:
    """The ASCII text of a formula or a sequent, kept in its ``_text`` slot:
    each object is rendered once for its life."""
    text = getattr(x, "_text", None)  # unset until first rendered
    if text is None:
        text = _sequent(x, _ASCII) if x.__class__ is Sequent else _render(x, _ASCII)
        _set(x, "_text", text)
    return text


def _sequent(q: Sequent, s: _Surface) -> str:
    """On the ASCII surface each formula's text is kept on the formula."""
    render = _ascii if s is _ASCII else lambda f: _render(f, s)
    rhs = f"{s.turnstile} {render(q.succedent)}"
    return ", ".join(map(render, q.context)) + " " + rhs if q.context else rhs


def ascii_term(t: Term) -> str:
    return _term(t, _ASCII)


def ascii_formula(f: Formula) -> str:
    """Canonical surface form, the one files use."""
    return _ascii(f)


def ascii_sequent(s: Sequent) -> str:
    return _ascii(s)


def pretty_formula(f: Formula) -> str:
    """Display-only Unicode form; files always use the ASCII surface."""
    return _render(f, _PRETTY)


def pretty_sequent(s: Sequent) -> str:
    return _sequent(s, _PRETTY)
