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

from collections import Counter
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


# -- normalization, variables and substitution -----------------------------------


_NODES = frozenset([Const, Var, OrthoTerm, Actual, Reachable, Measurement, Induced,
                    Tensor, Plus, Lolli, Forall, Constraint, tuple])


def _fold(root, lat: FiniteOrthoLattice | None, free):
    """The one walk over a formula or a term, in post-order, with an
    explicit stack, so a tree of any depth is walked.  ``free`` is called
    with the name of each variable occurrence that no enclosing quantifier
    binds (a quantifier's guard is in its scope) and returns the term to put
    in its place, or None to keep it.  With ``lat``, each node is rebuilt in
    the lattice's store from its folded parts, in normal form (see
    :func:`normalize_formula`), and the root's is returned; without, nothing
    is built and None is returned."""
    make = lat._store.make if lat is not None else None
    bound = Counter()  # variable name -> the enclosing quantifiers that bind it
    done = []  # the folded parts, in order; a string part as it is
    todo = [(root, None)]  # (node, the number of its parts once they are pushed)
    while todo:
        x, n = todo.pop()
        cls = x.__class__
        if n is None:
            if cls is str:
                done.append(x)
                continue
            if cls not in _NODES:
                raise TypeError(f"not a formula: {x!r}")
            if cls is Var and not bound[x.name]:
                term = free(x.name)
                if term is not None:
                    done.append(term)
                    continue
            if cls is Forall:
                bound[x.var] += 1
            parts = x if cls is tuple else x._values()
            todo.append((x, len(parts)))
            todo += [(p, None) for p in reversed(parts)]
            continue
        parts = done[len(done) - n:]
        del done[len(done) - n:]
        if cls is Forall:
            bound[x.var] -= 1
        if make is None:
            x = None
        elif cls is OrthoTerm and parts[0].__class__ is Const:
            x = make(Const, lat.ortho(parts[0].name))
        elif cls is OrthoTerm and parts[0].__class__ is OrthoTerm:
            x = parts[0].arg  # a double complement cancels
        elif cls in (Actual, Reachable, Measurement):
            x = _atom(lat, cls, *parts)
        else:
            x = make(cls, *parts)
        done.append(x)
    return done[0]


def normalize_formula(
    f: Formula | Term, lat: FiniteOrthoLattice, var: str | None = None, value: Term | None = None
) -> Formula | Term:
    """The normal form of a formula or a term ``f``, built in the lattice's
    store: complement formers evaluated over constants through the lattice
    and double complements cancelled everywhere, guard bounds included, and
    measurement atoms canonical.  With ``var`` given, its free occurrences
    are first replaced by the normal form of ``value`` (a quantifier binding
    ``var`` shadows it, guard included).  ``In``/``R`` of 0 raise
    :class:`ValueError`."""
    sub = {} if var is None else {var: _fold(value, lat, {}.get)}
    return _fold(f, lat, sub.get)


normalize_term = normalize_formula  # one normalizer for both sorts


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


def free_vars(f: Formula) -> frozenset[str]:
    """The variables that occur free in ``f``."""
    found: set[str] = set()
    _fold(f, None, found.add)
    return frozenset(found)


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
    """A term is ``ortho`` n times over a name: the surface's text before
    the complemented part n times, the name, the text after it n times."""
    orthos = 0
    while isinstance(t, OrthoTerm):
        t, orthos = t.arg, orthos + 1
    if not orthos:
        return t.name
    before, _, after = s.ortho.partition("{}")
    return f"{before * orthos}{t.name}{after * orthos}"


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
