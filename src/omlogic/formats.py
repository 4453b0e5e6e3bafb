"""Parsers and serializers with round-trip guarantees.

Five value kinds travel through text: lattices and maps use line-oriented
formats, formulas and sequents an infix grammar, and derivations a nested
s-expression format.  All files are ASCII with ``#`` comments to end of line;
parse errors carry a source span pointing inside the offending token plus the
set of expected tokens.  The formula and derivation token parsers read their
tokens as strings, from one ``findall`` of their grammar's pattern, each token
after a gap of whitespace and comments; where a token starts is worked out
only when an error is raised.  Every formula, sequent and derivation node is
built in the lattice's store (``omlogic.record.Store``), which holds one
object per value, and sequents are memoized per lattice by their text (see
:func:`parse_sequent`).

Derivation files are read by one split at their quotes.  A sequent string
holds neither ``"`` nor a newline, so ``text.split('"')`` alternates pieces
of structure and sequent strings.  Each sequent string is looked up in the
store's text memo, and each piece in its piece memo, which holds the piece's
program: the ``)`` that closes a ``(seq``, an optional witness, the closes
that follow and the next node head.  A new piece is read once per store by
the methods of the derivation token grammar, so a piece's grammar is that
grammar, and a piece indented anew is found under its tokens.  So a file
reads at one ``split`` and a few lookups per node, comments may stand
wherever whitespace may, equal subtrees share one object, and a derivation
built over the lattice parses back to itself.  Where the split cannot stand
for the token grammar (quotes odd in number, a newline in a sequent string,
a quote in a comment, a piece that does not read or stands where it cannot,
closes that do not balance) or a sequent string raises, the token grammar
reads the whole text, so every error is that grammar's, token by token.  Its
gap matches only one way, so no input makes its pattern try ways to split
it, and the end of the text is an item, so trailing whitespace is one match.

``serialize`` keeps each derivation node's head line on the node, so writing
a node again is one attribute read and one concatenation, and the ASCII text
of each sequent and of each of its formulas on that object, so each is
rendered once for its life.  It fills no text memo of the reader: it does not
know which store it writes for, and a sequent built in a store need not parse
back to itself (``In(0)``, or a variable spelled like an element).

The multiplicative conjunction ``*`` is non-associative and the grammar makes
that unavoidable: a second ``*`` at the same level is a parse error, so
nesting always needs explicit parentheses.
"""

from __future__ import annotations

import re
from functools import cache, singledispatch
from itertools import islice
from operator import itemgetter

from omlogic.kernel import AxiomApp, Derivation, RULE_ARITY, RuleApp
from omlogic.lattice import FiniteOrthoLattice, LatticeError
from omlogic.propagation import PowersetMap, perfect_measurement_map
from omlogic.record import Record, _set
from omlogic.syntax import (
    Actual,
    Const,
    Constraint,
    Forall,
    Formula,
    Induced,
    Lolli,
    Measurement,
    OrthoTerm,
    Plus,
    Reachable,
    Sequent,
    Tensor,
    Term,
    Var,
    _Rendered,
    _ascii,
    _atom,
    ascii_formula,
    ascii_sequent,
    ascii_term,
    normalize_term,
)

__all__ = [
    "SourceSpan",
    "ParseError",
    "parse_lattice",
    "parse_map",
    "parse_formula",
    "parse_sequent",
    "parse_derivation",
    "serialize",
]


class SourceSpan(Record):
    __slots__ = ("line", "column", "length")

    line: int  # 1-based
    column: int  # 1-based
    length: int


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan, expected: frozenset[str] = frozenset()):
        self.span = span
        self.expected = expected
        hint = f" (expected {', '.join(sorted(expected))})" if expected else ""
        super().__init__(f"{span.line}:{span.column}: {message}{hint}")


# -- line-oriented formats -------------------------------------------------------


def _line_error(msg, ln, col, tok, expected=frozenset()):
    raise ParseError(msg, SourceSpan(ln, col, max(1, len(tok))), frozenset(expected))


def _directives(text: str, usage: str, heads: set[str]):
    """Yield (line number, line, [(column, token), ...]) for each directive of
    a line file, its ``#`` comment stripped: first the header, shaped as
    ``usage`` (``lattice <name>`` or ``map <name> over <lattice>``), then
    each line whose head is one of ``heads``.  The frame is checked here, in
    line order: blank lines are skipped, and a misshapen or missing header,
    an unknown head, content after ``end``, an empty file and a missing
    ``end`` raise :class:`ParseError`.  A line ends at ``\n`` only, as
    :func:`_span` counts lines; other line breaks are whitespace."""
    shape = usage.split()
    kind = shape[0]
    header = ended = False
    for ln, raw in enumerate(text.split("\n"), start=1):
        line = raw.partition("#")[0]
        toks = [(m.start() + 1, m.group()) for m in re.finditer(r"\S+", line)]
        if not toks:
            continue
        col, head = toks[0]
        if ended:
            _line_error("content after 'end'", ln, col, head)
        if head == kind:
            if header or len(toks) != len(shape) or any(
                word != tok for word, (_, tok) in zip(shape, toks) if word[0] != "<"
            ):
                _line_error(f"malformed '{kind}' line", ln, col, head, {usage})
            header = True
        elif not header:
            _line_error(f"file must start with '{usage}'", ln, col, head, {kind})
        elif head == "end":
            ended = True
            continue
        elif head not in heads:
            _line_error(f"unknown directive {head!r}", ln, col, head, heads | {"end"})
        yield ln, line, toks
    if not header:
        raise ParseError(f"empty {kind} file", SourceSpan(1, 1, 1), frozenset({kind}))
    if not ended:
        raise ParseError("missing 'end'", SourceSpan(text.count("\n") + 1, 1, 1), frozenset({"end"}))


def parse_lattice(text: str) -> FiniteOrthoLattice:
    """Parse the lattice format:

        lattice <name>
        elements <id> ...     # must include 0 and 1
        leq <x> <y>           # generating pair, closed reflexively/transitively
        ortho <x> <y>         # symmetric; the pair 0 1 is implied
        end
    """
    lines = _directives(text, "lattice <name>", {"elements", "leq", "ortho"})
    _, _, [_, (_, name)] = next(lines)
    elements: list[str] = []
    leq: list[tuple[str, str]] = []
    ortho: list[tuple[str, str]] = []
    for ln, _, toks in lines:
        col, head = toks[0]
        if head == "elements":
            if len(toks) < 2:
                _line_error("'elements' needs at least one name", ln, col, head)
            for c, t in toks[1:]:
                if t in elements:
                    _line_error(f"duplicate element name {t!r}", ln, c, t)
                elements.append(t)
            continue
        if len(toks) != 3:
            _line_error(f"'{head}' takes two element names", ln, col, head)
        for c, t in toks[1:]:
            if t not in elements:
                _line_error(f"unknown element {t!r}", ln, c, t)
        (leq if head == "leq" else ortho).append((toks[1][1], toks[2][1]))
    try:
        return FiniteOrthoLattice(name, elements, leq, ortho)
    except LatticeError as err:
        raise ParseError(str(err), SourceSpan(1, 1, max(1, len(name)))) from err


def parse_map(text: str, lat: FiniteOrthoLattice) -> PowersetMap:
    """Parse the map format:

        map <name> over <lattice>
        on <element> -> {e1, e2, ...}   # one line per nonzero element
        end

    A perfect-measurement map may instead be written as a single line
    ``measure <a>``, expanded on load.
    """
    lines = _directives(text, "map <name> over <lattice>", {"on", "measure"})
    ln, _, [_, (_, name), _, (col, over)] = next(lines)
    if over != lat.name:
        _line_error(f"map is over lattice {over!r}, not {lat.name!r}", ln, col, over)
    measured = None
    action: dict[str, set[str]] = {}
    for ln, line, toks in lines:
        col, head = toks[0]
        if head == "measure":
            if len(toks) != 2:
                _line_error("'measure' takes one element", ln, col, head)
            c, el = toks[1]
            if el not in lat:
                _line_error(f"unknown element {el!r}", ln, c, el)
            if measured is not None:
                _line_error("duplicate 'measure' line", ln, col, head)
            measured = el
            continue
        m = re.fullmatch(r"\s*on\s+(\S+)\s+->\s*\{([^{}]*)\}\s*", line)
        if not m:
            _line_error("malformed 'on' line", ln, col, head, {"on <element> -> {…}"})
        el = m.group(1)
        if el not in lat:
            _line_error(f"unknown element {el!r}", ln, toks[1][0], el)
        if el in action:
            _line_error(f"duplicate 'on' line for {el!r}", ln, toks[1][0], el)
        values = set()
        # comma-separated names, each stripped of surrounding whitespace
        for v in re.finditer(r"[^,\s](?:[^,]*[^,\s])?", m.group(2)):
            value, vcol = v.group(), m.start(2) + v.start() + 1
            if value not in lat:
                _line_error(f"unknown element {value!r}", ln, vcol, value)
            values.add(value)
        action[el] = values
    if measured is not None and action:
        raise ParseError("'measure' and 'on' lines cannot be mixed", SourceSpan(1, 1, 1))
    missing = [e for e in lat.nonzero() if e not in action]
    if measured is None and missing:
        raise ParseError(
            f"missing 'on' line for {missing[0]!r}", SourceSpan(1, 1, 1), frozenset({"on"})
        )
    try:
        if measured is None:
            return PowersetMap(lat, action, label=name)
        f = perfect_measurement_map(lat, measured)  # built fresh: no other map is relabelled
    except ValueError as err:  # a 0 in an image; a lattice not orthomodular or too large
        raise ParseError(str(err), SourceSpan(1, 1, 1)) from err
    f.label = name
    return f


# -- formula and sequent grammar ---------------------------------------------------


# A gap: whitespace, then any ``#`` comments, each running to the end of its
# line with the whitespace after it taken whole.  So a gap matches only one
# way, and on a mismatch the engine gives it back one character at a time,
# never trying ways to split it (Python 3.10 has no atomic groups).  The
# comments are an alternative that starts with ``#``, not an optional
# group, which the engine would enter at every gap of a plain file.
_COMMENT = r"#[^\n]*(?![^\n])\s*"
_GAP = rf"\s*(?:{_COMMENT}(?:{_COMMENT})*|)"


def _token_pattern(tokens: str) -> re.Pattern:
    """The pattern of one token grammar for :func:`_tokenize`: a gap, then
    one of ``tokens`` or the end of the text (the first group), or else the
    rest of the text from a character that starts no token (the second)."""
    return re.compile(rf"{_GAP}(?:({tokens}|\Z)|(\S[\s\S]*))")


_TOKEN_RE = _token_pattern(r"-o|\|-|!<=|!in|<=|[A-Za-z0-9_][A-Za-z0-9_']*|[()*+,.{}]")


def _span(text: str, start: int, length: int) -> SourceSpan:
    """The span of ``length`` characters at offset ``start`` of ``text``;
    worked out only when an error is raised."""
    line_start = text.rfind("\n", 0, start) + 1
    return SourceSpan(text.count("\n", 0, start) + 1, start - line_start + 1, length)


def _tokenize(text: str, pattern: re.Pattern) -> list[str]:
    """The tokens of ``text`` as strings, from one ``findall`` of
    ``pattern`` (see :func:`_token_pattern`), ending with ``""``, the end's.
    A stray character takes the rest of the text, so it is the second group
    of the item before the end's, and raises :class:`ParseError`.  Where a
    token starts is worked out only for an error (see :meth:`_Parser.span`)."""
    items = pattern.findall(text)
    stray = items[-2][1] if len(items) > 1 else ""
    if stray:
        raise ParseError(f"unexpected character {stray[0]!r}",
                         _span(text, len(text) - len(stray), 1))
    return list(map(itemgetter(0), items))


# Deepest formula nesting the readers accept: parentheses, '-o', 'forall' and
# 'ortho' (a '+' chain is read in a loop), counted in a sequent string from
# each of its formulas and in a witness from the witness itself.  The formula
# parser, witness terms and rendered terms recurse per level, and == across
# stores recurses on the trees built here, so the limit keeps every input far
# from Python's recursion limit.  Derivation levels have no limit: the reader,
# the store, the kernel and the writer keep explicit stacks.  A chain's
# context nests one level per measurement, so a chain of 99 reads back.
MAX_DEPTH = 100


class _Parser:
    """Token cursor shared by the formula and derivation parsers, which set
    ``pattern`` to their token grammar and ``marks`` to its operators and
    punctuation, with ``""`` for the end.  Tokens are compared as text: a
    name is any token outside ``marks`` that is not a quoted string."""

    pattern: re.Pattern
    marks: frozenset[str]

    def __init__(self, text: str, lat: FiniteOrthoLattice):
        self.text = text
        self.tokens = _tokenize(text, self.pattern)
        self.pos = 0
        self.depth = 0
        self.lat = lat
        self.make = lat._store.make  # every node is built in the lattice's store

    def peek(self) -> str:
        return self.tokens[self.pos]

    def advance(self) -> str:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def is_name(self, tok: str) -> bool:
        return tok not in self.marks and tok[0] != '"'

    def name(self, message: str, expected: str = "<name>") -> str:
        """The next token, which must be a name."""
        if not self.is_name(self.peek()):
            self.error(message, {expected})
        return self.advance()

    def span(self, i: int) -> SourceSpan:
        """The span of token ``i``: its start is that of the ``i``-th match
        of ``pattern``, found again only when an error is raised."""
        start = next(islice(self.pattern.finditer(self.text), i, None)).start(1)
        return _span(self.text, start, len(self.tokens[i]) or 1)

    def error(self, message: str, expected=frozenset(), at: int | None = None):
        """Raise at token ``at``, by default the next one."""
        raise ParseError(message, self.span(self.pos if at is None else at), frozenset(expected))

    def descend(self) -> None:
        """Enter one nesting level at the next token; callers step back out
        by decrementing ``depth``."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.error(f"nesting deeper than {MAX_DEPTH} levels")


_ATOM_HEADS = ("In", "R", "M", "IND")
_ATOM_CLASSES = {"In": Actual, "R": Reachable, "M": Measurement}


class _FormulaParser(_Parser):
    pattern = _TOKEN_RE
    marks = frozenset(["-o", "|-", "!<=", "!in", "<=", *"()*+,.{}", ""])

    def __init__(self, text: str, lat: FiniteOrthoLattice):
        super().__init__(text, lat)
        self.bound: list[str] = []

    def expect(self, text: str) -> str:
        tok = self.peek()
        if tok != text:
            self.error(f"expected {text!r}, found {tok or 'end of input'!r}", {text})
        return self.advance()

    # grammar: formula := lolli; lolli := sum [-o lolli];
    # sum := product (+ product)*; product := unit [* unit];
    # unit := atom | ( formula ) | forall

    def parse_formula_text(self) -> Formula:
        f = self.formula()
        if self.peek():
            self.error(f"trailing input {self.peek()!r}", {"end of input"})
        return f

    def parse_sequent_text(self) -> Sequent:
        ctx: list[Formula] = []
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

    def formula(self) -> Formula:
        self.descend()
        out = self.sum()
        if self.peek() == "-o":
            self.advance()
            out = self.make(Lolli, out, self.formula())
        self.depth -= 1
        return out

    def sum(self) -> Formula:
        out = self.product()
        while self.peek() == "+":
            self.advance()
            out = self.make(Plus, out, self.product())
        return out

    def product(self) -> Formula:
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

    def unit(self) -> Formula:
        tok = self.peek()
        if tok == "(":
            self.advance()
            f = self.formula()
            self.expect(")")
            return f
        if tok == "forall":
            return self.forall()
        if tok in _ATOM_HEADS:
            return self.atom()
        self.error(
            f"expected a formula, found {tok or 'end of input'!r}",
            {"In", "R", "M", "IND", "(", "forall"},
        )

    def atom(self) -> Formula:
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

    def normal_term(self) -> Term:
        """A term in normal form: a plain name from :meth:`term` is already
        the store's node, so only a complement is normalized."""
        t = self.term()
        return normalize_term(t, self.lat) if t.__class__ is OrthoTerm else t

    def term(self) -> Term:
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

    def forall(self) -> Formula:
        self.expect("forall")
        var = self.name("expected a variable name")
        guard: list[Constraint] = []
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

    def constraint(self) -> Constraint:
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


def parse_formula(text: str, lat: FiniteOrthoLattice) -> Formula:
    return _FormulaParser(text, lat).parse_formula_text()


def parse_sequent(text: str, lat: FiniteOrthoLattice) -> Sequent:
    """Parse a sequent into the lattice's store, memoized by its text: a
    text seen before returns the same object.  A new sequent is built from
    its top-level formulas, each read once per lattice, and a new formula
    from the operands of its top-level operator, each looked up in the
    store first and cut the same way (see :func:`_split_sequent`).  Errors
    are not remembered."""
    texts = lat._store.texts
    seq = texts.get(text)
    if seq is None:
        seq = texts[text] = (
            _split_sequent(text, lat) or _FormulaParser(text, lat).parse_sequent_text()
        )
    return seq


def _split_sequent(text: str, lat: FiniteOrthoLattice):
    """The sequent of ``text`` built from its top-level formulas, or None
    wherever the token parser must read the whole text: a comment (which can
    swallow a separator), a guard (whose commas are not separators), other
    than one ``|-``, or a formula that does not parse.

    The text is cut at its ``|-`` and its context commas.  Each piece,
    stripped, is looked up in the store's formula memo.  A new piece is read
    by :func:`_cut_formula` unless it holds ``forall`` (a binder's scope can
    run past an operator).  Where that gives nothing, the token parser reads
    the piece from depth 0, as the whole-text parser reads each top-level
    formula: the one token parse of the split, so every result and error is
    the whole-text path's.  The memo remembers each piece, the two
    operands of its own cut and the inside of either operand that is one
    pair of parentheses."""
    if "#" in text or "{" in text or text.count("|-") != 1:
        return None
    store = lat._store
    head, _, rhs = text.partition("|-")
    pieces = head.split(",") if head.strip() else []
    pieces.append(rhs)
    parts = []
    for piece in pieces:
        piece = piece.strip()
        f = store.formulas.get(piece)
        if f is None:
            if "forall" not in piece:
                f = _cut_formula(piece, lat, keep=True)
            if f is None:
                try:
                    f = _FormulaParser(piece, lat).parse_formula_text()
                except ParseError:
                    return None
            store.formulas[piece] = f
        parts.append(f)
    rhs = parts.pop()
    return store.make(Sequent, store.make(tuple, *parts), rhs)


# Each binary operator in the order a new formula is cut at it, lowest
# precedence first, and how many of its top-level occurrences the cut looks
# for: the first '-o' (right-associative), every '+' (left-associative) and
# up to two '*' (non-associative, so a second one is an error).
_CUTS = (("-o", Lolli, 1), ("+", Plus, None), ("*", Tensor, 2))


def _cut_formula(
    text: str, lat: FiniteOrthoLattice, keep=False, depth=1, bare=False
) -> Formula | None:
    """The formula of ``text``, a stripped formula text with no ``forall``,
    built with no token parse, or None where the token parser must read it.
    ``depth`` is the nesting level of ``text``, counted as the token parser
    counts it: 1 for the piece, and one more inside each pair of parentheses
    and in each right operand of ``-o``; past ``MAX_DEPTH`` the result is None.
    The first that applies: the store's formula memo; a plain atom; a cut
    at the top-level occurrences of the lowest-precedence operator at
    parenthesis depth 0 found in ``_CUTS``, each operand, stripped, read by
    this function and the results folded from the left; with no such
    operator, one pair of parentheses, whose inside is read the same way.
    Every key of the memo parses as a whole formula to its value, and an
    operand that parses alone parses the same between its operators, so
    the tree is the token parser's.  A key nests at most ``MAX_DEPTH``
    levels from level 1, so below level 1 a hit counts only where each of
    its ``(`` and ``-o`` could add a level and still fit.  None where an
    operand gives nothing, where a second top-level ``*`` stands, and for
    an atom of ``ortho`` (a term keyword), of 0, of a complement, or
    ``IND``.  With ``keep``, the root's two operands, the text before the
    last cut and the part after it, are remembered, and each is read with
    ``bare``, which remembers the inside of a text in one pair of
    parentheses: a chain's context ``M(m) * (…)`` leaves the next,
    shallower context a key.  Deeper operands are not remembered, so a long
    sum leaves at most four keys."""
    if depth > MAX_DEPTH:
        return None
    formulas = lat._store.formulas
    f = formulas.get(text)
    if f is not None and (depth == 1 or depth + text.count("(") + text.count("-o") <= MAX_DEPTH):
        return f
    m = _plain_atom()(text)
    if m is not None:
        head, name = m.groups()
        if name == "ortho":
            return None
        term = lat._store.make(Const if name in lat else Var, name)
        try:
            return _atom(lat, _ATOM_CLASSES[head], term)
        except ValueError:  # In or R of 0
            return None
    for op, cls, limit in _CUTS:
        found = _top_level(text, op, limit)
        if found:
            break
    else:
        if text[:1] == "(" and text[-1:] == ")":
            inner = text[1:-1].strip()
            f = _cut_formula(inner, lat, depth=depth + 1)
            if bare and f is not None:
                formulas[inner] = f
            return f
        return None
    if len(found) == 2 and op == "*":
        return None  # non-associative: the token parser raises
    f = None
    for start, end in zip((-len(op), *found), (*found, len(text))):
        part = text[start + len(op):end].strip()
        level = depth + (op == "-o" and f is not None)  # a '-o' right operand is deeper
        # the root's operands: the last part, and the first where it is the other
        kept = keep and (end == len(text) or len(found) == 1)
        g = _cut_formula(part, lat, depth=level, bare=kept)
        if g is None:
            return None
        if keep and end == len(text):
            formulas[text[:start].strip()] = f
            formulas[part] = g
        f = g if f is None else lat._store.make(cls, f, g)
    return f


def _top_level(piece: str, op: str, limit: int | None) -> list[int]:
    """The offsets of ``op`` at parenthesis depth 0 in ``piece``, up to the
    first ``limit`` of them.  One pass: the depth at each occurrence counts
    the parentheses since the one before."""
    found, depth, last = [], 0, 0
    at = piece.find(op)
    while at >= 0:
        depth += piece.count("(", last, at) - piece.count(")", last, at)
        last = at
        if not depth:
            found.append(at)
            if len(found) == limit:
                break
        at = piece.find(op, at + 1)
    return found


@cache
def _plain_atom():
    """``fullmatch`` of a plain atom, ``In|R|M(name)``, with its head and
    name as groups; compiled on first use, not at import."""
    return re.compile(r"(In|R|M)\s*\(\s*([A-Za-z0-9_][A-Za-z0-9_']*)\s*\)").fullmatch


# -- derivation s-expressions -------------------------------------------------------


_SEXPR_RE = _token_pattern(r"""[()=]|"[^"\n]*"|[A-Za-z0-9_'-][A-Za-z0-9_'-]*""")


class _DerivationParser(_Parser):
    """The token grammar of derivations: the reader of a whole text, and of
    one structure piece of the split read (see :func:`parse_derivation`)."""

    pattern = _SEXPR_RE
    marks = frozenset(["(", ")", "=", ""])

    def read(self) -> Derivation:
        """The derivation of the text, built in the lattice's store, with
        every error this grammar gives, token by token.  Node heads are read
        by :meth:`token_node`."""
        make = self.make
        open_rules = []  # (rule, conclusion, witness, children) of each enclosing rule node
        while True:
            if self.peek() == ")" and open_rules:
                self.advance()
                rule, seq, witness, children = open_rules.pop()
                node = make(RuleApp, rule, seq, make(tuple, *children), witness)
            else:
                node = self.token_node(open_rules)
                if node is None:
                    continue
            if not open_rules:
                if self.peek():
                    self.error("trailing input after derivation", {"end of input"})
                return node
            open_rules[-1][3].append(node)

    def token_node(self, open_rules: list) -> AxiomApp | None:
        """Read from the next token a witness of the innermost rule node,
        straight after its head, or a node head.  Return an axiom leaf, or
        None once a witness is read or a rule head is put on ``open_rules``."""
        if open_rules:
            if self.peek() != "(":
                self.error("expected ')'", {")"})
            rule, seq, witness, children = open_rules[-1]
            if witness is None and not children:
                witness = self.witness_field()
                if witness is not None:
                    open_rules[-1] = (rule, seq, witness, children)
                    return None
        cls, name, binds = self.head()
        if cls is AxiomApp:
            seq = self.seq_field()
            self.expect_close()
            return self.make(AxiomApp, name, binds, seq)
        open_rules.append((name, self.seq_field(), None, []))
        return None

    def program(self) -> tuple:
        """The program of a structure piece: ``(witness, closes, cls, name,
        binds)``.  A piece is the text between two sequent strings, after
        the ``)`` that closes the first one's ``(seq``: an optional
        ``(witness TERM)``, ``closes`` more ``)``, then the head of the next
        node up to its ``(seq``, ``cls`` :class:`RuleApp` with the rule
        ``name`` or :class:`AxiomApp` with the schema ``name`` and its
        ``binds``, or no head (``cls`` None) at the end of the text."""
        self.expect_close()
        witness = self.witness_field()
        closes = 0
        while self.peek() == ")":
            self.advance()
            closes += 1
        if not self.peek():
            return witness, closes, None, None, None
        cls, name, binds = self.head()
        self.expect_open("seq")
        if self.peek():
            self.error("expected a quoted sequent", {'"<sequent>"'})
        return witness, closes, cls, name, binds

    def witness_field(self) -> Term | None:
        """A ``(witness TERM)`` at the next token, or None where none stands."""
        if self.peek() != "(" or self.tokens[self.pos + 1] != "witness":
            return None
        self.pos += 2
        witness = self.witness_term()
        self.expect_close()
        return witness

    def head(self) -> tuple:
        """A node head up to its ``(seq``: ``(RuleApp, rule, None)``, or
        ``(AxiomApp, schema, bindings)`` with the bindings as a tuple of
        (variable, value) pairs in sorted order."""
        if self.expect_open("rule", "axiom") == "rule":
            rule = self.peek()
            if rule not in RULE_ARITY:
                self.error(f"unknown rule {rule!r}", set(RULE_ARITY))
            return RuleApp, self.advance(), None
        schema = self.name("expected a schema name", "<schema>")
        self.expect_open("bind")
        bindings = []
        while self.is_name(self.peek()):
            var = self.advance()
            if self.peek() != "=":
                self.error("expected '=' in binding", {"="})
            self.advance()
            bindings.append((var, self.name("expected a binding value")))
        self.expect_close()
        make = self.make
        return AxiomApp, schema, make(tuple, *[make(tuple, *b) for b in sorted(bindings)])

    def expect_open(self, *heads: str) -> str:
        if self.peek() != "(":
            self.error("expected '('", {"("})
        self.advance()
        head = self.peek()
        if head not in heads:
            self.error(f"unexpected node head {head!r}", set(heads))
        return self.advance()

    def expect_close(self):
        if self.peek() != ")":
            self.error("expected ')'", {")"})
        self.advance()

    def seq_field(self) -> Sequent:
        self.expect_open("seq")
        at = self.pos
        tok = self.peek()
        if tok[:1] != '"':
            self.error("expected a quoted sequent", {'"<sequent>"'})
        self.advance()
        try:
            seq = parse_sequent(tok[1:-1], self.lat)
        except ParseError as err:
            # str(err) already ends in its expected-token hint
            wrapped = ParseError(f"in sequent string: {err}", self.span(at))
            wrapped.expected = err.expected
            raise wrapped from err
        self.expect_close()
        return seq

    def witness_term(self) -> Term:
        # witness terms share the formula term grammar: name | ortho(name)
        tok = self.peek()
        if not self.is_name(tok):
            self.error("expected a witness term", {"<name>", "ortho"})
        self.advance()
        if tok == "ortho":
            if self.peek() != "(":
                self.error("expected '('", {"("})
            self.descend()
            self.advance()
            inner = self.witness_term()
            self.expect_close()
            self.depth -= 1
            return self.make(OrthoTerm, inner)
        return self.make(Const if tok in self.lat else Var, tok)


def _program(piece: str, lat: FiniteOrthoLattice) -> tuple | None:
    """The program of ``piece`` (see :meth:`_DerivationParser.program`)
    from the store's piece memo, else from the memo under the piece's
    tokens joined by single spaces (a piece with no ``#`` has the same
    tokens whatever its layout, so pieces indented to different depths
    share one read), else read by the token grammar.  None where the piece
    does not read, or has a head and a ``#`` after its last newline, so the
    quote that ends it lies in a comment; such a piece is never
    remembered."""
    pieces = lat._store.pieces
    prog = pieces.get(piece)
    if prog is None:
        key = piece if "#" in piece else " ".join(piece.split())
        prog = pieces.get(key)
        if prog is None:
            try:
                prog = _DerivationParser(key, lat).program()
            except ParseError:
                return None
            if prog[2] is not None and key.rfind("#") > key.rfind("\n"):
                return None
            pieces[key] = prog
        pieces[piece] = prog
    return prog


def _split_read(text: str, lat: FiniteOrthoLattice) -> Derivation | None:
    """The derivation of ``text`` read by one split at its quotes, or None
    where the token grammar must read the whole text: an odd number of
    quotes, a newline in a sequent string, a piece that does not read or
    stands where it cannot, and closes that do not balance.  Raises
    :class:`ParseError` from a sequent string that does not parse."""
    parts = text.split('"')
    if not len(parts) % 2:
        return None
    store = lat._store
    nodes, make, texts, pieces = store.nodes, store.make, store.texts, store.pieces
    no_children = make(tuple)
    # the first piece, with the ')' that every other piece starts with
    prog = _program(")" + parts[0], lat)
    if prog is None or prog[0] is not None or prog[1]:
        return None
    open_rules = []  # (rule, conclusion, witness, children) of each enclosing rule node
    node = None
    for i in range(1, len(parts), 2):
        _, _, cls, name, binds = prog
        seq = parts[i]
        if cls is None or "\n" in seq:
            return None
        seq = texts.get(seq) or parse_sequent(seq, lat)
        prog = pieces.get(parts[i + 1]) or _program(parts[i + 1], lat)
        if prog is None:
            return None
        witness, closes = prog[0], prog[1]
        if cls is AxiomApp:
            if witness is not None or not closes:
                return None
            closes -= 1
            node = nodes.get((AxiomApp, name, id(binds), id(seq))) or make(
                AxiomApp, name, binds, seq
            )
        else:
            open_rules.append((name, seq, witness, []))
            node = None
        for _ in range(closes):
            if not open_rules:
                return None  # a close too many
            if node is not None:
                open_rules[-1][3].append(node)
            rule, seq, witness, children = open_rules.pop()
            kids = (
                nodes.get((tuple, *map(id, children))) or make(tuple, *children)
                if children else no_children
            )
            node = nodes.get((RuleApp, rule, id(seq), id(kids), id(witness))) or make(
                RuleApp, rule, seq, kids, witness
            )
        if node is not None:
            if open_rules:
                open_rules[-1][3].append(node)
            elif prog[2] is not None:
                return None  # a node head after the root
    return node if prog[2] is None and not open_rules else None


def parse_derivation(text: str, lat: FiniteOrthoLattice) -> Derivation:
    """Parse a derivation s-expression into the lattice's store.  The split
    read takes the text apart at its quotes; wherever it gives nothing or
    raises, the token grammar reads the whole text, so every error has that
    grammar's message, span and expected set."""
    try:
        node = _split_read(text, lat)
    except ParseError:
        node = None
    return _DerivationParser(text, lat).read() if node is None else node


# -- serialization -------------------------------------------------------------------


@singledispatch
def serialize(value) -> str:
    raise TypeError(f"cannot serialize {type(value).__name__}")


@serialize.register
def _(lat: FiniteOrthoLattice) -> str:
    lines = [f"lattice {lat.name}", "elements " + " ".join(lat.elements)]
    for x, y in lat.covers():
        lines.append(f"leq {x} {y}")
    for x, y in lat.ortho_pairs():
        lines.append(f"ortho {x} {y}")
    lines.append("end")
    return "\n".join(lines) + "\n"


@serialize.register
def _(f: PowersetMap) -> str:
    lat = f.lattice
    lines = [f"map {f.label or 'unnamed'} over {lat.name}"]
    if f.measured is not None:
        lines.append(f"measure {f.measured}")
    else:
        for el, img in f.items():
            inner = ", ".join(sorted(img, key=lat.index))
            lines.append(f"on {el} -> {{{inner}}}")
    lines.append("end")
    return "\n".join(lines) + "\n"


@serialize.register(_Rendered)  # every formula; sequents and derivations have their own
def _(f) -> str:
    return ascii_formula(f)


@serialize.register
def _(s: Sequent) -> str:
    return ascii_sequent(s)


def _head_line(node: Derivation) -> str:
    """The line that writes ``node``'s head, unindented: the whole line of a
    leaf, the line before the children of a rule node that has them."""
    seq = _ascii(node.conclusion)
    if isinstance(node, AxiomApp):
        binds = " ".join(f"{k}={v}" for k, v in node.bindings)
        return f'(axiom {node.schema} (bind {binds}) (seq "{seq}"))'
    head = f'(rule {node.rule} (seq "{seq}")'
    if node.witness is not None:
        head += f" (witness {ascii_term(node.witness)})"
    return head if node.children else head + ")"


def _derivation_lines(d: Derivation) -> list[str]:
    """One line per node head in pre-order, each child two spaces deeper than
    its parent, and a line closing each node that has children.  The walk
    keeps an explicit stack, so a tree of any depth is written out.  Each
    node's head line is made once for its life and kept on the node, so
    writing a node again is one attribute read and one concatenation; so is
    the text of each sequent and of each of its formulas (see
    ``syntax._ascii``)."""
    lines = []
    stack = [(d, "")]  # (node, indent) still to write, or (None, closing line)
    while stack:
        node, pad = stack.pop()
        if node is None:
            lines.append(pad)
            continue
        line = getattr(node, "_text", None)  # unset until first written
        if line is None:
            line = _head_line(node)
            _set(node, "_text", line)
        lines.append(pad + line)
        if isinstance(node, RuleApp) and node.children:
            stack.append((None, pad + ")"))
            inner = pad + "  "
            stack.extend([(child, inner) for child in reversed(node.children)])
    return lines


@serialize.register(RuleApp)
@serialize.register(AxiomApp)
def _(d) -> str:
    return "\n".join(_derivation_lines(d)) + "\n"
