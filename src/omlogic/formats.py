"""Parsers and serializers with round-trip guarantees.

Five value kinds travel through text: lattices and maps use line-oriented
formats, formulas and sequents an infix grammar, and derivations a nested
s-expression format.  All files are ASCII with ``#`` comments to end of line;
parse errors carry a source span pointing inside the offending token plus the
set of expected tokens.  The formula and derivation grammars read their
tokens as strings, from one ``findall`` of their grammar's pattern, each token
after a gap of whitespace and comments; where a token starts is worked out
only when an error is raised.  Every formula, sequent and derivation node is
built in the lattice's store (``omlogic.record.Store``), which holds one
object per value, and sequents are memoized per lattice by their text (see
:func:`parse_sequent`).

One reader, :class:`_Reader`, reads formula and sequent text: operator
precedence on an explicit stack over one token list, so formulas and
witnesses have no depth cap.  A new sequent is cut at its ``|-`` and commas
and each top-level formula looked up in the store's formula memo; the reader
reads each one the memo does not hold, looking the memo up again at its
parenthesised operands and remembering what it read, and reads the whole
text wherever that does not stand, so every error is the grammar's.

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
from functools import singledispatch
from itertools import accumulate, count, islice
from operator import add
from typing import Callable

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
    one of ``tokens``, the end of the text (``""``), or else the rest of the
    text from a character that starts no token.  One group, so ``findall``
    gives the tokens as strings."""
    return re.compile(rf"{_GAP}({tokens}|\Z|\S[\s\S]*)")


# the alternatives differ in their first character, so their order is that
# of how often they occur
_TOKENS = r"[()*+,.{}]|[A-Za-z0-9_][A-Za-z0-9_']*|-o|\|-|!<=|!in|<="
_TOKEN_RE = _token_pattern(_TOKENS)


def _span(text: str, start: int, length: int) -> SourceSpan:
    """The span of ``length`` characters at offset ``start`` of ``text``;
    worked out only when an error is raised."""
    line_start = text.rfind("\n", 0, start) + 1
    return SourceSpan(text.count("\n", 0, start) + 1, start - line_start + 1, length)


def _tokenize(text: str, grammar) -> list[str]:
    """The tokens of ``text``, from one ``findall`` of the pattern of
    ``grammar`` (a parser class), ending with ``""``, the end's.  A stray
    character takes the rest of the text, the item before the end's, which
    is then no token: it raises :class:`ParseError`."""
    tokens = grammar.pattern.findall(text)
    stray = tokens[-2] if len(tokens) > 1 else ""
    if stray and not grammar.token(stray):
        raise ParseError(f"unexpected character {stray[0]!r}",
                         _span(text, len(text) - len(stray), 1))
    return tokens


class _Parser:
    """Token cursor shared by the formula and derivation readers, which set
    ``pattern`` to their token grammar and ``marks`` to its operators and
    punctuation, with ``""`` for the end.  Tokens are compared as text: a
    name is any token outside ``marks`` that is not a quoted string."""

    pattern: re.Pattern
    token: Callable  # the match of one token at the start of a string
    marks: frozenset[str]

    def __init__(self, text: str, lat: FiniteOrthoLattice):
        self.text = text
        self.tokens = _tokenize(text, self)
        self.pos = 0
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


_ATOM_CLASSES = {"In": Actual, "R": Reachable, "M": Measurement}
_UNITS = frozenset(["In", "R", "M", "IND", "(", "forall"])  # the tokens an operand starts with
# Each binary operator: its class, how strongly it binds its operands, and
# how strongly it pulls the operand before it away from the operator waiting
# on the stack, which keeps the operand where it binds more strongly.  So
# '-o' groups to the right, '+' to the left, and '*' not at all (a second
# one at the same level is an error).  Any other token closes every frame
# down to the innermost '('.
_BINARY = {"*": (Tensor, 3, 3), "+": (Plus, 2, 1.9), "-o": (Lolli, 1, 1)}
_PARENS = {"(": 1, ")": -1}


class _Reader(_Parser):
    """The one reader of formula and sequent text: operator precedence over
    one token list (Dijkstra's shunting-yard), with the operators still
    waiting for their right operand, the open parentheses and the open
    quantifiers on one explicit stack, so a formula of any depth is read.

    With ``memo``, the text is one stripped formula with no ``#`` or
    ``{``.  The store's formula memo is looked up at each parenthesised
    operand that is not inside a quantifier's scope (a bound name can shadow
    an element) or inside a parenthesised operand looked up in vain, so each
    character is hashed at most twice, and a hit skips the operand's tokens;
    and at each plain atom ``HEAD(name)`` outside a quantifier's scope, by
    that text.  A key parses as a whole formula to its value, and a formula
    read alone ends where it ends inside parentheses, so a hit gives the
    tree the tokens would.  What is read is then remembered."""

    pattern = _TOKEN_RE
    token = re.compile(_TOKENS).match
    marks = frozenset(["-o", "|-", "!<=", "!in", "<=", *"()*+,.{}", ""])

    def __init__(self, text: str, lat: FiniteOrthoLattice, memo: bool = False):
        super().__init__(text, lat)
        self.memo = memo
        self.bound: list[str] = []  # the variables of the open quantifiers
        self.offsets = None  # made on first use (see inside)

    def expect(self, text: str) -> str:
        tok = self.peek()
        if tok != text:
            self.error(f"expected {text!r}, found {tok or 'end of input'!r}", {text})
        return self.advance()

    def read(self, sequent: bool):
        """The formula of the text, or with ``sequent`` its sequent: context
        formulas separated by ``,``, then ``|-`` and the succedent."""
        tokens, make, bound, memo = self.tokens, self.make, self.bound, self.memo
        nodes, formulas = self.lat._store.nodes, self.lat._store.formulas
        # (binding, class, left operand, token index) of each operator that
        # waits for its right operand, of each open '(' (binding 0, class
        # None) and of each open quantifier (binding 0.5, class Forall, the
        # (variable, guard) pair for the left operand), innermost last
        stack = []
        nest = 0  # the '(' and quantifiers on the stack
        groups = {}  # '(' -> ')' of each parenthesised operand at the top level
        root = None  # the frame last reduced at the bottom of the stack
        ctx = []
        pos = 1 if sequent and tokens[0] == "|-" else 0  # 1 past an empty context
        last = not sequent or pos == 1  # whether the formula being read ends the text
        while True:
            tok = tokens[pos]  # an operand starts here
            if tok == "(":
                found = self.inside(pos) if memo and not nest else None
                f = formulas.get(found[1]) if found else None
                if f is None:
                    stack.append((0, None, None, pos))
                    nest += 1
                    pos += 1
                    continue
                groups[pos] = found[0]
                pos = found[0] + 1
            elif tok == "forall":
                self.pos = pos
                head = self.quantifier()
                stack.append((0.5, Forall, head, pos))
                bound.append(head[0])
                nest += 1
                pos = self.pos
                continue
            elif tok in _UNITS:  # an atom
                name = tokens[pos + 2] if tokens[pos + 1] == "(" else ""
                if tok == "IND" or name in self.marks or name == "ortho" or tokens[pos + 3] != ")":
                    self.pos = pos
                    f = self.atom()
                    pos = self.pos
                else:  # HEAD(name), looked up by that text
                    f = formulas.get(f"{tok}({name})") if memo and not bound else None
                    if f is None:
                        term = make(Const if name in self.lat and name not in bound else Var, name)
                        try:
                            f = _atom(self.lat, _ATOM_CLASSES[tok], term)
                        except ValueError as err:  # In or R of 0
                            self.error(str(err), at=pos)
                    pos += 4
            else:
                self.error(f"expected a formula, found {tok or 'end of input'!r}", _UNITS, pos)
            while True:  # the operand f is read: the operators after it
                tok = tokens[pos]
                cls, binding, pull = _BINARY.get(tok, (None, None, 0.1))
                while stack and stack[-1][0] > pull:  # each frame that binds f more strongly
                    top = stack.pop()
                    if top[1] is Forall:
                        f = make(Forall, *top[2], f)
                        bound.pop()
                        nest -= 1
                    else:
                        f = nodes.get((top[1], id(top[2]), id(f))) or make(top[1], top[2], f)
                    if not stack:
                        root = top
                if cls is not None:
                    if cls is Tensor and stack and stack[-1][1] is Tensor:
                        self.error(
                            "'*' is non-associative; parenthesize nested conjunctions",
                            {"+", "-o", ")", ",", "|-", "end of input"}, pos,
                        )
                    stack.append((binding, cls, f, pos))
                    pos += 1
                    break
                if stack:  # the innermost '(' closes here
                    if tok != ")":
                        self.error(f"expected ')', found {tok or 'end of input'!r}", {")"}, pos)
                    nest -= 1
                    if not nest:
                        groups[stack[-1][3]] = pos
                    stack.pop()
                    pos += 1
                    continue
                if last:
                    if tok:
                        self.error(f"trailing input {tok!r}", {"end of input"}, pos)
                    if not sequent:
                        if memo:
                            self.remember(f, root, groups)
                        return f
                    return make(Sequent, make(tuple, *ctx), f)
                if tok == "|-":
                    last = True
                elif tok != ",":
                    self.error("expected '|-'", {"|-", ","}, pos)
                ctx.append(f)
                pos += 1
                break

    def inside(self, i: int):
        """The index of the ')' that closes the '(' at token ``i`` and the
        text between them, stripped, or None.  The groups scanned follow
        each other, so the brackets are matched in one pass; each '(' and
        ')' is found in the text by how many like it come before."""
        tokens, depth = self.tokens, 0
        for j in range(i, len(tokens)):
            depth += _PARENS.get(tokens[j], 0)
            if not depth:
                break
        else:
            return None
        if self.offsets is None:  # where the k-th '(' and the k-th ')' stand
            self.offsets = [list(map(add, accumulate(map(len, self.text.split(b))), count()))
                            for b in "()"]
            self.counted = (0, 0)  # a token index, and the '(' before it
        at, before = self.counted
        before += tokens[at:i].count("(")
        self.counted = (j + 1, before + tokens[i:j + 1].count("("))
        opens, closes = self.offsets
        return j, self.text[opens[before] + 1:closes[self.counted[1] - 1]].strip()

    def remember(self, f: Formula, root, groups: dict) -> None:
        """Remember ``f`` under the text, and the two operands of its root
        operator, stripped, and the inside of either that is one pair of
        parentheses; deeper operands are not remembered.  The root operator
        is found in the text by how many tokens like it come before."""
        formulas, tokens, text = self.lat._store.formulas, self.tokens, self.text
        if root is not None and root[1] is not Forall:
            at, op = root[3], tokens[root[3]]
            rest = text.split(op, tokens[:at].count(op) + 1)[-1]
            parts = [(0, at, text[:len(text) - len(rest) - len(op)], root[2]),
                     (at + 1, len(tokens) - 1, rest, f._get(f)[1])]
            for first, stop, part, value in parts:
                part = part.strip()
                formulas[part] = value
                if groups.get(first) == stop - 1:  # one pair of parentheses
                    formulas[part[1:-1].strip()] = value
        formulas[text] = f

    def atom(self) -> Formula:
        at = self.pos
        head = self.advance()
        self.expect("(")
        if head == "IND":
            name = self.name("expected a map name")
            self.expect(")")
            return self.make(Induced, name)
        term = self.term()
        self.expect(")")
        try:
            return _atom(self.lat, _ATOM_CLASSES[head], term)
        except ValueError as err:  # In or R of 0
            self.error(str(err), at=at)

    def term(self) -> Term:
        """A term in normal form: ``ortho(`` n times, a name, n ``)``, read
        as a counted loop; only a complement is normalized."""
        orthos = 0
        while self.peek() == "ortho":
            self.advance()
            self.expect("(")
            orthos += 1
        tok = self.peek()
        if not self.is_name(tok):
            self.error("expected a term", {"<name>", "ortho"})
        self.advance()
        t = self.make(Const if tok in self.lat and tok not in self.bound else Var, tok)
        for _ in range(orthos):
            self.expect(")")
            t = self.make(OrthoTerm, t)
        return normalize_term(t, self.lat) if orthos else t

    def quantifier(self) -> tuple[str, tuple]:
        """A quantifier's head up to its '.': its variable and its guard."""
        self.advance()  # 'forall'
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
        return var, self.make(tuple, *guard)

    def constraint(self) -> Constraint:
        tok = self.peek()
        if tok == "<=" or tok == "!<=":
            self.advance()
            return self.make(Constraint, tok, self.term())
        if tok == "!in":
            self.advance()
            self.expect("K")
            self.expect("(")
            name = self.name("expected a map name")
            self.expect(")")
            return self.make(Constraint, "!inK", name)
        self.error("expected a guard constraint", {"<=", "!<=", "!in"})


def parse_formula(text: str, lat: FiniteOrthoLattice) -> Formula:
    return _Reader(text, lat).read(False)


def parse_sequent(text: str, lat: FiniteOrthoLattice) -> Sequent:
    """Parse a sequent into the lattice's store, memoized by its text: a
    text seen before returns the same object.  A new text with no ``#`` (a
    comment can swallow a separator) or ``{`` (a guard's commas are not
    separators) is cut at its one ``|-`` and its commas, and each top-level
    formula, stripped, is looked up in the store's formula memo or read
    alone by :class:`_Reader`, which remembers it.  Any other text, and one
    with a formula that does not read, is read whole by :class:`_Reader`
    with no memo, so every error is the grammar's, token by token.  Errors
    are not remembered."""
    store = lat._store
    seq = store.texts.get(text)
    if seq is not None:
        return seq
    head, turnstile, rhs = text.partition("|-")
    if turnstile and "|-" not in rhs and "#" not in text and "{" not in text:
        pieces = head.split(",") if head.strip() else []
        pieces.append(rhs)
        parts = []
        for piece in pieces:
            piece = piece.strip()
            f = store.formulas.get(piece)
            if f is None:
                try:
                    f = _Reader(piece, lat, memo=True).read(False)
                except ParseError:
                    break
            parts.append(f)
        else:
            rhs, nodes = parts.pop(), store.nodes
            ctx = nodes.get((tuple, *map(id, parts))) or store.make(tuple, *parts)
            seq = nodes.get((Sequent, id(ctx), id(rhs))) or store.make(Sequent, ctx, rhs)
    store.texts[text] = seq = seq or _Reader(text, lat).read(True)
    return seq


# -- derivation s-expressions -------------------------------------------------------


_SEXPR = r"""[()=]|"[^"\n]*"|[A-Za-z0-9_'-][A-Za-z0-9_'-]*"""
_SEXPR_RE = _token_pattern(_SEXPR)


class _DerivationParser(_Parser):
    """The token grammar of derivations: the reader of a whole text, and of
    one structure piece of the split read (see :func:`parse_derivation`)."""

    pattern = _SEXPR_RE
    token = re.compile(_SEXPR).match
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
            self.expect(")")
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
        self.expect(")")
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
        self.expect(")")
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
        self.expect(")")
        make = self.make
        return AxiomApp, schema, make(tuple, *[make(tuple, *b) for b in sorted(bindings)])

    def expect_open(self, *heads: str) -> str:
        self.expect("(")
        head = self.peek()
        if head not in heads:
            self.error(f"unexpected node head {head!r}", set(heads))
        return self.advance()

    def expect(self, tok: str):
        if self.peek() != tok:
            self.error(f"expected {tok!r}", {tok})
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
        self.expect(")")
        return seq

    def witness_term(self) -> Term:
        """A witness: ``ortho(`` n times, a name, n ``)``, read as a counted
        loop and kept as written, complements and all."""
        orthos = 0
        while True:
            tok = self.peek()
            if not self.is_name(tok):
                self.error("expected a witness term", {"<name>", "ortho"})
            self.advance()
            if tok != "ortho":
                break
            self.expect("(")
            orthos += 1
        term = self.make(Const if tok in self.lat else Var, tok)
        for _ in range(orthos):
            self.expect(")")
            term = self.make(OrthoTerm, term)
        return term


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
