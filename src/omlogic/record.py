"""The one base of every immutable node and result class.

A :class:`Record` behaves as a frozen dataclass over the field names in its
``__slots__``: ``repr`` lists the fields in order, two records are equal when
they are of the same class and their field tuples are equal, the hash is
that of the tuple of the fields' hashes, and fields can be neither assigned
nor deleted.  ``repr``, equality and hashing walk records and tuples with an
explicit stack, so trees of any depth are written, compare and hash.  It
costs no code generation at import, which matters because every ``omlogic``
command starts a fresh interpreter.

Every record is built by :meth:`Record.__init__`, which takes one value per
field, in order, and raises :class:`TypeError` on any other count.  A class
lists its fields as annotations under ``__slots__``, and writes an
``__init__`` only to give trailing fields defaults, passing every field on to
``super().__init__``.  Nodes built in one :class:`Store` are equal only when
they are the same object, which ``__eq__`` tests first.

A :class:`Store` hash-conses records: it hands out one object per distinct
value built through it, so equal values it owns are the same object.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Record", "Store"]

_set = object.__setattr__  # assigns a slot of a frozen record


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__slots__:
            # reads the fields in C: their tuple, or the value of a single field
            cls._get = attrgetter(*cls.__slots__)

    def __init__(self, *values):
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, got {len(values)}")
        for name, value in zip(names, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        values = self._get(self)
        return values if len(self.__slots__) > 1 else (values,)

    def __repr__(self) -> str:
        """``Cls(field=value, ...)``, as a dataclass writes it, with each tuple
        as Python writes one, written left to right from an explicit stack of
        texts to write and records and tuples to open, so a tree of any depth
        is written.  Each record inside is written by this method too."""
        out, stack = [], [self]
        while stack:
            x = stack.pop()
            if x.__class__ is str:
                out.append(x)
                continue
            if x.__class__ is tuple:
                parts, opening, seps = x, "(", [""] + [", "] * (len(x) - 1)
                tail = ",)" if len(x) == 1 else ")"
            else:
                names = x.__slots__
                parts = [getattr(x, name) for name in names]
                opening, tail = f"{type(x).__qualname__}(", ")"
                seps = [f"{', ' if i else ''}{name}=" for i, name in enumerate(names)]
            stack.append(tail)
            for part, sep in zip(reversed(parts), reversed(seps)):
                stack += (part if _node(part) else repr(part), sep)
            stack.append(opening)
        return "".join(out)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self is other:
            return True
        stack = [(self, other)]  # pairs of parts still to compare
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__ or not _node(a):
                if a != b:
                    return False
                continue
            x, y = _parts(a), _parts(b)
            if len(x) != len(y):
                return False
            stack += zip(x, y)
        return True

    def __hash__(self) -> int:
        """The hash of the tuple of the fields' hashes, worked out bottom-up
        on an explicit stack; a tuple's is that of its items' hashes."""
        hashes = {}  # id of each node below self -> its hash
        stack = [self]
        while stack:
            parts = _parts(stack[-1])
            inner = [p for p in parts if _node(p) and id(p) not in hashes]
            if inner:
                stack += inner
            else:
                hashes[id(stack.pop())] = hash(tuple(
                    [hashes[id(p)] if _node(p) else hash(p) for p in parts]))
        return hashes[id(self)]

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        """Copy and pickle through the constructor, which frozen fields need."""
        return type(self), self._values()


def _node(x) -> bool:
    """Whether ``==``, ``hash`` and ``repr`` walk into ``x``: a record or a
    tuple."""
    return x.__class__ is tuple or isinstance(x, Record)


def _parts(x) -> tuple:
    return x if x.__class__ is tuple else x._values()


class Store:
    """The hash-consed nodes of one lattice, and the memos that hold them
    (Filliatre & Conchon, "Type-safe modular hash-consing", 2006).

    Every node is built through :meth:`make` from parts the store already
    owns, so it is keyed one level deep, on its class and the ids of its
    parts (a string part by its value), and no key hashes a subtree.  The
    table holds each node, and each node its parts, so an id in a key or in
    ``verdicts`` is never reused while the store lives.  The store lives and
    dies with its lattice and grows with distinct content, not with calls.

    Its memos map texts to what was read from them: ``texts`` each sequent
    string and ``formulas`` each top-level formula string the reader read
    and the two operands of its root operator, stripped, with the inside of
    either when it is one pair of parentheses, but no deeper operand
    (``formats.parse_sequent``), so every key of ``formulas`` parses as a
    whole formula to its value; and ``pieces`` each piece of structure
    between two sequent strings of a derivation file, exactly as the file
    wrote it and with its tokens joined by single spaces, to its program
    (``formats.parse_derivation``).  A text that does not parse is never
    remembered.

    Two memos hold proofs: ``cores`` maps (actual element, measured element)
    to the tree of ``derive.derive_measurement``, and ``stages`` maps
    (measured element, id of a subtree f of a chain stage's disjunction) to
    ``derive._extend``'s proof of (M(measured), f) |- f', the subtree with
    each branch measured.  Both are keyed by the measured element as given,
    not by its ``M`` atom, which an element shares with its complement, so
    ``stages`` grows with the distinct (measurement, subtree) pairs that
    chains meet, not with the chains built.
    """

    __slots__ = ("nodes", "texts", "formulas", "pieces", "verdicts", "cores", "stages")

    def __init__(self):
        self.nodes: dict = {}  # key -> the one node of that value
        self.texts: dict = {}  # sequent text -> sequent, for parse_sequent
        self.formulas: dict = {}  # formula or operand text -> formula, for parse_sequent
        self.pieces: dict = {}  # derivation structure piece -> its program, for parse_derivation
        self.verdicts: set = set()  # ids of the nodes check_derivation found valid
        self.cores: dict = {}  # (actual, measured) -> derive_measurement's tree
        self.stages: dict = {}  # (measured, id of a subtree) -> _extend's proof of it

    def make(self, cls, *parts):
        """The node of class ``cls`` (a record class or ``tuple``) over
        ``parts``, each a string or a node this store owns."""
        key = (cls, *[id(p) if p.__class__ is not str else p for p in parts])
        node = self.nodes.get(key)
        if node is None:  # not a falsiness test: the empty tuple is a node
            node = self.nodes[key] = parts if cls is tuple else cls(*parts)
        return node

    def owns(self, node) -> bool:
        """Whether ``node`` is the one the store holds for its value.  A value
        other than a record or a tuple is a part as it is, so owned."""
        if not _node(node):
            return True
        key = (node.__class__, *[id(p) if p.__class__ is not str else p for p in _parts(node)])
        return self.nodes.get(key) is node

    def intern(self, node):
        """The store's copy of ``node``: ``node`` itself when the store owns
        it, else a copy built bottom-up through :meth:`make`.  The walk keeps
        an explicit stack, stops at the parts the store owns and copies each
        other object once, so a tree of any depth is interned and a shared
        subtree is copied once."""
        if self.owns(node):
            return node
        copies = {}  # id of a part of node -> its copy; node holds each part
        stack = [(node, False)]  # (object, whether its parts are copied)
        while stack:
            obj, ready = stack.pop()
            if ready:
                copies[id(obj)] = self.make(obj.__class__, *[copies[id(p)] for p in _parts(obj)])
            elif id(obj) not in copies:
                if self.owns(obj):
                    copies[id(obj)] = obj
                    continue
                stack.append((obj, True))
                stack.extend([(p, False) for p in _parts(obj)])
        return copies[id(node)]
