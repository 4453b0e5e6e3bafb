"""Finite orthomodular lattices: construction, verification, and queries.

A lattice is given by an explicit finite order (generating pairs, closed
reflexively and transitively at construction) together with an
orthocomplement table.  Meets and joins are always computed from the order,
never supplied, so the order relation stays the single source of truth.

Element handles are plain names (strings); the position of a name in
``elements`` is its index.  All structures are immutable after construction
and every query is pure, so concurrent reads are safe.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable, Sequence

from omlogic.record import Record, Store

__all__ = [
    "LatticeError",
    "UnknownElementError",
    "IncompleteLatticeError",
    "NotOrthomodularError",
    "LawCheck",
    "VerificationReport",
    "FiniteOrthoLattice",
    "boolean",
    "mo",
    "hexagon",
    "build_family",
    "distributivity_oracle",
]


class LatticeError(Exception):
    """Base class for lattice construction and query errors."""


class UnknownElementError(LatticeError):
    """A name does not denote an element of the lattice."""


class IncompleteLatticeError(LatticeError):
    """A meet or join was requested for a pair that has none."""


class NotOrthomodularError(LatticeError, ValueError):
    """An operation requiring a verified orthomodular lattice was refused.
    Also a ValueError, so a caller catching that still catches the refusal."""


class LawCheck(Record):
    """Outcome of one law: name, pass flag, and a witness tuple on failure."""

    __slots__ = ("law", "passed", "witness")

    def __init__(self, law: str, passed: bool, witness: tuple[str, ...] | None = None):
        super().__init__(law, passed, witness)


class VerificationReport(Record):
    """Ordered list of law checks; ``ok`` iff every law passed."""

    __slots__ = ("checks",)

    checks: tuple[LawCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> tuple[LawCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def __getitem__(self, law: str) -> LawCheck:
        for c in self.checks:
            if c.law == law:
                return c
        raise KeyError(law)


# Element names must be plain identifiers so every surface grammar can carry
# them; a trailing prime marks orthocomplement partners in generated families.
_NAME_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_']*")


class FiniteOrthoLattice:
    """A finite bounded poset with an orthocomplement table.

    Construction is permissive: any relation/table that is structurally
    buildable is accepted, and :meth:`verify` reports which laws hold.  The
    distinguished bottom and top are the elements named ``0`` and ``1``,
    which must be present.  The pair ``(0, 1)`` is always orthocomplementary
    and need not be listed in ``ortho_pairs``.
    """

    def __init__(
        self,
        name: str,
        elements: Sequence[str],
        leq_pairs: Iterable[tuple[str, str]] = (),
        ortho_pairs: Iterable[tuple[str, str]] = (),
    ):
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            dup = [e for e in elements if elements.count(e) > 1]
            raise LatticeError(f"duplicate element name {dup[0]!r}")
        for e in elements:
            if not _NAME_RE.fullmatch(e):
                raise LatticeError(f"invalid element name {e!r}")
        if "0" not in elements or "1" not in elements:
            raise LatticeError("elements must include '0' and '1'")
        self.name = name
        self.elements = elements
        self._index = {e: i for i, e in enumerate(elements)}
        n = len(elements)

        # Upward closure as bitmasks: _up[i] has bit j set iff i <= j.
        up = [1 << i for i in range(n)]
        for x, y in leq_pairs:
            up[self.index(x)] |= 1 << self.index(y)
        for k in range(n):
            bit = 1 << k
            for i in range(n):
                if up[i] & bit:
                    up[i] |= up[k]
        self._up = up
        down = [0] * n
        for i in range(n):
            for j in range(n):
                if up[j] >> i & 1:
                    down[i] |= 1 << j
        self._down = down

        ortho: list[int | None] = [None] * n
        pairs = list(ortho_pairs) + [("0", "1")]
        for x, y in pairs:
            i, j = self.index(x), self.index(y)
            for a, b in ((i, j), (j, i)):
                if ortho[a] is not None and ortho[a] != b:
                    raise LatticeError(
                        f"conflicting orthocomplement for {elements[a]!r}"
                    )
                ortho[a] = b
        self._ortho = ortho

        self._meet = _bounds(down)
        self._join = _bounds(up)
        self._zero = self._index["0"]
        self._report: VerificationReport | None = None
        self._complete: set[str] = set()  # tables known to have no missing entry
        self._irreducibles: tuple[int, ...] | None = None
        # the propagation layer's byte tables, each built on first use
        self._padding: bytes | None = None
        self._rows: list[bytes] | None = None
        self._sasaki: dict[int, bytes] = {}
        self._measured: dict[int, list[int]] = {}
        self._joins: dict[int, int] = {}  # image bitmask -> index of its join
        # the formulas, sequents and derivations built or parsed over this
        # lattice, one object per value, and their memos
        self._store = Store()

    # -- basic access -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteOrthoLattice):
            return NotImplemented
        if self is other:
            return True
        return (
            self.name == other.name
            and self.elements == other.elements
            and self._up == other._up
            and self._ortho == other._ortho
        )

    def __repr__(self) -> str:
        return f"FiniteOrthoLattice({self.name!r}, {len(self)} elements)"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownElementError(
                f"unknown element {name!r} in lattice {self.name!r}"
            ) from None

    @property
    def bottom(self) -> str:
        return "0"

    @property
    def top(self) -> str:
        return "1"

    def nonzero(self) -> tuple[str, ...]:
        """Elements other than 0, in index order."""
        return tuple(e for e in self.elements if e != "0")

    def ortho_pairs(self) -> list[tuple[str, str]]:
        """Orthocomplementary pairs, one entry each, excluding the implied
        (0, 1) pair and any element without a table entry."""
        out = []
        seen: set[str] = set()
        for x in self.elements:
            o = self._ortho[self.index(x)]
            if o is None:
                continue
            y = self.elements[o]
            if x in seen or y in seen or {x, y} == {"0", "1"}:
                continue
            seen.update({x, y})
            out.append((x, y))
        return out

    def covers(self) -> list[tuple[str, str]]:
        """Hasse edges (x, y) with x < y and nothing strictly between."""
        n = len(self)
        out = []
        for i in range(n):
            for j in range(n):
                if i == j or not self._up[i] >> j & 1:
                    continue
                between = self._up[i] & self._down[j] & ~(1 << i) & ~(1 << j)
                if between == 0:
                    out.append((self.elements[i], self.elements[j]))
        return out

    # -- order and operations ------------------------------------------------

    def leq(self, a: str, b: str) -> bool:
        return bool(self._up[self.index(a)] >> self.index(b) & 1)

    def meet(self, a: str, b: str) -> str:
        m = self._meet[self.index(a)][self.index(b)]
        if m is None:
            raise IncompleteLatticeError(f"no meet for ({a!r}, {b!r})")
        return self.elements[m]

    def join(self, a: str, b: str) -> str:
        m = self._join[self.index(a)][self.index(b)]
        if m is None:
            raise IncompleteLatticeError(f"no join for ({a!r}, {b!r})")
        return self.elements[m]

    def meet_set(self, names: Iterable[str]) -> str:
        """Meet of a finite set; the empty meet is 1."""
        out = self.top
        for x in names:
            out = self.meet(out, x)
        return out

    def join_set(self, names: Iterable[str]) -> str:
        """Join of a finite set; the empty join is 0."""
        out = self.bottom
        for x in names:
            out = self.join(out, x)
        return out

    def ortho(self, a: str) -> str:
        return self.elements[self._ortho_of(self.index(a))]

    def sasaki(self, a: str, b: str) -> str:
        """Sasaki projection of b onto a: ``a meet (b join ortho(a))``."""
        return self.meet(a, self.join(b, self.ortho(a)))

    def compatible(self, a: str, b: str) -> bool:
        """Commutation criterion: a = (a^b) v (a^b')."""
        return a == self.join(self.meet(a, b), self.meet(a, self.ortho(b)))

    # -- index-level access ---------------------------------------------------
    #
    # The propagation maps work on element indices and bitmasks of them; these
    # raise the same errors as the name-level queries instead of handing out a
    # missing (None) entry.

    def _table(self, op: str) -> list[list[int]]:
        """The ``meet`` or ``join`` table by index, once every pair is known
        to have one; raises :class:`IncompleteLatticeError` naming the first
        pair that has none."""
        table = self._meet if op == "meet" else self._join
        if op not in self._complete:
            for i, row in enumerate(table):
                if None in row:
                    a, b = self.elements[i], self.elements[row.index(None)]
                    raise IncompleteLatticeError(f"no {op} for ({a!r}, {b!r})")
            self._complete.add(op)
        return table

    def _ortho_of(self, i: int) -> int:
        o = self._ortho[i]
        if o is None:
            raise IncompleteLatticeError(
                f"no orthocomplement for {self.elements[i]!r}"
            )
        return o

    def _join_irreducibles(self) -> tuple[int, ...]:
        """Indices of the join-irreducible elements: those other than 0 that
        are not the join of two elements both different from them.  Every
        element of a finite lattice is a join of these.  Computed once."""
        if self._irreducibles is None:
            reducible = {self._zero}
            for i, row in enumerate(self._table("join")):
                reducible.update(k for j, k in enumerate(row) if k != i and k != j)
            self._irreducibles = tuple(
                k for k in range(len(self)) if k not in reducible
            )
        return self._irreducibles

    # -- byte tables ------------------------------------------------------------
    #
    # The propagation layer holds join maps as bytes, one element index per
    # element index, and computes with ``bytes.translate``.  A table by index
    # followed by ``_pad()`` is a 256-byte translate table; what is translated
    # through it holds element indices only, so the padding is never read.

    def _pad(self) -> bytes:
        """The indices from ``len(self)`` to 255, as bytes.  Every byte table
        is built through here, so this is where a lattice of more than 256
        elements, whose indices do not fit in a byte, raises
        :class:`ValueError`."""
        if self._padding is None:
            n = len(self)
            if n > 256:
                raise ValueError(
                    f"the propagation layer handles at most 256 elements; "
                    f"{self.name!r} has {n}"
                )
            self._padding = bytes(range(n, 256))
        return self._padding

    def _join_rows(self) -> list[bytes]:
        """Each element's join row as a translate table: byte c of row i is
        ``i v c`` for every element c.  Computed once."""
        if self._rows is None:
            pad = self._pad()
            self._rows = [bytes(row) + pad for row in self._table("join")]
        return self._rows

    def _sasaki_row(self, a: int) -> bytes:
        """The Sasaki projection onto a, ``a meet (b join ortho(a))``, of every
        b, by index.  Computed once per element."""
        row = self._sasaki.get(a)
        if row is None:
            self._pad()
            onto, ao = self._table("meet")[a], self._ortho_of(a)
            row = self._sasaki[a] = bytes([onto[r[ao]] for r in self._table("join")])
        return row

    def _measurement_masks(self, a: int) -> list[int]:
        """The branches of measuring {a, a'}, by index: one bitmask per
        element b, holding the nonzero Sasaki projections of b onto a and onto
        a' (none onto an outcome whose opposite is above b), and empty for 0.
        Computed once per element from the Sasaki rows.  Raises
        :class:`NotOrthomodularError` when a branch projects to 0, which an
        orthomodular lattice never does; nothing is kept then."""
        masks = self._measured.get(a)
        if masks is None:
            ao = self._ortho_of(a)
            onto_a, onto_ao = self._sasaki_row(a), self._sasaki_row(ao)
            up, zero, names = self._up, self._zero, self.elements
            masks = [0] * len(self)
            for b in range(len(self)):
                if b == zero:
                    continue
                for onto, outcome, opposite in ((onto_a, a, ao), (onto_ao, ao, a)):
                    if up[b] >> opposite & 1:
                        continue  # b is under the opposite outcome: no branch
                    if onto[b] == zero:
                        raise NotOrthomodularError(
                            f"measuring {names[a]!r}: the branch onto {names[outcome]!r} "
                            f"projects {names[b]!r} to 0 although {names[b]!r} is not "
                            f"below {names[opposite]!r}, so lattice {self.name!r} is "
                            "not orthomodular"
                        )
                    masks[b] |= 1 << onto[b]
            self._measured[a] = masks
        return masks

    # -- verification ---------------------------------------------------------

    def verify(self) -> VerificationReport:
        """Check every law; the report is cached (lattices are immutable)."""
        if self._report is None:
            self._report = self._verify()
        return self._report

    def ensure_verified(self) -> None:
        report = self.verify()
        if not report.ok:
            laws = ", ".join(c.law for c in report.failed())
            raise NotOrthomodularError(
                f"lattice {self.name!r} fails: {laws}"
            )

    def _verify(self) -> VerificationReport:
        n, els, up, o = len(self), self.elements, self._up, self._ortho
        meet, join = self._meet, self._join
        zero, one = self._zero, self._index["1"]
        paired = [(i, o[i]) for i in range(n) if o[i] is not None]  # (a, a') where a' exists
        return _report([
            ("structure", _first((els[i],) for i in range(n) if o[i] is None)),
            # reflexivity, transitivity and ortho-involution hold for every
            # lattice built: __init__ closes the order reflexively and
            # transitively and writes each ortho pair both ways, raising on a
            # conflict; they stay in the report as passed
            ("reflexivity", None),
            ("antisymmetry", _first(
                (els[i], els[j])
                for i, j in itertools.product(range(n), repeat=2)
                if i != j and up[i] >> j & 1 and up[j] >> i & 1
            )),
            ("transitivity", None),
            ("bounds", _first(
                (els[i],) for i in range(n) if not (up[zero] >> i & 1 and up[i] >> one & 1)
            )),
            ("completeness", _first(
                (els[i], els[j])
                for i in range(n)
                for j in range(i, n)
                if meet[i][j] is None or join[i][j] is None
            )),
            ("ortho-involution", None),
            ("ortho-antitone", _first(
                (els[i], els[j])
                for i, oi in paired
                for j, oj in paired
                if up[i] >> j & 1 and not up[oj] >> oi & 1
            )),
            ("complement-meet", _first(
                (els[i],) for i, oi in paired if meet[i][oi] not in (None, zero)
            )),
            ("complement-join", _first(
                (els[i],) for i, oi in paired if join[i][oi] not in (None, one)
            )),
            # a <= b  implies  a v (a' ^ b) = b
            ("orthomodularity", _first(
                (els[i], els[j])
                for i, oi in paired
                for j in range(n)
                if up[i] >> j & 1
                and meet[oi][j] is not None
                and join[i][meet[oi][j]] not in (None, j)
            )),
        ])


def _bounds(rel: list[int]) -> list[list[int | None]]:
    """The meet table when ``rel`` is ``_down``, the join table when it is
    ``_up``; None where a pair has no bound.  For a reflexive, transitive
    order, k is the greatest common lower bound of i and j exactly when
    ``down[k] == down[i] & down[j]`` (dually for ``_up``), so each entry is
    one lookup of that mask, answered by the first index that has it."""
    first: dict[int, int] = {}
    for k, mask in enumerate(rel):
        first.setdefault(mask, k)
    get = first.get
    return [[get(ri & rj) for rj in rel] for ri in rel]


def _first(witnesses: Iterable[tuple[str, ...]]) -> tuple[str, ...] | None:
    """The first of ``witnesses``, searched no further; None when there is
    none.  A law's witness search is this over its candidate failures."""
    return next(iter(witnesses), None)


def _report(laws: Iterable[tuple[str, tuple[str, ...] | None]]) -> VerificationReport:
    """The report of ``(law, first witness)`` pairs, read in order, so a lazy
    ``laws`` runs each search after the one before; a law passes when its
    search found no witness."""
    return VerificationReport(tuple(LawCheck(law, w is None, w) for law, w in laws))


def distributivity_oracle(lat: FiniteOrthoLattice, a: str, b: str) -> bool:
    """Brute-force compatibility check: close {a, a', b, b'} under meet and
    join, then test the distributive law on every triple of the closure.

    Independent of :meth:`FiniteOrthoLattice.compatible`; the two are required
    to agree on verified orthomodular lattices.
    """
    closed = {a, lat.ortho(a), b, lat.ortho(b)}
    while True:
        new = set()
        for x, y in itertools.product(closed, repeat=2):
            new.add(lat.meet(x, y))
            new.add(lat.join(x, y))
        if new <= closed:
            break
        closed |= new
    for x, y, z in itertools.product(closed, repeat=3):
        if lat.meet(x, lat.join(y, z)) != lat.join(lat.meet(x, y), lat.meet(x, z)):
            return False
    return True


# -- generated families -------------------------------------------------------

_ATOM_LETTERS = "abcdefgh"


def boolean(n: int, names: Sequence[str] | None = None) -> FiniteOrthoLattice:
    """Powerset lattice of n atoms (n <= 6).

    Subsets are named by concatenating their sorted atom names; the empty set
    is ``0`` and the full set is ``1``.
    """
    if not 1 <= n <= 6:
        raise ValueError(f"boolean(n) requires 1 <= n <= 6, got {n}")
    atoms = list(names) if names is not None else list(_ATOM_LETTERS[:n])
    if len(atoms) != n:
        raise ValueError(f"expected {n} atom names, got {len(atoms)}")
    sep = "" if all(len(x) == 1 for x in atoms) else "_"

    def label(mask: int) -> str:
        if mask == 0:
            return "0"
        if mask == (1 << n) - 1:
            return "1"
        return sep.join(atoms[i] for i in range(n) if mask >> i & 1)

    masks = sorted(range(1 << n), key=lambda m: (bin(m).count("1"), label(m)))
    elements = [label(m) for m in masks]
    if len(set(elements)) != len(elements):
        raise ValueError("atom names produce colliding subset names")
    leq = [
        (label(x), label(y))
        for x, y in itertools.product(masks, repeat=2)
        if x & y == x
    ]
    full = (1 << n) - 1
    ortho = [(label(m), label(full & ~m)) for m in masks]
    return FiniteOrthoLattice(f"boolean{n}", elements, leq, ortho)


def mo(n: int, names: Sequence[str] | None = None) -> FiniteOrthoLattice:
    """0, 1, and n orthocomplementary pairs of pairwise-incomparable atoms
    (n <= 8).  Pair partners are named with a trailing prime: a, a'.
    """
    if not 1 <= n <= 8:
        raise ValueError(f"mo(n) requires 1 <= n <= 8, got {n}")
    bases = list(names) if names is not None else list(_ATOM_LETTERS[:n])
    if len(bases) != n:
        raise ValueError(f"expected {n} atom names, got {len(bases)}")
    elements = ["0"]
    for x in bases:
        elements += [x, x + "'"]
    elements.append("1")
    leq = [("0", e) for e in elements] + [(e, "1") for e in elements]
    ortho = [(x, x + "'") for x in bases]
    return FiniteOrthoLattice(f"mo{n}", elements, leq, ortho)


def hexagon() -> FiniteOrthoLattice:
    """The 6-element benzene-ring ortholattice: 0 < a < b < 1 and
    0 < b' < a' < 1.  An ortholattice that is not orthomodular.
    """
    elements = ["0", "a", "b", "b'", "a'", "1"]
    leq = [("0", "a"), ("a", "b"), ("b", "1"), ("0", "b'"), ("b'", "a'"), ("a'", "1")]
    ortho = [("a", "a'"), ("b", "b'")]
    return FiniteOrthoLattice("hexagon", elements, leq, ortho)


def build_family(
    family: str, n: int | None = None, names: Sequence[str] | None = None
) -> FiniteOrthoLattice:
    """Dispatch on a family name: ``boolean(n)``, ``mo(n)``, or ``hexagon``."""
    if family == "boolean":
        if n is None:
            raise ValueError("boolean family requires n")
        return boolean(n, names)
    if family == "mo":
        if n is None:
            raise ValueError("mo family requires n")
        return mo(n, names)
    if family == "hexagon":
        return hexagon()
    raise ValueError(f"unknown family {family!r}")
