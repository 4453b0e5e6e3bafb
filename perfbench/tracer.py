"""Spans and counters wrapped around omlogic's public functions.

The wrappers live here, in the benchmark, not in the program.  They are
installed on freshly imported modules, so an untraced pass never sees them.
Each public function is rebound under every module attribute that names it
(``omlogic.cli.is_transition_map`` as well as
``omlogic.propagation.is_transition_map``), because ``cli``, ``derive``,
``kernel`` and ``formats`` bind imported names at import time.

Two modes:

* timed: every wrapped call records a span (name, start, end, parent) in
  memory; self-recursive calls are counted but not re-spanned, so a span
  always covers the outermost call of a recursion;
* count-only: the same wrappers count calls and run the same hooks without
  reading the clock, and the hot lattice queries ``join``, ``meet`` and
  ``index`` are counted too.  ``boolean(5)`` makes millions of these
  calls, so a timer on each would swamp the run; they are never timed.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

MODULES = (
    "lattice", "propagation", "syntax", "axioms", "kernel",
    "derive", "mutate", "formats", "cli",
)

# Class methods that get a span; other methods of these classes are hot
# queries and stay unwrapped (or count-only, below).
SPANNED_METHODS = {
    "lattice": {"FiniteOrthoLattice": ("__init__", "verify")},
}
COUNTED_METHODS = {
    "propagation": {"PowersetMap": ("__init__",), "JoinMap": ("__init__",)},
}
HOT_METHODS = {
    "lattice": {"FiniteOrthoLattice": ("join", "meet", "index")},
}


def count_nodes(d) -> tuple[int, int]:
    """(nodes, axiom leaves) of a derivation tree, walked iteratively."""
    nodes = leaves = 0
    todo = [d]
    while todo:
        node = todo.pop()
        nodes += 1
        children = getattr(node, "children", None)
        if children is None:
            leaves += 1
        else:
            todo.extend(children)
    return nodes, leaves


class Tracer:
    def __init__(self, timed: bool):
        self.timed = timed
        # one entry per span in parallel arrays: name id, start, end, parent index
        self.span_names: dict[str, int] = {}
        self.s_name, self.s_parent = array("l"), array("l")
        self.s_start, self.s_end = array("d"), array("d")
        self.names: list[str] = []  # names of the open spans, innermost last
        self.open: list[int] = []  # span indices of the open spans
        self.calls: Counter = Counter()  # wrapped calls per name, recursion included
        self.tally: Counter = Counter()  # deterministic counts from the hooks
        self.times: Counter = Counter()  # seconds gathered by the hooks (timed mode)
        self.sequents: set = set()  # distinct (lattice, text) given to parse_sequent
        self._undo: list = []

    # -- spans ------------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (an operation or set-up)."""
        self.calls[name] += 1
        if not self.timed:
            self.names.append(name)
            try:
                yield
            finally:
                self.names.pop()
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self.s_end[idx] = time.perf_counter()
            self.open.pop()
            self.names.pop()

    def _open(self, name: str) -> int:
        idx = len(self.s_name)
        self.s_name.append(self.span_names.setdefault(name, len(self.span_names)))
        self.s_parent.append(self.open[-1] if self.open else -1)
        self.s_end.append(0.0)
        self.names.append(name)
        self.open.append(idx)
        self.s_start.append(time.perf_counter())
        return idx

    def _wrap(self, fn, name: str, hook):
        calls, names = self.calls, self.names
        if not self.timed:

            def counted(*args, **kwargs):
                calls[name] += 1
                if names and names[-1] == name:
                    return fn(*args, **kwargs)
                names.append(name)
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    names.pop()
                    if hook:
                        hook(self, args, None, exc, None)
                    raise
                names.pop()
                if hook:
                    hook(self, args, result, None, None)
                return result

            return counted

        opened, ends, starts, clock, open_span = (
            self.open, self.s_end, self.s_start, time.perf_counter, self._open)

        def timed(*args, **kwargs):
            calls[name] += 1
            if names and names[-1] == name:
                return fn(*args, **kwargs)
            idx = open_span(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = end = clock()
                opened.pop()
                names.pop()
                if hook:
                    hook(self, args, None, exc, end - starts[idx])
                raise
            ends[idx] = end = clock()
            opened.pop()
            names.pop()
            if hook:
                hook(self, args, result, None, end - starts[idx])
            return result

        return timed

    def _count_only(self, fn, name: str):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation -------------------------------------------------------------

    def install(self, om) -> None:
        """Wrap the public functions of the freshly imported package ``om``."""
        modules = [om] + [getattr(om, m) for m in MODULES]
        for short in MODULES:
            mod = getattr(om, short)
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                name = f"{short}.{attr}"
                wrapper = self._wrap(obj, name, HOOKS.get(name))
                for holder in modules:
                    for a, v in list(vars(holder).items()):
                        if v is obj:
                            self._set(holder, a, wrapper)
        self._wrap_methods(om, SPANNED_METHODS, spanned=True)
        self._wrap_methods(om, COUNTED_METHODS, spanned=False)
        if not self.timed:
            self._wrap_methods(om, HOT_METHODS, spanned=False)

    def _wrap_methods(self, om, table, spanned: bool) -> None:
        for short, classes in table.items():
            for cls_name, methods in classes.items():
                cls = getattr(getattr(om, short), cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    name = f"{short}.{cls_name}.{meth}"
                    if spanned:
                        wrapper = self._wrap(fn, name, HOOKS.get(name))
                    else:
                        wrapper = self._count_only(fn, name)
                    self._set(cls, meth, wrapper)

    def _set(self, holder, attr, value) -> None:
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        for holder, attr, old in reversed(self._undo):
            setattr(holder, attr, old)
        self._undo.clear()

    # -- results ------------------------------------------------------------------

    def counts(self) -> dict:
        """Every deterministic count this tracer holds, by name."""
        out = {f"calls.{k}": v for k, v in self.calls.items()}
        out.update({f"tally.{k}": v for k, v in self.tally.items()})
        out["tally.distinct_sequents"] = len(self.sequents)
        return dict(sorted(out.items()))

    def write_spans(self, path) -> None:
        """Write the spans as gzipped JSON: a name table and one
        [name id, start ns, end ns, parent index] row per span."""
        origin = self.s_start[0] if self.s_start else 0.0
        rows = [
            [n, round((s - origin) * 1e9), round((e - origin) * 1e9), p]
            for n, s, e, p in zip(self.s_name, self.s_start, self.s_end, self.s_parent)
        ]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": list(self.span_names), "spans": rows}, fh, separators=(",", ":"))


# -- hooks: deterministic counts taken where the work happens ---------------------


def _inside(tracer: Tracer, prefix: str) -> bool:
    return any(n.startswith(prefix) for n in tracer.names)


def _oracle(tracer, args, result, exc, dur):
    tracer.tally["propagation.oracle_subsets"] += 1 << (len(args[0].lattice) - 1)


def _parse(tracer, args, result, exc, dur):
    if not _inside(tracer, "formats.parse_"):
        tracer.tally["formats.bytes_parsed"] += len(args[0].encode("utf-8"))
        if dur is not None:
            tracer.times["formats.parse_top_s"] += dur


def _parse_sequent(tracer, args, result, exc, dur):
    tracer.sequents.add((args[1].name, args[0]))
    _parse(tracer, args, result, exc, dur)


def _serialize(tracer, args, result, exc, dur):
    if result is not None and not _inside(tracer, "formats.serialize"):
        tracer.tally["formats.bytes_written"] += len(result.encode("utf-8"))


def _instantiate(tracer, args, result, exc, dur):
    if exc is not None and type(exc).__name__ == "GuardViolation":
        tracer.tally["axioms.guard_violations"] += 1
    if _inside(tracer, "kernel.check_derivation"):
        tracer.tally["axioms.instantiate_in_kernel"] += 1


def _check(tracer, args, result, exc, dur):
    nodes, leaves = count_nodes(args[1])
    tracer.tally["kernel.nodes_checked"] += nodes
    tracer.tally["kernel.axiom_leaves"] += leaves
    if result is not None and not result.valid:
        tracer.tally["kernel.rejected"] += 1
        if dur is not None:
            tracer.times["kernel.reject_s"] += dur


def _derive(tracer, args, result, exc, dur):
    if result is not None and not _inside(tracer, "derive.derive_"):
        tracer.tally["derive.nodes_built"] += count_nodes(result)[0]


def _mutant(tracer, args, result, exc, dur):
    if result is not None:
        tracer.tally["mutate.mutants"] += 1


HOOKS = {
    "propagation.transition_oracle": _oracle,
    "formats.parse_derivation": _parse,
    "formats.parse_lattice": _parse,
    "formats.parse_map": _parse,
    "formats.parse_formula": _parse,
    "formats.parse_sequent": _parse_sequent,
    "formats.serialize": _serialize,
    "axioms.instantiate_axiom": _instantiate,
    "kernel.check_derivation": _check,
    "derive.derive_measurement": _derive,
    "derive.derive_composed": _derive,
    "derive.derive_distributivity": _derive,
    "mutate.mutate": _mutant,
    "mutate.capture_case": _mutant,
}


# -- per-layer metrics ----------------------------------------------------------------

# Inclusive time of the outermost span among these names.
INCLUSIVE = {
    "lattice.build_s": (
        "lattice.FiniteOrthoLattice.__init__", "lattice.boolean", "lattice.mo",
        "lattice.hexagon", "lattice.build_family",
    ),
    "lattice.verify_s": ("lattice.FiniteOrthoLattice.verify",),
    "propagation.membership_s": ("propagation.is_transition_map",),
    "propagation.compose_union_s": (
        "propagation.quantale_compose", "propagation.quantale_union",
        "propagation.compose_join", "propagation.pointwise_join",
    ),
    "propagation.generate_s": (
        "propagation.perfect_measurement_map", "propagation.identity_map",
        "propagation.sasaki_map", "propagation.lift_join_map",
        "propagation.random_union_preserving_map", "propagation.random_join_map",
        "propagation.random_transition_map",
    ),
    "propagation.oracle_s": ("propagation.transition_oracle",),
    "formats.serialize_s": ("formats.serialize",),
    "formats.parse_lattice_s": ("formats.parse_lattice",),
    "syntax.normalize_s": ("syntax.normalize_formula", "syntax.normalize_term"),
    "syntax.render_s": (
        "syntax.ascii_term", "syntax.ascii_formula", "syntax.ascii_sequent",
        "syntax.pretty_formula", "syntax.pretty_sequent",
    ),
    "axioms.instantiate_s": ("axioms.instantiate_axiom",),
    "derive.build_s": (
        "derive.derive_measurement", "derive.derive_composed", "derive.derive_distributivity",
    ),
    "mutate.mutate_s": ("mutate.mutate", "mutate.capture_case"),
}

# Span duration minus the time its child spans cover.
SELF = {
    "propagation.sup_morphism_s": "propagation.sup_morphism",
    "formats.parse_derivation_s": "formats.parse_derivation",
    "kernel.check_s": "kernel.check_derivation",
    "derive.crosscheck_s": "derive.semantic_crosscheck",
    "cli.run_self_s": "cli.run",
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def span_times(tracer: Tracer, groups: dict) -> Counter:
    """Inclusive time of the outermost span of each group of names, and the
    self time of every name as ``self.<name>``."""
    names = list(tracer.span_names)
    group_of = {n: g for g, members in groups.items() for n in members}
    gid = [group_of.get(n) for n in names]
    nm, par, st, en = tracer.s_name, tracer.s_parent, tracer.s_start, tracer.s_end
    child = [0.0] * len(nm)
    for i, p in enumerate(par):
        if p >= 0:
            child[p] += en[i] - st[i]
    out = Counter()
    own = [0.0] * len(names)
    for i, k in enumerate(nm):
        d = en[i] - st[i]
        own[k] += d - child[i]
        g = gid[k]
        if g is not None:
            p = par[i]
            while p >= 0 and gid[nm[p]] != g:
                p = par[p]
            if p < 0:
                out[g] += d
    out.update({f"self.{n}": own[k] for k, n in enumerate(names)})
    return out


def layer_metrics(timed: Tracer, counted: Tracer) -> dict:
    """Per-layer metric values: times from the timed pass, counts from the
    count-only pass (which repeats the timed pass's counts exactly)."""
    t = span_times(timed, {**INCLUSIVE, "kernel.check_incl": ("kernel.check_derivation",)})
    c, k = counted.calls, counted.tally
    m = {}
    for group in INCLUSIVE:
        m[group] = t[group]
    for metric, name in SELF.items():
        m[metric] = t[f"self.{name}"]
    m["lattice.join_calls"] = c["lattice.FiniteOrthoLattice.join"]
    m["lattice.meet_calls"] = c["lattice.FiniteOrthoLattice.meet"]
    m["lattice.index_calls"] = c["lattice.FiniteOrthoLattice.index"]
    m["propagation.membership_calls"] = c["propagation.is_transition_map"]
    m["propagation.maps_built"] = (
        c["propagation.PowersetMap.__init__"] + c["propagation.JoinMap.__init__"]
    )
    m["propagation.oracle_calls"] = c["propagation.transition_oracle"]
    m["propagation.oracle_subsets"] = k["propagation.oracle_subsets"]
    m["formats.parse_sequent_calls"] = c["formats.parse_sequent"]
    m["formats.distinct_sequent_ratio"] = _ratio(
        len(counted.sequents), c["formats.parse_sequent"]
    )
    m["formats.bytes_parsed"] = k["formats.bytes_parsed"]
    m["formats.parse_mb_per_s"] = _ratio(
        k["formats.bytes_parsed"] / 1e6, timed.times["formats.parse_top_s"]
    )
    m["formats.bytes_written"] = k["formats.bytes_written"]
    m["syntax.normalize_calls"] = c["syntax.normalize_formula"]
    m["axioms.instantiate_calls"] = c["axioms.instantiate_axiom"]
    m["axioms.instantiations_per_leaf"] = _ratio(
        k["axioms.instantiate_in_kernel"], k["kernel.axiom_leaves"]
    )
    m["axioms.guard_violations"] = k["axioms.guard_violations"]
    m["kernel.check_calls"] = c["kernel.check_derivation"]
    m["kernel.nodes_checked"] = k["kernel.nodes_checked"]
    m["kernel.nodes_per_s"] = _ratio(k["kernel.nodes_checked"], t["kernel.check_incl"])
    m["kernel.reject_s"] = timed.times["kernel.reject_s"]
    m["derive.nodes_built"] = k["derive.nodes_built"]
    m["mutate.mutants"] = k["mutate.mutants"]
    return m


def deterministic_counts(timed: Tracer, counted: Tracer) -> tuple[dict, list[str]]:
    """Counts both passes must agree on, and the names that disagree.  The
    count-only pass also counts the hot lattice queries, which the timed pass
    leaves unwrapped."""
    a, b = timed.counts(), counted.counts()
    hot = {
        f"calls.{short}.{cls}.{m}"
        for short, classes in HOT_METHODS.items()
        for cls, methods in classes.items()
        for m in methods
    }
    differ = sorted(n for n in set(a) | set(b) if n not in hot and a.get(n) != b.get(n))
    return b, differ


def purge() -> None:
    """Forget every imported omlogic module so the next import is fresh."""
    for name in [n for n in sys.modules if n == "omlogic" or n.startswith("omlogic.")]:
        del sys.modules[name]
