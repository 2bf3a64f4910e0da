"""In-memory spans around calls into bordercert's layers, and the per-layer
metrics derived from them.

Each wrapped function is replaced at the name its caller binds, so a call
made from inside the package (``certify`` calling ``tangent_dimension``,
``tangent_dimension`` calling ``rank_of``) is recorded as well as a call made
by the benchmark itself.  No file under ``src/`` is changed: the wrappers are
installed for the traced passes and removed afterwards.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


class TraceError(RuntimeError):
    """A wrapped name is missing, or a predicted layer was never called."""


class Span:
    __slots__ = ("name", "parent", "start", "end", "counts")

    def __init__(self, name: str, parent: Optional["Span"]):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.counts: Dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def _check_kind(args, kwargs, result):
    # is_border_basis serves both the symbolic check (polynomial coefficients)
    # and the specialized one; the span name tells them apart.
    system = args[0]
    if system.ring.kind == "poly":
        return "borderbasis.symcheck", {"pairs": len(system.neighbor_pairs())}
    return "borderbasis.spcheck", {}


def _rank_counts(args, kwargs, result):
    rows = args[0]
    return None, {"nnz": sum(len(r) for r in rows), "rank": result}


def _dedupe_counts(args, kwargs, result):
    return None, {"rows_in": len(args[0]), "rows_out": len(result)}


def _tuple_counts(args, kwargs, result):
    chi = args[2] if len(args) > 2 else kwargs["chi"]
    return None, {"translation": 1 if chi.startswith("Z[") else 0}


def _tangent_counts(args, kwargs, result):
    oid = args[0].oid
    return None, {"cols": oid.mu * oid.nu}


def _specialize_counts(args, kwargs, result):
    return None, {"tail_terms": args[0].total_tail_terms()}


def _modification_counts(args, kwargs, result):
    return None, {"tail_terms": result.total_tail_terms()}


# (module, attribute the caller binds, span name, counter); a counter returns
# an optional span name that overrides the default, and the span's counts.
WRAPPED = (
    ("bordercert.certify", "build", "orderideal.build", None),
    ("bordercert.certify", "build_generic_modification", "modification.build", _modification_counts),
    ("bordercert.certify", "is_border_basis", "borderbasis.check", _check_kind),
    ("bordercert.certify", "specialize_system", "borderbasis.specialize", _specialize_counts),
    ("bordercert.certify", "power_in_ideal", "borderbasis.powers", None),
    ("bordercert.certify", "tangent_dimension", "tangent.tangent_dimension", _tangent_counts),
    ("bordercert.tangent", "is_border_basis", "borderbasis.check", _check_kind),
    ("bordercert.tangent", "rank_of", "tangent.rank_of", None),
    ("bordercert.tangent", "coordinate_tangent_tuple", "tangent.tuple", _tuple_counts),
    ("bordercert.linalg", "dedupe_rows", "linalg.dedupe", _dedupe_counts),
    ("bordercert.linalg", "exact_rank", "linalg.exact_rank", _rank_counts),
    ("bordercert.linalg", "modp_rank", "linalg.modp_rank", _rank_counts),
)


class Tracer:
    """Records spans while installed; `calls` counts every wrapped name.

    `clock` gives the span times, in seconds.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.calls: Dict[str, int] = {}
        self._stack: List[Span] = []

    def reset(self) -> None:
        self.spans = []

    @contextmanager
    def span(self, name: str):
        span = Span(name, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(span)
        span.start = self.clock()
        try:
            yield span
        finally:
            span.end = self.clock()
            self._stack.pop()

    def _wrap(self, key: str, name: str, fn: Callable, counter) -> Callable:
        def traced(*args, **kwargs):
            self.calls[key] += 1
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if counter is not None:
                renamed, counts = counter(args, kwargs, result)
                if renamed:
                    span.name = renamed
                span.counts = counts
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every name in WRAPPED for the duration of the block."""
        originals = []
        try:
            for module_name, attr, name, counter in WRAPPED:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if not callable(fn):
                    raise TraceError(f"{module_name} binds no callable {attr!r} to wrap")
                key = f"{module_name}.{attr}"
                self.calls.setdefault(key, 0)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(key, name, fn, counter))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def require_called(self, keys) -> None:
        never = [k for k in keys if not self.calls.get(k)]
        if never:
            raise TraceError("predicted layer calls never happened: " + ", ".join(never))


def _self_time(span: Span, children: Dict[int, List[Span]]) -> float:
    return span.duration - sum(c.duration for c in children.get(id(span), ()))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer totals for one pass; a layer the pass never called reads 0."""
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)

    def total(name: str) -> float:
        return sum(s.duration for s in spans if s.name == name)

    def count(name: str, key: Optional[str] = None) -> float:
        return sum(s.counts.get(key, 0) if key else 1 for s in spans if s.name == name)

    def parent_is(s: Span, name: str) -> bool:
        return s.parent is not None and s.parent.name == name

    rows_in = count("linalg.dedupe", "rows_in")
    rows_out = count("linalg.dedupe", "rows_out")
    rank = count("linalg.exact_rank", "rank") + count("linalg.modp_rank", "rank")
    tuples = [s for s in spans if s.name == "tangent.tuple"]
    spchecks = [s for s in spans if s.name == "borderbasis.spcheck"]
    return {
        "linalg.exact_rank.s": total("linalg.exact_rank"),
        "linalg.modp_rank.s": total("linalg.modp_rank"),
        "linalg.dedupe.s": total("linalg.dedupe"),
        "linalg.dedupe.rows_in": rows_in,
        "linalg.dedupe.rows_out": rows_out,
        "linalg.dedupe.keep_ratio": _ratio(rows_out, rows_in),
        "linalg.rank.nnz": count("linalg.exact_rank", "nnz") + count("linalg.modp_rank", "nnz"),
        "linalg.rank.value": rank,
        "linalg.rank.pivot_ratio": _ratio(rank, rows_out),
        "tangent.assembly.self_s": sum(
            _self_time(s, children) for s in spans if s.name == "tangent.tangent_dimension"
        ),
        "tangent.cols": count("tangent.tangent_dimension", "cols"),
        "tangent.tuples.s": sum(s.duration for s in tuples),
        "tangent.tuples.calls": len(tuples),
        "tangent.tuples.translation_s": sum(s.duration for s in tuples if s.counts["translation"]),
        "tangent.indep_rank.s": sum(
            s.duration
            for s in spans
            if s.name == "tangent.rank_of" and parent_is(s, "tangent.independence_rank")
        ),
        "borderbasis.specialize.s": total("borderbasis.specialize"),
        "borderbasis.specialize.tail_terms": count("borderbasis.specialize", "tail_terms"),
        "borderbasis.symcheck.s": total("borderbasis.symcheck"),
        "borderbasis.symcheck.pairs": count("borderbasis.symcheck", "pairs"),
        "modification.build.s": total("modification.build"),
        "modification.tail_terms": count("modification.build", "tail_terms"),
        "borderbasis.spcheck.s": sum(s.duration for s in spchecks),
        "borderbasis.spcheck.calls": len(spchecks),
        "borderbasis.spcheck.calls_in_tangent": sum(
            1 for s in spchecks if parent_is(s, "tangent.tangent_dimension")
        ),
        "borderbasis.powers.s": total("borderbasis.powers"),
        "orderideal.build.s": total("orderideal.build"),
        "certify.self_s": sum(_self_time(s, children) for s in spans if s.name == "certify"),
    }
