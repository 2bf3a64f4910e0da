"""Exact coefficient arithmetic for the border-basis construction.

Two kinds of scalars appear downstream:

* `CoeffPoly`: sparse polynomials with integer coefficients in named
  indeterminates — one tail coefficient C[i,j] per (trailing monomial,
  leading monomial) slot plus one free target coefficient theta[q] per seed
  target term, each named once by `IndeterminateRegistry`, the C[i,j] in
  the order of its `tail_slots`,
* plain integers: the values of those polynomials at an integer point.  The
  construction only adds, multiplies and shifts, so integers suffice
  everywhere; prime mode reduces them modulo the fixed prime of `linalg`
  only when it computes a rank.

No floating point appears anywhere.
"""

from __future__ import annotations

from numbers import Rational
from typing import Dict, List, Mapping, Tuple

from .monomial import ArgumentError


class IndeterminateRegistry:
    """Stable names and dense integer ids for one order ideal's indeterminates.

    `tail_slots` lists the (i, j) of each tail slot C[i,j] in id order (i the
    basis index of a trailing monomial, j the border index of a leading
    monomial), grouped by j; the free target coefficients theta[1..gamma]
    follow.  The generic tails and the coordinate labels read this one list.
    """

    __slots__ = ("tail_slots", "names", "_id_of_name")

    def __init__(self, oid):
        self.tail_slots: List[Tuple[int, int]] = [
            (oid.index_of_basis[trail], oid.index_of_border[lead])
            for lead in oid.leading
            for trail in oid.trailing
        ]
        self.names = [f"C[{i},{j}]" for i, j in self.tail_slots]
        self.names += [f"theta[{q}]" for q in range(1, oid.gamma + 1)]
        self._id_of_name = {name: k for k, name in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.names)

    def theta_id(self, q: int) -> int:
        try:
            return self._id_of_name[f"theta[{q}]"]
        except KeyError:
            raise ArgumentError(f"no target coefficient theta[{q}] in this registry") from None

    def id_of(self, name: str) -> int:
        try:
            return self._id_of_name[name]
        except KeyError:
            raise ArgumentError(f"unknown indeterminate {name!r}") from None


def _as_int(value) -> int:
    if isinstance(value, int):
        return value
    raise ArgumentError(f"expected an integer, got {type(value).__name__}")


ExponentKey = Tuple[Tuple[int, int], ...]


class CoeffPoly:
    """A sparse polynomial with integer coefficients in registry indeterminates.

    Terms map a sorted tuple of (indeterminate id, exponent) pairs to a
    nonzero integer coefficient; the empty tuple is the constant term.
    """

    __slots__ = ("registry", "terms")

    def __init__(self, registry: IndeterminateRegistry, terms: Dict[ExponentKey, int]):
        self.registry = registry
        self.terms = terms

    # ------------------------------------------------------------- builders

    @classmethod
    def zero(cls, registry: IndeterminateRegistry) -> "CoeffPoly":
        return cls(registry, {})

    @classmethod
    def constant(cls, registry: IndeterminateRegistry, value: int) -> "CoeffPoly":
        v = _as_int(value)
        return cls(registry, {(): v} if v else {})

    @classmethod
    def indeterminate(cls, registry: IndeterminateRegistry, ind_id: int) -> "CoeffPoly":
        if not 0 <= ind_id < len(registry):
            raise ArgumentError(f"indeterminate id {ind_id} out of range")
        return cls(registry, {((ind_id, 1),): 1})

    # ------------------------------------------------------------ ring ops

    def _check_registry(self, other: "CoeffPoly") -> None:
        if self.registry is not other.registry:
            raise ArgumentError("cannot combine polynomials over different registries")

    def __add__(self, other: "CoeffPoly") -> "CoeffPoly":
        self._check_registry(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            v = terms.get(key, 0) + c
            if v:
                terms[key] = v
            else:
                terms.pop(key, None)
        return CoeffPoly(self.registry, terms)

    def __neg__(self) -> "CoeffPoly":
        return CoeffPoly(self.registry, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "CoeffPoly") -> "CoeffPoly":
        return self + (-other)

    def __mul__(self, other) -> "CoeffPoly":
        if not isinstance(other, CoeffPoly):
            f = _as_int(other)
            if not f:
                return CoeffPoly.zero(self.registry)
            return CoeffPoly(self.registry, {k: c * f for k, c in self.terms.items()})
        self._check_registry(other)
        terms: Dict[ExponentKey, int] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = _merge_keys(k1, k2)
                v = terms.get(key, 0) + c1 * c2
                if v:
                    terms[key] = v
                else:
                    terms.pop(key, None)
        return CoeffPoly(self.registry, terms)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoeffPoly):
            return self.terms == CoeffPoly.constant(self.registry, other).terms
        return self.registry is other.registry and self.terms == other.terms

    # ------------------------------------------------------------- queries

    @property
    def constant_term(self) -> int:
        return self.terms.get((), 0)

    def indeterminates(self) -> set:
        return {ind for key in self.terms for ind, _ in key}

    # -------------------------------------------------------- specialization

    def integer_value(self, values: Mapping[int, int]) -> int:
        """Value at an integer point given for every indeterminate id."""
        total = 0
        for key, v in self.terms.items():
            for ind, e in key:
                v *= values[ind] ** e
            total += v
        return total

    def gradient(self, values: Mapping[int, int]) -> Dict[int, int]:
        """Nonzero first partial derivatives at an integer point, in one pass
        over the terms: {indeterminate id: value}."""
        grad: Dict[int, int] = {}
        for key, c in self.terms.items():
            powers = [values[ind] ** e for ind, e in key]
            for pos, (ind, e) in enumerate(key):
                d = c * e * values[ind] ** (e - 1)
                for other, p in enumerate(powers):
                    if other != pos:
                        d *= p
                grad[ind] = grad.get(ind, 0) + d
        return {ind: d for ind, d in grad.items() if d}

    # ------------------------------------------------------------ rendering

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (sum(e for _, e in kv[0]), kv[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key, c in self._sorted_terms():
            factors = []
            for ind, e in key:
                name = self.registry.names[ind]
                factors.append(name if e == 1 else f"{name}^{e}")
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = f"{abs(c)}*" + "*".join(factors)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"CoeffPoly({self})"


def _merge_keys(k1: ExponentKey, k2: ExponentKey) -> ExponentKey:
    if not k1:
        return k2
    if not k2:
        return k1
    merged = dict(k1)
    for ind, e in k2:
        merged[ind] = merged.get(ind, 0) + e
    return tuple(sorted(merged.items()))


def _integer_assignment(registry: IndeterminateRegistry, assignment: Mapping) -> Dict[int, int]:
    """Validate a point once: every indeterminate, keyed by id or display name,
    gets an integer value (an integral rational is accepted, a bool is not,
    as key or as value)."""
    values: Dict[int, int] = {}
    size = len(registry)
    for key, raw in assignment.items():
        # plain ints, as `random_assignment` hands them, skip the ABC check
        if type(key) is int and type(raw) is int and 0 <= key < size:
            values[key] = raw
            continue
        ind = registry.id_of(key) if isinstance(key, str) else key
        if isinstance(ind, bool) or not isinstance(ind, int) or not 0 <= ind < size:
            raise ArgumentError(f"unknown indeterminate {key!r}")
        if isinstance(raw, bool) or not isinstance(raw, Rational) or raw.denominator != 1:
            raise ArgumentError(f"{registry.names[ind]} must take an integer value, got {raw}")
        values[ind] = int(raw)
    if len(values) < size:
        missing = set(range(size)) - set(values)
        names = ", ".join(registry.names[i] for i in sorted(missing)[:5])
        raise ArgumentError(f"assignment misses {len(missing)} indeterminates ({names}, ...)")
    return values
