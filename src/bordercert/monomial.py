"""Monomials in x_1..x_n, the two term orders, and contiguous blocks of a degree slice.

Variables are 1-based and ordered x_1 > x_2 > ... > x_n.  Two orders are used
throughout:

* ``lex``: compare exponent vectors left to right.
* ``negdeglex``: lower total degree first; within a degree, lex-greater first.

A *block* (`SegmentSpec`) is the set of monomials of one degree, in the
variables x_k..x_n, lying lex-between two bounds built from a weakly
decreasing tuple of prefix exponents.  Blocks are contiguous in negdeglex and
tile each degree slice; they are the combinatorial backbone of everything
downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence


class ArgumentError(ValueError):
    """Raised when a caller violates a documented precondition."""


class InternalInvariantError(RuntimeError):
    """Raised when a computation contradicts an invariant the construction guarantees."""


class Monomial:
    """An immutable monomial, stored as its exponent tuple.

    >>> str(Monomial((0, 2, 1)))
    'x2^2*x3'
    """

    __slots__ = ("exps", "degree", "_hash")

    exps: tuple
    degree: int

    def __init__(self, exps: Sequence[int]):
        t = tuple(exps)
        if not t:
            raise ArgumentError("a monomial needs at least one variable")
        if any(e < 0 for e in t):
            raise ArgumentError(f"negative exponent in {t!r}")
        self.exps = t
        self.degree = sum(t)
        self._hash = hash(t)

    @property
    def n(self) -> int:
        return len(self.exps)

    @classmethod
    def unit(cls, n: int) -> "Monomial":
        return cls((0,) * n)

    @classmethod
    def variable(cls, n: int, k: int, power: int = 1) -> "Monomial":
        """The monomial x_k^power in n variables (k is 1-based)."""
        if not 1 <= k <= n:
            raise ArgumentError(f"variable index {k} out of range 1..{n}")
        exps = [0] * n
        exps[k - 1] = power
        return cls(exps)

    def var_degree(self, k: int) -> int:
        """Exponent of x_k (k is 1-based)."""
        if not 1 <= k <= self.n:
            raise ArgumentError(f"variable index {k} out of range 1..{self.n}")
        return self.exps[k - 1]

    def mul(self, other: "Monomial") -> "Monomial":
        if self.n != other.n:
            raise ArgumentError("cannot multiply monomials in different ambients")
        return Monomial(tuple(a + b for a, b in zip(self.exps, other.exps)))

    def mul_var(self, k: int, power: int = 1) -> "Monomial":
        exps = list(self.exps)
        exps[k - 1] += power
        return Monomial(exps)

    def try_div(self, other: "Monomial") -> Optional["Monomial"]:
        """self / other, or None when the division is not exact."""
        if self.n != other.n:
            raise ArgumentError("cannot divide monomials in different ambients")
        diff = tuple(a - b for a, b in zip(self.exps, other.exps))
        if any(e < 0 for e in diff):
            return None
        return Monomial(diff)

    def div_var(self, k: int) -> "Monomial":
        """self / x_k; the exponent must be positive."""
        if self.exps[k - 1] <= 0:
            raise ArgumentError(f"{self} is not divisible by x{k}")
        exps = list(self.exps)
        exps[k - 1] -= 1
        return Monomial(exps)

    def divides(self, other: "Monomial") -> bool:
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def __mul__(self, other: "Monomial") -> "Monomial":
        return self.mul(other)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        parts = []
        for k, e in enumerate(self.exps, start=1):
            if e == 1:
                parts.append(f"x{k}")
            elif e > 1:
                parts.append(f"x{k}^{e}")
        return "*".join(parts) if parts else "1"

    def __repr__(self) -> str:
        return f"Monomial({self.exps!r})"


def _check_same_ambient(a: Monomial, b: Monomial) -> None:
    if a.n != b.n:
        raise ArgumentError(f"monomials live in different ambients: {a.n} vs {b.n} variables")


def cmp_lex(a: Monomial, b: Monomial) -> int:
    """-1 / 0 / +1 as a < b / a == b / a > b in lex with x_1 > ... > x_n."""
    _check_same_ambient(a, b)
    if a.exps == b.exps:
        return 0
    return 1 if a.exps > b.exps else -1


def negdeglex_key(m: Monomial):
    """Sort key listing monomials in negdeglex order."""
    return (m.degree, tuple(-e for e in m.exps))


def _exponents_desc(num_vars: int, total: int) -> Iterator[tuple]:
    """Exponent vectors of one degree in lex-descending order."""
    if num_vars == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _exponents_desc(num_vars - 1, total - first):
            yield (first,) + rest


def monomials_of(n: int, k: int, d: int) -> list:
    """All degree-d monomials in x_k..x_n (inside x_1..x_n), in negdeglex order.

    >>> [str(m) for m in monomials_of(3, 2, 2)]
    ['x2^2', 'x2*x3', 'x3^2']
    """
    if not 1 <= k <= n:
        raise ArgumentError(f"variable range start {k} out of range 1..{n}")
    if d < 0:
        raise ArgumentError(f"degree must be nonnegative, got {d}")
    prefix = (0,) * (k - 1)
    return [Monomial(prefix + tail) for tail in _exponents_desc(n - k + 1, d)]


@dataclass(frozen=True)
class SegmentSpec:
    """Parameters of one contiguous block of a degree slice.

    ``prefix_exponents`` is a weakly decreasing tuple (e_0, ..., e_q) of
    integers with d >= e_0 and e_q >= 0; the block collects the degree-d
    monomials in x_k..x_n lying lex-between the two completions of the prefix
    x_k^(d-e_0) * x_(k+1)^(e_0-e_1) * ... * x_(k+q)^(e_(q-1)-e_q):
    the upper bound appends x_(k+q+1)^(e_q), the lower bound appends x_n^(e_q).
    """

    n: int
    k: int
    d: int
    prefix_exponents: tuple

    def __post_init__(self):
        e = self.prefix_exponents
        if not 1 <= self.k <= self.n:
            raise ArgumentError(f"variable range start {self.k} out of range 1..{self.n}")
        if self.d < 0:
            raise ArgumentError("degree must be nonnegative")
        if not e:
            raise ArgumentError("prefix exponent tuple must be nonempty")
        if any(e[i] < e[i + 1] for i in range(len(e) - 1)):
            raise ArgumentError(f"prefix exponents must be weakly decreasing: {e}")
        if e[0] > self.d or e[-1] < 0:
            raise ArgumentError(f"prefix exponents must satisfy {self.d} >= e_0 and e_q >= 0: {e}")
        if self.k + len(e) > self.n:
            raise ArgumentError(
                f"prefix of length {len(e)} starting at x{self.k} does not fit in {self.n} variables"
            )

    def prefix(self) -> Monomial:
        """The common prefix monomial of the block's bounds."""
        e = self.prefix_exponents
        exps = [0] * self.n
        exps[self.k - 1] = self.d - e[0]
        for i in range(1, len(e)):
            exps[self.k - 1 + i] = e[i - 1] - e[i]
        return Monomial(exps)

    def upper_bound(self) -> Monomial:
        return self.prefix().mul_var(self.k + len(self.prefix_exponents), self.prefix_exponents[-1]) \
            if self.prefix_exponents[-1] else self.prefix()

    def lower_bound(self) -> Monomial:
        return self.prefix().mul_var(self.n, self.prefix_exponents[-1]) \
            if self.prefix_exponents[-1] else self.prefix()


def segment(spec: SegmentSpec) -> list:
    """The monomials of a block, in negdeglex order (upper bound first).

    >>> [str(m) for m in segment(SegmentSpec(4, 2, 2, (1,)))]
    ['x2*x3', 'x2*x4']
    """
    hi = spec.upper_bound()
    lo = spec.lower_bound()
    return [
        m
        for m in monomials_of(spec.n, spec.k, spec.d)
        if cmp_lex(lo, m) <= 0 and cmp_lex(m, hi) <= 0
    ]


def binomial(a: int, b: int) -> int:
    """Binomial coefficient with the cardinality convention used downstream.

    C(a, 0) = 1 for every a (including negative a); C(a, b) = 0 when b < 0,
    when a < 0 < b, or when 0 <= a < b.
    """
    if b < 0:
        return 0
    if b == 0:
        return 1
    if a < 0 or a < b:
        return 0
    return math.comb(a, b)
