"""Monomials in x_1..x_n, the two term orders, and degree slices.

Variables are 1-based and ordered x_1 > x_2 > ... > x_n.  Two orders are used
throughout:

* ``lex``: compare exponent vectors left to right.
* ``negdeglex``: lower total degree first; within a degree, lex-greater first.
"""

from __future__ import annotations

import math
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
        if not 1 <= k <= len(self.exps):
            raise ArgumentError(f"variable index {k} out of range 1..{self.n}")
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
        if not 1 <= k <= len(self.exps):
            raise ArgumentError(f"variable index {k} out of range 1..{self.n}")
        if self.exps[k - 1] <= 0:
            raise ArgumentError(f"{self} is not divisible by x{k}")
        exps = list(self.exps)
        exps[k - 1] -= 1
        return Monomial(exps)

    def divides(self, other: "Monomial") -> bool:
        _check_same_ambient(self, other)
        return all(a <= b for a, b in zip(self.exps, other.exps))

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
