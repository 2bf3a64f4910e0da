"""The two-parameter-family order ideal, its border, and every derived monomial set.

A signature (n, r, s, delta, w) selects an order ideal inside x_1..x_n that is
a full polynomial ring truncation below degree r and, from degree r up to the
socle degree s, a lex cut of the degree slices in the variables x_delta..x_n.
The variables split into *front* (x_1..x_(delta-1)), *middle* (x_delta) and
*back* (x_(delta+1)..x_n) groups.

`build` assembles the basis and its border together with the index maps and
the special subsets the downstream construction consumes: the degree-r border
monomials at or above the lex-minimal one (`leading`), the top-degree basis
monomials (`trailing`), the pools of admissible target terms, and the border
monomials that will actually carry targets (`s_lead` and `s_deep`).  One
pass over the exponent tuples of every t_i * x_k gives both the border (the
products outside the basis) and the product table (`OrderIdealData.products`,
where each t_i * x_k lies, as a basis or border index).  Four more derived
structures live here because they depend on the order ideal alone, and each
is computed once per order ideal on first use: the neighbor pairs
(`OrderIdealData.neighbor_pairs`), the subset of them whose S-polynomials
span all the others (`OrderIdealData.generating_pairs`), the translation
frame (`translation_frame`), and the code of each quotient by a variable
(`OrderIdealData.quotients`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from .monomial import (
    ArgumentError,
    InternalInvariantError,
    Monomial,
    binomial,
    cmp_lex,
    monomials_of,
    negdeglex_key,
)


@dataclass(frozen=True)
class Signature:
    """The five integer invariants selecting one order ideal of the family."""

    n: int
    r: int
    s: int
    delta: int
    w: int

    def __post_init__(self):
        for name, value in zip(("n", "r", "s", "delta", "w"), self.as_tuple()):
            if type(value) is not int:
                raise ArgumentError(f"{name} must be an int, got {value!r}")
        if self.n < 2:
            raise ArgumentError(f"need at least two variables, got n={self.n}")
        if not 1 <= self.delta < self.n:
            raise ArgumentError(f"middle variable index must satisfy 1 <= delta < n, got {self.delta}")
        if self.r < 2:
            raise ArgumentError(f"lead degree must satisfy r >= 2, got {self.r}")
        if self.s <= self.r:
            raise ArgumentError(f"socle degree must satisfy s > r, got s={self.s}, r={self.r}")
        if not 0 <= self.w <= self.r - 1:
            raise ArgumentError(f"twist exponent must satisfy 0 <= w <= r-1, got {self.w}")

    def minimal_lead_monomial(self) -> Monomial:
        """The lex-least degree-r monomial outside the basis: x_delta^(r-w) * x_n^w."""
        exps = [0] * self.n
        exps[self.delta - 1] = self.r - self.w
        exps[self.n - 1] += self.w
        return Monomial(exps)

    def as_tuple(self) -> Tuple[int, int, int, int, int]:
        return (self.n, self.r, self.s, self.delta, self.w)

    def __str__(self) -> str:
        return f"({self.n},{self.r},{self.s},{self.delta},{self.w})"


def shape_to_signature(n: int, kappa: int, r: int, s: int) -> Signature:
    """Convert the lex-segment-complement shape parameters to a signature.

    The degree-r slice of the resulting basis is the full slice in the last
    kappa variables, which forces delta = n - kappa and w = r - 1.
    """
    if not 1 <= kappa < n:
        raise ArgumentError(f"need 1 <= kappa < n, got kappa={kappa}, n={n}")
    return Signature(n=n, r=r, s=s, delta=n - kappa, w=r - 1)


@dataclass(frozen=True, eq=False)
class OrderIdealData:
    """An order ideal of the family with its border and derived monomial sets.

    ``basis`` lists t_1..t_mu and ``border`` lists b_1..b_nu, both in
    negdeglex order with 1-based index maps.  ``leading`` collects the
    degree-r border monomials, ``trailing`` the top-degree basis monomials.
    ``tar_all`` / ``tar_prime`` are the basis monomials of degree r..s and
    r..s-1 (the admissible target terms), and ``tar_double_prime`` is the
    subset of ``tar_prime`` divisible by x_(delta+1)^w that seeds the free
    target coefficients.  ``s_lead`` / ``s_deep`` are the border monomials in
    x_delta..x_n of degree r and of degree r+1..s: exactly the generators
    whose tails receive targets.

    ``products[i][k]`` locates t_i * x_k for 1 <= i <= mu and 0 <= k <= n,
    with x_0 = 1: a basis index i' is stored as i', a border index j as -j.
    Every such product lies in the basis or its border, so these mu*(n+1)
    codes are all a neighbor-pair reduction reads.  ``products[0]`` is empty,
    keeping i 1-based like the tails.
    """

    signature: Signature
    basis: Tuple[Monomial, ...]
    border: Tuple[Monomial, ...]
    index_of_basis: Dict[Monomial, int] = field(repr=False)
    index_of_border: Dict[Monomial, int] = field(repr=False)
    mu: int
    nu: int
    hilbert: Tuple[int, ...]
    leading: Tuple[Monomial, ...]
    trailing: Tuple[Monomial, ...]
    tar_all: Tuple[Monomial, ...]
    tar_prime: Tuple[Monomial, ...]
    tar_double_prime: Tuple[Monomial, ...]
    s_lead: Tuple[Monomial, ...]
    s_deep: Tuple[Monomial, ...]
    gamma: int
    ell: int
    tau: int
    products: Tuple[Tuple[int, ...], ...] = field(repr=False)

    def _pair_groups(self) -> List[Tuple[Optional[int], List[Tuple[int, int]]]]:
        """The products x_alpha * b_j grouped by monomial m, as (j_next,
        members): j_next is the border index of m (None if m is no border
        monomial), and members lists each (j, alpha) with x_alpha * b_j = m
        by increasing j."""
        n = self.signature.n
        groups: Dict[Tuple[int, ...], List[Tuple[int, int]]] = {}
        for j, b in enumerate(self.border, start=1):
            exps = b.exps
            for k in range(n):
                m = exps[:k] + (exps[k] + 1,) + exps[k + 1 :]
                groups.setdefault(m, []).append((j, k + 1))
        border_index = {m.exps: j for m, j in self.index_of_border.items()}
        return [(border_index.get(m), members) for m, members in groups.items()]

    @cached_property
    def neighbor_pairs(self) -> Tuple[NeighborPair, ...]:
        """All variable-multiple coincidences between border monomials, canonically ordered.

        Two members of one group of `_pair_groups` give a pair with beta > 0,
        and a group that is itself a border monomial gives a pair with
        beta = 0 for each member.
        """
        found = []
        for j_next, members in self._pair_groups():
            for pos, (j1, alpha) in enumerate(members):
                if j_next is not None:
                    found.append(NeighborPair(j1, j_next, alpha, 0))
                # members are listed by increasing j, so j1 < j2 below
                for j2, beta in members[pos + 1 :]:
                    found.append(NeighborPair(j1, j2, alpha, beta))
        found.sort()
        return tuple(found)

    @cached_property
    def generating_pairs(self) -> Tuple[NeighborPair, ...]:
        """The neighbor pairs whose S-polynomials span those of all of them
        over Z, in the same canonical order.

        A group that is the border monomial b_n keeps the pair (j, n, alpha, 0)
        of each member: the S-polynomial of (j1, j2, alpha, beta) in it is
        (x_alpha g_j1 - g_n) - (x_beta g_j2 - g_n).  Any other group keeps the
        pairs of its first member with each other member: that of (j1, j2)
        is the one of (first, j2) minus the one of (first, j1).  The normal
        form and the first-order part of an S-polynomial are linear in it, so
        the kept pairs decide the criterion and the tangent rank alike.
        """
        found = []
        for j_next, members in self._pair_groups():
            if j_next is not None:
                found.extend(NeighborPair(j, j_next, alpha, 0) for j, alpha in members)
                continue
            j1, alpha = members[0]
            found.extend(NeighborPair(j1, j2, alpha, beta) for j2, beta in members[1:])
        found.sort()
        return tuple(found)

    @cached_property
    def quotients(self) -> Dict[Tuple[int, int], int]:
        """{(code, alpha): code of the quotient by x_alpha} for every basis or
        border monomial that x_alpha divides, in `products` codes.

        t_i * x_alpha has code products[i][alpha], so t_i is the quotient of
        that code.  A border monomial b_n whose quotient is no basis monomial
        is x_alpha * b_j for the next-door pair (j, n, alpha, 0), and
        `generating_pairs` keeps every such pair.  Only the coordinate tuples
        read this table.
        """
        n = self.signature.n
        found = {
            (row[alpha], alpha): i
            for i, row in enumerate(self.products[1:], start=1)
            for alpha in range(1, n + 1)
        }
        found.update(
            ((-b, alpha), -j) for j, b, alpha, beta in self.generating_pairs if not beta
        )
        return found

    @cached_property
    def _translation_frame(self) -> "TranslationFrame":
        """`translation_frame` of this order ideal."""
        sig = self.signature
        n, r, s, delta = sig.n, sig.r, sig.s, sig.delta
        x_n_pow = Monomial.variable(n, n, r - 1)
        anchors: Dict[int, Monomial] = {}
        for alpha in range(1, n + 1):
            if alpha < delta:
                b = x_n_pow.mul_var(alpha)
            else:
                b = Monomial.variable(n, n, s).mul_var(alpha)
            if b not in self.index_of_border:
                raise InternalInvariantError(f"translation anchor {b} is not a border monomial")
            anchors[alpha] = b

        tar_prime_set = set(self.tar_prime)
        front_shifts: List[Monomial] = []
        for d in range(0, s - r + 1):
            for m in monomials_of(n, delta, d):
                prod = m.mul(x_n_pow)
                if prod == x_n_pow or prod in tar_prime_set:
                    front_shifts.append(m)

        delta_sets: Dict[int, Tuple[Monomial, ...]] = {}
        for alpha in range(1, delta):
            delta_sets[alpha] = tuple(front_shifts)
        for alpha in range(delta, n + 1):
            delta_sets[alpha] = (Monomial.unit(n),)

        for alpha, b in anchors.items():
            stem = b.div_var(alpha)
            for m in delta_sets[alpha]:
                t = stem.mul(m)
                if t not in self.index_of_basis:
                    raise InternalInvariantError(f"key monomial {t} for x{alpha} is not in the basis")

        eta = len(front_shifts) if delta > 1 else 0
        return TranslationFrame(MappingProxyType(anchors), MappingProxyType(delta_sets), eta)


def _in_variables_from(m: Monomial, k: int) -> bool:
    """True when m uses only x_k..x_n."""
    return all(e == 0 for e in m.exps[: k - 1])


def build(sig: Signature) -> OrderIdealData:
    """Construct the order ideal of a signature with all derived sets."""
    n, r, s, delta, w = sig.n, sig.r, sig.s, sig.delta, sig.w
    b_min = sig.minimal_lead_monomial()

    basis_by_degree: List[List[Monomial]] = []
    for d in range(0, r):
        basis_by_degree.append(monomials_of(n, 1, d))
    for d in range(r, s + 1):
        bound = b_min.mul_var(n, d - r)
        basis_by_degree.append([m for m in monomials_of(n, delta, d) if cmp_lex(bound, m) > 0])

    basis: List[Monomial] = [m for level in basis_by_degree for m in level]
    index_of_basis = {m: i for i, m in enumerate(basis, start=1)}

    # every t_i * x_k as an exponent tuple; those outside the basis are the border
    code = {m.exps: i for m, i in index_of_basis.items()}
    raised = [
        [e[:k] + (e[k] + 1,) + e[k + 1 :] for k in range(n)] for e in (t.exps for t in basis)
    ]
    outside = {p for row in raised for p in row if p not in code}
    border = sorted(map(Monomial, outside), key=negdeglex_key)
    index_of_border = {m: j for j, m in enumerate(border, start=1)}
    code.update((m.exps, -j) for m, j in index_of_border.items())
    products = ((),) + tuple(
        (i, *(code[p] for p in row)) for i, row in enumerate(raised, start=1)
    )

    hilbert = tuple(len(level) for level in basis_by_degree)

    leading = tuple(m for m in monomials_of(n, 1, r) if cmp_lex(m, b_min) >= 0)
    trailing = tuple(basis_by_degree[s])
    tar_all = tuple(m for d in range(r, s + 1) for m in basis_by_degree[d])
    tar_prime = tuple(m for d in range(r, s) for m in basis_by_degree[d])
    x_next = Monomial.variable(n, delta + 1, w)
    tar_double_prime = tuple(m for m in tar_prime if x_next.divides(m))

    s_lead = tuple(m for m in leading if _in_variables_from(m, delta))
    s_deep = tuple(
        b for b in border if _in_variables_from(b, delta) and r + 1 <= b.degree <= s
    )

    ell = len(leading)
    data = OrderIdealData(
        signature=sig,
        basis=tuple(basis),
        border=tuple(border),
        index_of_basis=index_of_basis,
        index_of_border=index_of_border,
        mu=len(basis),
        nu=len(border),
        hilbert=hilbert,
        leading=leading,
        trailing=trailing,
        tar_all=tar_all,
        tar_prime=tar_prime,
        tar_double_prime=tar_double_prime,
        s_lead=s_lead,
        s_deep=s_deep,
        gamma=len(tar_double_prime),
        ell=ell,
        tau=len(trailing),
        products=products,
    )

    if tuple(b for b in border if b.degree == r) != leading:
        raise InternalInvariantError("degree-r border does not match the leading set")
    if border[ell - 1] != b_min:
        raise InternalInvariantError("lex-minimal lead monomial is not at border index ell")
    return data


def gamma_formula(sig: Signature) -> int:
    """Closed-form count of the free target coefficients (the theta's)."""
    n, r, s, delta, w = sig.n, sig.r, sig.s, sig.delta, sig.w
    total = 0
    for d in range(r, s):
        for e in range(d - (r - (w + 1)), d + 1):
            for u in range(0, e - w + 1):
                total += binomial(u + (n - delta - 1) - 1, u)
    return total


class NeighborPair(NamedTuple):
    """Border indices j1 < j2 with x_alpha * b_j1 = x_beta * b_j2.

    beta = 0 encodes x_0 = 1, i.e. the product of b_j1 with one variable is
    itself the border monomial b_j2.
    """

    j1: int
    j2: int
    alpha: int
    beta: int


@dataclass(frozen=True)
class TranslationFrame:
    """Anchor generators and shift monomials for the translation directions.

    For each variable x_alpha there is one anchor border monomial b_{j_alpha}
    and a list of shift monomials; differentiating the shifted family along
    (alpha, lambda) is expected to move exactly the key tail slot
    (i_{alpha,lambda}, j_alpha).
    """

    anchors: Mapping[int, Monomial]
    delta_sets: Mapping[int, Tuple[Monomial, ...]]
    eta: int

    def labels(self) -> List[str]:
        out = []
        for alpha in sorted(self.delta_sets):
            for lam in range(1, len(self.delta_sets[alpha]) + 1):
                out.append(f"Z[{alpha},{lam}]")
        return out


def translation_frame(oid: OrderIdealData) -> TranslationFrame:
    """Anchor border monomials and shift sets of the translations, built once
    per order ideal and shared by every caller, so both mappings are
    read-only views and every shift set is a tuple.

    For every variable x_alpha the anchor is the border monomial
    x_alpha * x_n^(r-1) for a front variable, else x_alpha * x_n^s; its shift
    monomials are listed in negdeglex order with 1 first.  The key slot of
    (alpha, lambda) is (i, j) with t_i = (anchor / x_alpha) * shift and
    b_j = anchor, and every such t_i must lie in the basis.  ``eta``
    is the common size of the front shift sets, 0 when there are no front
    variables.
    """
    return oid._translation_frame
