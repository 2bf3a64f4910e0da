"""Border systems, reduction modulo their rewrite rules, and the basis test.

A border system stores one generator per border monomial in the rewrite form
g_j = b_j - sum_i Y_ij t_i, so b_j may be replaced by its *tail*
sum_i Y_ij t_i.  The coefficients Y_ij live in any commutative ring R that
supports +, -, * and truthiness as zero test: sparse integer polynomials in
the named coefficients, or integers once those are specialized at an integer
point.  Specialized systems are the same in both fields; prime mode reduces
modulo `linalg.PRIME` only inside the tangent rank, so the modulus is not a
property of the system.

`BorderSystem.normal_form` holds the one rule every reduction here shares.
The order ideal's product table (`OrderIdealData.products`) locates each
product t_i * x_k by an integer code, i' for the basis monomial t_i' and -j
for the border monomial b_j; a combination of codes reaches the basis once
each border code is replaced by its tail.  `reduce` codes basis and border
monomials directly.  Any other monomial starts at t_1 = 1 and is multiplied
by its variables one at a time, each step the multiplication map
t_i -> NF(t_i * x_k) on codes; at a border basis these maps commute.

`is_border_basis` applies the neighbor-pair criterion of Kehrein and Kreuzer
on codes too: an S-polynomial is a combination of products t_i * x_k, so no
monomial is built, and a pair whose two tails are empty is skipped.  A term
counts only on a live code, `code > 0 or tails[-code - 1]`: a border code
whose tail is empty has normal form 0, so its term is dropped before any
sum.  Most terms are dead, since a top-degree basis monomial times a
variable is a border monomial of degree s + 1, and none of those has a tail
in the generic system.  The test reads the tails of the system under check,
never a mask kept per order ideal, because a perturbed system can fill an
empty tail.  `pair_codes` keeps every border code: the tangent equations
hold the unknowns of a border monomial even where its tail is empty at the
point.  The check covers only the generating pairs
(`OrderIdealData.generating_pairs`), whose S-polynomials span those of all
neighbor pairs, and re-runs over every pair only when one fails, to report
each failing pair.  Integer tails go through `normal_form`; polynomial
tails sum flat integer dicts keyed by (code, exponent key), so no
`CoeffPoly` is built along the way.  Only a nonzero residue is turned back
into a `SpanElement`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from .coeffring import CoeffPoly, IndeterminateRegistry, _integer_assignment, _merge_keys
from .monomial import ArgumentError, InternalInvariantError, Monomial, negdeglex_key
from .orderideal import NeighborPair, OrderIdealData


class RingSpec(NamedTuple):
    """Which coefficient ring a border system's tails live in."""

    kind: str  # "poly" | "rational"; the latter holds integer tails
    registry: Optional[IndeterminateRegistry] = None

    def one(self):
        if self.kind == "poly":
            return CoeffPoly.constant(self.registry, 1)
        if self.kind == "rational":
            return 1
        raise ArgumentError(f"unknown ring kind {self.kind!r}")


RATIONAL_RING = RingSpec("rational")


class SpanElement:
    """A finite linear combination of monomials with coefficients in a ring."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Monomial, object]] = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    def scaled(self, c) -> "SpanElement":
        if not c:
            return SpanElement()
        return SpanElement({m: v * c for m, v in self.terms.items()})

    def monomial_multiple(self, m: Monomial) -> "SpanElement":
        return SpanElement({t.mul(m): v for t, v in self.terms.items()})

    def __add__(self, other: "SpanElement") -> "SpanElement":
        terms = dict(self.terms)
        for m, c in other.terms.items():
            v = terms.get(m)
            terms[m] = c if v is None else v + c
        return SpanElement(terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SpanElement) and self.terms == other.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: negdeglex_key(kv[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            body, negative = _render_coefficient_times_monomial(c, m)
            if not parts:
                parts.append("-" + body if negative else body)
            else:
                parts.append((" - " if negative else " + ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"SpanElement({self})"


def _render_coefficient_times_monomial(c, m: Monomial) -> Tuple[str, bool]:
    """Render c*m without a leading sign; return (text, sign_was_negative)."""
    mono = str(m)
    if isinstance(c, CoeffPoly):
        if len(c.terms) == 1:
            text = str(c)
            negative = text.startswith("-")
            if negative:
                text = text[1:]
            if text == "1":
                return mono, negative
            return (text if mono == "1" else f"{text}*{mono}"), negative
        text = str(c)
        return (text if mono == "1" else f"({text})*{mono}"), False
    negative = c < 0
    c = abs(c)
    if mono == "1":
        return str(c), negative
    if c == 1:
        return mono, negative
    return f"{c}*{mono}", negative


class BorderSystem:
    """One rewrite rule per border monomial: b_j -> sum_i Y_ij t_i.

    Immutable after construction.  ``tails[j-1]`` maps 1-based basis indices
    to the coefficient Y_ij, omitting zeros.
    """

    __slots__ = ("oid", "tails", "ring")

    def __init__(self, oid: OrderIdealData, tails: List[Dict[int, object]], ring: RingSpec):
        if len(tails) != oid.nu:
            raise ArgumentError(f"need one tail per border monomial ({oid.nu}), got {len(tails)}")
        for tail in tails:
            for i in tail:
                if not 1 <= i <= oid.mu:
                    raise ArgumentError(f"tail refers to basis index {i} outside 1..{oid.mu}")
        self.oid = oid
        self.tails = tuple({i: c for i, c in tail.items() if c} for tail in tails)
        self.ring = ring

    def generator(self, j: int) -> SpanElement:
        """The full generator g_j = b_j - tail_j."""
        basis = self.oid.basis
        terms = {basis[i - 1]: -c for i, c in self.tails[j - 1].items()}
        terms[self.oid.border[j - 1]] = self.ring.one()
        return SpanElement(terms)

    def neighbor_pairs(self) -> Tuple[NeighborPair, ...]:
        """`OrderIdealData.neighbor_pairs`, read through the system by
        `is_border_basis`, perfbench and demo 03."""
        return self.oid.neighbor_pairs

    def pair_codes(self) -> Iterator[Tuple[NeighborPair, Dict[int, object]]]:
        """Each generating pair (`OrderIdealData.generating_pairs`) with its
        `s_polynomial` keyed by `products` codes: i for the basis monomial
        t_i, -j for the border monomial b_j."""
        products, tails = self.oid.products, self.tails
        for pair in self.oid.generating_pairs:
            j1, j2, alpha, beta = pair
            codes = _s_codes(products, tails[j1 - 1], alpha, tails[j2 - 1], beta)
            yield pair, {code: c for code, c in codes.items() if c}

    def total_tail_terms(self) -> int:
        """Total number of nonzero coefficient terms across all tails."""
        count = 0
        for tail in self.tails:
            for c in tail.values():
                count += len(c.terms) if isinstance(c, CoeffPoly) else 1
        return count

    def normal_form(self, terms) -> Dict[int, object]:
        """Normal form, keyed by basis index, of the sum of c * code over
        (`products` code, c) pairs: a code i > 0 is t_i, and a code -j is b_j,
        which becomes its tail.  Zero coefficients are skipped, zero sums
        dropped."""
        tails = self.tails
        out: Dict[int, object] = {}
        for code, c in terms:
            if not c:
                continue
            if code > 0:
                v = out.get(code)
                out[code] = c if v is None else v + c
                continue
            for i, y in tails[-code - 1].items():
                v = out.get(i)
                out[i] = c * y if v is None else v + c * y
        return {i: c for i, c in out.items() if c}

    def _times_variable(self, vec: Dict[int, object], k: int) -> Dict[int, object]:
        """x_k * sum_i vec[i]*t_i, keyed by basis index."""
        products = self.oid.products
        return self.normal_form((products[i][k], c) for i, c in vec.items())


def generic_distinguished(
    oid: OrderIdealData, registry: Optional[IndeterminateRegistry] = None
) -> BorderSystem:
    """The pre-basis whose leading tails carry one named coefficient per slot."""
    if registry is None:
        registry = IndeterminateRegistry(oid)
    tails: List[Dict[int, object]] = [{} for _ in range(oid.nu)]
    for k, (i, j) in enumerate(registry.tail_slots):
        tails[j - 1][i] = CoeffPoly.indeterminate(registry, k)
    return BorderSystem(oid, tails, RingSpec("poly", registry=registry))


def reduce(f: SpanElement, sys: BorderSystem) -> SpanElement:
    """Rewrite f modulo the system onto the basis monomials."""
    oid = sys.oid
    terms = []
    for m, c in f.terms.items():
        code = oid.index_of_basis.get(m) or -oid.index_of_border.get(m, 0)
        if code:  # 0 is no code: m lies outside the basis and its border
            terms.append((code, c))
            continue
        vec = {1: c}
        for k, e in enumerate(m.exps, start=1):
            for _ in range(e):
                vec = sys._times_variable(vec, k)
        terms.extend(vec.items())  # a basis index is its own code
    basis = oid.basis
    return SpanElement({basis[i - 1]: c for i, c in sys.normal_form(terms).items()})


def s_polynomial(sys: BorderSystem, j1: int, j2: int, alpha: int, beta: int) -> SpanElement:
    """x_alpha*g_j1 - x_beta*g_j2 for a neighbor pair, border terms cancelled."""
    oid = sys.oid
    if not (1 <= j1 <= oid.nu and 1 <= j2 <= oid.nu):
        raise ArgumentError(f"border indices must lie in 1..{oid.nu}")
    b1, b2 = oid.border[j1 - 1], oid.border[j2 - 1]
    lhs = b1.mul_var(alpha)
    rhs = b2 if beta == 0 else b2.mul_var(beta)
    if lhs != rhs:
        raise ArgumentError(f"({j1},{j2},{alpha},{beta}) is not a neighbor pair")
    basis = oid.basis
    terms: Dict[Monomial, object] = {}
    for i, y in sys.tails[j2 - 1].items():
        t = basis[i - 1] if beta == 0 else basis[i - 1].mul_var(beta)
        v = terms.get(t)
        terms[t] = y if v is None else v + y
    for i, y in sys.tails[j1 - 1].items():
        t = basis[i - 1].mul_var(alpha)
        v = terms.get(t)
        terms[t] = -y if v is None else v - y
    return SpanElement(terms)


def _s_codes(products, tail1, alpha: int, tail2, beta: int) -> Dict[int, object]:
    """x_beta * tail2 - x_alpha * tail1 on `products` codes, zeros kept.

    A tail's products with one variable are distinct, so only a term of the
    first tail and one of the second can fall on one code.
    """
    codes = {products[i][beta]: y for i, y in tail2.items()}
    for i, y in tail1.items():
        code = products[i][alpha]
        v = codes.get(code)
        codes[code] = -y if v is None else v - y
    return codes


def is_border_basis(sys: BorderSystem):
    """Check every neighbor pair; return (ok, list of (pair, nonzero residue)).

    The residue is reduce(s_polynomial(pair)) computed on `products` codes:
    the S-polynomial of a pair lies in the span of the basis and its border,
    so substituting each border code's tail once leaves basis indices only.
    A pair whose two tails are empty has S-polynomial 0 and is skipped, and
    a term on a border code whose tail is empty is dropped.
    Every S-polynomial is a sum of +-1 multiples of those of the generating
    pairs, so those alone are checked, and all pairs only to list failures.
    """
    failures = _pair_failures(sys, sys.oid.generating_pairs)
    if failures:
        failures = _pair_failures(sys, sys.neighbor_pairs())
    return (not failures, failures)


def _pair_failures(sys: BorderSystem, pairs) -> list:
    tails = sys.tails
    pairs = [pair for pair in pairs if tails[pair.j1 - 1] or tails[pair.j2 - 1]]
    if sys.ring.kind == "poly":
        return _poly_pair_failures(sys, pairs)
    return _integer_pair_failures(sys, pairs)


def _integer_pair_failures(sys: BorderSystem, pairs) -> list:
    # Integer tails keep this loop of their own: wrapped as constant terms and
    # sent through the term-dict loop of `_poly_pair_failures`, the
    # specialized checks of the `verify` workload ran 2.1-2.3x slower.
    products, tails, basis = sys.oid.products, sys.tails, sys.oid.basis
    failures = []
    for pair in pairs:
        j1, j2, alpha, beta = pair
        live = []
        for i, y in tails[j2 - 1].items():
            code = products[i][beta]
            if code > 0 or tails[-code - 1]:
                live.append((code, y))
        for i, y in tails[j1 - 1].items():
            code = products[i][alpha]
            if code > 0 or tails[-code - 1]:
                live.append((code, -y))
        acc = sys.normal_form(live)
        if acc:
            failures.append((pair, SpanElement({basis[i - 1]: c for i, c in acc.items()})))
    return failures


def _poly_pair_failures(sys: BorderSystem, pairs) -> list:
    """The pair check with each `CoeffPoly` read as its terms dict once: an
    S-polynomial and its residue are flat {(index, exponent key): int}
    dicts, with merged exponent keys cached for the call."""
    products, basis, registry = sys.oid.products, sys.oid.basis, sys.ring.registry
    flat = [[(i, y.terms) for i, y in tail.items()] for tail in sys.tails]
    merged_with: Dict[tuple, Dict[tuple, tuple]] = {}
    failures = []
    for pair in pairs:
        j1, j2, alpha, beta = pair
        spoly: Dict[Tuple[int, tuple], int] = {}
        for i, terms in flat[j2 - 1]:
            code = products[i][beta]
            if code < 0 and not flat[-code - 1]:
                continue
            for key, v in terms.items():
                spoly[code, key] = v
        for i, terms in flat[j1 - 1]:
            code = products[i][alpha]
            if code < 0 and not flat[-code - 1]:
                continue
            for key, v in terms.items():
                w = spoly.get((code, key))
                spoly[code, key] = -v if w is None else w - v
        acc: Dict[Tuple[int, tuple], int] = {}
        for (code, key), c in spoly.items():
            if not c:
                continue
            if code > 0:
                w = acc.get((code, key))
                acc[code, key] = c if w is None else w + c
                continue
            merged = merged_with.get(key)
            if merged is None:
                merged = merged_with[key] = {}
            for i, terms in flat[-code - 1]:
                for key2, v in terms.items():
                    m = merged.get(key2)
                    if m is None:
                        m = merged[key2] = _merge_keys(key, key2)
                    w = acc.get((i, m))
                    acc[i, m] = c * v if w is None else w + c * v
        by_index: Dict[int, Dict[tuple, int]] = {}
        for (i, key), c in acc.items():
            if c:
                by_index.setdefault(i, {})[key] = c
        if by_index:
            residue = {basis[i - 1]: CoeffPoly(registry, terms) for i, terms in by_index.items()}
            failures.append((pair, SpanElement(residue)))
    return failures


def specialize_system(sys: BorderSystem, assignment) -> BorderSystem:
    """Evaluate every tail coefficient at an integer point."""
    if sys.ring.kind != "poly":
        raise ArgumentError("only systems with polynomial coefficients can be specialized")
    values = _integer_assignment(sys.ring.registry, assignment)
    tails = [{i: y.integer_value(values) for i, y in tail.items()} for tail in sys.tails]
    return BorderSystem(sys.oid, tails, RATIONAL_RING)


def power_in_ideal(sys: BorderSystem, k: int) -> int:
    """Least e with x_k^e rewriting to 0; errors past the theoretical bound."""
    oid = sys.oid
    sig = oid.signature
    if not 1 <= k <= sig.n:
        raise ArgumentError(f"variable index {k} out of range 1..{sig.n}")
    bound = (sig.s + 1) * oid.mu
    vec = {1: sys.ring.one()}  # t_1 = 1
    for e in range(1, bound + 1):
        vec = sys._times_variable(vec, k)
        if not vec:
            return e
    raise InternalInvariantError(
        f"x{k}^e does not reduce to zero for any e <= {bound}; system is not supported at the origin"
    )

