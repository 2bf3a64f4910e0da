"""Shared brute-force oracles and signature grids for the test suite."""

from __future__ import annotations

import math
from fractions import Fraction
from heapq import heapify, heappop, heappush

from bordercert import Signature
from bordercert.borderbasis import BorderSystem
from bordercert.linalg import _by_column_count
from bordercert.monomial import InternalInvariantError, Monomial, cmp_lex, monomials_of


def fraction_rank(rows):
    """Rank of a list of Fraction row vectors by plain Gaussian elimination.

    Deliberately independent of the package's own rank routines so it can act
    as an oracle for them.
    """
    pivots = []  # list of (column, normalized row)
    rank = 0
    for row in rows:
        row = list(row)
        for col, prow in pivots:
            c = row[col]
            if c:
                for k in range(col, len(row)):
                    row[k] -= c * prow[k]
        lead = next((k for k, v in enumerate(row) if v), None)
        if lead is None:
            continue
        inv = Fraction(1) / row[lead]
        row = [v * inv for v in row]
        pivots.append((lead, row))
        pivots.sort(key=lambda cr: cr[0])
        rank += 1
    return rank


def dense_modp_rank(rows, prime):
    """Rank over the field with `prime` elements of integer row vectors, by
    plain dense Gaussian elimination; an oracle independent of `linalg`."""
    rows = [[v % prime for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pick = next((k for k in range(rank, len(rows)) if rows[k][col]), None)
        if pick is None:
            continue
        rows[rank], rows[pick] = rows[pick], rows[rank]
        inv = pow(rows[rank][col], -1, prime)
        for k in range(rank + 1, len(rows)):
            factor = rows[k][col] * inv % prime
            if factor:
                rows[k] = [(a - factor * b) % prime for a, b in zip(rows[k], rows[rank])]
        rank += 1
    return rank


def membership_rows(sys, mult_degree):
    """Coefficient rows of m * g_j over all monomials of bounded degree.

    The row space is the degree-limited slice of the ideal, giving a linear-
    algebra membership oracle that is independent of the rewriting engine.
    """
    sig = sys.oid.signature
    top = mult_degree + sig.s + 1
    columns = [m for d in range(top + 1) for m in monomials_of(sig.n, 1, d)]
    col_of = {m: k for k, m in enumerate(columns)}
    rows = []
    for j in range(1, sys.oid.nu + 1):
        gen = sys.generator(j)
        for d in range(mult_degree + 1):
            for m in monomials_of(sig.n, 1, d):
                row = [Fraction(0)] * len(columns)
                for t, c in gen.monomial_multiple(m).terms.items():
                    row[col_of[t]] = c
                rows.append(row)
    return rows, col_of


def perturbed(sys, j, i, one):
    """`sys` with 7 * one added to the coefficient of t_i in the tail of b_j."""
    tails = [dict(t) for t in sys.tails]
    tails[j - 1][i] = tails[j - 1].get(i, 0 * one) + 7 * one
    return BorderSystem(sys.oid, tails, sys.ring)


def as_dense_row(f, col_of):
    row = [Fraction(0)] * len(col_of)
    for t, c in f.terms.items():
        row[col_of[t]] = c
    return row


def monomial_lcm(m1, m2):
    return Monomial(tuple(max(a, b) for a, b in zip(m1.exps, m2.exps)))


def hom_tangent_oracle(oid):
    """dim Hom(I, R/I) for the monomial ideal generated by the border.

    Independent route: minimal monomial generators with pairwise
    least-common-multiple syzygies (which generate the full syzygy module of
    a monomial ideal), eliminated by the dense Fraction oracle above.  The
    tangent space of the punctual Hilbert scheme at a monomial point equals
    this Hom space.
    """
    border = list(oid.border)
    mingens = [
        b for b in border if not any(b2 != b and b2.divides(b) for b2 in border)
    ]
    basis = list(oid.basis)
    position = {m: k for k, m in enumerate(basis)}
    mu, ngen = len(basis), len(mingens)
    rows = {}
    for a in range(ngen):
        for b in range(a + 1, ngen):
            lcm = monomial_lcm(mingens[a], mingens[b])
            qa = lcm.try_div(mingens[a])
            qb = lcm.try_div(mingens[b])
            # relation (lcm/m_a) u_a - (lcm/m_b) u_b = 0 in R/I, one scalar
            # equation per basis monomial the two products can land on
            by_target = {}
            for t_pos, t in enumerate(basis):
                hit = position.get(qa.mul(t))
                if hit is not None:
                    by_target.setdefault(hit, {})[a * mu + t_pos] = Fraction(1)
                hit = position.get(qb.mul(t))
                if hit is not None:
                    cell = by_target.setdefault(hit, {})
                    cell[b * mu + t_pos] = cell.get(b * mu + t_pos, Fraction(0)) - 1
            for sparse in by_target.values():
                key = tuple(sorted((c, v) for c, v in sparse.items() if v))
                if key:
                    rows[key] = sparse
    ncols = ngen * mu
    dense = [[row.get(c, Fraction(0)) for c in range(ncols)] for row in rows.values()]
    return ncols - fraction_rank(dense)


def small_signatures(n_max: int = 5, s_max: int = 5):
    """Every valid signature with n <= n_max and s <= s_max."""
    sigs = []
    for n in range(2, n_max + 1):
        for delta in range(1, n):
            for r in range(2, s_max):
                for s in range(r + 1, s_max + 1):
                    for w in range(0, r):
                        sigs.append(Signature(n, r, s, delta, w))
    return sigs


def paper_table_signatures():
    """The eight summary rows: signature -> (hilbert, dimU)."""
    return {
        (5, 2, 3, 3, 0): ((1, 5, 5, 7), 86),
        (5, 3, 4, 3, 1): ((1, 5, 15, 7, 9), 268),
        (5, 3, 5, 3, 1): ((1, 5, 15, 7, 9, 11), 341),
        (5, 3, 5, 3, 0): ((1, 5, 15, 9, 12, 15), 434),
        (6, 2, 4, 4, 0): ((1, 6, 5, 7, 9), 186),
        (6, 3, 4, 4, 1): ((1, 6, 21, 7, 9), 461),
        (6, 3, 4, 3, 2): ((1, 6, 21, 10, 15), 705),
        (6, 3, 4, 3, 1): ((1, 6, 21, 16, 25), 1023),
    }


def cmp_negdeglex(a, b):
    """-1 / 0 / +1 as a precedes / equals / follows b in negdeglex: lower
    total degree precedes, and at equal degree the lex-greater monomial."""
    if a.degree != b.degree:
        return -1 if a.degree < b.degree else 1
    return -cmp_lex(a, b)


def lex_key(m):
    """Sort key listing monomials in increasing lex order."""
    return m.exps


def count_monomials(n, k, d):
    """Cardinality of the degree-d slice in variables x_k..x_n."""
    return math.comb(d + (n - k), d)


def min_variable(m):
    """Smallest 1-based index k with x_k dividing m (0 for the unit)."""
    return next((k for k, e in enumerate(m.exps, start=1) if e), 0)


def basis_of_degree(oid, d):
    """The basis monomials of degree d, a contiguous run of `oid.basis`."""
    if d < 0 or d > oid.signature.s:
        return ()
    lo = sum(oid.hilbert[:d])
    return oid.basis[lo : lo + oid.hilbert[d]]


def render_system(sys):
    """One line per border monomial: the rewrite rule b_j = tail."""
    return "\n".join(f"{b} = {sys.tail_span(j)}" for j, b in enumerate(sys.oid.border, start=1))


def _strip_content(row):
    """The row divided by the gcd of its entries, taken entry by entry."""
    common = 0
    for n in row.values():
        common = math.gcd(common, n)
        if common == 1:
            return row
    return {c: n // common for c, n in row.items()} if common > 1 else row


def exact_pivots_reference(rows):
    """Pivot columns over the rationals, in the order found, by the
    fraction-free kernel `linalg._exact_pivots` replaced: it scales the
    working row by the pivot's lead whenever that lead is not 1, -1
    included, into a new dict, and strips the content entry by entry.
    `linalg` must find the same pivots in the same order."""
    rows = sorted(rows, key=len)
    pos = _by_column_count(rows)
    pivots = {}
    leads = []
    for raw in rows:
        row = _strip_content({pos[c]: v for c, v in raw.items() if v})
        heap = list(row)
        heapify(heap)
        while heap:
            lead = heappop(heap)
            rl = row.get(lead)
            if rl is None:
                continue
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = dict(row)
                leads.append(lead)
                break
            pl = pivot[lead]
            g = math.gcd(pl, rl)
            pl, rl = pl // g, rl // g
            if pl != 1:
                row = {c: v * pl for c, v in row.items()}
            for c, v in pivot.items():
                n = row.get(c)
                if n is None:
                    row[c] = -v * rl
                    heappush(heap, c)
                else:
                    n -= v * rl
                    if n:
                        row[c] = n
                    else:
                        del row[c]
            row = _strip_content(row)
    column_at = list(pos)
    return [column_at[lead] for lead in leads]


def modp_rank_reference(rows, prime, at_least=0):
    """Rank mod `prime` by the kernel `linalg.modp_rank` replaced: it reduces
    every fused update mod `prime` at once, deletes each entry that cancels
    and stores a pivot with its lead.  `linalg` must return the same value
    for every `at_least`."""
    rows = sorted(rows, key=len)
    spare = len(rows) - at_least
    pos = _by_column_count(rows)
    pivots = {}
    rank = 0
    for raw in rows:
        row = {}
        for c, v in raw.items():
            n = v % prime
            if n:
                row[pos[c]] = n
        heap = list(row)
        heapify(heap)
        while heap:
            lead = heappop(heap)
            rl = row.get(lead)
            if rl is None:
                continue
            found = pivots.get(lead)
            if found is None:
                pivots[lead] = (dict(row), pow(rl, -1, prime))
                rank += 1
                break
            pivot, inv = found
            rl = rl * inv % prime
            for c, v in pivot.items():
                n = row.get(c)
                if n is None:
                    row[c] = -v * rl % prime
                    heappush(heap, c)
                else:
                    n = (n - v * rl) % prime
                    if n:
                        row[c] = n
                    else:
                        del row[c]
        else:
            spare -= 1
            if spare < 0:
                break
    return rank


def tangent_columns_reference(sys):
    """The tangent equations held by column, assembled through an `add`
    helper on every entry; the form `tangent._tangent_columns` had before it
    was inlined, kept as its reference."""
    oid = sys.oid
    mu = oid.mu
    cols = [dict() for _ in range(mu * oid.nu)]
    tails = sys.tails
    normal_forms = [
        [((code, 1),) if code > 0 else tuple(tails[-code - 1].items()) for code in row]
        for row in oid.products
    ]

    def column(i, j):
        return (j - 1) * mu + (i - 1)

    def add(vec, eq, c):
        v = vec.get(eq)
        v = c if v is None else v + c
        if v:
            vec[eq] = v
        else:
            vec.pop(eq, None)

    for p, (pair, codes) in enumerate(sys.pair_codes()):
        base = mu * p - 1
        j1, j2, alpha, beta = pair
        for i in range(1, mu + 1):
            vec = cols[column(i, j1)]
            for k, c in normal_forms[i][alpha]:
                add(vec, base + k, -c)
            vec = cols[column(i, j2)]
            for k, c in normal_forms[i][beta]:
                add(vec, base + k, c)
        for code, c in codes.items():
            if code > 0:
                continue
            for k in range(1, mu + 1):
                add(cols[column(k, -code)], base + k, c)
    return cols


def lex_block(n, k, d, e):
    """The degree-d monomials in x_k..x_n lying lex-between the two bounds
    x_k^(d-e) * x_(k+1)^e (upper) and x_k^(d-e) * x_n^e (lower), in
    negdeglex order: one block of the degree-d slice, found from its bounds."""
    upper = Monomial.variable(n, k, d - e).mul_var(k + 1, e)
    lower = Monomial.variable(n, k, d - e).mul_var(n, e)
    return [m for m in monomials_of(n, k, d) if cmp_lex(lower, m) <= 0 <= cmp_lex(upper, m)]


def deep_factorization_reference(oid, b):
    """(m', b_src) with m' the last back-variables divisor of the back part
    of b of degree deg(b) - r in negdeglex, found by listing every monomial
    of that degree."""
    sig = oid.signature
    rest = b.try_div(Monomial.variable(sig.n, sig.delta, sig.r - sig.w))
    candidates = [
        m for m in monomials_of(sig.n, sig.delta + 1, b.degree - sig.r) if m.divides(rest)
    ]
    if not candidates:
        raise InternalInvariantError(f"no factorization of deep target monomial {b}")
    m_prime = candidates[-1]
    return m_prime, b.try_div(m_prime)
