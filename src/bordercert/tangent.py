"""Tangent-space dimension at a specialized point and coordinate tangent data.

The first-order deformations of a border basis replace each tail coefficient
Y_ij by Y_ij - eps*a_ij.  Requiring every neighbor relation to keep reducing
to zero modulo eps^2 yields one linear equation per (neighbor pair, basis
monomial) in the mu*nu unknowns a_ij; the tangent dimension is mu*nu minus
the rank of that system.  The equations of a pair are linear in its
S-polynomial, so those of the generating pairs
(`OrderIdealData.generating_pairs`) span the rest, and only they are built.
The system has several times more equations than unknowns, so it is held by
column, one sparse {equation: coefficient} vector per unknown, and ranked as
its transpose.  Its coefficients are the normal forms of the product-table
codes (`BorderSystem.normal_form`) and the pairs' S-polynomials on the same
codes (`BorderSystem.pair_codes`); no monomial is built or reduced.

Every tangent rank runs over the unknowns of the corner generators, the
border monomials that are no variable multiple of another one.  Any other
b_n is x_alpha * b_j, and in the equations of the next-door pair
(j, n, alpha, 0) its unknowns a_{.,n} form an identity block.
`corner_columns` folds those blocks into the other columns by unit pivots
over Z and leaves its input as it is.  The tangent dimension is the nullity
of the folded system, the unknowns left less the rank of what remains, over
Q and mod p alike.  This mirrors two facts: a tangent vector in
Hom_R(I, R/I) is fixed by its values on generators of I, and the tangent
space of the border basis scheme is that Hom (Kreuzer and Robbiano,
"Deformations of border bases", 2008); the next-door relations are those of
Kehrein and Kreuzer (2005).

Coordinate tangent tuples differentiate the constructed family itself: one
tuple per free tail slot, per free target coefficient, and per translation
direction.  Their joint rank equals the closed-form family dimension at a
sufficiently general specialization.  `witness_certificate` turns them into
a proof that the tangent dimension over Q is dim(U): the tuples are exact
kernel vectors of the tangent equations and independent mod `linalg.PRIME`,
and the folded system has nullity dim(U) mod the same prime.  That takes
two mod-p ranks in place of the exact one; where it fails, exact mode falls
back to `tangent_dimension` over Q, on the same folded columns.

Every tuple is a sparse integer row {column: nonzero value}, as `linalg`
ranks it: a parameter tuple is a tail gradient at the point, a translation
tuple the normal form of a generator partial times a shift.  A `TangentPoint`
specializes the system once per point, refuses it unless it is a border
basis, and holds what the tuples share: the specialized system, the
translation frame, the tail gradients and each generator's partial along
each variable as a vector on basis indices.  The partials are reduced on
codes: every term of one is a basis or border monomial whose code the
order ideal's quotient table (`OrderIdealData.quotients`) gives, so one
`normal_form` call reduces it and no monomial is built.  Each shifted
partial is formed once per point, from its predecessor: every shift but 1
is a variable times an earlier shift, so the first translation tuple
requested along x_alpha walks the partials through all shifts of alpha in
list order, one multiplication map on codes per step, and the point keeps
the results.  At a border basis these maps commute, so each is the normal
form of the partial times the shift.
`checked_columns` checks a point and assembles its equations once, and
exact mode folds them once, for the certificate and the fallback alike;
part (a) of the certificate reads the columns as assembled.  Prime mode
differs only in that the tangent rank is computed modulo `linalg.PRIME`.
"""

from __future__ import annotations

import random
import re
from typing import Dict, List, NamedTuple, Optional, Tuple

from .borderbasis import BorderSystem, is_border_basis, specialize_system
from .coeffring import IndeterminateRegistry, _integer_assignment
from . import linalg
from .linalg import check_field, rank_of
from .monomial import ArgumentError, InternalInvariantError
from .orderideal import OrderIdealData, TranslationFrame, translation_frame


class TangentTuple(NamedTuple):
    """Sparse length-mu*nu vector of deformation coefficients a_ij.

    `entries` maps a column to a nonzero integer.  Column order: the basis
    index i varies fastest, the border index j slowest.
    """

    mu: int
    nu: int
    entries: Dict[int, int]

    def entry(self, i: int, j: int) -> int:
        if not (1 <= i <= self.mu and 1 <= j <= self.nu):
            raise ArgumentError(f"entry ({i},{j}) outside 1..{self.mu} x 1..{self.nu}")
        return self.entries.get(_column(self.mu, i, j), 0)

    def nonzero_positions(self):
        return [(col % self.mu + 1, col // self.mu + 1) for col in sorted(self.entries)]


def dim_U(oid: OrderIdealData) -> int:
    """Closed-form dimension of the constructed family."""
    sig = oid.signature
    eta = translation_frame(oid).eta
    return oid.ell * oid.tau + oid.gamma + (sig.delta - 1) * eta + (sig.n - sig.delta + 1)


# ------------------------------------------------------------------ tangent


def _column(mu: int, i: int, j: int) -> int:
    return (j - 1) * mu + (i - 1)


def _tangent_columns(sys: BorderSystem) -> List[Dict[int, int]]:
    """The tangent equations held by column: item `_column(mu, i, j)` maps
    each equation to its coefficient of the unknown a_ij.

    Equation `mu*p + k - 1` is the coefficient of basis monomial k in the
    first-order part of the p-th generating pair.  The normal form of
    t_i * x_k is that of its product-table code.
    """
    oid = sys.oid
    mu = oid.mu
    cols: List[Dict[int, int]] = [dict() for _ in range(mu * oid.nu)]
    normal_forms = [[tuple(sys.normal_form([(c, 1)]).items()) for c in row] for row in oid.products]

    # Equations mu*p .. mu*p + mu - 1 belong to pair p alone, and the loops
    # over i write disjoint columns, so every entry they write is new and
    # nonzero (tails omit zeros).  A border code of the S-polynomial, whose
    # coefficients are nonzero too, adds onto them only if it is b_j1 or
    # b_j2.
    for p, (pair, codes) in enumerate(sys.pair_codes()):
        base = mu * p - 1
        j1, j2, alpha, beta = pair
        first1, first2 = _column(mu, 1, j1) - 1, _column(mu, 1, j2) - 1
        for i in range(1, mu + 1):
            vec = cols[first1 + i]
            for k, c in normal_forms[i][alpha]:
                vec[base + k] = -c
            vec = cols[first2 + i]
            for k, c in normal_forms[i][beta]:
                vec[base + k] = c
        for code, c in codes.items():
            if code > 0:
                continue
            first = _column(mu, 1, -code) - 1
            if -code != j1 and -code != j2:
                for k in range(1, mu + 1):
                    cols[first + k][base + k] = c
                continue
            for k in range(1, mu + 1):
                vec = cols[first + k]
                v = vec.get(base + k, 0) + c
                if v:
                    vec[base + k] = v
                else:
                    del vec[base + k]
    return cols


def corner_columns(oid: OrderIdealData, columns: List[Dict[int, int]]) -> List[Dict[int, int]]:
    """The tangent equations held by `columns` with their next-door identity
    blocks folded into the other unknowns: the columns that remain, those of
    the corners.  `columns` and its dicts are left as they are; a column is
    copied the first time a step writes into it, and the others are shared.

    Each border monomial b_n that is no corner pivots on its first kept pair
    (j, n, alpha, 0), the p-th generating pair: equation `mu*p + k - 1`
    holds a_{k,n} with coefficient 1 and no other a_{.,n}.  Adding multiples
    of the pivot column clears its equation from every other column; the
    equation and the pivot column then add exactly one to the rank.  The
    steps are unimodular over Z, so the nullity is kept over Q and mod
    `linalg.PRIME` alike.  An earlier step may bend a later pivot; one that
    is no longer -1 or 1 is skipped, and its unknown stays.
    """
    mu = oid.mu
    first_pair: Dict[int, int] = {}
    for p, (_, n, _, beta) in enumerate(oid.generating_pairs):
        if not beta:
            first_pair.setdefault(n, p)
    pivots = [
        (_column(mu, k, n), mu * p + k - 1) for n, p in first_pair.items() for k in range(1, mu + 1)
    ]
    # The columns holding each pivot equation still to come.  Only those
    # are read, and a column is listed again where an entry fills in, so a
    # column may be listed twice or where its entry has cancelled.
    holders: Dict[int, List[int]] = {e: [] for _, e in pivots}
    for u, vec in enumerate(columns):
        for eq in vec:
            found = holders.get(eq)
            if found is not None:
                found.append(u)
    work: Dict[int, Dict[int, int]] = {}
    gone = set()
    for u, e in pivots:
        pivot = work.get(u, columns[u])
        s = pivot.get(e)
        if s != 1 and s != -1:
            continue
        gone.add(u)
        # No column holds an equation pivoted earlier, so `found` is None
        # only where `eq` is no pivot equation.
        rest = [(eq, -c * s, holders.get(eq)) for eq, c in pivot.items() if eq != e]
        for v in holders.pop(e):
            if v in gone:
                continue
            vec = work.get(v)
            if vec is None:
                vec = work[v] = dict(columns[v])
            m = vec.pop(e, 0)
            if not m:
                continue
            for eq, c, found in rest:
                x = vec.get(eq)
                if x is None:
                    vec[eq] = m * c
                    if found is not None:
                        found.append(v)
                else:
                    x += m * c
                    if x:
                        vec[eq] = x
                    else:
                        del vec[eq]
    return [work.get(u, vec) for u, vec in enumerate(columns) if u not in gone]


def _require_border_basis(spec: BorderSystem) -> None:
    ok, failures = is_border_basis(spec)
    if not ok:
        pair, residue = failures[0]
        raise ArgumentError(f"not a border basis: pair {pair} leaves residue {residue}")


def checked_columns(spec: BorderSystem) -> List[Dict[int, int]]:
    """The tangent equations at `spec` held by column, once `spec` is known
    to be a specialized border basis."""
    if spec.ring.kind != "rational":
        raise ArgumentError("tangent dimension needs a specialized system")
    _require_border_basis(spec)
    return _tangent_columns(spec)


def tangent_dimension(
    sys: BorderSystem, field: str = "exact", folded: Optional[List[Dict[int, int]]] = None
) -> int:
    """dim of first-order deformations of the border basis at `sys`, with the
    rank taken over Q (field "exact") or modulo `linalg.PRIME` ("prime"):
    the nullity of the folded system.  `folded`, when given, is
    `corner_columns` of `checked_columns(sys)`, so neither the check, the
    assembly nor the fold runs again."""
    check_field(field)
    oid = sys.oid
    if folded is None:
        folded = corner_columns(oid, checked_columns(sys))
    # A matrix and its transpose have the same rank; the system is tall, so
    # eliminating its columns leaves far fewer vectors to reduce to zero.
    dim = len(folded) - rank_of(folded, field)
    if dim < dim_U(oid):
        raise InternalInvariantError(
            f"tangent dimension {dim} fell below the family dimension {dim_U(oid)}"
        )
    return dim


# ------------------------------------------------- coordinate tangent tuples


# Exactly the labels `TranslationFrame.labels` writes: no sign, no leading
# zero, ASCII digits only.
_TRANSLATION = re.compile(r"Z\[([1-9][0-9]*),([1-9][0-9]*)\]")


def random_assignment(registry: IndeterminateRegistry, seed: int) -> Dict[int, int]:
    """Deterministic nonzero integer values in [-50, 50] for every slot."""
    rng = random.Random(seed)
    pool = [v for v in range(-50, 51) if v != 0]
    return {i: rng.choice(pool) for i in range(len(registry))}


class TangentPoint(NamedTuple):
    """What every coordinate tuple at one integer point shares.

    `jacobian` maps an indeterminate id to the nonzero entries of its
    parameter tuple, {column: -dY_ij/dchi at the point}; `partials` maps a
    variable index alpha to the normal forms of (dg_1/dx_alpha, ...,
    dg_nu/dx_alpha) of the specialized generators, each {basis index: value}.
    `translations` maps alpha to the entries of Z[alpha, 1], Z[alpha, 2], ...,
    filled for every shift of alpha on the first request of one of them.
    """

    system: BorderSystem
    spec: BorderSystem
    frame: TranslationFrame
    partials: Dict[int, Tuple[Dict[int, int], ...]]
    jacobian: Dict[int, Dict[int, int]]
    translations: Dict[int, List[Dict[int, int]]]


def _reduced_partial(spec: BorderSystem, j: int, alpha: int) -> Dict[int, int]:
    """Normal form of dg_j/dx_alpha, g_j = b_j - sum_i Y_ij t_i, on basis
    indices, from the codes of the quotients by x_alpha
    (`OrderIdealData.quotients`)."""
    oid = spec.oid
    quotients, basis = oid.quotients, oid.basis
    terms = []
    e = oid.border[j - 1].exps[alpha - 1]
    if e:
        terms.append((quotients[-j, alpha], e))
    for i, y in spec.tails[j - 1].items():
        e = basis[i - 1].exps[alpha - 1]
        if e:
            terms.append((quotients[i, alpha], -y * e))
    return spec.normal_form(terms)


def tangent_point(sys_generic: BorderSystem, assignment) -> TangentPoint:
    """Specialize once and collect what the coordinate tuples at `assignment` read."""
    if sys_generic.ring.kind != "poly":
        raise ArgumentError("coordinate tuples differentiate the symbolic system")
    values = _integer_assignment(sys_generic.ring.registry, assignment)
    spec = specialize_system(sys_generic, values)
    _require_border_basis(spec)
    return _point_at(sys_generic, values, spec)


def _point_at(sys_generic: BorderSystem, values, spec: BorderSystem) -> TangentPoint:
    """The tangent point of `spec`, which is `sys_generic` specialized at
    `values` and already checked to be a border basis."""
    oid = sys_generic.oid
    frame = translation_frame(oid)
    partials = {
        alpha: tuple(_reduced_partial(spec, j, alpha) for j in range(1, oid.nu + 1))
        for alpha in frame.delta_sets
    }
    # Tails deform to Y_ij - eps*a_ij, so a_ij = -dY_ij/dchi.
    jacobian: Dict[int, Dict[int, int]] = {}
    for j, tail in enumerate(sys_generic.tails, start=1):
        for i, y in tail.items():
            col = _column(oid.mu, i, j)
            for ind, d in y.gradient(values).items():
                jacobian.setdefault(ind, {})[col] = -d
    return TangentPoint(sys_generic, spec, frame, partials, jacobian, {})


def _shifted_partials(point: TangentPoint, alpha: int) -> List[Dict[int, int]]:
    """The entries of Z[alpha, lam] for every lam, in shift order.

    Each shift but 1 is x_k times its predecessor, the shift divided by its
    last variable x_k, which comes earlier in the list; so the partials times
    a shift are one multiplication map from the partials times the
    predecessor."""
    spec, shifts = point.spec, point.frame.delta_sets[alpha]
    mu = spec.oid.mu
    position = {m.exps: p for p, m in enumerate(shifts)}
    vectors: List[Tuple[Dict[int, int], ...]] = []
    out: List[Dict[int, int]] = []
    for m in shifts:
        exps = m.exps
        k = max((k for k, e in enumerate(exps, start=1) if e), default=0)
        if not k:
            vecs = point.partials[alpha]
        else:
            p = position.get(exps[: k - 1] + (exps[k - 1] - 1,) + exps[k:])
            if p is None or p >= len(vectors):
                raise InternalInvariantError(f"shift {m} of x{alpha} does not follow its predecessor")
            # Most partials along a front variable are zero, and stay zero.
            vecs = tuple(vec and spec._times_variable(vec, k) for vec in vectors[p])
        vectors.append(vecs)
        entries: Dict[int, int] = {}
        for j, vec in enumerate(vecs, start=1):
            for i, v in vec.items():
                entries[_column(mu, i, j)] = v
        out.append(entries)
    return out


def coordinate_tangent_tuple(
    sys_generic: BorderSystem, point: TangentPoint, chi: str
) -> TangentTuple:
    """Derivative of the constructed family along one coordinate at `point`,
    which `tangent_point` made from `sys_generic`."""
    if point.system is not sys_generic:
        raise ArgumentError("the tangent point was made from another system")
    m = _TRANSLATION.fullmatch(chi)
    if m:
        alpha, lam = int(m.group(1)), int(m.group(2))
        shifts = point.frame.delta_sets.get(alpha, ())
        if lam > len(shifts):
            raise ArgumentError(f"no translation direction {chi}")
        shifted = point.translations.get(alpha)
        if shifted is None:
            shifted = point.translations[alpha] = _shifted_partials(point, alpha)
        entries = dict(shifted[lam - 1])
    else:
        entries = dict(point.jacobian.get(sys_generic.ring.registry.id_of(chi), {}))
    return TangentTuple(sys_generic.oid.mu, sys_generic.oid.nu, entries)


def coordinate_labels(sys_generic: BorderSystem) -> List[str]:
    """Every coordinate of the family: tail slots, targets, translations."""
    return sys_generic.ring.registry.names + translation_frame(sys_generic.oid).labels()


def independence_rank(sys_generic: BorderSystem, assignment) -> int:
    """Rank of all coordinate tangent tuples at one specialization."""
    point = tangent_point(sys_generic, assignment)
    labels = coordinate_labels(sys_generic)
    return rank_of([coordinate_tangent_tuple(sys_generic, point, chi).entries for chi in labels])


# ------------------------------------------------------ witness certificate


def witness_certificate(
    sys_generic: BorderSystem,
    assignment,
    spec: BorderSystem,
    columns: List[Dict[int, int]],
    folded: List[Dict[int, int]],
) -> bool:
    """Whether the coordinate tuples prove that the tangent dimension at
    `spec` over Q is dim(U).

    `spec` is `sys_generic` specialized at `assignment`, `columns` are
    `checked_columns(spec)` and `folded` is `corner_columns` of them.  The
    certificate has three parts, p = `PRIME`: (c) the columns have nullity
    dim(U) mod p, that is, the folded columns have rank len(folded) - dim(U);
    (a) every coordinate tuple is a kernel vector of the columns as
    assembled, over Z; (b) the tuples have rank dim(U) mod p.  A rank mod p
    is at most the rank over Q, so (a) and (b) give dim(U) <= dim_Q and (c)
    gives dim_Q <= dim_p = dim(U).  Part (c) runs first and stops as soon as
    its rank can no longer be reached.
    """
    family = dim_U(spec.oid)
    target = len(folded) - family
    if linalg.modp_rank(folded, target) != target:
        return False
    point = _point_at(sys_generic, _integer_assignment(sys_generic.ring.registry, assignment), spec)
    tuples = [
        coordinate_tangent_tuple(sys_generic, point, chi).entries
        for chi in coordinate_labels(sys_generic)
    ]
    for entries in tuples:
        image: Dict[int, int] = {}
        for col, a in entries.items():
            for eq, c in columns[col].items():
                image[eq] = image.get(eq, 0) + a * c
        if any(image.values()):
            return False
    return linalg.modp_rank(tuples, family) == family
