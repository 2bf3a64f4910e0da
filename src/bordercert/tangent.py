"""Tangent-space dimension at a specialized point and coordinate tangent data.

The first-order deformations of a border basis replace each tail coefficient
Y_ij by Y_ij - eps*a_ij.  Requiring every neighbor relation to keep reducing
to zero modulo eps^2 yields one linear equation per (neighbor pair, basis
monomial) in the mu*nu unknowns a_ij; the tangent dimension is mu*nu minus
the rank of that system.  The system has several times more equations than
unknowns, so it is held by column, one sparse {equation: coefficient} vector
per unknown, and ranked as its transpose.  Its coefficients are read from the
order ideal's product table (`OrderIdealData.products`) and the pairs'
S-polynomials on the same integer codes (`BorderSystem.pair_codes`); no
monomial is built or reduced.

Coordinate tangent tuples differentiate the constructed family itself: one
tuple per free tail slot, per free target coefficient, and per translation
direction.  Their joint rank equals the closed-form family dimension at a
sufficiently general specialization.  `witness_certificate` turns them into
a proof that the tangent dimension over Q is dim(U): the tuples are exact
kernel vectors of the tangent equations and independent mod `linalg.PRIME`,
and the equations have rank mu*nu - dim(U) mod the same prime.  That takes
two mod-p ranks in place of the exact one; where it fails, exact mode falls
back to `tangent_dimension` over Q.

Every tuple is a sparse integer row {column: nonzero value}, as `linalg`
ranks it: a parameter tuple is a tail gradient at the point, a translation
tuple the normal form of a generator partial times a shift.  A `TangentPoint`
specializes the system once per point, refuses it unless it is a border
basis, and holds what the tuples share: the specialized system, the
translation frame, the tail gradients and each generator's partial along
each variable, already reduced to a vector on basis indices.  A translation
tuple multiplies that vector by the shift one variable at a time, each step
read from the product table; at a border basis the multiplication maps
commute, so this is the normal form of the partial times the shift.
`checked_columns` checks a point and assembles its equations once, for the
certificate and the fallback alike.  Prime mode differs only in that the
tangent rank is computed modulo `linalg.PRIME`.
"""

from __future__ import annotations

import random
import re
from typing import Dict, List, NamedTuple, Optional, Tuple

from .borderbasis import (
    BorderSystem,
    SpanElement,
    is_border_basis,
    reduce,
    specialize_system,
)
from .coeffring import IndeterminateRegistry, _integer_assignment
from .linalg import check_field, modp_rank, rank_of
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
    first-order part of neighbor pair p.  The normal form of t_i * x_k is
    read from the product table: t_i' itself for a basis code i', the tail
    of b_j for a border code -j.
    """
    oid = sys.oid
    mu = oid.mu
    cols: List[Dict[int, int]] = [dict() for _ in range(mu * oid.nu)]
    tails = sys.tails
    normal_forms = [
        [((code, 1),) if code > 0 else tuple(tails[-code - 1].items()) for code in row]
        for row in oid.products
    ]

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
    sys: BorderSystem, field: str = "exact", columns: Optional[List[Dict[int, int]]] = None
) -> int:
    """dim of first-order deformations of the border basis at `sys`, with the
    rank taken over Q (field "exact") or modulo `linalg.PRIME` ("prime").
    `columns`, when given, are `checked_columns(sys)`, so neither the check
    nor the assembly runs again."""
    check_field(field)
    if columns is None:
        columns = checked_columns(sys)
    oid = sys.oid
    # A matrix and its transpose have the same rank; the system is tall, so
    # eliminating its columns leaves far fewer vectors to reduce to zero.
    cols = [vec for vec in columns if vec]
    dim = oid.mu * oid.nu - rank_of(cols, field)
    if dim < dim_U(oid):
        raise InternalInvariantError(
            f"tangent dimension {dim} fell below the family dimension {dim_U(oid)}"
        )
    return dim


# ------------------------------------------------- coordinate tangent tuples


_LABEL = re.compile(r"(C\[\d+,\d+\]|theta\[\d+\]|Z\[(\d+),(\d+)\])$")


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
    """

    system: BorderSystem
    spec: BorderSystem
    frame: TranslationFrame
    partials: Dict[int, Tuple[Dict[int, int], ...]]
    jacobian: Dict[int, Dict[int, int]]


def _reduced_partial(spec: BorderSystem, f: SpanElement, alpha: int) -> Dict[int, int]:
    """Normal form of d f / d x_alpha on basis indices.  Differentiating is
    termwise, since dividing by x_alpha cannot merge two terms."""
    terms = {}
    for m, c in f.terms.items():
        e = m.var_degree(alpha)
        if e:
            terms[m.div_var(alpha)] = c * e
    index_of_basis = spec.oid.index_of_basis
    return {index_of_basis[t]: v for t, v in reduce(SpanElement(terms), spec).terms.items()}


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
    generators = [spec.generator(j) for j in range(1, oid.nu + 1)]
    partials = {
        alpha: tuple(_reduced_partial(spec, gen, alpha) for gen in generators)
        for alpha in frame.delta_sets
    }
    # Tails deform to Y_ij - eps*a_ij, so a_ij = -dY_ij/dchi.
    jacobian: Dict[int, Dict[int, int]] = {}
    for j, tail in enumerate(sys_generic.tails, start=1):
        for i, y in tail.items():
            col = _column(oid.mu, i, j)
            for ind, d in y.gradient(values).items():
                jacobian.setdefault(ind, {})[col] = -d
    return TangentPoint(sys_generic, spec, frame, partials, jacobian)


def _translation_entries(point: TangentPoint, alpha: int, lam: int) -> Dict[int, int]:
    fr, spec = point.frame, point.spec
    if alpha not in fr.delta_sets or not 1 <= lam <= len(fr.delta_sets[alpha]):
        raise ArgumentError(f"no translation direction Z[{alpha},{lam}]")
    shift = fr.delta_sets[alpha][lam - 1]
    mu = spec.oid.mu
    out: Dict[int, int] = {}
    for j, vec in enumerate(point.partials[alpha], start=1):
        for k, e in enumerate(shift.exps, start=1):
            for _ in range(e):
                vec = spec._times_variable(vec, k)
        for i, v in vec.items():
            out[_column(mu, i, j)] = v
    return out


def coordinate_tangent_tuple(
    sys_generic: BorderSystem, point: TangentPoint, chi: str
) -> TangentTuple:
    """Derivative of the constructed family along one coordinate at `point`,
    which `tangent_point` made from `sys_generic`."""
    if point.system is not sys_generic:
        raise ArgumentError("the tangent point was made from another system")
    m = _LABEL.fullmatch(chi)
    if m is None:
        raise ArgumentError(f"unknown coordinate {chi!r}")
    if chi.startswith("Z["):
        entries = _translation_entries(point, int(m.group(2)), int(m.group(3)))
    else:
        entries = dict(point.jacobian.get(sys_generic.ring.registry.id_of(chi), {}))
    return TangentTuple(sys_generic.oid.mu, sys_generic.oid.nu, entries)


def coordinate_labels(sys_generic: BorderSystem) -> List[str]:
    """Every coordinate of the family: tail slots, targets, translations."""
    registry = sys_generic.ring.registry
    return (
        list(registry.distinguished)
        + list(registry.modification)
        + translation_frame(sys_generic.oid).labels()
    )


def independence_rank(sys_generic: BorderSystem, assignment) -> int:
    """Rank of all coordinate tangent tuples at one specialization."""
    point = tangent_point(sys_generic, assignment)
    labels = coordinate_labels(sys_generic)
    return rank_of([coordinate_tangent_tuple(sys_generic, point, chi).entries for chi in labels])


# ------------------------------------------------------ witness certificate


def witness_certificate(
    sys_generic: BorderSystem, assignment, spec: BorderSystem, columns: List[Dict[int, int]]
) -> bool:
    """Whether the coordinate tuples prove that the tangent dimension at
    `spec` over Q is dim(U).

    `spec` is `sys_generic` specialized at `assignment`, and `columns` are
    `checked_columns(spec)`.  The certificate has three parts, p = `PRIME`:
    (c) the columns have rank mu*nu - dim(U) mod p; (a) every coordinate
    tuple is a kernel vector of the columns over Z; (b) the tuples have rank
    dim(U) mod p.  A rank mod p is at most the rank over Q, so (a) and (b)
    give dim(U) <= dim_Q and (c) gives dim_Q <= dim_p = dim(U).  Part (c)
    runs first and stops as soon as its rank can no longer be reached.
    """
    oid = spec.oid
    family = dim_U(oid)
    target = oid.mu * oid.nu - family
    if modp_rank([vec for vec in columns if vec], target) != target:
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
    return modp_rank(tuples, family) == family
