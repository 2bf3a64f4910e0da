"""Tangent-space dimension, coordinate tangent tuples, and the dim_U formula."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bordercert.borderbasis import (
    RATIONAL_RING,
    BorderSystem,
    SpanElement,
    generic_distinguished,
    is_border_basis,
    reduce,
    specialize_system,
)
from bordercert.coeffring import CoeffPoly, IndeterminateRegistry
from bordercert.linalg import PRIME, _exact_pivots, exact_rank, modp_rank, rank_of
from bordercert.modification import build_generic_modification
from bordercert.monomial import ArgumentError
from bordercert.orderideal import Signature, build, translation_frame
from bordercert.tangent import (
    TangentTuple,
    _tangent_columns,
    checked_columns,
    coordinate_labels,
    coordinate_tangent_tuple,
    dim_U,
    independence_rank,
    random_assignment,
    tangent_dimension,
    tangent_point,
    witness_certificate,
)

from helpers import (
    exact_pivots_reference,
    hom_tangent_oracle,
    modp_rank_reference,
    paper_table_signatures,
    perturbed,
    small_signatures,
    tangent_columns_reference,
)


def _modified_specialized(sig, seed=1):
    oid = build(sig)
    registry = IndeterminateRegistry(oid)
    system = build_generic_modification(oid, registry)
    assignment = random_assignment(registry, seed)
    return oid, specialize_system(system, assignment)


# ---------------------------------------------------------------------------
# dim_U


def test_dim_u_reproduces_all_table_rows():
    for sig_tuple, (_, expected_dim) in paper_table_signatures().items():
        assert dim_U(build(Signature(*sig_tuple))) == expected_dim


def test_dim_u_small_case():
    assert dim_U(build(Signature(5, 2, 3, 3, 1))) == 59


def test_dim_u_formula_terms():
    oid = build(Signature(5, 2, 3, 3, 0))
    fr = translation_frame(oid)
    n, delta = oid.signature.n, oid.signature.delta
    assert (
        dim_U(oid)
        == oid.ell * oid.tau + oid.gamma + (delta - 1) * fr.eta + (n - delta + 1)
        == 86
    )


# ---------------------------------------------------------------------------
# tangent_dimension


def test_tangent_dimension_59_at_two_seeds():
    for seed in (1, 2):
        oid, spec = _modified_specialized(Signature(5, 2, 3, 3, 1), seed=seed)
        assert tangent_dimension(spec) == 59 == dim_U(oid)


def test_tangent_dimension_86_at_two_seeds():
    for seed in (1, 2):
        oid, spec = _modified_specialized(Signature(5, 2, 3, 3, 0), seed=seed)
        assert tangent_dimension(spec) == 86 == dim_U(oid)


def test_tangent_dimension_186_mod_p():
    oid, spec = _modified_specialized(Signature(6, 2, 4, 4, 0), seed=1)
    assert tangent_dimension(spec, field="prime") == 186 == dim_U(oid)


def test_tangent_equations_are_ranked_by_column(monkeypatch):
    oid, spec = _modified_specialized(Signature(5, 2, 3, 3, 1))
    seen = []

    def capture(rows, field="exact"):
        seen.extend(rows)
        return rank_of(rows, field)

    monkeypatch.setattr("bordercert.tangent.rank_of", capture)
    assert tangent_dimension(spec) == 59
    # at most one vector per unknown a_ij, indexed by (neighbor pair, basis
    # monomial); the system is tall, so far fewer vectors than equations
    n_equations = oid.mu * len(spec.neighbor_pairs())
    assert 0 < len(seen) <= oid.mu * oid.nu < n_equations
    assert all(vec for vec in seen)
    assert all(0 <= eq < n_equations and v for vec in seen for eq, v in vec.items())


def test_repeated_tangent_columns_keep_their_rank():
    """Tangent columns can repeat: at (3,2,3,2,0), seed 1, those of a_{7,7}
    and a_{8,7} are multiples of earlier ones.  Both kernels reduce them to
    zero themselves, so the rank is the same through `rank_of` and through
    the kernels, in both fields."""
    oid, spec = _modified_specialized(Signature(3, 2, 3, 2, 0), seed=1)
    cols = [vec for vec in checked_columns(spec) if vec]
    assert rank_of(cols, "exact") == exact_rank(cols) == 72
    assert rank_of(cols, "prime") == modp_rank(cols) == 72


def test_prime_field_agrees_with_exact():
    _, spec = _modified_specialized(Signature(5, 2, 3, 3, 1), seed=3)
    assert tangent_dimension(spec) == tangent_dimension(spec, field="prime") == 59


def test_monomial_ideal_matches_hom_oracle():
    checked = 0
    for sig in small_signatures(3, 4):
        oid = build(sig)
        if oid.mu > 12:
            continue
        registry = IndeterminateRegistry(oid)
        system = generic_distinguished(oid, registry)
        zeros = {idx: 0 for idx in range(len(registry))}
        monomial_system = specialize_system(system, zeros)
        expected = hom_tangent_oracle(oid)
        assert tangent_dimension(monomial_system) == expected, sig
        checked += 1
        if checked >= 5:
            break
    assert checked >= 3


def test_tangent_dimension_rejects_generic_ring():
    oid = build(Signature(5, 2, 3, 3, 1))
    system = build_generic_modification(oid, IndeterminateRegistry(oid))
    with pytest.raises(ArgumentError):
        tangent_dimension(system)


def test_tangent_dimension_checks_field_before_the_work(monkeypatch):
    _, spec = _modified_specialized(Signature(5, 2, 3, 3, 0))

    def never(system):
        raise AssertionError("the border-basis check ran before the field was checked")

    monkeypatch.setattr("bordercert.tangent.is_border_basis", never)
    with pytest.raises(ArgumentError):
        tangent_dimension(spec, field="float")


def test_tangent_dimension_rejects_non_border_basis():
    _, spec = _modified_specialized(Signature(5, 2, 3, 3, 1))
    with pytest.raises(ArgumentError):
        tangent_dimension(perturbed(spec, 1, 1, 1))


# ---------------------------------------------------------------------------
# TangentTuple / TranslationFrame structure


def test_tangent_tuple_accessors():
    tt = TangentTuple(2, 3, {5: 2, 1: 1})
    assert tt.entry(2, 1) == 1
    assert tt.entry(2, 3) == 2
    assert tt.entry(1, 2) == 0
    assert tt.nonzero_positions() == [(2, 1), (2, 3)]
    for bad in ((0, 1), (3, 1), (1, 0), (1, 4)):
        with pytest.raises(ArgumentError):
            tt.entry(*bad)


def test_frame_structure_5_2_3_3_0():
    oid = build(Signature(5, 2, 3, 3, 0))
    fr = translation_frame(oid)
    assert fr.eta == 4
    assert fr.labels() == [
        "Z[1,1]", "Z[1,2]", "Z[1,3]", "Z[1,4]",
        "Z[2,1]", "Z[2,2]", "Z[2,3]", "Z[2,4]",
        "Z[3,1]", "Z[4,1]", "Z[5,1]",
    ]
    assert fr.size() == 11
    # anchors: x_a * x_n^(r-1) in front, x_a * x_n^s from the middle on
    assert str(fr.anchors[1]) == "x1*x5"
    assert str(fr.anchors[2]) == "x2*x5"
    assert str(fr.anchors[3]) == "x3*x5^3"
    assert str(fr.anchors[5]) == "x5^4"
    # key basis monomial t = (anchor / x_a) * shift
    assert fr.key_basis_index[(1, 1)] == oid.index_of_basis[oid.basis[5]]
    for (alpha, lam), idx in fr.key_basis_index.items():
        t = oid.basis[idx - 1]
        expected = fr.anchors[alpha].div_var(alpha).mul(fr.delta_sets[alpha][lam - 1])
        assert t == expected


def test_frame_delta_one_has_no_front_shifts():
    oid = build(Signature(3, 2, 3, 1, 0))
    fr = translation_frame(oid)
    assert fr.eta == 0
    assert fr.labels() == ["Z[1,1]", "Z[2,1]", "Z[3,1]"]
    assert dim_U(oid) == oid.ell * oid.tau + oid.gamma + 3


# ---------------------------------------------------------------------------
# coordinate tangent tuples: zero patterns


@pytest.fixture(scope="module")
def tuple_fixture():
    sig = Signature(5, 2, 3, 3, 0)
    oid = build(sig)
    registry = IndeterminateRegistry(oid)
    system = build_generic_modification(oid, registry)
    assignment = random_assignment(registry, seed=11)
    labels = coordinate_labels(system)
    point = tangent_point(system, assignment)
    tuples = {
        chi: coordinate_tangent_tuple(system, point, chi) for chi in labels
    }
    return oid, registry, system, assignment, labels, tuples


def test_coordinate_labels_cover_dim_u(tuple_fixture):
    oid, registry, _, _, labels, _ = tuple_fixture
    assert len(labels) == dim_U(oid) == 86
    assert len(set(labels)) == len(labels)
    assert sum(1 for c in labels if c.startswith("C[")) == oid.ell * oid.tau
    assert sum(1 for c in labels if c.startswith("theta[")) == oid.gamma
    assert sum(1 for c in labels if c.startswith("Z[")) == translation_frame(oid).size()


def test_tuple_entries_are_sparse_nonzero_ints(tuple_fixture):
    oid, _, _, _, labels, tuples = tuple_fixture
    for chi in labels:
        for col, v in tuples[chi].entries.items():
            assert type(v) is int and v != 0, chi
            assert col in range(oid.mu * oid.nu), chi


def test_tuples_do_not_share_entries_with_the_point(tuple_fixture):
    _, _, system, assignment, labels, _ = tuple_fixture
    point = tangent_point(system, assignment)
    for chi in ("C[12,1]", "theta[1]", labels[-1]):
        first = coordinate_tangent_tuple(system, point, chi)
        expected = dict(first.entries)
        first.entries.clear()
        first.entries[0] = 99
        assert coordinate_tangent_tuple(system, point, chi).entries == expected, chi


def test_c_tuples_single_minus_one(tuple_fixture):
    oid, registry, _, _, labels, tuples = tuple_fixture
    leading = {oid.index_of_border[b] for b in oid.leading}
    for chi in labels:
        if not chi.startswith("C["):
            continue
        inner = chi[2:-1]
        i, j = (int(p) for p in inner.split(","))
        tup = tuples[chi]
        assert tup.nonzero_positions() == [(i, j)]
        assert tup.entry(i, j) == -1
        # every nonzero lands on a degree-s basis slot over a leading border
        for (i2, j2) in tup.nonzero_positions():
            assert j2 in leading
            assert oid.basis[i2 - 1].degree == oid.signature.s


def test_theta_tuples_zero_pattern(tuple_fixture):
    oid, _, _, _, labels, tuples = tuple_fixture
    allowed = {
        (oid.index_of_basis[t], oid.index_of_border[b])
        for b in oid.s_lead
        for t in oid.tar_prime
    } | {
        (oid.index_of_basis[t], oid.index_of_border[b])
        for b in oid.s_deep
        for t in oid.tar_all
    }
    saw_nonzero = False
    for chi in labels:
        if not chi.startswith("theta["):
            continue
        positions = tuples[chi].nonzero_positions()
        saw_nonzero = saw_nonzero or bool(positions)
        assert set(positions) <= allowed, chi
    assert saw_nonzero


def test_z_tuple_key_components(tuple_fixture):
    oid, _, _, _, labels, tuples = tuple_fixture
    fr = translation_frame(oid)
    sig = oid.signature
    key_slot = {
        (alpha, lam): (idx, fr.anchor_index[alpha])
        for (alpha, lam), idx in fr.key_basis_index.items()
    }
    # middle/back key entries: the deformation of x_a*x_n^s dominates
    i_n, j_n = key_slot[(sig.n, 1)]
    assert tuples[f"Z[{sig.n},1]"].entry(i_n, j_n) == sig.s + 1
    for alpha in range(1, sig.delta):
        for lam in range(1, fr.eta + 1):
            i_k, j_k = key_slot[(alpha, lam)]
            tup = tuples[f"Z[{alpha},{lam}]"]
            assert tup.entry(i_k, j_k) == 1
            # the rest of column j_alpha vanishes
            for i in range(1, oid.mu + 1):
                if i != i_k:
                    assert tup.entry(i, j_k) == 0


def test_z_tuples_cross_key_zeros(tuple_fixture):
    oid, _, _, _, labels, tuples = tuple_fixture
    fr = translation_frame(oid)
    delta, n = oid.signature.delta, oid.signature.n
    key_slot = {
        (alpha, lam): (idx, fr.anchor_index[alpha])
        for (alpha, lam), idx in fr.key_basis_index.items()
    }
    pairs = list(key_slot)
    for (a, lam) in pairs:
        tup = tuples[f"Z[{a},{lam}]"]
        for (a2, lam2) in pairs:
            if (a, lam) == (a2, lam2):
                continue
            zero_case = (
                (a < delta and a2 < delta)
                or (a < delta <= a2)
                or (delta <= a and delta <= a2 and a != a2)
            )
            if zero_case:
                i_k, j_k = key_slot[(a2, lam2)]
                assert tup.entry(i_k, j_k) == 0, ((a, lam), (a2, lam2))


def test_theta_and_c_tuples_vanish_at_key_slots(tuple_fixture):
    oid, _, _, _, labels, tuples = tuple_fixture
    fr = translation_frame(oid)
    key_slots = [
        (idx, fr.anchor_index[alpha])
        for (alpha, _), idx in fr.key_basis_index.items()
    ]
    for chi in labels:
        if chi.startswith("Z["):
            continue
        tup = tuples[chi]
        for i_k, j_k in key_slots:
            assert tup.entry(i_k, j_k) == 0, chi


def test_coordinate_tuple_argument_errors(tuple_fixture):
    oid, registry, system, assignment, _, _ = tuple_fixture
    point = tangent_point(system, assignment)
    for bad in ("X[1,1]", "theta[99]", "C[1,99]", "Z[9,9]", "junk"):
        with pytest.raises(ArgumentError):
            coordinate_tangent_tuple(system, point, bad)
    spec = specialize_system(system, assignment)
    with pytest.raises(ArgumentError):
        tangent_point(spec, assignment)


def test_tangent_point_rejects_non_border_basis():
    # Translation tuples walk the multiplication maps, which commute only at a
    # border basis, so a point off the family is refused up front.
    oid = build(Signature(5, 2, 3, 3, 1))
    registry = IndeterminateRegistry(oid)
    system = build_generic_modification(oid, registry)
    bad = perturbed(system, 1, 3, CoeffPoly.constant(registry, 1))
    assignment = random_assignment(registry, seed=1)
    ok, failures = is_border_basis(specialize_system(bad, assignment))
    assert not ok
    first = re.escape(f"not a border basis: pair {failures[0][0]}")
    with pytest.raises(ArgumentError, match=first):
        tangent_point(bad, assignment)


def _partial(f, alpha):
    out = {}
    for m, c in f.terms.items():
        e = m.var_degree(alpha)
        if e:
            out[m.div_var(alpha)] = c * e
    return SpanElement(out)


@pytest.mark.parametrize("sig", [Signature(5, 2, 3, 3, 0), Signature(6, 2, 4, 4, 0)])
def test_translation_tuples_match_direct_reduction(sig):
    """Z[alpha,lam] holds reduce(dg_j/dx_alpha * shift) in column j, reduced
    here from the full product rather than walked from the reduced partial."""
    oid = build(sig)
    registry = IndeterminateRegistry(oid)
    system = build_generic_modification(oid, registry)
    assignment = random_assignment(registry, seed=2)
    point = tangent_point(system, assignment)
    spec = specialize_system(system, assignment)
    frame = translation_frame(oid)
    labels = [chi for chi in coordinate_labels(system) if chi.startswith("Z[")]
    assert len(labels) == frame.size()
    for chi in labels:
        alpha, lam = (int(p) for p in chi[2:-1].split(","))
        shift = frame.delta_sets[alpha][lam - 1]
        expected = {}
        for j in range(1, oid.nu + 1):
            product = _partial(spec.generator(j), alpha).monomial_multiple(shift)
            for t, v in reduce(product, spec).terms.items():
                expected[(j - 1) * oid.mu + oid.index_of_basis[t] - 1] = v
        assert coordinate_tangent_tuple(system, point, chi).entries == expected, chi


def test_point_from_another_system_is_rejected(tuple_fixture):
    oid, registry, system, assignment, _, tuples = tuple_fixture
    other = build_generic_modification(oid, registry)
    point = tangent_point(other, assignment)
    assert coordinate_tangent_tuple(other, point, "theta[1]") == tuples["theta[1]"]
    with pytest.raises(ArgumentError):
        coordinate_tangent_tuple(system, point, "theta[1]")


# ---------------------------------------------------------------------------
# independence rank


def test_independence_rank_equals_dim_u(tuple_fixture):
    oid, registry, system, assignment, _, _ = tuple_fixture
    assert independence_rank(system, assignment) == dim_U(oid) == 86


def test_independence_rank_specializes_once(tuple_fixture, monkeypatch):
    oid, registry, system, assignment, _, _ = tuple_fixture
    calls = []

    def counted(sys, values):
        calls.append(sys)
        return specialize_system(sys, values)

    monkeypatch.setattr("bordercert.tangent.specialize_system", counted)
    assert independence_rank(system, assignment) == 86
    assert calls == [system]


def test_independence_rank_small_case():
    sig = Signature(3, 2, 3, 2, 1)
    oid = build(sig)
    registry = IndeterminateRegistry(oid)
    system = build_generic_modification(oid, registry)
    assignment = random_assignment(registry, seed=5)
    assert independence_rank(system, assignment) == dim_U(oid)


# ---------------------------------------------------------------------------
# tangent assembly


def _column_items(cols):
    return [list(vec.items()) for vec in cols]


def test_tangent_columns_match_the_reference_assembler():
    checked = 0
    for sig in small_signatures(4, 4):
        _, spec = _modified_specialized(sig)
        if not is_border_basis(spec)[0]:
            continue
        checked += 1
        assert _column_items(_tangent_columns(spec)) == _column_items(tangent_columns_reference(spec))
    assert checked > 0


def test_tangent_columns_where_a_border_code_meets_its_own_pair():
    # At (2,2,3,1,0), t_6 * x_2 = b_4 and pair (3, 4, 2, 1) pairs x_2*b_3
    # with x_1*b_4, so a t_6 term in the tail of b_3 puts the border code of
    # b_4 into the pair's S-polynomial, onto entries the pair itself wrote;
    # with t_k * x_1 = b_j and 5*t_k in the tail of b_j one of them cancels.
    # These tails make no border basis, but the assembly is defined on any.
    oid = build(Signature(2, 2, 3, 1, 0))
    assert (3, 4, 2, 1) in oid.neighbor_pairs and oid.products[6][2] == -4
    for k in range(1, oid.mu + 1):
        code = oid.products[k][1]
        if code > 0:
            continue
        for y in (5, -5):
            tails = [{} for _ in range(oid.nu)]
            tails[2][6] = 5
            tails[-code - 1][k] = y
            system = BorderSystem(oid, tails, RATIONAL_RING)
            assert _column_items(_tangent_columns(system)) == _column_items(
                tangent_columns_reference(system)
            )


# ---------------------------------------------------------------------------
# the rank kernels on tangent columns


@pytest.mark.parametrize(
    "sig, at_least, rank",
    [((5, 2, 3, 3, 0), 0, 778), ((3, 4, 6, 2, 1), 0, 654), ((3, 4, 6, 2, 1), 733, None)],
)
def test_modp_rank_on_tangent_columns_matches_the_reference_kernel(sig, at_least, rank):
    _, spec = _modified_specialized(Signature(*sig))
    cols = [vec for vec in _tangent_columns(spec) if vec]
    got = modp_rank(cols, at_least)
    assert got == modp_rank_reference(cols, PRIME, at_least)
    if rank is None:  # 733 is out of reach of the rank 654, so it stops early
        assert got < 654
    else:
        assert got == rank


@pytest.mark.parametrize(
    "sig, rank",
    [((5, 2, 3, 3, 1), 435), ((3, 4, 6, 2, 1), 654), ((5, 2, 3, 3, 0), 778), ((4, 3, 4, 2, 1), 1315)],
)
def test_exact_pivots_on_tangent_columns_match_the_reference_kernel(sig, rank):
    _, spec = _modified_specialized(Signature(*sig))
    cols = [vec for vec in _tangent_columns(spec) if vec]
    pivots = _exact_pivots(cols)
    assert len(pivots) == rank
    assert pivots == exact_pivots_reference(cols)


# ---------------------------------------------------------------------------
# witness certificate


@pytest.fixture(scope="module")
def witness_fixture():
    oid = build(Signature(5, 2, 3, 3, 1))
    registry = IndeterminateRegistry(oid)
    system = build_generic_modification(oid, registry)
    assignment = random_assignment(registry, seed=1)
    spec = specialize_system(system, assignment)
    return system, assignment, spec, checked_columns(spec)


def test_witness_certificate_holds_at_a_general_point(witness_fixture):
    assert witness_certificate(*witness_fixture)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_witness_certificate_refuses_a_perturbed_tuple_entry(witness_fixture, data):
    # an entry on an empty column leaves a kernel vector, so only entries on
    # columns that meet an equation are perturbed
    system, assignment, spec, columns = witness_fixture
    chi = data.draw(st.sampled_from(coordinate_labels(system)))
    col = data.draw(st.sampled_from([c for c, vec in enumerate(columns) if vec]))
    delta = data.draw(st.integers(-3, 3).filter(bool))
    real = coordinate_tangent_tuple

    def bent(sys, point, label):
        tup = real(sys, point, label)
        if label == chi:
            tup.entries[col] = tup.entries.get(col, 0) + delta
        return tup

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("bordercert.tangent.coordinate_tangent_tuple", bent)
        assert not witness_certificate(system, assignment, spec, columns)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_witness_certificate_refuses_a_perturbed_tail(witness_fixture, data):
    system, assignment, spec, _ = witness_fixture
    j = data.draw(st.integers(1, spec.oid.nu))
    i = data.draw(st.integers(1, spec.oid.mu))
    bad = perturbed(spec, j, i, 1)
    # a slot the family moves freely keeps a border basis, at another point
    if not is_border_basis(bad)[0]:
        with pytest.raises(ArgumentError, match="not a border basis"):
            checked_columns(bad)
    # either way the tuples of the true point are no witness for the columns
    # of the perturbed one
    assert not witness_certificate(system, assignment, spec, _tangent_columns(bad))


def test_witness_certificate_stops_early_where_it_fails(monkeypatch):
    # At (3,4,6,2,1) the tangent dimension is 129, far above dim(U) = 50, so
    # part (c) gives up long before the columns reach their rank 783 - 129.
    oid = build(Signature(3, 4, 6, 2, 1))
    registry = IndeterminateRegistry(oid)
    system = build_generic_modification(oid, registry)
    assignment = random_assignment(registry, seed=1)
    spec = specialize_system(system, assignment)
    columns = checked_columns(spec)
    ranks = []

    def recorded(rows, at_least=0):
        ranks.append((at_least, modp_rank(rows, at_least)))
        return ranks[-1][1]

    monkeypatch.setattr("bordercert.tangent.modp_rank", recorded)
    assert not witness_certificate(system, assignment, spec, columns)
    assert len(ranks) == 1
    target, got = ranks[0]
    assert target == oid.mu * oid.nu - dim_U(oid) == 733
    assert got < 654 == modp_rank([vec for vec in columns if vec])
    assert tangent_dimension(spec, "exact", columns) == 129


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
