"""Rank routines against an independent dense Gaussian-elimination oracle."""

from __future__ import annotations

import copy
import random
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bordercert.linalg import (
    PRIME,
    _by_column_count,
    _exact_pivots,
    dedupe_rows,
    exact_rank,
    modp_rank,
    rank_of,
)
from bordercert.monomial import ArgumentError

from helpers import (
    dense_modp_rank,
    exact_pivots_reference,
    fraction_rank,
    modp_rank_reference,
)


def _dense_to_sparse(matrix):
    return [{j: v for j, v in enumerate(row) if v} for row in matrix]


def _random_matrix(rng, nrows, ncols, density=0.6, bound=9):
    return [
        [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]


matrix_strategy = st.integers(min_value=0, max_value=10_000).map(
    lambda seed: _random_matrix(
        random.Random(seed),
        random.Random(seed ^ 1).randint(1, 6),
        random.Random(seed ^ 2).randint(1, 6),
    )
)

# sparse enough that column counts differ, so the pivot column order matters
sparse_matrix_strategy = st.integers(min_value=0, max_value=10_000).map(
    lambda seed: _random_matrix(
        random.Random(seed),
        random.Random(seed ^ 1).randint(1, 14),
        random.Random(seed ^ 2).randint(1, 14),
        density=0.25,
    )
)


def _lifted_low_rank_matrix(rng):
    """Small combinations of a few rows, each entry shifted by a multiple of
    `PRIME`: rows cancel mod p, mostly away from their lead, but not over Q."""
    ncols, k = rng.randint(1, 8), rng.randint(1, 4)
    basis = _random_matrix(rng, k, ncols, density=0.5, bound=3)
    mixes = _random_matrix(rng, rng.randint(1, 8), k, density=0.7, bound=3)
    return [
        [sum(m * b[j] for m, b in zip(mix, basis)) + rng.randint(-2, 2) * PRIME for j in range(ncols)]
        for mix in mixes
    ]


lifted_matrix_strategy = st.integers(min_value=0, max_value=10_000).map(
    lambda seed: _lifted_low_rank_matrix(random.Random(seed))
)


def _huge_entry_matrix(rng):
    """Sparse rows whose nonzero entries are +-2^62 plus -3, -2, 0 or 1, so
    their residues mod `PRIME` repeat and cancel."""
    shape = rng.randint(1, 10), rng.randint(1, 10)
    matrix = _random_matrix(rng, *shape, density=0.4, bound=2)
    return [[v and rng.choice((1, -1)) * 2**62 + v - 1 for v in row] for row in matrix]


huge_entry_matrix_strategy = st.integers(min_value=0, max_value=10_000).map(
    lambda seed: _huge_entry_matrix(random.Random(seed))
)


def test_prime_is_a_prime_below_2_to_the_30():
    assert 2 < PRIME < 2**30
    assert all(PRIME % d for d in range(2, isqrt(PRIME) + 1))


@settings(max_examples=60, deadline=None)
@given(matrix_strategy)
def test_exact_rank_matches_dense_oracle(matrix):
    assert exact_rank(_dense_to_sparse(matrix)) == fraction_rank(matrix)


@settings(max_examples=60, deadline=None)
@given(matrix_strategy)
def test_modp_rank_matches_exact_on_small_entries(matrix):
    # entries and dimensions are small enough that no nonzero minor can be
    # divisible by the (much larger) default prime
    sparse = _dense_to_sparse(matrix)
    assert modp_rank(sparse) == exact_rank(sparse)


@settings(max_examples=60, deadline=None)
@given(sparse_matrix_strategy)
def test_both_kernels_match_dense_oracle_on_sparse_matrices(matrix):
    sparse = _dense_to_sparse(matrix)
    expected = fraction_rank(matrix)
    assert exact_rank(sparse) == expected
    assert modp_rank(sparse) == expected


@settings(max_examples=80, deadline=None)
@given(lifted_matrix_strategy)
def test_modp_rank_matches_dense_modp_oracle(matrix):
    sparse = _dense_to_sparse(matrix)
    expected = dense_modp_rank(matrix, PRIME)
    assert modp_rank(sparse) == expected
    assert rank_of(sparse, "prime") == expected


def test_exact_rank_through_negative_non_unit_leads():
    # With content stripped, the pivots on columns 0, 1 and 2 have leads -3,
    # -11 and -93, so later rows reduce through negative multipliers, units
    # and not; the last row is 2*row0 - 3*row1 and reduces to zero.
    matrix = [[-3, 2, 3, -4], [-3, -9, -6, -4], [-3, 5, -3, 3], [-9, 4, 4, 4], [3, 31, 24, 4]]
    sparse = _dense_to_sparse(matrix)
    assert exact_rank(sparse) == fraction_rank(matrix) == 4
    assert _exact_pivots(sparse) == exact_pivots_reference(sparse) == [0, 1, 2, 3]


@settings(max_examples=60, deadline=None)
@given(st.one_of(sparse_matrix_strategy, lifted_matrix_strategy))
def test_exact_pivots_match_the_reference_kernel(matrix):
    # a flipped sign or a stripped content scales a row by a nonzero
    # rational, so the supports, and with them the pivots, stay the same
    sparse = _dense_to_sparse(matrix)
    assert _exact_pivots(sparse) == exact_pivots_reference(sparse)


@settings(max_examples=60, deadline=None)
@given(st.one_of(sparse_matrix_strategy, lifted_matrix_strategy), st.integers(0, 15))
def test_modp_rank_stops_only_below_at_least(matrix, at_least):
    sparse = _dense_to_sparse(matrix)
    rank = modp_rank(sparse)
    got = modp_rank(sparse, at_least)
    if rank >= at_least:
        assert got == rank
    else:
        assert got <= rank < at_least


@settings(max_examples=60, deadline=None)
@given(st.one_of(lifted_matrix_strategy, huge_entry_matrix_strategy))
def test_modp_rank_matches_the_reference_kernel(matrix):
    # the reference reduces every update at once; the kernel only where it
    # reads a residue, so both see the same row mod p at every step
    sparse = _dense_to_sparse(matrix)
    for at_least in range(16):
        assert modp_rank(sparse, at_least) == modp_rank_reference(sparse, PRIME, at_least)


@pytest.mark.parametrize(
    "rows, rank",
    [([{0: 1, 1: 1, 2: 1}, {0: 1, 1: 1, 2: 2}], 2), ([{0: 1, 1: 2}, {0: 1, 1: 2}], 1)],
)
def test_modp_rank_skips_a_lead_that_cancelled_mod_p(rows, rank):
    # Reducing the second row by the first leaves a multiple of PRIME, not
    # 0, on column 1, which is then popped as the lead and skipped.
    for at_least in (0, 1, 2):
        assert modp_rank(rows, at_least) == modp_rank_reference(rows, PRIME, at_least)
    assert modp_rank(rows) == rank


def test_modp_rank_gives_up_once_the_target_is_out_of_reach():
    # shortest first, the second row reduces to zero, so a rank of 4 from 4
    # rows is out of reach before the two longer rows are read
    rows = [{1: 1, 2: 1}, {0: 3}, {1: 1, 2: 5}, {0: 1}]
    assert modp_rank(rows) == 3
    assert modp_rank(rows, 3) == 3
    assert modp_rank(rows, 4) == 1


@settings(max_examples=40, deadline=None)
@given(st.one_of(sparse_matrix_strategy, lifted_matrix_strategy))
def test_rank_kernels_leave_input_rows_unchanged(matrix):
    # independence_rank hands its tuples' own entries to rank_of, so a kernel
    # that reduced an input row in place would corrupt them
    sparse = _dense_to_sparse(matrix)
    before = copy.deepcopy(sparse)
    exact_rank(sparse)
    modp_rank(sparse)
    for field in ("exact", "prime"):
        rank_of(sparse, field)
    assert sparse == before


@settings(max_examples=40, deadline=None)
@given(sparse_matrix_strategy, st.randoms(use_true_random=False))
def test_rank_invariant_under_column_relabelling(matrix, rng):
    sparse = _dense_to_sparse(matrix)
    labels = rng.sample(range(1000), len(matrix[0]))
    relabelled = [{labels[j]: v for j, v in row.items()} for row in sparse]
    assert exact_rank(relabelled) == exact_rank(sparse)
    assert modp_rank(relabelled) == modp_rank(sparse)


@settings(max_examples=40, deadline=None)
@given(sparse_matrix_strategy)
def test_rank_invariant_under_transposition(matrix):
    sparse = _dense_to_sparse(matrix)
    transposed = _dense_to_sparse(zip(*matrix))
    assert exact_rank(transposed) == exact_rank(sparse)
    assert modp_rank(transposed) == modp_rank(sparse)
    assert rank_of(transposed) == rank_of(sparse)
    assert rank_of(transposed, "prime") == rank_of(sparse, "prime")


def test_column_order_is_sparsest_first_ties_by_index():
    rows = [
        {0: 1, 1: 2, 5: 1, 7: 0},
        {0: 3, 5: -1, 9: 4},
        {0: 1, 1: 1, 8: 5, 9: 2},
    ]
    # counts: column 8 -> 1; 1, 5, 9 -> 2; 0 -> 3; column 7 holds only a zero
    assert _by_column_count(rows) == {8: 0, 1: 1, 5: 2, 9: 3, 0: 4}
    assert _by_column_count([]) == {}


@settings(max_examples=40, deadline=None)
@given(matrix_strategy, st.integers(min_value=2, max_value=7))
def test_rank_invariant_under_row_scaling(matrix, scale):
    sparse = _dense_to_sparse(matrix)
    scaled = [{j: v * scale for j, v in row.items()} for row in sparse]
    assert exact_rank(scaled) == exact_rank(sparse)


@settings(max_examples=40, deadline=None)
@given(matrix_strategy, st.randoms(use_true_random=False))
def test_rank_invariant_under_row_permutation(matrix, rng):
    sparse = _dense_to_sparse(matrix)
    shuffled = list(sparse)
    rng.shuffle(shuffled)
    assert exact_rank(shuffled) == exact_rank(sparse)


def test_rank_edge_cases():
    assert exact_rank([]) == 0
    assert exact_rank([{}, {}]) == 0
    identity = [{i: 1} for i in range(5)]
    assert exact_rank(identity) == 5
    assert modp_rank([{i: 1} for i in range(5)]) == 5
    # one row repeated many times
    row = {0: 14, 3: -5}
    assert exact_rank([dict(row) for _ in range(4)]) == 1
    # explicit zero entries are ignored
    assert exact_rank([{0: 0, 1: 1}, {1: 1}]) == 1
    assert rank_of([{0: 0}]) == 0 and dedupe_rows([{0: 0}]) == []


def test_modp_rank_with_field_scalars():
    p = PRIME
    rows = [
        {0: pow(2, -1, p), 1: 3},
        {0: 2, 1: 12},
        {1: 1},
    ]
    # row2 = 4 * row1, so the rank is 2
    assert modp_rank(rows) == 2


def test_modp_pivot_with_lead_other_than_one():
    p = PRIME
    c = 5 * pow(3, -1, p) % p
    # the first row is the pivot on column 0 with lead 3; the second is its
    # multiple by 1/3 mod p and must reduce to zero through that inverse
    assert modp_rank([{0: 3, 1: 5}, {0: 1, 1: c}]) == 1
    assert modp_rank([{0: 3, 1: 5}, {0: 1, 1: c + 1}]) == 2
    # a reduced row becomes a pivot with lead 2 on column 1; the third row is
    # 2*row1 + 7*row2 and reduces to zero through both pivots
    rows = [{0: 3, 1: 5, 2: 1}, {0: 3, 1: 7, 2: 4}, {0: 27, 1: 59, 2: 30}]
    assert modp_rank(rows) == 2
    rows[2][2] += 1
    assert modp_rank(rows) == 3


def test_rank_of_counts_scalar_multiples_once():
    rows = [
        {0: 1, 2: 3},
        {0: 2, 2: 6},
        {0: -1, 2: -3},
        {1: 5},
        {},
    ]
    assert rank_of(rows) == exact_rank(rows) == 2
    assert rank_of(rows, "prime") == modp_rank(rows) == 2


def test_dedupe_keeps_a_multiple_of_a_row_that_vanishes_mod_p():
    # (p + 1) * row is a rational multiple of p * row, but only the first is
    # nonzero mod p
    rows = [{0: PRIME, 3: 2 * PRIME}, {0: PRIME + 1, 3: 2 * PRIME + 2}, {0: 5, 3: 10}]
    assert dedupe_rows(rows) == rows
    assert rank_of(rows, "prime") == rank_of(rows) == 1


# Rows drawn from a few base rows times small, negative and PRIME-divisible
# factors, some with an explicit zero entry and some repeated as one object,
# so supports repeat and multiples vanish mod p.
_BASES = ({0: 1, 2: 3}, {0: 2, 2: 5}, {1: 4}, {0: 1, 1: -1, 3: 2}, {3: 6, 4: -9})
_FACTORS = (1, 2, -1, -3, PRIME, -2 * PRIME, PRIME + 1, PRIME * PRIME)

dedupe_strategy = st.lists(
    st.tuples(
        st.integers(0, len(_BASES) - 1),
        st.sampled_from(_FACTORS),
        st.booleans(),
        st.booleans(),
    ),
    max_size=12,
)


def _dedupe_rows_from(draws):
    rows = []
    for base, factor, zero_entry, repeat in draws:
        if repeat and rows:
            rows.append(rows[-1])
            continue
        row = {c: factor * v for c, v in _BASES[base].items()}
        if zero_entry:
            row[7] = 0
        rows.append(row)
    return rows + [{}, {5: 0}]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(dedupe_strategy)
def test_dedupe_rows_keeps_the_reference_rows(draws):
    rows = _dedupe_rows_from(draws)
    dense = [[row.get(c, 0) for c in range(8)] for row in rows]
    assert rank_of(rows) == fraction_rank(dense)
    assert rank_of(rows, "prime") == dense_modp_rank(dense, PRIME)
    kept = [id(r) for r in rows if any(r.values())]
    assert [id(r) for r in dedupe_rows(rows)] == kept


@settings(max_examples=30, deadline=None)
@given(matrix_strategy)
def test_rank_of_agrees_with_exact_rank(matrix):
    sparse = _dense_to_sparse(matrix)
    assert rank_of(sparse) == exact_rank(sparse)


def test_rank_of_rejects_unknown_field():
    for field in ("float", "Prime", "", PRIME):
        with pytest.raises(ArgumentError):
            rank_of([{0: 1}], field)


def test_rank_drops_with_dependent_row():
    rows = [
        {0: 1, 1: 2},
        {1: 1, 2: 1},
    ]
    combined = {0: 3, 1: 6 + 2, 2: 2}
    assert exact_rank(rows + [combined]) == 2
    independent = {0: 3, 1: 8, 2: 1}
    assert exact_rank(rows + [independent]) == 3


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
