"""Acceptance suite: every shipped claim, one printed pass/fail line each.

Run with:  pytest tests/test_acceptance.py -v -s
(the -s shows the CRITERION lines even for passing tests).
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from bordercert.borderbasis import (
    SpanElement,
    is_border_basis,
    power_in_ideal,
    reduce,
    specialize_system,
)
from bordercert.certify import certify, report_to_json_dict
from bordercert.coeffring import CoeffPoly, IndeterminateRegistry
from bordercert.modification import build_generic_modification, build_targets, render_targets
from bordercert.monomial import Monomial, monomials_of
from bordercert.orderideal import Signature, build, gamma_formula, translation_frame
from bordercert.tangent import (
    coordinate_labels,
    coordinate_tangent_tuple,
    dim_U,
    independence_rank,
    random_assignment,
    tangent_dimension,
    tangent_point,
)

from helpers import (
    as_dense_row,
    fraction_rank,
    key_slots,
    lex_block,
    membership_rows,
    paper_table_signatures,
    small_signatures,
    target_span,
)

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(num, description, limit_seconds=None):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - t0
        too_slow = ok and limit_seconds is not None and elapsed >= limit_seconds
        status = "PASS" if ok and not too_slow else "FAIL"
        suffix = f"; exceeded {limit_seconds}s limit" if too_slow else ""
        print(f"CRITERION {num}: {status} ({elapsed:.2f}s) — {description}{suffix}")
    if limit_seconds is not None:
        assert elapsed < limit_seconds, f"criterion {num} exceeded {limit_seconds}s"


def _modified_specialized(sig, seed=1):
    oid = build(sig)
    registry = IndeterminateRegistry(oid)
    system = build_generic_modification(oid, registry)
    assignment = random_assignment(registry, seed)
    return oid, registry, specialize_system(system, assignment)


def test_criterion_1_golden_target_assignment():
    with criterion(1, "golden target assignment for (3,4,6,2,1)", limit_seconds=1.0):
        sig = Signature(3, 4, 6, 2, 1)
        oid = build(sig)
        registry = IndeterminateRegistry(oid)
        tm = build_targets(oid, registry)
        assert render_targets(oid, tm) + "\n" == (
            GOLDEN / "modify_3_4_6_2_1.txt"
        ).read_text()
        # the deepest-step result, coefficient by coefficient
        th = [None] + [
            CoeffPoly.indeterminate(registry, registry.theta_id(q)) for q in range(1, 7)
        ]
        expected = {
            Monomial((0, 2, 2)): th[2] - th[1] * th[1],
            Monomial((0, 1, 3)): th[3] - th[1] * th[2],
            Monomial((0, 0, 4)): CoeffPoly.zero(registry) - th[1] * th[3],
            Monomial((0, 2, 3)): th[5] - (th[1] * th[4] + th[1] * th[4]),
            Monomial((0, 1, 4)): th[6] - th[1] * th[5] - th[2] * th[4],
            Monomial((0, 0, 5)): CoeffPoly.zero(registry) - th[1] * th[6] - th[3] * th[4],
        }
        shallow = target_span(oid, tm[oid.index_of_border[Monomial((0, 4, 0))]])
        assert dict(shallow.terms) == expected


def test_criterion_2_golden_modification_rows():
    with criterion(2, "golden step-1/2 targets for (5,2,3,3,0)", limit_seconds=1.0):
        sig = Signature(5, 2, 3, 3, 0)
        oid = build(sig)
        registry = IndeterminateRegistry(oid)
        tm = build_targets(oid, registry)
        assert render_targets(oid, tm) + "\n" == (
            GOLDEN / "modify_5_2_3_3_0.txt"
        ).read_text()
        # the first deeper row, coefficient by coefficient
        th = [None] + [
            CoeffPoly.indeterminate(registry, registry.theta_id(q)) for q in range(1, 6)
        ]
        row = target_span(oid, tm[oid.index_of_border[Monomial((0, 0, 2, 1, 0))]])
        assert dict(row.terms) == {
            Monomial((0, 0, 1, 2, 0)): th[1],
            Monomial((0, 0, 1, 1, 1)): th[2],
            Monomial((0, 0, 0, 3, 0)): th[3],
            Monomial((0, 0, 0, 2, 1)): th[4],
            Monomial((0, 0, 0, 1, 2)): th[5],
        }


def test_criterion_3_symbolic_border_basis():
    sigs = [
        Signature(3, 4, 6, 2, 1),
        Signature(5, 2, 3, 3, 0),
        Signature(5, 2, 3, 3, 1),
        Signature(4, 3, 4, 2, 1),
    ]
    with criterion(
        3, "symbolic border-basis verification on four signatures", limit_seconds=60.0
    ):
        for sig in sigs:
            oid = build(sig)
            system = build_generic_modification(oid, IndeterminateRegistry(oid))
            ok, failures = is_border_basis(system)
            assert ok, (sig, failures[:1])


def test_criterion_4_tangent_dimension_small_signatures():
    with criterion(
        4,
        "exact tangent dimensions 59 and 86 at two seeds each",
        limit_seconds=600.0,
    ):
        for sig, expected in ((Signature(5, 2, 3, 3, 1), 59), (Signature(5, 2, 3, 3, 0), 86)):
            for seed in (1, 2):
                _, _, spec = _modified_specialized(sig, seed=seed)
                assert tangent_dimension(spec) == expected, (sig, seed)


def test_criterion_5_dim_u_table():
    with criterion(5, "dim(U) for all eight table rows plus 59", limit_seconds=1.0):
        for sig_tuple, (_, expected) in paper_table_signatures().items():
            assert dim_U(build(Signature(*sig_tuple))) == expected, sig_tuple
        assert dim_U(build(Signature(5, 2, 3, 3, 1))) == 59


def test_criterion_6_hilbert_functions():
    with criterion(6, "Hilbert functions for all nine listed signatures"):
        for sig_tuple, (hf, _) in paper_table_signatures().items():
            assert build(Signature(*sig_tuple)).hilbert == hf, sig_tuple
        assert build(Signature(4, 3, 4, 2, 1)).hilbert == (1, 4, 10, 7, 9)


def test_criterion_7_large_signature_prime_mode():
    with criterion(
        7,
        "prime-field tangent dimension 268 = dim(U) for (5,3,4,3,1)",
        limit_seconds=1800.0,
    ):
        sig = Signature(5, 3, 4, 3, 1)
        oid, _, spec = _modified_specialized(sig, seed=1)
        assert dim_U(oid) == 268
        assert tangent_dimension(spec, field="prime") == 268


def _deep_pool_three_ways(sig):
    """The three equivalent descriptions of the deeper target pool."""
    n, r, s, delta, w = sig.n, sig.r, sig.s, sig.delta, sig.w
    direct = {
        m
        for d in range(r + 1, s + 1)
        for m in monomials_of(n, delta, d)
        if m.var_degree(delta) == r - w
    }
    blocks = {m for d in range(r + 1, s + 1) for m in lex_block(n, delta, d, w + d - r)}
    seed_block = lex_block(n, delta, r, w)
    products = {
        mp.mul(b)
        for b in seed_block
        for k in range(1, s - r + 1)
        for mp in monomials_of(n, delta + 1, k)
    }
    return direct, blocks, products


def test_criterion_8a_deep_pool_characterizations():
    grid = small_signatures(6, 6)
    with criterion(
        "8a", f"three deep-pool characterizations agree on {len(grid)} signatures"
    ):
        assert len(grid) >= 30
        for sig in grid:
            direct, blocks, products = _deep_pool_three_ways(sig)
            assert direct == blocks == products, sig
            assert direct == set(build(sig).s_deep), sig


def test_criterion_8b_gamma_formula():
    grid = small_signatures(6, 6)
    with criterion("8b", f"gamma formula equals seed count on {len(grid)} signatures"):
        for sig in grid:
            oid = build(sig)
            assert gamma_formula(sig) == len(oid.tar_double_prime) == oid.gamma, sig


def test_criterion_8c_reduction_idempotent_linear():
    with criterion("8c", "reduction idempotence and linearity on 200 random inputs"):
        rng = random.Random(2024)
        for sig in (Signature(4, 3, 4, 2, 1), Signature(5, 2, 3, 3, 0)):
            _, _, spec = _modified_specialized(sig, seed=4)
            pool = [
                m
                for d in range(0, sig.s + 2)
                for m in monomials_of(sig.n, 1, d)
            ]
            for _ in range(100):
                f = SpanElement(
                    {m: Fraction(rng.randint(-9, 9)) for m in rng.sample(pool, 5)}
                )
                g = SpanElement(
                    {m: Fraction(rng.randint(-9, 9)) for m in rng.sample(pool, 5)}
                )
                rf, rg = reduce(f, spec), reduce(g, spec)
                assert reduce(rf, spec) == rf
                a, b = Fraction(rng.randint(1, 9)), Fraction(rng.randint(1, 9))
                combined = f.scaled(a) + g.scaled(b)
                assert reduce(combined, spec) == rf.scaled(a) + rg.scaled(b)


def test_criterion_8d_membership_oracle():
    sigs = [Signature(3, 2, 3, 2, 1), Signature(3, 2, 3, 2, 0), Signature(2, 2, 4, 1, 1)]
    with criterion(
        "8d", "rewriting agrees with the linear-algebra membership oracle (mu <= 15)"
    ):
        rng = random.Random(7)
        for sig in sigs:
            oid, _, spec = _modified_specialized(sig, seed=2)
            assert oid.mu <= 15
            rows, col_of = membership_rows(spec, mult_degree=sig.s + 1 - sig.r)
            base_rank = fraction_rank(rows)
            pool = [
                m for d in range(0, sig.s + 2) for m in monomials_of(sig.n, 1, d)
            ]
            for _ in range(4):
                f = SpanElement(
                    {m: Fraction(rng.randint(-9, 9)) for m in rng.sample(pool, 4)}
                )
                residue = reduce(f, spec)
                certificate = f + residue.scaled(-1)
                # f - reduce(f) is an ideal member: rank does not grow
                assert fraction_rank(rows + [as_dense_row(certificate, col_of)]) == base_rank
                # a nonzero normal form is independent of the ideal slice
                if residue.terms:
                    assert (
                        fraction_rank(rows + [as_dense_row(residue, col_of)])
                        == base_rank + 1
                    )


def test_criterion_8e_variable_powers():
    grid = [sig for sig in small_signatures(6, 6) if build(sig).mu <= 20]
    with criterion(
        "8e",
        f"least ideal powers: front r+1, back s+1, on {len(grid)} signatures",
    ):
        assert len(grid) >= 30
        for sig in grid:
            _, _, spec = _modified_specialized(sig, seed=1)
            for var in range(1, sig.n + 1):
                p = power_in_ideal(spec, var)
                if var < sig.delta:
                    assert p == sig.r + 1, (sig, var, p)
                elif var > sig.delta:
                    assert p == sig.s + 1, (sig, var, p)


def test_criterion_8f_coordinate_tuple_patterns():
    with criterion(
        "8f", "coordinate-tuple zero patterns and independence rank 86"
    ):
        sig = Signature(5, 2, 3, 3, 0)
        oid = build(sig)
        registry = IndeterminateRegistry(oid)
        system = build_generic_modification(oid, registry)
        assignment = random_assignment(registry, seed=3)
        fr = translation_frame(oid)
        leading = {oid.index_of_border[b] for b in oid.leading}
        theta_allowed = {
            (oid.index_of_basis[t], oid.index_of_border[b])
            for b in oid.s_lead
            for t in oid.tar_prime
        } | {
            (oid.index_of_basis[t], oid.index_of_border[b])
            for b in oid.s_deep
            for t in oid.tar_all
        }
        key_slot = key_slots(oid, fr)
        tuples = {}
        point = tangent_point(system, assignment)
        for chi in coordinate_labels(system):
            tup = coordinate_tangent_tuple(system, point, chi)
            tuples[chi] = tup
            positions = tup.nonzero_positions()
            if chi.startswith("C["):
                i, j = (int(p) for p in chi[2:-1].split(","))
                assert positions == [(i, j)] and tup.entry(i, j) == -1
                assert j in leading and oid.basis[i - 1].degree == sig.s
            elif chi.startswith("theta["):
                assert set(positions) <= theta_allowed
        # key components and their cross-zero structure
        i_n, j_n = key_slot[(sig.n, 1)]
        assert tuples[f"Z[{sig.n},1]"].entry(i_n, j_n) == sig.s + 1
        for (a, lam), (i_k, j_k) in key_slot.items():
            if a < sig.delta:
                assert tuples[f"Z[{a},{lam}]"].entry(i_k, j_k) == 1
            for chi, tup in tuples.items():
                if chi.startswith("Z["):
                    a2, lam2 = (int(p) for p in chi[2:-1].split(","))
                    if (a2, lam2) == (a, lam):
                        continue
                    zero_case = (
                        (a2 < sig.delta and a < sig.delta)
                        or (a2 < sig.delta <= a)
                        or (sig.delta <= a2 and sig.delta <= a and a2 != a)
                    )
                    if zero_case:
                        assert tup.entry(i_k, j_k) == 0, (chi, a, lam)
                else:
                    assert tup.entry(i_k, j_k) == 0, (chi, a, lam)
        assert independence_rank(system, assignment) == dim_U(oid) == 86


def test_criterion_9_deterministic_reports():
    with criterion(9, "byte-identical certification reports for equal seeds"):
        dumps = []
        for _ in range(2):
            report = certify(Signature(5, 2, 3, 3, 1), trials=2, seed=5)
            dumps.append(
                json.dumps(report_to_json_dict(report, include_timings=False))
            )
        assert dumps[0] == dumps[1]


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
