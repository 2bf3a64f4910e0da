"""Order-ideal construction, derived sets, blocks, neighbor pairs, and frames."""

from __future__ import annotations

import pytest

from bordercert.monomial import (
    ArgumentError,
    Monomial,
    binomial,
    monomials_of,
    negdeglex_key,
)
from bordercert.orderideal import (
    NeighborPair,
    Signature,
    build,
    gamma_formula,
    shape_to_signature,
    translation_frame,
)

from helpers import basis_of_degree, lex_block, paper_table_signatures, small_signatures


def strs(ms):
    return [str(m) for m in ms]


def mono(*exps):
    return Monomial(exps)


# ------------------------------------------------------------------- goldens


def test_signature_validation():
    with pytest.raises(ArgumentError):
        Signature(1, 2, 3, 1, 0)
    with pytest.raises(ArgumentError):
        Signature(4, 2, 3, 4, 0)  # delta must be < n
    with pytest.raises(ArgumentError):
        Signature(4, 1, 3, 2, 0)  # r >= 2
    with pytest.raises(ArgumentError):
        Signature(4, 3, 3, 2, 0)  # s > r
    with pytest.raises(ArgumentError):
        Signature(4, 3, 4, 2, 3)  # w <= r-1


@pytest.mark.parametrize(
    "fields",
    [(5, 2, 3, 3, 0.5), (5.0, 2, 3, 3, 0), (5, 2, 3, "3", 0), (5, True, 3, 3, 0), (5, 2, 3, 3, None)],
)
def test_signature_rejects_non_integers(fields):
    with pytest.raises(ArgumentError, match="must be an int"):
        Signature(*fields)


def test_build_4_3_4_2_1():
    oid = build(Signature(4, 3, 4, 2, 1))
    assert oid.hilbert == (1, 4, 10, 7, 9)
    b_min = Signature(4, 3, 4, 2, 1).minimal_lead_monomial()
    assert str(b_min) == "x2^2*x4"
    # by definition the minimal lead sits at border index |leading|;
    # 13 of the 20 degree-3 monomials lie at or above it
    assert oid.ell == 13
    assert oid.border[12] == b_min
    assert oid.tau == 9
    assert oid.gamma == 5
    assert strs(oid.tar_double_prime) == ["x2*x3^2", "x2*x3*x4", "x3^3", "x3^2*x4", "x3*x4^2"]


def test_build_3_4_6_2_1():
    oid = build(Signature(3, 4, 6, 2, 1))
    assert strs(oid.s_lead) == ["x2^4", "x2^3*x3"]
    assert strs(oid.s_deep) == ["x2^3*x3^2", "x2^3*x3^3"]
    assert [oid.index_of_border[m] for m in oid.s_lead + oid.s_deep] == [11, 12, 16, 20]
    assert oid.tar_prime == oid.tar_double_prime
    assert oid.gamma == 6
    assert strs(oid.tar_double_prime) == [
        "x2^2*x3^2", "x2*x3^3", "x3^4", "x2^2*x3^3", "x2*x3^4", "x3^5",
    ]


def test_build_5_2_3_3_0():
    oid = build(Signature(5, 2, 3, 3, 0))
    assert oid.ell == 10
    assert oid.tau == 7
    assert oid.hilbert == (1, 5, 5, 7)
    assert oid.mu == 18
    assert oid.border[9] == mono(0, 0, 2, 0, 0)
    assert strs(oid.s_lead) == ["x3^2"]
    assert [oid.index_of_border[m] for m in oid.s_deep] == [21, 22]
    assert oid.gamma == 5


def test_paper_table_hilbert_functions():
    for sig_tuple, (hilbert, _dim) in paper_table_signatures().items():
        oid = build(Signature(*sig_tuple))
        assert oid.hilbert == hilbert
        assert oid.mu == sum(hilbert)


def test_gamma_formula_examples():
    assert gamma_formula(Signature(3, 4, 6, 2, 1)) == 6
    assert gamma_formula(Signature(5, 2, 3, 3, 0)) == 5


def test_shape_to_signature():
    assert shape_to_signature(5, 2, 2, 3) == Signature(5, 2, 3, 3, 1)
    assert shape_to_signature(6, 3, 3, 4) == Signature(6, 3, 4, 3, 2)
    with pytest.raises(ArgumentError):
        shape_to_signature(5, 5, 2, 3)
    # degree-r slice of the converted ideal is the full slice in the last kappa variables
    for n, kappa, r, s in [(5, 2, 2, 3), (4, 2, 2, 4), (6, 3, 3, 4)]:
        sig = shape_to_signature(n, kappa, r, s)
        oid = build(sig)
        assert list(basis_of_degree(oid, r)) == monomials_of(n, n - kappa + 1, r)


# -------------------------------------------------------- structural oracles


def test_basis_is_downward_closed_and_sorted():
    for sig in small_signatures(5, 5):
        oid = build(sig)
        basis_set = set(oid.basis)
        assert list(oid.basis) == sorted(oid.basis, key=negdeglex_key)
        assert list(oid.border) == sorted(oid.border, key=negdeglex_key)
        for t in oid.basis:
            for k in range(1, sig.n + 1):
                if t.var_degree(k):
                    assert t.div_var(k) in basis_set


def test_border_definition_and_divisor_property():
    for sig in small_signatures(4, 5):
        oid = build(sig)
        basis_set = set(oid.basis)
        expected = set()
        for t in oid.basis:
            for k in range(1, sig.n + 1):
                m = t.mul_var(k)
                if m not in basis_set:
                    expected.add(m)
        assert set(oid.border) == expected
        for b in oid.border:
            assert any(
                b.var_degree(k) and b.div_var(k) in basis_set for k in range(1, sig.n + 1)
            )


def test_degree_slices_match_block_unions():
    # the degree-d basis monomials (r <= d <= s) tile into the last d-r+w+1.. d blocks
    for sig in small_signatures(5, 5):
        oid = build(sig)
        for d in range(sig.r, sig.s + 1):
            blocks = [
                m
                for e in range(d - sig.r + sig.w + 1, d + 1)
                for m in lex_block(sig.n, sig.delta, d, e)
            ]
            assert list(basis_of_degree(oid, d)) == blocks


def test_hilbert_closed_form():
    for sig in small_signatures(5, 5):
        oid = build(sig)
        n, r, s, delta, w = sig.n, sig.r, sig.s, sig.delta, sig.w
        for d, value in enumerate(oid.hilbert):
            if d < r:
                assert value == binomial(d + n - 1, d)
            else:
                assert value == sum(
                    binomial(e + n - delta - 1, e) for e in range(d - r + w + 1, d + 1)
                )


def test_back_variable_closure():
    for sig in small_signatures(5, 5):
        oid = build(sig)
        basis_set = set(oid.basis)
        for t in oid.basis:
            if sig.r <= t.degree < sig.s:
                for alpha in range(sig.delta + 1, sig.n + 1):
                    assert t.mul_var(alpha) in basis_set


def test_deep_target_triple_characterization():
    for sig in small_signatures(6, 6):
        oid = build(sig)
        n, r, s, delta, w = sig.n, sig.r, sig.s, sig.delta, sig.w
        by_border = set(oid.s_deep)
        by_blocks = {
            m
            for d in range(r + 1, s + 1)
            for m in lex_block(n, delta, d, w + d - r)
        }
        lead_block = lex_block(n, delta, r, w)
        by_products = {
            m.mul(b)
            for b in lead_block
            for dd in range(1, s - r + 1)
            for m in monomials_of(n, delta + 1, dd)
        }
        assert by_border == by_blocks == by_products


def test_lead_targets_are_the_lead_blocks():
    for sig in small_signatures(5, 5):
        oid = build(sig)
        blocks = [
            m
            for e in range(0, sig.w + 1)
            for m in lex_block(sig.n, sig.delta, sig.r, e)
        ]
        assert list(oid.s_lead) == blocks


def test_untargeted_border_characterization():
    # a border monomial carries no target iff it has top degree s+1 or a front variable divides it
    for sig in small_signatures(5, 5):
        oid = build(sig)
        targeted = set(oid.s_lead) | set(oid.s_deep)
        for b in oid.border:
            outside = b.degree == sig.s + 1 or any(
                b.var_degree(k) for k in range(1, sig.delta)
            )
            assert (b not in targeted) == outside


def test_gamma_formula_matches_enumeration():
    for sig in small_signatures(5, 5):
        assert gamma_formula(sig) == build(sig).gamma


def test_border_degree_range_and_counts():
    for sig in small_signatures(4, 5):
        oid = build(sig)
        degrees = sorted({b.degree for b in oid.border})
        assert degrees[0] == sig.r
        assert degrees[-1] == sig.s + 1
        assert oid.ell == len([b for b in oid.border if b.degree == sig.r])


# ------------------------------------------------------------ neighbor pairs


def brute_force_pairs(oid):
    """O(nu^2 * n^2) double loop over all border pairs and variable products."""
    n = oid.signature.n
    times = [[None] + [b.mul_var(k) for k in range(1, n + 1)] for b in oid.border]
    pairs = set()
    for j1, row1 in enumerate(times, start=1):
        for j2, row2 in enumerate(times, start=1):
            b2 = oid.border[j2 - 1]
            for alpha in range(1, n + 1):
                if row1[alpha] == b2:
                    pairs.add((j1, j2, alpha, 0))
                if j1 < j2:
                    for beta in range(1, n + 1):
                        if beta != alpha and row1[alpha] == row2[beta]:
                            pairs.add((j1, j2, alpha, beta))
    return pairs


def test_neighbor_pairs_match_brute_force():
    sigs = small_signatures(4, 6) + [sig for sig in small_signatures(5, 4) if sig.n == 5]
    assert len(sigs) == 208
    for sig in sigs:
        oid = build(sig)
        got = {(p.j1, p.j2, p.alpha, p.beta) for p in oid.neighbor_pairs}
        assert got == brute_force_pairs(oid), sig


def test_neighbor_pair_is_a_named_tuple():
    p = build(Signature(3, 4, 6, 2, 1)).neighbor_pairs[0]
    assert repr(NeighborPair(1, 2, 2, 1)) == "NeighborPair(j1=1, j2=2, alpha=2, beta=1)"
    assert tuple(p) == (p.j1, p.j2, p.alpha, p.beta)


def test_products_locate_every_variable_multiple():
    for sig in small_signatures(4, 5):
        oid = build(sig)
        n = sig.n
        products = oid.products
        assert len(products) == oid.mu + 1 and products[0] == ()
        for i, t in enumerate(oid.basis, start=1):
            assert len(products[i]) == n + 1
            assert products[i][0] == i
            for k in range(1, n + 1):
                m = t.mul_var(k)
                want = oid.index_of_basis.get(m) or -oid.index_of_border[m]
                assert products[i][k] == want, (sig, i, k)


def test_neighbor_pairs_examples_and_order():
    oid = build(Signature(3, 4, 6, 2, 1))
    pairs = oid.neighbor_pairs
    j_a, j_b = oid.index_of_border[mono(0, 4, 0)], oid.index_of_border[mono(0, 3, 1)]
    assert any(p.j1 == j_a and p.j2 == j_b and p.alpha == 3 and p.beta == 2 for p in pairs)
    j_c = oid.index_of_border[mono(0, 3, 2)]
    assert any(p.j1 == j_b and p.j2 == j_c and p.alpha == 3 and p.beta == 0 for p in pairs)
    keys = [(p.j1, p.j2, p.alpha, p.beta) for p in pairs]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))
    for p in pairs:
        assert p.j1 < p.j2
        b1, b2 = oid.border[p.j1 - 1], oid.border[p.j2 - 1]
        if p.beta == 0:
            assert b1.mul_var(p.alpha) == b2
        else:
            assert b1.mul_var(p.alpha) == b2.mul_var(p.beta)


# -------------------------------------------------------------------- frames


def test_translation_frame_5_2_3_3_0():
    oid = build(Signature(5, 2, 3, 3, 0))
    fr = translation_frame(oid)
    assert fr.eta == 4
    assert strs(fr.delta_sets[1]) == ["1", "x3", "x4", "x5"]
    assert fr.delta_sets[1] == fr.delta_sets[2]
    assert strs(fr.delta_sets[3]) == strs(fr.delta_sets[4]) == strs(fr.delta_sets[5]) == ["1"]
    assert str(fr.anchors[1]) == "x1*x5"
    assert str(fr.anchors[2]) == "x2*x5"
    assert str(fr.anchors[3]) == "x3*x5^3"
    assert str(fr.anchors[5]) == "x5^4"


def test_translation_frame_is_built_once_per_order_ideal():
    oid = build(Signature(5, 2, 3, 3, 0))
    fr = translation_frame(oid)
    assert translation_frame(oid) is fr
    assert all(type(shifts) is tuple for shifts in fr.delta_sets.values())
    assert translation_frame(build(oid.signature)) is not fr


def test_translation_frame_is_read_only():
    """The frame is shared, so a write to it must not reach a later caller."""
    oid = build(Signature(5, 2, 3, 3, 0))
    fr = translation_frame(oid)
    with pytest.raises(TypeError):
        fr.delta_sets[1] = ()
    with pytest.raises(TypeError):
        del fr.delta_sets[1]
    with pytest.raises(TypeError):
        fr.anchors[1] = fr.anchors[2]
    assert len(translation_frame(oid).labels()) == 11
    assert str(translation_frame(oid).anchors[1]) == "x1*x5"


def test_translation_frame_5_2_3_3_1():
    oid = build(Signature(5, 2, 3, 3, 1))
    fr = translation_frame(oid)
    assert fr.eta == 3
    assert strs(fr.delta_sets[1]) == ["1", "x4", "x5"]


def test_translation_frame_no_front_variables():
    oid = build(Signature(3, 2, 4, 1, 1))
    fr = translation_frame(oid)
    assert fr.eta == 0
    assert set(fr.delta_sets) == {1, 2, 3}
    assert all(strs(fr.delta_sets[a]) == ["1"] for a in fr.delta_sets)


def test_translation_frame_structure_on_grid():
    for sig in small_signatures(4, 5):
        oid = build(sig)
        fr = translation_frame(oid)
        border_set = set(oid.border)
        tar_prime_set = set(oid.tar_prime)
        x_top = Monomial.variable(sig.n, sig.n, sig.r - 1)
        for alpha, anchor in fr.anchors.items():
            assert anchor in border_set
            if alpha < sig.delta:
                assert anchor == x_top.mul_var(alpha)
            else:
                assert anchor == Monomial.variable(sig.n, sig.n, sig.s).mul_var(alpha)
        for alpha in range(1, sig.delta):
            ds = fr.delta_sets[alpha]
            assert ds[0] == Monomial.unit(sig.n)
            assert list(ds) == sorted(ds, key=negdeglex_key)
            assert len(ds) == fr.eta
            for pos, m in enumerate(ds):
                prod = m.mul(x_top)
                assert prod == x_top or prod in tar_prime_set
                # the shift over its last variable comes earlier: the
                # translation tuples are walked from it
                if pos:
                    last = max(k for k in range(1, sig.n + 1) if m.var_degree(k))
                    assert m.div_var(last) in ds[:pos]
            # completeness: no other monomial in the last variables qualifies
            for d in range(0, sig.s - sig.r + 1):
                for m in monomials_of(sig.n, sig.delta, d):
                    prod = m.mul(x_top)
                    assert (m in ds) == (prod == x_top or prod in tar_prime_set)
