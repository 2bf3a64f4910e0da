"""Tests for the three-step target assignment and the modified system.

The two golden dump files were checked line by line against hand-computed
values: every coefficient of the (3,4,6,2,1) target of b[11] was derived by
expanding reduce(x2 * target(b[12])) manually and dividing by x3.
"""

import hashlib
import re
from pathlib import Path

import pytest

from bordercert import modification
from bordercert.borderbasis import SpanElement, generic_distinguished, is_border_basis
from bordercert.coeffring import CoeffPoly, IndeterminateRegistry
from bordercert.modification import (
    _deep_factorization,
    _lead_block,
    _propagated,
    _validate_targets,
    build_generic_modification,
    build_targets,
    install_targets,
    render_targets,
    step1,
    step2,
    step3,
)
from bordercert.monomial import ArgumentError, InternalInvariantError, Monomial
from bordercert.orderideal import Signature, build
from helpers import (
    deep_factorization_reference,
    lex_block,
    min_variable,
    small_signatures,
    tail_span,
    target_span,
)

GOLDEN = Path(__file__).parent / "golden"


def _theta(reg, q):
    return CoeffPoly.indeterminate(reg, reg.theta_id(q))


def test_lead_blocks_tile_s_lead_in_order():
    """Blocks 0..w of `oid.s_lead` are nonempty, equal the blocks found from
    their lex bounds, and in that order are contiguous runs tiling s_lead."""
    for sig in small_signatures(6, 6):
        oid = build(sig)
        blocks = [_lead_block(oid, e) for e in range(sig.w + 1)]
        for e, block in enumerate(blocks):
            assert block and block == lex_block(sig.n, sig.delta, sig.r, e), (sig, e)
        assert [m for block in blocks for m in block] == list(oid.s_lead), sig


def test_step1_seeds_the_top_block():
    oid = build(Signature(3, 4, 6, 2, 1))
    reg = IndeterminateRegistry(oid)
    tm = step1(oid, reg)
    # the only degree-4 block with depth w=1 is the singleton {x2^3*x3}
    assert set(tm) == {12}
    expected = SpanElement(
        {
            Monomial((0, 2, 2)): _theta(reg, 1),
            Monomial((0, 1, 3)): _theta(reg, 2),
            Monomial((0, 0, 4)): _theta(reg, 3),
            Monomial((0, 2, 3)): _theta(reg, 4),
            Monomial((0, 1, 4)): _theta(reg, 5),
            Monomial((0, 0, 5)): _theta(reg, 6),
        }
    )
    assert target_span(oid, tm[12]) == expected


def test_step1_spreads_across_a_wider_block():
    # (5,2,3,3,0): the top degree-2 block is all of degree-2 in x3..x5
    oid = build(Signature(5, 2, 3, 3, 0))
    reg = IndeterminateRegistry(oid)
    tm = step1(oid, reg)
    indices = sorted(tm)
    assert indices == [oid.index_of_border[m] for m in oid.s_lead]
    assert len(indices) == 1  # w=0: block {x3^2 >= m >= x3^2}
    seeded = target_span(oid, tm[oid.index_of_border[Monomial((0, 0, 2, 0, 0))]])
    assert seeded == SpanElement(
        {
            Monomial((0, 0, 1, 1, 0)): _theta(reg, 1),
            Monomial((0, 0, 1, 0, 1)): _theta(reg, 2),
            Monomial((0, 0, 0, 2, 0)): _theta(reg, 3),
            Monomial((0, 0, 0, 1, 1)): _theta(reg, 4),
            Monomial((0, 0, 0, 0, 2)): _theta(reg, 5),
        }
    )


def test_step2_multiplies_and_truncates():
    oid = build(Signature(3, 4, 6, 2, 1))
    reg = IndeterminateRegistry(oid)
    tm = step2(oid, step1(oid, reg))
    # b[20] = x2^3*x3^3 = x3^2 * b[12]; degree-7 products are dropped
    assert target_span(oid, tm[20]) == SpanElement(
        {
            Monomial((0, 2, 4)): _theta(reg, 1),
            Monomial((0, 1, 5)): _theta(reg, 2),
            Monomial((0, 0, 6)): _theta(reg, 3),
        }
    )
    # b[16] = x2^3*x3^2 keeps all six shifted terms
    assert len(tm[16]) == 6
    assert set(tm) == {12, 16, 20}


def test_step2_requires_step1():
    oid = build(Signature(3, 4, 6, 2, 1))
    with pytest.raises(ArgumentError):
        step2(oid, {})


def test_step3_reduce_and_divide_golden():
    """The filled-in target of b[11] = x2^4 in the (3,4,6,2,1) system."""
    oid = build(Signature(3, 4, 6, 2, 1))
    reg = IndeterminateRegistry(oid)
    tm = step2(oid, step1(oid, reg))
    sys_partial = install_targets(generic_distinguished(oid, reg), tm)
    tm = step3(oid, tm, sys_partial)
    t = [None] + [_theta(reg, q) for q in range(1, 7)]
    two = CoeffPoly.constant(reg, 2)
    expected = SpanElement(
        {
            Monomial((0, 2, 2)): t[2] - t[1] * t[1],
            Monomial((0, 1, 3)): t[3] - t[1] * t[2],
            Monomial((0, 0, 4)): -(t[1] * t[3]),
            Monomial((0, 2, 3)): t[5] - two * t[1] * t[4],
            Monomial((0, 1, 4)): t[6] - t[1] * t[5] - t[2] * t[4],
            Monomial((0, 0, 5)): -(t[1] * t[6]) - t[3] * t[4],
        }
    )
    assert target_span(oid, tm[11]) == expected


def test_step3_requires_earlier_steps():
    oid = build(Signature(3, 4, 6, 2, 1))
    reg = IndeterminateRegistry(oid)
    with pytest.raises(ArgumentError):
        step3(oid, {}, generic_distinguished(oid, reg))


def test_step3_is_a_no_op_for_zero_block_depth():
    oid = build(Signature(5, 2, 3, 3, 0))
    reg = IndeterminateRegistry(oid)
    tm = step2(oid, step1(oid, reg))
    sys_partial = install_targets(generic_distinguished(oid, reg), tm)
    assert step3(oid, tm, sys_partial) == tm


def test_deep_factorization_is_choice_independent():
    """Every admissible split of a deep target monomial gives the same target."""
    for sig in (Signature(4, 2, 4, 2, 1), Signature(5, 2, 3, 3, 0)):
        oid = build(sig)
        tm = build_targets(oid)
        middle_power = Monomial.variable(sig.n, sig.delta, sig.r - sig.w)
        top_block = [m for m in oid.s_lead if m.var_degree(sig.delta) == sig.r - sig.w]
        checked = 0
        for b in oid.s_deep:
            target = target_span(oid, tm[oid.index_of_border[b]])
            for src in top_block:
                m_prime = b.try_div(src)
                if m_prime is None or min_variable(m_prime) <= sig.delta:
                    continue
                source = target_span(oid, tm[oid.index_of_border[src]])
                shifted = source.monomial_multiple(m_prime)
                truncated = SpanElement(
                    {t: c for t, c in shifted.terms.items() if t.degree <= sig.s}
                )
                assert truncated == target
                checked += 1
        assert checked >= len(oid.s_deep)


def test_deep_factorization_matches_the_listing_rule():
    """The split filled from x_n upward is the last of all listed divisors."""
    checked = 0
    for sig in small_signatures(6, 6):
        oid = build(sig)
        for b in oid.s_deep:
            assert _deep_factorization(oid, b) == deep_factorization_reference(oid, b), (sig, b)
            checked += 1
    assert checked > 6000


def test_deep_targets_transport_along_paths():
    """Within one degree slice each deep target is the top's target times b / top, an exact division."""
    for sig in (Signature(5, 2, 3, 3, 0), Signature(4, 2, 4, 2, 1), Signature(3, 4, 6, 2, 1)):
        oid = build(sig)
        tm = build_targets(oid)
        by_degree = {}
        for b in oid.s_deep:
            by_degree.setdefault(b.degree, []).append(b)
        for block in by_degree.values():
            top = block[0]
            for b in block[1:]:
                moved = {}
                for t, c in target_span(oid, tm[oid.index_of_border[top]]).terms.items():
                    q = t.mul(b).try_div(top)
                    assert q is not None
                    moved[q] = c
                assert SpanElement(moved) == target_span(oid, tm[oid.index_of_border[b]])


def test_target_invariants_across_grid():
    sample = [
        sig
        for sig in small_signatures(n_max=4, s_max=5)
        if sig.n >= 3
    ][::3] + [Signature(5, 2, 3, 3, 0), Signature(5, 2, 3, 3, 1)]
    for sig in sample:
        oid = build(sig)
        reg = IndeterminateRegistry(oid)
        tm = build_targets(oid, reg)  # internal validation runs here
        targeted = {oid.index_of_border[m] for m in oid.s_lead}
        targeted |= {oid.index_of_border[m] for m in oid.s_deep}
        assert set(tm) == targeted
        pool_prime = set(oid.tar_prime)
        for m in oid.s_lead:
            target = target_span(oid, tm[oid.index_of_border[m]])
            for t, c in target.terms.items():
                assert t in pool_prime
                assert c.indeterminates() <= {
                    reg.theta_id(q) for q in range(1, oid.gamma + 1)
                }
        for m in oid.s_deep:
            target = target_span(oid, tm[oid.index_of_border[m]])
            for t in target.terms:
                assert m.degree <= t.degree <= sig.s
                assert t in set(oid.tar_all)


def test_block_depth_divisibility():
    """The first back variable divides each block-top target to the block depth."""
    sig = Signature(3, 4, 6, 2, 1)
    oid = build(sig)
    tm = build_targets(oid)
    for m in oid.s_lead:
        e = sig.r - m.var_degree(sig.delta)  # depth of the block m heads
        target = target_span(oid, tm[oid.index_of_border[m]])
        for t in target.terms:
            assert t.var_degree(sig.delta + 1) >= e


def test_modified_system_tail_shape():
    sig = Signature(3, 4, 6, 2, 1)
    oid = build(sig)
    reg = IndeterminateRegistry(oid)
    sys = build_generic_modification(oid, reg)
    tm = build_targets(oid, reg)

    trailing = {oid.index_of_basis[t] for t in oid.trailing}
    # the seeded generator: minus-theta on the seed pool, plain C elsewhere
    tail12 = sys.tails[11]
    for q, t in enumerate(oid.tar_double_prime, start=1):
        assert tail12[oid.index_of_basis[t]] == -_theta(reg, q)
    for i in trailing:
        assert str(tail12[i]) == f"C[{i},12]"
    # a deep generator is not a leading one: pure minus-target tail
    tail16 = sys.tails[15]
    deep_target = target_span(oid, tm[16])
    assert set(tail16) == {oid.index_of_basis[t] for t in deep_target.terms}
    for t, c in deep_target.terms.items():
        assert tail16[oid.index_of_basis[t]] == -c
    # an untargeted border generator keeps an empty tail
    untargeted = [
        j
        for j in range(1, oid.nu + 1)
        if oid.border[j - 1] not in set(oid.s_lead) | set(oid.s_deep)
        and oid.border[j - 1] not in set(oid.leading)
    ]
    for j in untargeted:
        assert sys.tails[j - 1] == {}
    # no tail coefficient carries a constant term
    for j in range(1, oid.nu + 1):
        for c in sys.tails[j - 1].values():
            assert c.constant_term == 0


def test_modified_system_is_a_border_basis_symbolically():
    # the two systems of the `verify` benchmark workload, with its tail-term counts
    tail_terms = {Signature(6, 2, 5, 1, 1): 3291, Signature(6, 4, 5, 1, 1): 2801}
    for sig in (
        Signature(3, 2, 3, 2, 1),
        Signature(3, 4, 6, 2, 1),
        Signature(4, 2, 3, 2, 1),
        Signature(4, 3, 4, 3, 2),
        Signature(5, 2, 3, 3, 0),
        Signature(3, 2, 4, 1, 1),
        Signature(4, 3, 4, 2, 1),
        *tail_terms,
    ):
        sys = build_generic_modification(build(sig))
        ok, failures = is_border_basis(sys)
        assert ok, (sig, failures[:1])
        if sig in tail_terms:
            assert sys.total_tail_terms() == tail_terms[sig], sig


def test_planted_target_faults_raise_invariant_errors(monkeypatch):
    """Each broken modification invariant raises `InternalInvariantError`."""
    oid = build(Signature(3, 4, 6, 2, 1))
    reg = IndeterminateRegistry(oid)
    tm = build_targets(oid, reg)
    lead, deep = oid.index_of_border[oid.s_lead[0]], oid.index_of_border[oid.s_deep[0]]

    def planted(j, i, c):
        faulty = dict(tm)
        faulty[j] = {**tm[j], i: c}
        _validate_targets(oid, faulty, reg)

    with pytest.raises(InternalInvariantError, match="outside"):
        planted(lead, oid.index_of_basis[oid.trailing[-1]], _theta(reg, 1))  # degree s
    with pytest.raises(InternalInvariantError, match="outside"):
        planted(deep, oid.index_of_basis[oid.tar_prime[0]], _theta(reg, 1))  # degree r
    c_slot = CoeffPoly.indeterminate(reg, 0)  # C[i,j] of the first tail slot
    with pytest.raises(InternalInvariantError, match="only theta"):
        planted(lead, next(iter(tm[lead])), _theta(reg, 1) + c_slot)

    # a source term whose move leaves the basis, and one whose move is no division
    top, other = oid.s_lead[1], oid.s_lead[0]  # x2^3*x3 moved to x2^4
    for t in (Monomial((0, 2, 2)), Monomial((1, 0, 0))):
        with pytest.raises(InternalInvariantError, match="does not move"):
            _propagated(oid, [top, other], {oid.index_of_basis[t]: _theta(reg, 1)})

    # an m' carrying x1 sends the step-2 walk onto a border code
    split = modification._deep_factorization

    def split_with_x1(oid, b):
        m_prime, b_src = split(oid, b)
        return m_prime.mul_var(1), b_src

    monkeypatch.setattr(modification, "_deep_factorization", split_with_x1)
    with pytest.raises(InternalInvariantError, match="leaves the basis"):
        build_targets(oid, reg)


def test_render_targets_golden_files():
    for sig, name in [
        (Signature(3, 4, 6, 2, 1), "modify_3_4_6_2_1.txt"),
        (Signature(5, 2, 3, 3, 0), "modify_5_2_3_3_0.txt"),
    ]:
        oid = build(sig)
        text = render_targets(oid, build_targets(oid)) + "\n"
        assert text == (GOLDEN / name).read_text()


def test_render_targets_format():
    oid = build(Signature(4, 2, 4, 2, 1))
    text = render_targets(oid, build_targets(oid))
    lines = text.splitlines()
    js = []
    for line in lines:
        m = re.fullmatch(r"Upsilon\(b\[(\d+)\]\) = .+", line)
        assert m, line
        js.append(int(m.group(1)))
    assert js == sorted(js)


def test_target_assignment_digest():
    """Every target and every generic tail over small_signatures(5, 5), pinned
    by one SHA-256 digest of `render_targets` and the sorted tail strings."""
    digest = hashlib.sha256()
    for sig in small_signatures(5, 5):
        oid = build(sig)
        reg = IndeterminateRegistry(oid)
        system = build_generic_modification(oid, reg)
        digest.update(f"{sig}\n{render_targets(oid, build_targets(oid, reg))}\n".encode())
        tails = sorted(str(tail_span(system, j)) for j in range(1, oid.nu + 1))
        digest.update("\n".join(tails).encode())
    assert digest.hexdigest() == (
        "60c267d605d993a4ae2ca10067e20003efaaf9eb96828d51009f7d12ead1d944"
    )
