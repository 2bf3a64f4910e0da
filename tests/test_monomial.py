"""Monomial arithmetic, the two term orders, and degree slices."""

from __future__ import annotations

import math
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bordercert.monomial import (
    ArgumentError,
    Monomial,
    binomial,
    cmp_lex,
    monomials_of,
    negdeglex_key,
)
from helpers import cmp_negdeglex, count_monomials, lex_block, lex_key, min_variable


def mono(*exps):
    return Monomial(exps)


def strs(ms):
    return [str(m) for m in ms]


# ---------------------------------------------------------------- arithmetic


def test_basic_arithmetic():
    a = mono(1, 2, 0)
    b = mono(0, 1, 3)
    assert str(a.mul(b)) == "x1*x2^3*x3^3"
    assert a.try_div(mono(1, 0, 0)) == mono(0, 2, 0)
    assert a.try_div(b) is None
    assert a.var_degree(2) == 2
    assert a.degree == 3
    assert str(Monomial.unit(3)) == "1"
    assert str(Monomial.variable(4, 3, 2)) == "x3^2"
    assert mono(0, 1, 1).divides(mono(1, 1, 2))
    assert not mono(0, 2, 0).divides(mono(1, 1, 2))
    assert min_variable(mono(2, 1, 0)) == 1
    assert min_variable(mono(0, 0, 0)) == 0


def test_arithmetic_errors():
    with pytest.raises(ArgumentError):
        mono(1, 0).mul(mono(1, 0, 0))
    with pytest.raises(ArgumentError):
        cmp_lex(mono(1, 0), mono(1, 0, 0))
    with pytest.raises(ArgumentError):
        mono(1, 1).divides(mono(1))
    with pytest.raises(ArgumentError):
        mono(1).divides(mono(2, 0))
    with pytest.raises(ArgumentError):
        Monomial((-1, 0))
    with pytest.raises(ArgumentError):
        mono(0, 1).div_var(1)
    for call in (
        lambda: mono(1, 2).mul_var(0),
        lambda: mono(1, 2).mul_var(3),
        lambda: mono(1, 2).div_var(0),
        lambda: mono(1, 2).div_var(3),
    ):
        with pytest.raises(ArgumentError, match="out of range 1..2"):
            call()


# --------------------------------------------------------------- term orders


def test_lex_examples():
    assert cmp_lex(mono(0, 1, 1, 0), mono(0, 1, 0, 1)) == 1  # x2x3 > x2x4
    assert cmp_lex(mono(0, 1, 0, 1), mono(0, 1, 1, 0)) == -1
    assert cmp_lex(mono(0, 1, 1, 0), mono(0, 1, 1, 0)) == 0
    assert cmp_lex(mono(1, 0, 0), mono(0, 5, 5)) == 1  # x1 beats any x1-free monomial


def test_negdeglex_examples():
    assert cmp_negdeglex(mono(0, 2, 0, 0), mono(0, 1, 1, 0)) == -1  # x2^2 precedes x2x3
    assert cmp_negdeglex(mono(0, 1, 0, 1), mono(0, 0, 2, 0)) == -1  # x2x4 precedes x3^2
    assert cmp_negdeglex(mono(0, 1, 0), mono(0, 1, 1)) == -1  # lower degree first
    assert cmp_negdeglex(mono(0, 1, 1), mono(0, 1, 0)) == 1


def _random_monomials(draw_n):
    n = draw_n
    return st.tuples(*([st.integers(0, 5)] * n)).map(Monomial)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(2, 5).flatmap(lambda n: st.tuples(_random_monomials(n), _random_monomials(n), _random_monomials(n))))
def test_orders_are_total_orders(ms):
    a, b, c = ms
    for cmp in (cmp_lex, cmp_negdeglex):
        assert cmp(a, b) == -cmp(b, a)
        assert (cmp(a, b) == 0) == (a == b)
        # transitivity on the sorted triple
        x, y, z = sorted([a, b, c], key=negdeglex_key if cmp is cmp_negdeglex else lex_key)
        assert cmp(x, y) <= 0 and cmp(y, z) <= 0 and cmp(x, z) <= 0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(_random_monomials(n), _random_monomials(n))))
def test_negdeglex_refines_degree_and_matches_keys(ms):
    a, b = ms
    c = cmp_negdeglex(a, b)
    if a.degree != b.degree:
        assert c == (-1 if a.degree < b.degree else 1)
    else:
        assert c == -cmp_lex(a, b)
    assert (negdeglex_key(a) < negdeglex_key(b)) == (c == -1)


# -------------------------------------------------------------- degree slices


def test_monomials_of_examples():
    assert strs(monomials_of(4, 2, 2)) == ["x2^2", "x2*x3", "x2*x4", "x3^2", "x3*x4", "x4^2"]
    assert strs(monomials_of(5, 4, 3)) == ["x4^3", "x4^2*x5", "x4*x5^2", "x5^3"]
    assert strs(monomials_of(3, 1, 0)) == ["1"]


def test_monomials_of_is_sorted_and_complete():
    for n, k, d in product(range(1, 5), range(1, 5), range(0, 5)):
        if k > n:
            continue
        ms = monomials_of(n, k, d)
        assert len(ms) == len(set(ms)) == count_monomials(n, k, d)
        assert len(ms) == math.comb(d + (n - k), d)
        assert ms == sorted(ms, key=negdeglex_key)
        for m in ms:
            assert m.degree == d
            assert all(e == 0 for e in m.exps[: k - 1])


def test_segments_tile_each_slice():
    """The blocks of a degree slice found from their lex bounds, taken for
    x_k exponents d, d-1, ..., 0, tile the slice in negdeglex order."""
    for n, k, d in product(range(2, 6), range(1, 5), range(1, 5)):
        if k >= n:
            continue
        tiled = [m for e in range(0, d + 1) for m in lex_block(n, k, d, e)]
        assert tiled == monomials_of(n, k, d)


def test_segments_are_contiguous_in_negdeglex():
    for n, k, d in product(range(2, 5), range(1, 4), range(2, 6)):
        if k >= n:
            continue
        slice_ms = monomials_of(n, k, d)
        pos = {m: i for i, m in enumerate(slice_ms)}
        for e in range(0, d + 1):
            block = lex_block(n, k, d, e)
            assert all(m.exps[k - 1] == d - e for m in block)
            positions = [pos[m] for m in block]
            assert positions == list(range(positions[0], positions[0] + len(block)))


# ------------------------------------------------------------------ binomial


def test_binomial_conventions():
    assert binomial(-1, 0) == 1
    assert binomial(5, 0) == 1
    assert binomial(-1, 1) == 0
    assert binomial(3, -1) == 0
    assert binomial(2, 5) == 0
    assert binomial(6, 2) == 15
    for u in range(1, 6):
        assert binomial(u - 1, u) == 0
