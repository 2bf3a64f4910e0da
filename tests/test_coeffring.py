"""Tests for the coefficient arithmetic layer."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bordercert.borderbasis import generic_distinguished
from bordercert.coeffring import (
    CoeffPoly,
    IndeterminateRegistry,
    _integer_assignment,
)
from bordercert.monomial import ArgumentError
from bordercert.orderideal import Signature, build


@pytest.fixture(scope="module")
def registry():
    return IndeterminateRegistry(build(Signature(5, 2, 3, 3, 0)))


def test_registry_names_and_sizes(registry):
    oid = build(Signature(5, 2, 3, 3, 0))
    assert len(registry) == oid.ell * oid.tau + oid.gamma == 75
    # tail slots grouped by leading border index, trailing basis index inside
    assert registry.names[:8] == [
        "C[12,1]",
        "C[13,1]",
        "C[14,1]",
        "C[15,1]",
        "C[16,1]",
        "C[17,1]",
        "C[18,1]",
        "C[12,2]",
    ]
    assert registry.names[-5:] == [f"theta[{q}]" for q in range(1, 6)]
    # the tail slots name the C[i,j], give their ids and place them in the tails
    tails = generic_distinguished(oid, registry).tails
    assert len(registry.tail_slots) == oid.ell * oid.tau
    for k, (i, j) in enumerate(registry.tail_slots):
        assert registry.names[k] == f"C[{i},{j}]"
        assert registry.id_of(f"C[{i},{j}]") == k
        assert tails[j - 1][i] == CoeffPoly.indeterminate(registry, k)
    assert registry.names[registry.id_of("C[14,3]")] == "C[14,3]"
    assert registry.names[registry.theta_id(2)] == "theta[2]"
    assert registry.id_of("C[12,1]") == 0
    with pytest.raises(ArgumentError):
        registry.id_of("C[1,1]")
    with pytest.raises(ArgumentError):
        registry.theta_id(6)
    with pytest.raises(ArgumentError):
        registry.id_of("C[99,99]")


def _poly_strategy(registry):
    ind_ids = st.integers(min_value=0, max_value=len(registry) - 1)
    coeff = st.integers(min_value=-9, max_value=9)

    def build_poly(parts):
        total = CoeffPoly.zero(registry)
        for c, ids in parts:
            term = CoeffPoly.constant(registry, c)
            for i in ids:
                term = term * CoeffPoly.indeterminate(registry, i)
            total = total + term
        return total

    parts = st.lists(
        st.tuples(coeff, st.lists(ind_ids, max_size=3)), max_size=4
    )
    return parts.map(build_poly)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.data())
def test_ring_axioms(registry, data):
    polys = _poly_strategy(registry)
    p, q, r = data.draw(polys), data.draw(polys), data.draw(polys)
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p - p == CoeffPoly.zero(registry)
    one = CoeffPoly.constant(registry, 1)
    assert p * one == p


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_specialize_is_a_ring_homomorphism(registry, data):
    polys = _poly_strategy(registry)
    p, q = data.draw(polys), data.draw(polys)
    values = {
        i: data.draw(st.integers(min_value=-7, max_value=7))
        for i in range(len(registry))
    }
    assert (p + q).integer_value(values) == p.integer_value(values) + q.integer_value(values)
    assert (p * q).integer_value(values) == p.integer_value(values) * q.integer_value(values)


def test_specialize_by_name_and_missing_value(registry):
    full = {name: 1 for name in registry.names}
    values = _integer_assignment(registry, {**full, "theta[1]": 2})
    assert values[registry.theta_id(1)] == 2
    values = _integer_assignment(registry, {**full, registry.theta_id(1): Fraction(6, 3)})
    assert values[registry.theta_id(1)] == 2 and type(values[registry.theta_id(1)]) is int
    for bad in (Fraction(3, 2), 1.5, "2"):
        with pytest.raises(ArgumentError, match=r"theta\[1\]"):
            _integer_assignment(registry, {**full, "theta[1]": bad})
    del full["theta[2]"]
    with pytest.raises(ArgumentError, match=r"theta\[2\]"):
        _integer_assignment(registry, full)


def test_assignment_rejects_keys_outside_the_registry(registry):
    full = {i: 1 for i in range(len(registry))}
    beyond = len(registry) + 5
    for key, value in ((beyond, 1), (-1, 1), (beyond, Fraction(1, 2)), ("X[1]", 1)):
        with pytest.raises(ArgumentError, match=re.escape(repr(key))):
            _integer_assignment(registry, {**full, key: value})


def test_scalars_must_be_integers(registry):
    p = CoeffPoly.indeterminate(registry, registry.theta_id(1))
    for bad in (Fraction(1, 2), 0.5):
        with pytest.raises(ArgumentError):
            CoeffPoly.constant(registry, bad)
        with pytest.raises(ArgumentError):
            p * bad
        with pytest.raises(ArgumentError):
            bad * p
        with pytest.raises(ArgumentError):
            p == bad


def test_constant_term_degree_indeterminates(registry):
    t1 = CoeffPoly.indeterminate(registry, registry.theta_id(1))
    c = CoeffPoly.indeterminate(registry, registry.id_of("C[12,1]"))
    p = CoeffPoly.constant(registry, 5) + t1 * t1 * c
    assert p.constant_term == 5
    assert max(sum(e for _, e in key) for key in p.terms) == 3
    assert p.indeterminates() == {registry.theta_id(1), registry.id_of("C[12,1]")}
    assert CoeffPoly.zero(registry).terms == {}
    assert not CoeffPoly.zero(registry)
    assert t1.constant_term == 0


def test_coeff_poly_is_unhashable(registry):
    # It equals a plain integer, whose hash it could not match for every value.
    assert CoeffPoly.constant(registry, 2) == 2
    with pytest.raises(TypeError):
        hash(CoeffPoly.constant(registry, 2))


def test_rendering(registry):
    t1 = CoeffPoly.indeterminate(registry, registry.theta_id(1))
    t2 = CoeffPoly.indeterminate(registry, registry.theta_id(2))
    c = CoeffPoly.indeterminate(registry, registry.id_of("C[12,1]"))
    two = CoeffPoly.constant(registry, 2)
    p = two * t1 * t2 - CoeffPoly.constant(registry, 3) * c * c
    assert str(p) == "-3*C[12,1]^2 + 2*theta[1]*theta[2]"
    assert str(t2 - t1 * t1) == "theta[2] - theta[1]^2"
    assert str(CoeffPoly.constant(registry, 5) - t1) == "5 - theta[1]"
    assert str(CoeffPoly.zero(registry)) == "0"
    assert str(c) == "C[12,1]"


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_gradient_obeys_sum_and_product_rules(registry, data):
    polys = _poly_strategy(registry)
    p, q = data.draw(polys), data.draw(polys)
    point = data.draw(
        st.lists(st.integers(-5, 5), min_size=len(registry), max_size=len(registry))
    )
    values = dict(enumerate(point))
    gp, gq = p.gradient(values), q.gradient(values)
    p0, q0 = p.integer_value(values), q.integer_value(values)
    g_sum, g_prod = (p + q).gradient(values), (p * q).gradient(values)
    for ind in range(len(registry)):
        dp, dq = gp.get(ind, 0), gq.get(ind, 0)
        assert g_sum.get(ind, 0) == dp + dq
        # Leibniz rule
        assert g_prod.get(ind, 0) == dp * q0 + p0 * dq
    assert 0 not in gp.values()
    ind = data.draw(st.sampled_from(sorted(p.indeterminates() | q.indeterminates()) or [0]))
    x = CoeffPoly.indeterminate(registry, ind)
    assert (x * x * x).gradient(values) == ({ind: 3 * values[ind] ** 2} if values[ind] else {})
    assert CoeffPoly.constant(registry, 7).gradient(values) == {}


def test_registry_identity_guard():
    reg1 = IndeterminateRegistry(build(Signature(5, 2, 3, 3, 0)))
    reg2 = IndeterminateRegistry(build(Signature(5, 2, 3, 3, 0)))
    p = CoeffPoly.indeterminate(reg1, 0)
    q = CoeffPoly.indeterminate(reg2, 0)
    with pytest.raises(ArgumentError):
        p + q
