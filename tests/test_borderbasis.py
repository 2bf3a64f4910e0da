"""Tests for border systems: rewriting, neighbor checks, specialization."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bordercert.borderbasis import (
    BorderSystem,
    RingSpec,
    SpanElement,
    _s_codes,
    generic_distinguished,
    is_border_basis,
    power_in_ideal,
    reduce,
    s_polynomial,
    specialize_system,
)
from bordercert.coeffring import CoeffPoly, IndeterminateRegistry, _integer_assignment
from bordercert.modification import build_generic_modification
from bordercert.monomial import ArgumentError, Monomial, monomials_of
from bordercert.orderideal import Signature, build
from helpers import (
    as_dense_row,
    fraction_rank,
    membership_rows,
    perturbed,
    render_system,
    small_signatures,
    tail_span,
)


def _random_assignment(registry, seed):
    rng = random.Random(seed)
    values = [v for v in range(-50, 51) if v != 0]
    return {i: Fraction(rng.choice(values)) for i in range(len(registry))}


def _specialized(sig, seed=1, modified=True):
    oid = build(sig)
    reg = IndeterminateRegistry(oid)
    sys = build_generic_modification(oid, reg) if modified else generic_distinguished(oid, reg)
    return specialize_system(sys, _random_assignment(reg, seed))


def test_generic_distinguished_shape():
    oid = build(Signature(5, 2, 3, 3, 0))
    reg = IndeterminateRegistry(oid)
    sys = generic_distinguished(oid, reg)
    assert sys.total_tail_terms() == oid.ell * oid.tau == 70
    leading = {oid.index_of_border[b] for b in oid.leading}
    trailing = {oid.index_of_basis[t] for t in oid.trailing}
    for j in range(1, oid.nu + 1):
        tail = sys.tails[j - 1]
        if j in leading:
            assert set(tail) == trailing
            for i, c in tail.items():
                assert isinstance(c, CoeffPoly)
                assert str(c) == f"C[{i},{j}]"
        else:
            assert tail == {}


def test_reduce_fixes_basis_and_substitutes_border():
    sig = Signature(3, 4, 6, 2, 1)
    sys = _specialized(sig)
    oid = sys.oid
    for t in oid.basis:
        f = SpanElement({t: Fraction(3)})
        assert reduce(f, sys) == f
    for j, b in enumerate(oid.border, start=1):
        got = reduce(SpanElement({b: Fraction(1)}), sys)
        assert got == tail_span(sys, j)
        assert set(got.terms) <= set(oid.basis)
    for i in range(1, oid.mu + 1):
        assert sys.normal_form([(i, 3)]) == {i: 3}
        assert sys.normal_form([(i, 0)]) == sys.normal_form([(i, 3), (i, -3)]) == {}
    for j in range(1, oid.nu + 1):
        assert sys.normal_form([(-j, 3)]) == {i: 3 * y for i, y in sys.tails[j - 1].items()}
        assert sys.normal_form([(-j, 0), (1, 2)]) == {1: 2}


def test_reduce_linear_and_idempotent():
    for sig in (Signature(3, 4, 6, 2, 1), Signature(4, 2, 3, 2, 1)):
        sys = _specialized(sig)
        n, s = sig.n, sig.s
        pool = [m for d in range(0, s + 3) for m in monomials_of(n, 1, d)]
        rng = random.Random(7)
        for _ in range(100):
            f = SpanElement(
                {m: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for m in rng.sample(pool, 5)}
            )
            g = SpanElement(
                {m: Fraction(rng.randint(-9, 9)) for m in rng.sample(pool, 3)}
            )
            a, b = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
            rf, rg = reduce(f, sys), reduce(g, sys)
            assert reduce(f.scaled(a) + g.scaled(b), sys) == rf.scaled(a) + rg.scaled(b)
            assert reduce(rf, sys) == rf
            assert set(rf.terms) <= set(sys.oid.basis)


def _expand_product(sys, j, var):
    """x_var * g_j as a raw polynomial (dict monomial -> coefficient)."""
    out = {}
    for m, c in sys.generator(j).terms.items():
        mm = m.mul_var(var) if var else m
        out[mm] = out.get(mm, sys.ring.one() * 0) + c
    return {m: c for m, c in out.items() if c}


def test_s_polynomial_matches_direct_expansion():
    for sig in (Signature(5, 2, 3, 3, 0), Signature(3, 4, 6, 2, 1)):
        sys = _specialized(sig, modified=True)
        for pair in sys.neighbor_pairs():
            direct = _expand_product(sys, pair.j1, pair.alpha)
            rhs = _expand_product(sys, pair.j2, pair.beta)
            for m, c in rhs.items():
                direct[m] = direct.get(m, Fraction(0)) - c
            direct = {m: c for m, c in direct.items() if c}
            got = s_polynomial(sys, pair.j1, pair.j2, pair.alpha, pair.beta)
            assert direct == got.terms


def test_s_polynomial_rejects_non_pairs():
    sys = _specialized(Signature(5, 2, 3, 3, 0))
    with pytest.raises(ArgumentError):
        s_polynomial(sys, 1, 2, 1, 1)
    with pytest.raises(ArgumentError):
        s_polynomial(sys, 0, 2, 1, 1)


def test_generic_distinguished_is_a_border_basis_symbolically():
    for sig in (
        Signature(3, 2, 3, 2, 1),
        Signature(3, 4, 6, 2, 1),
        Signature(4, 2, 3, 2, 0),
        Signature(5, 2, 3, 3, 0),
        Signature(4, 3, 5, 1, 2),
    ):
        sys = generic_distinguished(build(sig))
        ok, failures = is_border_basis(sys)
        assert ok, (sig, failures[:1])


def test_perturbed_system_fails_with_nonzero_residue():
    sys = _specialized(Signature(3, 4, 6, 2, 1))
    tails = [dict(t) for t in sys.tails]
    tails[0][1] = tails[0].get(1, 0) + 7
    bad = BorderSystem(sys.oid, tails, sys.ring)
    ok, failures = is_border_basis(bad)
    assert not ok
    for pair, residue in failures:
        assert residue
        assert set(residue.terms) <= set(sys.oid.basis)


def _reference_check(sys):
    """The neighbor-pair criterion through the general API, pair by pair."""
    failures = []
    for pair in sys.neighbor_pairs():
        residue = reduce(s_polynomial(sys, pair.j1, pair.j2, pair.alpha, pair.beta), sys)
        if residue:
            failures.append((pair, residue))
    return (not failures, failures)


def _assert_same_check(sys):
    got, want = is_border_basis(sys), _reference_check(sys)
    assert got == want
    assert [str(r) for _, r in got[1]] == [str(r) for _, r in want[1]]
    return got


GENERIC = (Signature(3, 2, 3, 2, 1), Signature(3, 4, 6, 2, 1), Signature(5, 2, 3, 3, 1))


@pytest.mark.parametrize("sig", GENERIC)
def test_pair_check_matches_reference_on_generic_systems(sig):
    oid = build(sig)
    reg = IndeterminateRegistry(oid)
    for sys in (generic_distinguished(oid, reg), build_generic_modification(oid, reg)):
        assert _assert_same_check(sys)[0]


@pytest.mark.parametrize("sig", GENERIC + (Signature(4, 3, 4, 2, 1),))
def test_pair_check_matches_reference_on_specialized_systems(sig):
    for seed in (1, 2):
        assert _assert_same_check(_specialized(sig, seed=seed))[0]


def test_pair_check_matches_reference_on_perturbed_systems():
    sig = Signature(5, 2, 3, 3, 1)
    spec = _specialized(sig)
    oid = spec.oid
    # A trailing slot of a leading tail is a free coordinate of the family:
    # moving it keeps a border basis, and both checks must say so.
    slots = [(1, 3), (1, 1), (oid.nu, 2), (oid.nu // 2, oid.mu // 2), (oid.ell, oid.mu)]
    verdicts = [_assert_same_check(perturbed(spec, j, i, 1))[0] for j, i in slots]
    assert verdicts == [False, False, False, False, True]
    reg = IndeterminateRegistry(oid)
    sym = build_generic_modification(oid, reg)
    for j, i in slots[:2]:
        ok, failures = _assert_same_check(perturbed(sym, j, i, CoeffPoly.constant(reg, 1)))
        assert not ok
    assert str(failures[0][0]) == "NeighborPair(j1=1, j2=2, alpha=2, beta=1)"


def test_pair_checks_read_the_tails_of_the_system_under_check():
    """Both checks drop a term on a border code whose tail is empty, so
    whether a code is live must be read from the system under check: here
    the empty tail of b_n = x1*x4^3, of degree s + 1, is filled, and the
    generating pair (1, 2, 2, 1) reaches b_n as x1 * x4^3 from the tail of
    b_2."""
    spec = _specialized(Signature(5, 2, 3, 3, 1))
    oid = spec.oid
    reg = IndeterminateRegistry(oid)
    sym = build_generic_modification(oid, reg)
    n = oid.index_of_border[Monomial((1, 0, 0, 3, 0))]
    pair = (1, 2, 2, 1)
    assert pair in oid.generating_pairs
    for sys, one in ((spec, 1), (sym, CoeffPoly.constant(reg, 1))):
        assert not sys.tails[n - 1]
        # the tangent equations read every border code, so pair_codes keeps it
        assert -n in dict(sys.pair_codes())[pair]
        # checked first, so a live mask kept from this system would be stale
        assert _assert_same_check(sys)[0]
        ok, failures = _assert_same_check(perturbed(sys, n, 1, one))
        assert not ok
        assert pair in [p for p, _ in failures]


def test_pair_check_on_a_verify_size_system_with_degree_2_perturbation():
    oid = build(Signature(6, 4, 5, 1, 1))
    reg = IndeterminateRegistry(oid)
    sym = build_generic_modification(oid, reg)
    assert is_border_basis(sym) == (True, [])
    # a product of two indeterminates, so residues multiply exponent keys
    product = CoeffPoly.indeterminate(reg, 0) * CoeffPoly.indeterminate(reg, reg.theta_id(1))
    bad = perturbed(sym, oid.nu, 2, product)
    ok, failures = is_border_basis(bad)
    assert not ok
    coefficients = [c for _, r in failures for c in r.terms.values()]
    assert max(sum(e for _, e in key) for c in coefficients for key in c.terms) == 3
    for pair, residue in failures:
        want = reduce(s_polynomial(bad, pair.j1, pair.j2, pair.alpha, pair.beta), bad)
        assert residue == want and str(residue) == str(want)
    assert str(failures[0][0]) == "NeighborPair(j1=1, j2=6, alpha=6, beta=1)"


def test_pair_check_reports_a_first_failure_outside_the_generating_pairs():
    """A failing generating pair sends the check over every pair, so the
    report lists the failing pairs the generating ones leave out, in order."""
    spec = _specialized(Signature(3, 4, 6, 2, 1))
    ok, failures = _assert_same_check(perturbed(spec, 9, 21, 1))
    assert not ok
    assert failures[0][0] not in spec.oid.generating_pairs
    assert [f"{pair} {residue}" for pair, residue in failures] == [
        "NeighborPair(j1=8, j2=9, alpha=3, beta=2) 14*x2^2*x3^3 - 266*x2*x3^4 + 161*x3^5"
        " - 35*x2^2*x3^4 - 301*x2*x3^5 + 329*x3^6",
        "NeighborPair(j1=9, j2=10, alpha=3, beta=2) -7*x2^2*x3^3",
        "NeighborPair(j1=9, j2=13, alpha=2, beta=0) -14*x2^2*x3^3 + 266*x2*x3^4 - 161*x3^5"
        " + 35*x2^2*x3^4 + 301*x2*x3^5 - 329*x3^6",
        "NeighborPair(j1=9, j2=14, alpha=3, beta=0) -7*x2^2*x3^3",
    ]


def _codes(sys, pair):
    j1, j2, alpha, beta = pair
    codes = _s_codes(sys.oid.products, sys.tails[j1 - 1], alpha, sys.tails[j2 - 1], beta)
    return {code: c for code, c in codes.items() if c}


def _difference(plus, minus):
    out = dict(plus)
    for code, c in minus.items():
        out[code] = out.get(code, 0) - c
    return {code: c for code, c in out.items() if c}


def test_generating_pairs_span_every_pair_on_a_grid():
    """Each neighbor pair outside `generating_pairs` has the S-polynomial
    codes of one kept pair minus another's, on tails that make no border
    basis: x_alpha*b_j1 = x_beta*b_j2 = m, and if m is the border monomial b_n
    the pair is (j1, n, alpha, 0) minus (j2, n, beta, 0); otherwise, with
    x_gamma*b_j0 = m for the least such j0, (j0, j2, gamma, beta) minus
    (j0, j1, gamma, alpha)."""
    rng = random.Random(3)
    dropped = 0
    for sig in small_signatures(5, 5):
        oid = build(sig)
        kept = set(oid.generating_pairs)
        remaining = iter(oid.neighbor_pairs)
        assert all(pair in remaining for pair in oid.generating_pairs), sig
        first = {}
        for j, b in enumerate(oid.border, start=1):
            for k in range(1, sig.n + 1):
                first.setdefault(b.mul_var(k), (j, k))
        reg = IndeterminateRegistry(oid)
        spec = specialize_system(build_generic_modification(oid, reg), _random_assignment(reg, 1))
        slots = range(1, oid.mu + 1)
        noise = [
            {i: rng.choice((-9, -4, 1, 3, 8)) for i in rng.sample(slots, min(3, oid.mu))}
            for _ in range(oid.nu)
        ]
        systems = (perturbed(spec, oid.nu, 1, 1), BorderSystem(oid, noise, spec.ring))
        for pair in oid.neighbor_pairs:
            if pair in kept:
                continue
            dropped += 1
            j1, j2, alpha, beta = pair
            assert beta > 0, (sig, pair)
            m = oid.border[j1 - 1].mul_var(alpha)
            n_m = oid.index_of_border.get(m)
            if n_m is not None:
                plus, minus = (j1, n_m, alpha, 0), (j2, n_m, beta, 0)
            else:
                j0, gamma = first[m]
                plus, minus = (j0, j2, gamma, beta), (j0, j1, gamma, alpha)
            assert plus in kept and minus in kept, (sig, pair)
            for sys in systems:
                assert _codes(sys, pair) == _difference(_codes(sys, plus), _codes(sys, minus))
    assert dropped == 47454 - 30429


_SMALL = small_signatures(4, 5)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_pair_check_matches_reference_on_random_perturbations(data):
    """The whole failure list, pairs, order and residue strings, in both rings."""
    oid = build(data.draw(st.sampled_from(_SMALL)))
    reg = IndeterminateRegistry(oid)
    sys = build_generic_modification(oid, reg)
    j = data.draw(st.integers(1, oid.nu))
    i = data.draw(st.integers(1, oid.mu))
    if data.draw(st.booleans()):
        a = data.draw(st.integers(0, len(reg) - 1))
        b = data.draw(st.integers(0, len(reg) - 1))
        coefficient = CoeffPoly.indeterminate(reg, a) * CoeffPoly.indeterminate(reg, b)
    else:
        sys = specialize_system(sys, _random_assignment(reg, data.draw(st.integers(1, 50))))
        coefficient = data.draw(st.integers(-3, 3).filter(bool))
    _assert_same_check(perturbed(sys, j, i, coefficient))


def test_specialize_commutes_with_reduce():
    oid = build(Signature(3, 4, 6, 2, 1))
    reg = IndeterminateRegistry(oid)
    sym = build_generic_modification(oid, reg)
    assignment = _random_assignment(reg, 5)
    values = _integer_assignment(reg, assignment)
    spec = specialize_system(sym, assignment)
    pool = [m for d in range(0, oid.signature.s + 3) for m in monomials_of(3, 1, d)]
    for m in pool[:: max(1, len(pool) // 40)]:
        symbolic = reduce(SpanElement({m: CoeffPoly.constant(reg, 1)}), sym)
        evaluated = SpanElement(
            {t: v for t, v in ((t, c.integer_value(values)) for t, c in symbolic.terms.items()) if v}
        )
        direct = reduce(SpanElement({m: Fraction(1)}), spec)
        assert evaluated == direct


def test_specialize_system_errors():
    oid = build(Signature(3, 2, 3, 2, 1))
    reg = IndeterminateRegistry(oid)
    sys = generic_distinguished(oid, reg)
    with pytest.raises(ArgumentError):
        specialize_system(sys, {0: 1})  # incomplete assignment
    full = _random_assignment(reg, 1)
    spec = specialize_system(sys, full)
    with pytest.raises(ArgumentError):
        specialize_system(spec, full)  # already specialized


def test_specialize_system_holds_integer_tails():
    oid = build(Signature(5, 2, 3, 3, 0))
    reg = IndeterminateRegistry(oid)
    sys = build_generic_modification(oid, reg)
    full = _random_assignment(reg, 1)
    spec = specialize_system(sys, full)
    values = [c for tail in spec.tails for c in tail.values()]
    assert values and all(type(c) is int for c in values)
    half = dict(full)
    half[reg.id_of("theta[1]")] = Fraction(1, 2)
    with pytest.raises(ArgumentError, match=r"theta\[1\]"):
        specialize_system(sys, half)
    j, i = next((j, i) for j, t in enumerate(sys.tails) for i in t)
    with pytest.raises(ArgumentError):
        sys.tails[j][i] * Fraction(1, 2)


def test_border_system_rejects_malformed_tails():
    oid = build(Signature(3, 2, 3, 2, 1))
    ring = RingSpec("rational")
    with pytest.raises(ArgumentError, match=rf"^need one tail per border monomial \({oid.nu}\), got 1$"):
        BorderSystem(oid, [{}], ring)
    for i in (0, oid.mu + 1):
        tails = [{} for _ in range(oid.nu)]
        tails[-1][i] = 1
        with pytest.raises(
            ArgumentError, match=rf"^tail refers to basis index {i} outside 1\.\.{oid.mu}$"
        ):
            BorderSystem(oid, tails, ring)
    # zero coefficients are dropped on construction, in the given order
    tails = [{} for _ in range(oid.nu)]
    tails[0] = {3: 1, 1: 0, 2: -1}
    assert list(BorderSystem(oid, tails, ring).tails[0].items()) == [(3, 1), (2, -1)]


@pytest.mark.parametrize("sig", [Signature(3, 2, 3, 2, 1), Signature(3, 2, 3, 2, 0)])
def test_reduce_against_linear_algebra_membership_oracle(sig):
    """reduce(f) differs from f by an ideal element, and nonzero normal forms
    stay independent from the ideal's low-degree slice."""
    sys = _specialized(sig, seed=3)
    rows, col_of = membership_rows(sys, mult_degree=sig.s + 1 - sig.r)
    base_rank = fraction_rank(rows)
    pool = [m for d in range(0, sig.s + 2) for m in monomials_of(sig.n, 1, d)]
    rng = random.Random(11)
    for _ in range(6):
        f = SpanElement(
            {m: Fraction(rng.randint(-9, 9)) for m in rng.sample(pool, 4)}
        )
        residue = reduce(f, sys)
        certificate = f + residue.scaled(-1)
        assert fraction_rank(rows + [as_dense_row(certificate, col_of)]) == base_rank
        if residue:
            assert fraction_rank(rows + [as_dense_row(residue, col_of)]) == base_rank + 1
    # every low-degree monomial rewrites to an ideal-equivalent normal form
    for m in pool:
        f = SpanElement({m: Fraction(1)})
        certificate = f + reduce(f, sys).scaled(-1)
        assert fraction_rank(rows + [as_dense_row(certificate, col_of)]) == base_rank


def test_power_in_ideal_values():
    sig = Signature(3, 4, 6, 2, 1)
    sys = _specialized(sig)
    assert power_in_ideal(sys, 1) == sig.r + 1  # front variable
    assert power_in_ideal(sys, 3) == sig.s + 1  # back variable
    assert sig.r + 1 <= power_in_ideal(sys, 2) <= sig.s + 1  # middle variable
    with pytest.raises(ArgumentError):
        power_in_ideal(sys, 0)
    with pytest.raises(ArgumentError):
        power_in_ideal(sys, 4)


def test_power_in_ideal_generic_symbolic():
    oid = build(Signature(5, 2, 3, 3, 1))
    sys = generic_distinguished(oid)
    assert power_in_ideal(sys, 5) == oid.signature.s + 1
    assert power_in_ideal(sys, 1) == oid.signature.r + 1


def test_span_element_operations():
    m1 = Monomial((1, 2, 0))
    m2 = Monomial((0, 1, 1))
    f = SpanElement({m1: Fraction(2), m2: Fraction(-1)})
    assert f.terms[m1] == 2
    assert Monomial.unit(3) not in f.terms
    assert (f + f.scaled(-1)) == SpanElement()
    assert f.monomial_multiple(m2).terms[m1.mul(m2)] == 2
    # Equal coefficients of different types must not hash apart, so no hash.
    assert SpanElement({m1: 2}) == SpanElement({m1: Fraction(2)})
    with pytest.raises(TypeError):
        hash(SpanElement({m1: 2}))


def test_render_system_lines():
    sys = _specialized(Signature(3, 2, 3, 2, 1))
    text = render_system(sys)
    lines = text.splitlines()
    assert len(lines) == sys.oid.nu
    assert lines[0].startswith(f"{sys.oid.border[0]} = ")
    sym = generic_distinguished(build(Signature(3, 2, 3, 2, 1)))
    first_leading = sym.oid.index_of_border[sym.oid.leading[0]]
    assert "C[" in render_system(sym).splitlines()[first_leading - 1]
