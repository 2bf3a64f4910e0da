"""The three-step target assignment and the fully modified generic system.

Certain border generators receive an extra *target* polynomial: a combination
of basis monomials of degree >= r with coefficients in the free target
indeterminates theta[q].  The degree-r target-bearing border monomials
`oid.s_lead` fall into blocks by their exponent of the middle variable
x_delta: block e holds the members with x_delta^(r-e), and its first member
is its top.  Step 1 seeds the top block (e = w) and spreads it across the
block by the exact factor member / top; step 2 pushes the targets up to the
deeper target-bearing border monomials by multiplication and truncation;
step 3 walks the remaining degree-r blocks downward, each time reducing the
middle variable times the previous target modulo the partially built system
and dividing the result exactly by the first back variable.

Adding the target of b_j to its generator turns Y_ij into
C_ij (trailing slots of a leading monomial) minus the t_i-coefficient of the
target; `install_targets` performs exactly that bookkeeping.  Targets are
plain dicts {1-based border index: {1-based basis index: coefficient}}, the
shape of the tails they are added to; absent entries mean zero.  Every
product of a target term with a variable is read from the order ideal's
product table (`OrderIdealData.products`): step 2 walks each term along m'
one variable at a time, and step 3 multiplies by x_delta with one
multiplication map of the partial system.  A term that would leave the basis
raises `InternalInvariantError` where it arises.
"""

from __future__ import annotations

from typing import Dict, Optional

from .borderbasis import BorderSystem, SpanElement, generic_distinguished
from .coeffring import CoeffPoly, IndeterminateRegistry
from .monomial import ArgumentError, InternalInvariantError, Monomial
from .orderideal import OrderIdealData

# {border index: {basis index: coefficient}}, the shape of the tails
_Targets = Dict[int, Dict[int, object]]


def _lead_block(oid: OrderIdealData, e: int):
    """Block e of `oid.s_lead`: its members with x_delta^(r-e), in order."""
    sig = oid.signature
    return [m for m in oid.s_lead if m.exps[sig.delta - 1] == sig.r - e]


def _propagated(oid: OrderIdealData, block, source_target: Dict[int, object]):
    """Move the target of top = block[0] to every other member m of its block.

    Each term t becomes t * m / top, and that division must be exact.  This is
    the net effect of the staircase walk from top to m, one variable shift
    x_alpha / x_beta at a time: along that walk every exponent is lowest at one
    of its two ends, so each shift divides exactly if and only if the whole
    quotient does.
    """
    top = block[0]
    out = {oid.index_of_border[top]: source_target}
    for m in block[1:]:
        shift = [a - b for a, b in zip(m.exps, top.exps)]
        moved = {}
        for i, c in source_target.items():
            t = oid.basis[i - 1]
            exps = [a + d for a, d in zip(t.exps, shift)]
            q = oid.index_of_basis.get(Monomial(exps)) if min(exps) >= 0 else None
            if q is None:
                raise InternalInvariantError(f"target term {t} of {top} does not move to {m}")
            moved[q] = c
        out[oid.index_of_border[m]] = moved
    return out


def step1(oid: OrderIdealData, registry: IndeterminateRegistry) -> _Targets:
    """Seed the top degree-r block with the free target coefficients."""
    seed = {
        oid.index_of_basis[t]: CoeffPoly.indeterminate(registry, registry.theta_id(q))
        for q, t in enumerate(oid.tar_double_prime, start=1)
    }
    return _propagated(oid, _lead_block(oid, oid.signature.w), seed)


def _deep_factorization(oid: OrderIdealData, b: Monomial):
    """Split b = m' * b_src with b_src in the top degree-r block.

    m' is the lex-minimal back-variables divisor of the back part of b with
    degree deg(b) - r, filled from x_n upward; existence is guaranteed for
    every deep target monomial.
    """
    sig = oid.signature
    rest = b.try_div(Monomial.variable(sig.n, sig.delta, sig.r - sig.w))
    if rest is None:
        raise InternalInvariantError(f"deep target monomial {b} lacks the expected middle power")
    need = b.degree - sig.r
    exps = [0] * sig.n
    for k in range(sig.n - 1, sig.delta - 1, -1):
        exps[k] = min(need, rest.exps[k])
        need -= exps[k]
    if need:
        raise InternalInvariantError(f"no factorization of deep target monomial {b}")
    m_prime = Monomial(exps)
    b_src = b.try_div(m_prime)
    if b_src is None or oid.index_of_border.get(b_src) is None:
        raise InternalInvariantError(f"factorization of {b} left the border")
    return m_prime, b_src


def step2(oid: OrderIdealData, targets: _Targets) -> _Targets:
    """Extend the targets to the deeper target-bearing border monomials."""
    sig = oid.signature
    basis, products = oid.basis, oid.products
    out = dict(targets)
    for b in oid.s_deep:
        m_prime, b_src = _deep_factorization(oid, b)
        src = targets.get(oid.index_of_border[b_src])
        if src is None:
            raise ArgumentError("step2 requires the degree-r targets from step1")
        walk = [k for k, e in enumerate(m_prime.exps, start=1) for _ in range(e)]
        # targets stop at degree s, so drop a term before m' would lift it past s
        bound = sig.s - m_prime.degree
        moved = {}
        for i, c in src.items():
            if basis[i - 1].degree > bound:
                continue
            code = i
            for k in walk:
                code = products[code][k]
                if code < 0:  # a border code: products[code] would read another row
                    raise InternalInvariantError(f"{basis[i - 1]} * {m_prime} leaves the basis")
            moved[code] = c
        out[oid.index_of_border[b]] = moved
    return out


def step3(oid: OrderIdealData, targets: _Targets, sys_so_far: BorderSystem) -> _Targets:
    """Fill the remaining degree-r blocks by reduce-and-divide, top down."""
    sig = oid.signature
    delta, back = sig.delta, sig.delta + 1
    out = dict(targets)
    for e in range(sig.w, 0, -1):
        top = _lead_block(oid, e)[0]
        current = out.get(oid.index_of_border[top])
        if current is None:
            raise ArgumentError(f"step3 requires the target of {top} before extending below it")
        shifted = {}
        for i, c in sys_so_far._times_variable(current, delta).items():
            t = oid.basis[i - 1]
            if t.var_degree(back) < e:
                raise InternalInvariantError(
                    f"reduction of x{delta}*target({top}) is not divisible by x{back}^{e}"
                )
            shifted[oid.index_of_basis[t.div_var(back)]] = c
        out.update(_propagated(oid, _lead_block(oid, e - 1), shifted))
    return out


def install_targets(base: BorderSystem, targets: _Targets) -> BorderSystem:
    """Add each target into its generator: Y_ij -= coefficient of t_i in the target."""
    tails = [dict(t) for t in base.tails]
    for j, target in targets.items():
        tail = tails[j - 1]
        for i, c in target.items():
            y = tail.get(i)
            tail[i] = -c if y is None else y - c
    return BorderSystem(base.oid, tails, base.ring)


def _build(oid: OrderIdealData, registry: Optional[IndeterminateRegistry]):
    """Run the three steps; return the validated targets, the targets after
    step 2, and the system with those installed, which step 3 reduces by."""
    if registry is None:
        registry = IndeterminateRegistry(oid)
    early = step2(oid, step1(oid, registry))
    partial = install_targets(generic_distinguished(oid, registry), early)
    full = step3(oid, early, partial)
    _validate_targets(oid, full, registry)
    return full, early, partial


def build_targets(
    oid: OrderIdealData, registry: Optional[IndeterminateRegistry] = None
) -> _Targets:
    """Run the three steps and validate the resulting targets."""
    return _build(oid, registry)[0]


def build_generic_modification(
    oid: OrderIdealData, registry: Optional[IndeterminateRegistry] = None
) -> BorderSystem:
    """The generic system with every target installed: step 3's targets are
    added to the system that step 3 reduced by."""
    full, early, partial = _build(oid, registry)
    sys = install_targets(partial, {j: t for j, t in full.items() if j not in early})
    for tail in sys.tails:
        for y in tail.values():
            if y.constant_term:
                raise InternalInvariantError("a tail coefficient acquired a constant term")
    return sys


def _validate_targets(oid: OrderIdealData, targets: _Targets, registry: IndeterminateRegistry):
    sig = oid.signature
    expected = {oid.index_of_border[m] for m in oid.s_lead + oid.s_deep}
    if set(targets) != expected:
        raise InternalInvariantError("targets must cover exactly the target-bearing border monomials")
    theta_ids = {registry.theta_id(q) for q in range(1, oid.gamma + 1)}
    for j, target in targets.items():
        # a lead target lies in degrees r..s-1, a deep one in deg(b_j)..s
        low = oid.border[j - 1].degree
        high = sig.s - 1 if low == sig.r else sig.s
        for i, c in target.items():
            t = oid.basis[i - 1]
            if not low <= t.degree <= high:
                raise InternalInvariantError(f"target of b[{j}] has {t} outside {low}..{high}")
            if not c.indeterminates() <= theta_ids:
                raise InternalInvariantError("target coefficients must involve only theta's")
    # the first back variable divides the target of each block top to the block's depth
    for e in range(0, sig.w + 1):
        top = _lead_block(oid, e)[0]
        for i in targets[oid.index_of_border[top]]:
            if oid.basis[i - 1].var_degree(sig.delta + 1) < e:
                raise InternalInvariantError(
                    f"target of {top} violates the back-variable divisibility of its block"
                )


def render_targets(oid: OrderIdealData, targets: _Targets) -> str:
    """One line 'Upsilon(b[j]) = <polynomial>' per target, by border index."""
    basis = oid.basis
    return "\n".join(
        f"Upsilon(b[{j}]) = {SpanElement({basis[i - 1]: c for i, c in targets[j].items()})}"
        for j in sorted(targets)
    )
