"""Verifying the border-basis property, symbolically and at specializations.

A border pre-basis is an honest border basis exactly when every neighbor
S-polynomial reduces to zero.  The modified generic system passes this check
with fully symbolic coefficients, which proves it at every specialization at
once.  This script also shows what failure looks like (a perturbed system
leaves nonzero residues) and how specialized verification works.  A
specialized system holds integers, and it is the same system whichever field
the tangent rank is later computed in, so the checks below need only one.

Run:  python3 demos/03_border_basis_verification.py
"""

from __future__ import annotations

from bordercert import (
    IndeterminateRegistry,
    Signature,
    build,
    build_generic_modification,
    is_border_basis,
    random_assignment,
    specialize_system,
)
from bordercert.borderbasis import BorderSystem, power_in_ideal, reduce, s_polynomial


def main() -> None:
    sig = Signature(5, 2, 3, 3, 0)
    oid = build(sig)
    registry = IndeterminateRegistry(oid)
    system = build_generic_modification(oid, registry)

    pairs = system.neighbor_pairs()
    print(f"signature {sig}: nu = {oid.nu} generators, {len(pairs)} neighbor pairs")

    ok, failures = is_border_basis(system)
    print(f"symbolic border-basis check: {'ok' if ok else 'FAILED'}")

    pair = pairs[0]
    spoly = s_polynomial(system, pair.j1, pair.j2, pair.alpha, pair.beta)
    print(f"sample S-polynomial for pair (j1={pair.j1}, j2={pair.j2}): "
          f"{len(spoly.terms)} terms, reduces to {reduce(spoly, system)}")
    print()

    tails = [dict(t) for t in system.tails]
    tails[0][1] = tails[0].get(1, system.ring.one() * 0) + system.ring.one()
    broken = BorderSystem(oid, tails, system.ring)
    ok, failures = is_border_basis(broken)
    print(f"perturbed system check: {'ok' if ok else 'FAILED'} "
          f"({len(failures)} pairs leave residues)")
    print()

    spec = specialize_system(system, random_assignment(registry, seed=1))
    ok, _ = is_border_basis(spec)
    powers = [power_in_ideal(spec, var) for var in range(1, sig.n + 1)]
    print(f"specialized at seed 1: border basis = {ok}; "
          f"least powers of x1..x{sig.n} in the ideal: {powers}")

    print()
    print("the least powers show the support sits at the origin: every")
    print("variable has a pure power inside the specialized ideal.")


if __name__ == "__main__":
    main()
