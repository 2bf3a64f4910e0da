"""Tour of one order ideal: basis, border, and all derived structure.

A signature (n, r, s, delta, w) carves an order ideal out of the monomials in
x_1..x_n.  The variables split into three groups around the middle index
delta: front variables (below delta) are capped at degree r, while the middle
and back variables run up to degree s under an extra cap on the power of
x_delta.  Everything the rest of the package does — generic tails, target
assignments, tangent computations — is read off this combinatorial object.

Run:  python3 demos/01_order_ideal_tour.py
"""

from __future__ import annotations

from collections import Counter

from bordercert import Signature, build, dim_U
from bordercert.orderideal import translation_frame


def main() -> None:
    sig = Signature(4, 3, 4, 2, 1)
    oid = build(sig)

    print(f"signature          {sig}")
    print(f"minimal lead       {sig.minimal_lead_monomial()}")
    print(f"colength (mu)      {oid.mu}")
    print(f"border size (nu)   {oid.nu}")
    print(f"hilbert function   {oid.hilbert}")
    print()

    by_degree = Counter(m.degree for m in oid.basis)
    print("basis monomials by degree:")
    for d in sorted(by_degree):
        row = [str(m) for m in oid.basis if m.degree == d]
        print(f"  degree {d} ({by_degree[d]:>2}): {', '.join(row)}")
    print()

    print(f"leading border monomials ({oid.ell}):")
    print("  " + ", ".join(str(m) for m in oid.leading))
    print(f"trailing basis monomials ({oid.tau}):")
    print("  " + ", ".join(str(m) for m in oid.trailing))
    print()

    print("monomials that will receive nonzero target tails:")
    print(f"  degree-r pool    : {', '.join(str(m) for m in oid.s_lead)}")
    print(f"  deeper pool      : {', '.join(str(m) for m in oid.s_deep)}")
    print(f"  target seeds     : {', '.join(str(m) for m in oid.tar_double_prime)}")
    print(f"  gamma = |seeds|  : {oid.gamma}")
    print()

    pairs = oid.neighbor_pairs
    across = sum(1 for p in pairs if p.beta != 0)
    print(f"neighbor pairs     {len(pairs)} ({across} across-the-street, "
          f"{len(pairs) - across} next-door)")

    fr = translation_frame(oid)
    print(f"translation frame  eta = {fr.eta}, directions = {fr.labels()}")
    print(f"family dimension   dim(U) = {dim_U(oid)}")
    print(f"principal (n*mu)   {sig.n * oid.mu}")


if __name__ == "__main__":
    main()
