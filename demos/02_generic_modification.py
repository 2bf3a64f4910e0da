"""The three-step target assignment, shown stage by stage.

Starting from the distinguished system, whose generic tails live on the
trailing monomials only, a second family of tails ("targets") is assigned to
two sets of border monomials.  The construction runs in three steps:

  step 1  seeds the deepest block of the degree-r border with fresh theta
          indeterminates and transports it across the block along
          neighbor paths;
  step 2  pushes those targets up to the higher-degree border monomials by
          monomial multiplication, truncating above degree s;
  step 3  walks the remaining degree-r blocks from deep to shallow, producing
          each new target by one ring reduction and one exact division.

Run:  python3 demos/02_generic_modification.py
"""

from __future__ import annotations

from bordercert import IndeterminateRegistry, Signature, build, build_generic_modification
from bordercert.borderbasis import generic_distinguished
from bordercert.modification import install_targets, render_targets, step1, step2, step3


def show(title, oid, tm) -> None:
    print(title)
    for line in render_targets(oid, tm).splitlines():
        print("  " + line)
    print()


def main() -> None:
    sig = Signature(3, 4, 6, 2, 1)
    oid = build(sig)
    registry = IndeterminateRegistry(oid)

    print(f"signature {sig}: mu = {oid.mu}, nu = {oid.nu}, gamma = {oid.gamma}")
    print(f"degree-r pool : {', '.join(str(m) for m in oid.s_lead)}")
    print(f"deeper pool   : {', '.join(str(m) for m in oid.s_deep)}")
    print()

    tm1 = step1(oid, registry)
    show("after step 1 (seed and transport the deepest degree-r block):", oid, tm1)

    tm2 = step2(oid, tm1)
    show("after step 2 (multiply up to the deeper pool, truncate at degree s):", oid, tm2)

    partial = install_targets(generic_distinguished(oid, registry), tm2)
    tm3 = step3(oid, tm2, partial)
    show("after step 3 (reduce-and-divide down the remaining blocks):", oid, tm3)

    system = build_generic_modification(oid, registry)
    print(f"fully modified system: {system.total_tail_terms()} nonzero tail terms")
    print("tail of the lex-smallest degree-r generator:")
    print(f"  {system.generator(oid.index_of_border[oid.s_lead[0]])}")


if __name__ == "__main__":
    main()
