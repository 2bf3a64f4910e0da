"""Tangent-space dimension and the certification verdict.

At a random specialization of the modified system, the tangent space of the
Hilbert scheme of points is the solution space of a linear system built from
the neighbor relations.  The family of all modifications and translations has
the closed-form dimension

    dim(U) = ell*tau + gamma + (delta - 1)*eta + (n - delta + 1),

and when the computed tangent dimension equals dim(U) over the rationals, the
point sits on an elementary component of that dimension.  The certification
report packages the whole pipeline.

Run:  python3 demos/04_tangent_and_certification.py
"""

from __future__ import annotations

import json

from bordercert import (
    IndeterminateRegistry,
    Signature,
    build,
    build_generic_modification,
    certify,
    dim_U,
    random_assignment,
    report_to_json_dict,
    specialize_system,
    tangent_dimension,
)
from bordercert.tangent import (
    coordinate_labels,
    coordinate_tangent_tuple,
    independence_rank,
    tangent_point,
)


def main() -> None:
    sig = Signature(5, 2, 3, 3, 1)
    oid = build(sig)
    registry = IndeterminateRegistry(oid)
    system = build_generic_modification(oid, registry)
    assignment = random_assignment(registry, seed=1)
    spec = specialize_system(system, assignment)

    print(f"signature {sig}: mu = {oid.mu}, nu = {oid.nu}")
    print(f"tangent dimension at seed 1     : {tangent_dimension(spec)}")
    print(f"closed-form family dim(U)       : {dim_U(oid)}")
    print(f"principal component (n*mu)      : {sig.n * oid.mu}")
    print()

    labels = coordinate_labels(system)
    point = tangent_point(system, assignment)
    print(f"{len(labels)} coordinate directions: "
          f"{labels[0]} .. {labels[-1]}")
    c_tuple = coordinate_tangent_tuple(system, point, labels[0])
    print(f"tuple for {labels[0]}: nonzero at {c_tuple.nonzero_positions()}")
    z_label = next(chi for chi in labels if chi.startswith("Z["))
    z_tuple = coordinate_tangent_tuple(system, point, z_label)
    print(f"tuple for {z_label}: {len(z_tuple.nonzero_positions())} nonzero slots")
    print(f"independence rank of all tuples : {independence_rank(system, assignment)}")
    print()

    report = certify(sig, trials=3, seed=1)
    print("certification report:")
    print(json.dumps(report_to_json_dict(report, include_timings=False), indent=2))


if __name__ == "__main__":
    main()
