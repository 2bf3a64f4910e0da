"""End-to-end certification of one signature, with a machine-readable report.

The pipeline: build the order ideal, construct the generic modification,
verify once, symbolically, that the whole family is made of border bases,
record the least power of every variable lying in the ideal, and measure the
tangent dimension at several seeded specializations, each of which checks
its own point again.  In exact mode a trial first tries the witness
certificate at its point (`tangent.witness_certificate`), which proves the
tangent dimension over Q equals the family dimension dim(U) from two mod-p
ranks and an exact kernel check; only where it fails does the trial take
the exact rank.  A certified trial records dim(U) and one evidence line
naming the certificate.  The verdict compares the minimum tangent dimension
against dim(U) and the principal dimension.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

from .borderbasis import (
    is_border_basis,
    power_in_ideal,
    specialize_system,
)
from .coeffring import IndeterminateRegistry
from .linalg import PRIME, check_field
from .modification import build_generic_modification
from .monomial import ArgumentError
from .orderideal import Signature, build, translation_frame
from .tangent import (
    checked_columns,
    corner_columns,
    dim_U,
    random_assignment,
    tangent_dimension,
    witness_certificate,
)
from .version import __version__


@dataclass
class CertificationReport:
    signature: Signature
    mu: int
    hilbert: tuple
    ell: int
    tau: int
    gamma: int
    eta: int
    dimU: int
    principalDim: int
    verificationMode: str
    powers: Optional[List[int]]
    trials: List[dict]
    verdict: str
    evidence: List[str] = field(default_factory=list)
    timings: Dict[str, float] = field(default_factory=dict)
    toolVersion: str = __version__


def report_to_json_dict(report: CertificationReport, include_timings: bool = True) -> dict:
    """Schema-stable dict: the report's fields in declaration order, exact integers."""
    out = {f.name: getattr(report, f.name) for f in fields(report)}
    out["signature"] = list(report.signature.as_tuple())
    out["hilbert"] = list(report.hilbert)
    out["trials"] = [dict(t) for t in report.trials]
    out["evidence"] = list(report.evidence)
    if include_timings:
        out["timings"] = {k: round(v, 6) for k, v in report.timings.items()}
    else:
        del out["timings"]
    return out


def certify(
    sig: Signature,
    trials: int = 3,
    field_kind: str = "exact",
    seed: int = 1,
) -> CertificationReport:
    """Run the whole pipeline for one signature."""
    for name, value in (("trials", trials), ("seed", seed)):
        if type(value) is not int:
            raise ArgumentError(f"{name} must be an int, got {value!r}")
    if trials < 1:
        raise ArgumentError("at least one trial is required")
    check_field(field_kind)
    timings: Dict[str, float] = {}
    evidence: List[str] = []

    t0 = time.perf_counter()
    oid = build(sig)
    registry = IndeterminateRegistry(oid)
    system = build_generic_modification(oid, registry)
    timings["build"] = time.perf_counter() - t0

    family_dim = dim_U(oid)
    mu_nu = oid.mu * oid.nu
    principal = sig.n * oid.mu
    eta = translation_frame(oid).eta

    t0 = time.perf_counter()
    verified, failures = is_border_basis(system)
    if not verified:
        pair, residue = failures[0]
        evidence.append(
            f"symbolic border-basis check failed: pair {pair} leaves residue {residue}"
        )
    timings["verification"] = time.perf_counter() - t0

    powers: Optional[List[int]] = None
    trial_rows: List[dict] = []
    t0 = time.perf_counter()
    for k in range(trials):
        trial_seed = seed + k
        row = {"seed": trial_seed, "tangentDim": None, "field": field_kind}
        trial_rows.append(row)
        if not verified:
            # The generic system is not a border basis, so no trial has
            # powers to record or a tangent space to measure.
            continue
        assignment = random_assignment(registry, trial_seed)
        specialized = specialize_system(system, assignment)
        if powers is None:
            tp = time.perf_counter()
            powers = [power_in_ideal(specialized, var) for var in range(1, sig.n + 1)]
            timings["powers"] = time.perf_counter() - tp
        if field_kind == "prime":
            row["tangentDim"] = tangent_dimension(specialized, field_kind)
            continue
        columns = checked_columns(specialized)
        folded = corner_columns(oid, columns)
        if witness_certificate(system, assignment, specialized, columns, folded):
            row["tangentDim"] = family_dim
            evidence.append(
                f"trial seed {trial_seed}: witness certificate mod {PRIME}: {family_dim} "
                f"coordinate tuples are independent exact tangent vectors; the tangent "
                f"equations have rank {mu_nu - family_dim} = {mu_nu} - {family_dim}"
            )
        else:
            row["tangentDim"] = tangent_dimension(specialized, "exact", folded)
    timings["tangent"] = time.perf_counter() - t0

    dims = sorted({t["tangentDim"] for t in trial_rows if t["tangentDim"] is not None})
    min_tangent = dims[0] if dims else None
    if len(dims) > 1:
        evidence.append(
            f"trial tangent dimensions disagree ({dims}); reporting the minimum"
        )

    if not verified:
        verdict = "INCONCLUSIVE"
    elif min_tangent == family_dim and field_kind == "exact":
        verdict = "ELEMENTARY_CERTIFIED"
    elif min_tangent != family_dim and min_tangent < principal:
        verdict = "NON_PRINCIPAL_ONLY"
    else:
        verdict = "INCONCLUSIVE"
        if field_kind == "prime" and min_tangent == family_dim:
            evidence.append(
                "prime-field tangent dimension matches the family dimension; "
                "an exact-rational trial is required for certification"
            )

    return CertificationReport(
        signature=sig,
        mu=oid.mu,
        hilbert=oid.hilbert,
        ell=oid.ell,
        tau=oid.tau,
        gamma=oid.gamma,
        eta=eta,
        dimU=family_dim,
        principalDim=principal,
        verificationMode="symbolic",
        powers=powers,
        trials=trial_rows,
        verdict=verdict,
        evidence=evidence,
        timings=timings,
    )


def inspect_signature(sig: Signature) -> dict:
    """Pure structural summary of one signature; no linear algebra."""
    oid = build(sig)
    fr = translation_frame(oid)
    return {
        "signature": list(sig.as_tuple()),
        "minimalLeadMonomial": str(sig.minimal_lead_monomial()),
        "mu": oid.mu,
        "nu": oid.nu,
        "hilbert": list(oid.hilbert),
        "ell": oid.ell,
        "tau": oid.tau,
        "gamma": oid.gamma,
        "eta": fr.eta,
        "dimU": dim_U(oid),
        "principalDim": sig.n * oid.mu,
        "basis": [str(m) for m in oid.basis],
        "border": [str(m) for m in oid.border],
        "leading": [str(m) for m in oid.leading],
        "trailing": [str(m) for m in oid.trailing],
        "targetPool": [str(m) for m in oid.tar_all],
        "targetPoolTruncated": [str(m) for m in oid.tar_prime],
        "targetSeeds": [str(m) for m in oid.tar_double_prime],
        "leadTargets": [str(m) for m in oid.s_lead],
        "deepTargets": [str(m) for m in oid.s_deep],
        "translationAnchors": {
            str(alpha): str(b) for alpha, b in sorted(fr.anchors.items())
        },
        "translationShifts": {
            str(alpha): [str(m) for m in ms]
            for alpha, ms in sorted(fr.delta_sets.items())
        },
    }
