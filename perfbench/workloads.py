"""Workloads of the bordercert benchmark and the known answers they are checked
against.

The answers are written out here, not computed by the code under test.  They
hold at a general specialization, so they hold for every workload seed; a
seed that hit a special point would show as a failure, not as a new answer.
Every workload is a closed loop run from one thread: the next call starts
when the previous one has returned.
"""

from __future__ import annotations

import importlib
import json
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

PRIME_EVIDENCE = "exact-rational trial is required"


class Gate:
    """Counts calls attempted and calls whose output was wrong or raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        self._first_bytes: Dict[str, str] = {}

    def expect(self, label: str, got, want) -> None:
        self.attempted += 1
        if got != want:
            self._fail(f"{label}: got {got!r}, expected {want!r}")

    def error(self, label: str, exc: Exception) -> None:
        self.attempted += 1
        self._fail(f"{label}: raised {type(exc).__name__}: {exc}")

    def same_as_first(self, label: str, data: str) -> bool:
        """True when `data` equals what the first pass produced for `label`."""
        return self._first_bytes.setdefault(label, data) == data

    def _fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)


class Api:
    """bordercert's modules as loaded for this run.

    Calls go through module attributes, so a traced run sees the wrapped
    names; `span` times the benchmark's own calls into a layer.
    """

    def __init__(self, span: Optional[Callable] = None) -> None:
        self.certify = importlib.import_module("bordercert.certify")
        self.tangent = importlib.import_module("bordercert.tangent")
        self.Signature = importlib.import_module("bordercert.orderideal").Signature
        self.span = span or (lambda name: nullcontext())


@dataclass(frozen=True)
class CertifyCase:
    sig: Tuple[int, int, int, int, int]
    field: str
    trials: int
    verdict: str
    tangent_dim: int
    powers: Tuple[int, ...]
    evidence: Optional[str] = None


@dataclass(frozen=True)
class VerifyCase:
    sig: Tuple[int, int, int, int, int]
    mu: int
    tail_terms: int
    powers: Tuple[int, ...]


@dataclass(frozen=True)
class WitnessCase:
    sig: Tuple[int, int, int, int, int]
    mu: int
    tail_terms: int
    dim_u: int


def run_certify(api: Api, case: CertifyCase, sig, seed: int, gate: Gate) -> None:
    label = f"certify {case.sig} {case.field}"
    with api.span("certify"):
        report = api.certify.certify(sig, trials=case.trials, field_kind=case.field, seed=seed)
    # Report bytes without timings must not change between passes of one seed.
    data = json.dumps(api.certify.report_to_json_dict(report, include_timings=False))
    got = (
        report.verdict,
        [t["tangentDim"] for t in report.trials],
        tuple(report.powers or ()),
        case.evidence is None or any(case.evidence in e for e in report.evidence),
        gate.same_as_first(label, data),
    )
    want = (case.verdict, [case.tangent_dim] * case.trials, case.powers, True, True)
    gate.expect(label, got, want)


def run_verify(api: Api, case: VerifyCase, sig, seed: int, gate: Gate) -> None:
    """The calls `bordercert verify` makes in both modes, then the powers."""
    cm = api.certify
    label = f"verify {case.sig}"
    oid = cm.build(sig)
    gate.expect(label + " build mu", oid.mu, case.mu)
    registry = cm.IndeterminateRegistry(oid)
    system = cm.build_generic_modification(oid, registry)
    gate.expect(label + " tail terms", system.total_tail_terms(), case.tail_terms)
    gate.expect(label + " symbolic check", cm.is_border_basis(system)[0], True)
    spec = cm.specialize_system(system, cm.random_assignment(registry, seed))
    gate.expect(label + " specialized ring", spec.ring.kind, "rational")
    gate.expect(label + " specialized check", cm.is_border_basis(spec)[0], True)
    for k, want in enumerate(case.powers, start=1):
        gate.expect(f"{label} power of x{k}", cm.power_in_ideal(spec, k), want)


def run_witness(api: Api, case: WitnessCase, sig, seed: int, gate: Gate) -> None:
    cm, tm = api.certify, api.tangent
    label = f"witness {case.sig}"
    oid = cm.build(sig)
    gate.expect(label + " build mu", oid.mu, case.mu)
    registry = cm.IndeterminateRegistry(oid)
    system = cm.build_generic_modification(oid, registry)
    gate.expect(label + " tail terms", system.total_tail_terms(), case.tail_terms)
    with api.span("tangent.independence_rank"):
        rank = tm.independence_rank(system, tm.random_assignment(registry, seed))
    gate.expect(label + " independence rank", rank, case.dim_u)


def _calls(module: str, *attrs: str) -> Tuple[str, ...]:
    return tuple(f"bordercert.{module}.{a}" for a in attrs)


CERTIFY_CALLS = _calls(
    "certify",
    "build",
    "build_generic_modification",
    "is_border_basis",
    "specialize_system",
    "power_in_ideal",
    "tangent_dimension",
) + _calls("tangent", "is_border_basis", "rank_of") + _calls("linalg", "dedupe_rows")


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable
    cases: tuple
    # Wrapped names (module.attribute) the traced run must see called.
    expected_calls: Tuple[str, ...]

    def inputs(self, api: Api) -> list:
        """What one pass calls with: each case and its validated Signature."""
        return [(case, api.Signature(*case.sig)) for case in self.cases]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "certify-exact",
            run_certify,
            (
                CertifyCase((5, 2, 3, 3, 1), "exact", 1, "ELEMENTARY_CERTIFIED", 59, (3, 3, 4, 4, 4)),
                # 129 is at least the principal dimension 87, so no verdict is possible.
                CertifyCase((3, 4, 6, 2, 1), "exact", 3, "INCONCLUSIVE", 129, (5, 7, 7)),
            ),
            CERTIFY_CALLS + _calls("linalg", "exact_rank"),
        ),
        Workload(
            "certify-prime",
            run_certify,
            (
                CertifyCase(
                    (5, 2, 3, 3, 0), "prime", 1, "INCONCLUSIVE", 86, (3, 3, 4, 4, 4), PRIME_EVIDENCE
                ),
                CertifyCase(
                    (5, 2, 3, 3, 1), "prime", 1, "INCONCLUSIVE", 59, (3, 3, 4, 4, 4), PRIME_EVIDENCE
                ),
            ),
            CERTIFY_CALLS + _calls("linalg", "modp_rank"),
        ),
        Workload(
            "verify",
            run_verify,
            (
                VerifyCase((6, 2, 5, 1, 1), 253, 3291, (6,) * 6),
                VerifyCase((6, 4, 5, 1, 1), 435, 2801, (6,) * 6),
            ),
            _calls(
                "certify",
                "build",
                "build_generic_modification",
                "is_border_basis",
                "specialize_system",
                "power_in_ideal",
            ),
        ),
        Workload(
            "witness",
            run_witness,
            (
                # mu is the sum of the Hilbert function, dim U the paper's table entry.
                WitnessCase((6, 2, 4, 4, 0), 28, 195, 186),
                WitnessCase((5, 2, 3, 3, 0), 18, 85, 86),
            ),
            _calls("certify", "build", "build_generic_modification")
            + _calls("tangent", "rank_of", "coordinate_tangent_tuple")
            + _calls("linalg", "dedupe_rows", "exact_rank"),
        ),
    )
}
