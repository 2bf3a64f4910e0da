"""Certification pipeline: verdicts, report schema, determinism, inspect."""

from __future__ import annotations

import importlib
import json

import pytest

from bordercert import ArgumentError, Signature, __version__, certify, report_to_json_dict
from bordercert.borderbasis import BorderSystem
from bordercert.certify import inspect_signature
from bordercert.coeffring import CoeffPoly
from bordercert.linalg import PRIME
from bordercert.modification import build_generic_modification

EXPECTED_KEYS = [
    "signature",
    "mu",
    "hilbert",
    "ell",
    "tau",
    "gamma",
    "eta",
    "dimU",
    "principalDim",
    "verificationMode",
    "powers",
    "trials",
    "verdict",
    "evidence",
    "timings",
    "toolVersion",
]


def test_certified_small_case():
    report = certify(Signature(5, 2, 3, 3, 1), trials=2)
    assert report.verdict == "ELEMENTARY_CERTIFIED"
    assert report.dimU == 59
    assert report.principalDim == 65
    assert report.mu == 13
    assert report.hilbert == (1, 5, 3, 4)
    assert report.verificationMode == "symbolic"
    assert report.powers == [3, 3, 4, 4, 4]
    assert [t["tangentDim"] for t in report.trials] == [59, 59]
    assert [t["seed"] for t in report.trials] == [1, 2]
    assert all(t["field"] == "exact" for t in report.trials)
    assert report.toolVersion == __version__
    assert report.evidence == [
        f"trial seed {seed}: witness certificate mod {PRIME}: 59 coordinate tuples are "
        "independent exact tangent vectors; the tangent equations have rank 435 = 494 - 59"
        for seed in (1, 2)
    ]


def test_certified_first_table_row():
    report = certify(Signature(5, 2, 3, 3, 0), trials=2)
    assert report.verdict == "ELEMENTARY_CERTIFIED"
    assert report.dimU == 86
    assert report.principalDim == 90
    assert report.mu == 18
    assert all(t["tangentDim"] == 86 for t in report.trials)


def test_prime_only_run_is_inconclusive():
    report = certify(Signature(5, 2, 3, 3, 1), trials=1, field_kind="prime")
    assert report.verdict == "INCONCLUSIVE"
    assert report.trials[0]["tangentDim"] == 59
    assert report.trials[0]["field"] == "prime"
    assert any("exact" in note for note in report.evidence)


def test_tangent_mismatch_is_not_certified():
    # here the tangent dimension exceeds both dimU and the principal dimension
    report = certify(Signature(4, 3, 4, 2, 1), trials=1, field_kind="prime")
    assert report.verdict == "INCONCLUSIVE"
    assert report.dimU == 129
    assert report.principalDim == 124
    assert report.trials[0]["tangentDim"] == 142


@pytest.mark.parametrize("field_kind", ["exact", "prime"])
def test_non_principal_only_verdict(field_kind):
    # the tangent dimension 41 exceeds dim(U) = 36 but stays below n*mu = 48
    report = certify(Signature(4, 2, 3, 2, 1), trials=1, field_kind=field_kind)
    assert report.verdict == "NON_PRINCIPAL_ONLY"
    assert (report.dimU, report.principalDim) == (36, 48)
    assert report.trials == [{"seed": 1, "tangentDim": 41, "field": field_kind}]
    assert report.evidence == []


def test_disagreeing_trials_report_the_minimum(monkeypatch):
    dims = iter([61, 59])

    def by_trial(specialized, field_kind):
        assert field_kind == "prime"
        return next(dims)

    # `bordercert.certify` is also the re-exported function; patch the module.
    monkeypatch.setattr(importlib.import_module("bordercert.certify"), "tangent_dimension", by_trial)
    report = certify(Signature(5, 2, 3, 3, 1), trials=2, field_kind="prime")
    assert [(t["seed"], t["tangentDim"]) for t in report.trials] == [(1, 61), (2, 59)]
    assert report.verdict == "INCONCLUSIVE"
    assert report.evidence == [
        "trial tangent dimensions disagree ([59, 61]); reporting the minimum",
        "prime-field tangent dimension matches the family dimension; "
        "an exact-rational trial is required for certification",
    ]


def test_report_json_schema():
    report = certify(Signature(5, 2, 3, 3, 1), trials=1)
    payload = report_to_json_dict(report)
    assert list(payload.keys()) == EXPECTED_KEYS
    trimmed = report_to_json_dict(report, include_timings=False)
    assert list(trimmed.keys()) == [k for k in EXPECTED_KEYS if k != "timings"]
    assert payload["signature"] == [5, 2, 3, 3, 1]
    assert all(isinstance(v, int) for v in payload["hilbert"])
    # the payload must be JSON-serializable as-is
    json.dumps(payload)


def test_report_json_deterministic():
    a = report_to_json_dict(certify(Signature(5, 2, 3, 3, 1), trials=2), include_timings=False)
    b = report_to_json_dict(certify(Signature(5, 2, 3, 3, 1), trials=2), include_timings=False)
    assert json.dumps(a) == json.dumps(b)


def test_certify_argument_errors(monkeypatch):
    def never(sig):
        raise AssertionError("the system was built before the arguments were checked")

    # `bordercert.certify` is also the re-exported function; patch the module.
    monkeypatch.setattr(importlib.import_module("bordercert.certify"), "build", never)
    with pytest.raises(ArgumentError):
        certify(Signature(5, 2, 3, 3, 1), trials=0)
    with pytest.raises(ArgumentError):
        certify(Signature(5, 2, 3, 3, 1), field_kind="float")
    # bools are no ints here, as in `Signature`
    for bad in ({"seed": 1.5}, {"trials": 2.0}, {"trials": True}, {"seed": False}):
        with pytest.raises(ArgumentError, match="must be an int"):
            certify(Signature(3, 4, 6, 2, 1), **bad)


def test_inspect_running_example():
    info = inspect_signature(Signature(4, 3, 4, 2, 1))
    assert info["hilbert"] == [1, 4, 10, 7, 9]
    assert info["mu"] == 31
    assert info["principalDim"] == 124


def test_inspect_flagged_table_row():
    # the summary row whose printed principal dimension disagrees with its
    # own Hilbert function; mu comes from the order ideal
    info = inspect_signature(Signature(6, 2, 4, 4, 0))
    assert info["hilbert"] == [1, 6, 5, 7, 9]
    assert info["mu"] == 28
    assert info["principalDim"] == 168


def test_inspect_worked_example_target_sets():
    info = inspect_signature(Signature(3, 4, 6, 2, 1))
    assert info["gamma"] == 6
    assert info["leadTargets"] == ["x2^4", "x2^3*x3"]
    assert info["deepTargets"] == ["x2^3*x3^2", "x2^3*x3^3"]
    assert info["signature"] == [3, 4, 6, 2, 1]


def test_failed_check_is_inconclusive(monkeypatch):
    def perturbed(oid, registry):
        system = build_generic_modification(oid, registry)
        tails = [dict(t) for t in system.tails]
        tails[0][3] = tails[0].get(3, CoeffPoly.zero(registry)) + CoeffPoly.constant(registry, 7)
        return BorderSystem(oid, tails, system.ring)

    # `bordercert.certify` is also the re-exported function; patch the module.
    module = importlib.import_module("bordercert.certify")
    monkeypatch.setattr(module, "build_generic_modification", perturbed)
    report = certify(Signature(5, 2, 3, 3, 1), trials=2)
    assert report.verdict == "INCONCLUSIVE"
    assert report.verificationMode == "symbolic"
    assert report.powers is None
    assert [t["tangentDim"] for t in report.trials] == [None, None]
    assert [t["seed"] for t in report.trials] == [1, 2]
    assert report.evidence[0].startswith(
        "symbolic border-basis check failed: "
        "pair NeighborPair(j1=1, j2=2, alpha=2, beta=1) leaves residue "
    )


def test_one_symbolic_check_and_one_check_per_trial_point(monkeypatch):
    calls = []

    def counted(module):
        real = module.is_border_basis

        def is_border_basis(system):
            calls.append((module.__name__, system.ring.kind))
            return real(system)

        monkeypatch.setattr(module, "is_border_basis", is_border_basis)

    counted(importlib.import_module("bordercert.certify"))
    counted(importlib.import_module("bordercert.tangent"))
    report = certify(Signature(5, 2, 3, 3, 1), trials=2)
    assert report.verdict == "ELEMENTARY_CERTIFIED"
    assert calls == [
        ("bordercert.certify", "poly"),
        ("bordercert.tangent", "rational"),
        ("bordercert.tangent", "rational"),
    ]


def test_prime_mode_ranks_modulo_the_fixed_prime(monkeypatch):
    linalg = importlib.import_module("bordercert.linalg")
    calls = []
    real = linalg.modp_rank

    def recorded(rows):
        calls.append(len(rows))
        return real(rows)

    def never(rows):
        raise AssertionError("prime mode took an exact rank")

    monkeypatch.setattr(linalg, "modp_rank", recorded)
    monkeypatch.setattr(linalg, "exact_rank", never)
    report = certify(Signature(5, 2, 3, 3, 1), trials=1, field_kind="prime")
    assert [t["tangentDim"] for t in report.trials] == [59]
    assert len(calls) == 1


def _certificate_line(seed, dim_u, mu_nu):
    return (
        f"trial seed {seed}: witness certificate mod {PRIME}: {dim_u} coordinate tuples are "
        f"independent exact tangent vectors; the tangent equations have rank "
        f"{mu_nu - dim_u} = {mu_nu} - {dim_u}"
    )


def test_exact_certification_needs_no_exact_rank(monkeypatch):
    def never(rows):
        raise AssertionError("the witness certificate should have held")

    monkeypatch.setattr(importlib.import_module("bordercert.linalg"), "exact_rank", never)
    report = certify(Signature(6, 2, 4, 4, 0), trials=1)
    assert report.verdict == "ELEMENTARY_CERTIFIED"
    assert [t["tangentDim"] for t in report.trials] == [186]
    assert report.evidence == [_certificate_line(1, 186, 28 * 99)]


def test_a_bent_tuple_falls_back_to_the_exact_rank(monkeypatch):
    tangent = importlib.import_module("bordercert.tangent")
    linalg = importlib.import_module("bordercert.linalg")
    real_tuple, real_rank = tangent.coordinate_tangent_tuple, linalg.exact_rank
    exact_ranks = []

    def bent(sys, point, chi):
        tup = real_tuple(sys, point, chi)
        if chi == "theta[1]":
            # column 0, the unknown a_11, meets the equations: part (a) fails
            tup.entries[0] = tup.entries.get(0, 0) + 1
        return tup

    def counted(rows):
        exact_ranks.append(real_rank(rows))
        return exact_ranks[-1]

    monkeypatch.setattr(tangent, "coordinate_tangent_tuple", bent)
    monkeypatch.setattr(linalg, "exact_rank", counted)
    report = certify(Signature(5, 2, 3, 3, 1), trials=1)
    assert report.verdict == "ELEMENTARY_CERTIFIED"
    assert [t["tangentDim"] for t in report.trials] == [59]
    assert report.evidence == []
    # one exact rank, of the columns of the corner unknowns: the fold
    # eliminates 273 of the 494 unknowns by unit pivots, each one rank
    assert exact_ranks == [494 - 59 - 273]


def test_failed_certificate_keeps_the_exact_dimension():
    # the tangent dimension 129 exceeds dim(U) = 50, so no witness can hold
    report = certify(Signature(3, 4, 6, 2, 1), trials=1)
    assert report.verdict == "INCONCLUSIVE"
    assert [t["tangentDim"] for t in report.trials] == [129]
    assert report.evidence == []


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
