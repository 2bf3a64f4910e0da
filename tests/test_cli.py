"""Command-line interface: subcommands, exit codes, JSON stability, batch."""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from bordercert import cli
from bordercert.cli import _build_parser, main
from bordercert.coeffring import CoeffPoly
from bordercert.monomial import InternalInvariantError
from helpers import perturbed

GOLDEN = Path(__file__).parent / "golden"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# flag validation and defaults


def test_signature_and_shape_are_exclusive_and_required(capsys):
    assert run(["certify", "--signature", "5,2,3,3,1", "--shape", "5,2,2,3"], capsys)[0] == 2
    assert run(["certify"], capsys)[0] == 2


def test_bad_field_and_trials_are_argument_errors(capsys, tmp_path):
    assert run(["certify", "--signature", "5,2,3,3,1", "--field", "float"], capsys)[0] == 2
    code, _, err = run(["certify", "--signature", "5,2,3,3,1", "--trials", "0"], capsys)
    assert code == 2
    assert "trials must be at least 1" in err
    code, _, err = run(["certify", "--signature", "5,2,3,3,1", "--trials", "abc"], capsys)
    assert code == 2
    assert "trials must be an integer, got 'abc'" in err
    assert "_trial_count" not in err
    batch_file = tmp_path / "sigs.txt"
    batch_file.write_text("5,2,3,3,1\n")
    code, out, _ = run(["batch", str(batch_file), "--trials", "0"], capsys)
    assert code == 2
    assert out == ""


def test_malformed_signature_is_an_argument_error(capsys):
    # "²" passes str.isdigit but not int(), so only isdecimal keeps it out
    for value in ("5,2,,3,1", "5,2,--3,3,1", "5,2,+3,3,1", "5,2,3,3,²"):
        code, out, err = run(["inspect", "--signature", value], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --signature must be 5 comma-separated integers, got {value!r}\n"


def test_verbose_is_an_inspect_flag(capsys):
    code, out, _ = run(["inspect", "--signature", "5,2,3,3,1", "-v"], capsys)
    assert code == 0 and "basis " in out
    assert "anchors    x1*x5, x2*x5, x3*x5^3, x4*x5^3, x5^4" in out.splitlines()
    assert run(["certify", "--signature", "5,2,3,3,1", "-v"], capsys)[0] == 2


def test_parser_defaults():
    args = _build_parser().parse_args(["certify", "--signature", "5,2,3,3,1"])
    assert args.trials == 3 and args.seed == 1 and args.field == "exact"


# ---------------------------------------------------------------------------
# modify


def test_modify_matches_golden(capsys):
    code, out, _ = run(["modify", "--signature", "3,4,6,2,1"], capsys)
    assert code == 0
    assert out == (GOLDEN / "modify_3_4_6_2_1.txt").read_text()


def test_modify_second_golden(capsys):
    code, out, _ = run(["modify", "--signature", "5,2,3,3,0"], capsys)
    assert code == 0
    assert out == (GOLDEN / "modify_5_2_3_3_0.txt").read_text()


# ---------------------------------------------------------------------------
# inspect


def test_inspect_shape_conversion(capsys, tmp_path):
    out_json = tmp_path / "info.json"
    code, out, _ = run(
        ["inspect", "--shape", "5,2,2,3", "--json", str(out_json)], capsys
    )
    assert code == 0
    assert "(5, 2, 3, 3, 1)" in out
    assert "dimU       59" in out
    info = json.loads(out_json.read_text())
    assert info["signature"] == [5, 2, 3, 3, 1]
    assert info["mu"] == 13


def test_inspect_json_matches_golden(capsys, tmp_path):
    # pins the translation anchors and shifts the shared frame holds
    path = tmp_path / "info.json"
    assert run(["inspect", "--signature", "5,2,3,3,0", "--json", str(path)], capsys)[0] == 0
    assert path.read_bytes() == (GOLDEN / "inspect_5_2_3_3_0.json").read_bytes()


# ---------------------------------------------------------------------------
# verify / tangent


def test_verify_symbolic_ok(capsys):
    code, out, _ = run(["verify", "--signature", "4,3,4,2,1"], capsys)
    assert code == 0
    assert "symbolic border-basis check: ok" in out


def test_verify_takes_no_field_flags(capsys):
    assert run(["verify", "--signature", "5,2,3,3,1", "--field", "prime"], capsys)[0] == 2
    for flag in ("--seed", "--trials", "--budget"):
        assert run(["verify", "--signature", "5,2,3,3,1", flag, "2"], capsys)[0] == 2


def test_tangent_single_specialization(capsys):
    code, out, _ = run(
        ["tangent", "--signature", "5,2,3,3,1", "--seed", "2", "--field", "prime"],
        capsys,
    )
    assert code == 0
    assert "tangentDim 59" in out
    assert "dimU       59" in out


def test_exact_tangent_is_one_certify_trial(capsys, monkeypatch):
    def never(rows):
        raise AssertionError("the witness certificate should have held")

    monkeypatch.setattr(importlib.import_module("bordercert.linalg"), "exact_rank", never)
    code, out, err = run(["tangent", "--signature", "5,2,3,3,1", "--seed", "2"], capsys)
    assert (code, err) == (0, "")
    assert out == "tangentDim 59\ndimU       59\nfield      exact\nseed       2\n"


def test_tangent_after_a_failed_symbolic_check_exits_3(capsys, monkeypatch):
    module = importlib.import_module("bordercert.certify")
    real = module.build_generic_modification
    monkeypatch.setattr(
        module,
        "build_generic_modification",
        lambda oid, registry: perturbed(real(oid, registry), 1, 3, CoeffPoly.constant(registry, 1)),
    )
    code, out, err = run(["tangent", "--signature", "5,2,3,3,1"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("note: symbolic border-basis check failed: pair ")


# ---------------------------------------------------------------------------
# certify


def test_certify_json_byte_identical(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, out, _ = run(
            [
                "certify",
                "--signature",
                "5,2,3,3,1",
                "--trials",
                "2",
                "--seed",
                "9",
                "--json",
                str(path),
                "--no-timings",
            ],
            capsys,
        )
        assert code == 0
        assert "ELEMENTARY_CERTIFIED" in out
    assert paths[0].read_bytes() == paths[1].read_bytes()
    payload = json.loads(paths[0].read_text())
    assert "timings" not in payload
    assert payload["verdict"] == "ELEMENTARY_CERTIFIED"


@pytest.mark.parametrize(
    "golden, code, flags",
    [
        ("certify_5_2_3_3_1", 0, ["--signature", "5,2,3,3,1", "--trials", "2", "--seed", "9"]),
        ("certify_5_2_3_3_0_prime", 3, ["--signature", "5,2,3,3,0", "--field", "prime", "--trials", "1"]),
        # every trial's certificate fails and takes the exact fallback
        ("certify_4_2_3_2_1", 0, ["--signature", "4,2,3,2,1", "--trials", "2"]),
    ],
)
def test_certify_report_matches_golden(capsys, tmp_path, golden, code, flags):
    path = tmp_path / "report.json"
    assert run(["certify", *flags, "--no-timings", "--json", str(path)], capsys)[:2] == (
        code,
        (GOLDEN / f"{golden}.txt").read_text(),
    )
    assert path.read_bytes() == (GOLDEN / f"{golden}.json").read_bytes()


def test_certify_inconclusive_exit_code(capsys):
    code, out, _ = run(
        ["certify", "--signature", "5,2,3,3,1", "--trials", "1", "--field", "prime"],
        capsys,
    )
    assert code == 3
    assert "INCONCLUSIVE" in out


# ---------------------------------------------------------------------------
# exit codes and argument handling


def test_argument_error_exit_codes(capsys):
    assert run(["inspect", "--signature", "9,9,9,9,9"], capsys)[0] == 2
    assert run(["inspect", "--signature", "1,2"], capsys)[0] == 2
    assert run(["inspect"], capsys)[0] == 2
    assert run(["inspect", "--signature", "5,2,3,3,1", "--shape", "5,2,2,3"], capsys)[0] == 2
    assert run(["no-such-command"], capsys)[0] == 2
    assert run(["batch", "/no/such/file.txt"], capsys)[0] == 2


def test_version_flag(capsys):
    assert run(["--version"], capsys)[0] == 0


def test_prime_flag_is_rejected(capsys, tmp_path):
    # the modulus is fixed; even the default prime cannot be passed
    flags = ["--field", "prime", "--prime", "2305843009213693951"]
    assert run(["tangent", "--signature", "5,2,3,3,0", *flags], capsys)[0] == 2
    report = tmp_path / "report.json"
    code = run(["certify", "--signature", "5,2,3,3,1", *flags, "--json", str(report)], capsys)[0]
    assert code == 2
    assert not report.exists()
    batch_file = tmp_path / "sigs.txt"
    batch_file.write_text("5,2,3,3,1\n")
    code, out, _ = run(["batch", str(batch_file), *flags], capsys)
    assert (code, out) == (2, "")


# ---------------------------------------------------------------------------
# batch


MIXED_BATCH = "# comment\n5,2,3,3,1\n0,0,0,0,0\n\n5,2,3,3,1\n"


def test_batch_preserves_order_and_isolates_failures(capsys, tmp_path):
    batch_file = tmp_path / "sigs.txt"
    batch_file.write_text(MIXED_BATCH)
    out_file = tmp_path / "reports.jsonl"
    code, _, _ = run(
        [
            "batch",
            str(batch_file),
            "--trials",
            "1",
            "--jobs",
            "1",
            "--json",
            str(out_file),
            "--no-timings",
        ],
        capsys,
    )
    assert code == 0
    lines = [json.loads(ln) for ln in out_file.read_text().splitlines()]
    assert len(lines) == 3
    assert lines[0]["signature"] == [5, 2, 3, 3, 1]
    assert lines[0]["verdict"] == "ELEMENTARY_CERTIFIED"
    assert lines[1]["signature"] == "0,0,0,0,0"
    assert "ArgumentError" in lines[1]["error"]
    assert lines[2] == lines[0]


def test_batch_summary_goes_to_stderr_only(capsys, tmp_path):
    batch_file = tmp_path / "sigs.txt"
    batch_file.write_text(MIXED_BATCH)
    flags = ["--trials", "1", "--jobs", "1", "--no-timings"]
    code, out, err = run(["batch", str(batch_file), *flags], capsys)
    assert code == 0
    summary = ["verdict ELEMENTARY_CERTIFIED: 2", "error lines: 1"]
    assert err.splitlines() == summary
    out_file = tmp_path / "reports.jsonl"
    code, json_out, err = run(["batch", str(batch_file), *flags, "--json", str(out_file)], capsys)
    assert (code, json_out, err.splitlines()) == (0, "", summary)
    # the summary leaves the JSON lines as they were, on stdout and in the file
    assert out == out_file.read_text()
    lines = [json.loads(ln) for ln in out.splitlines()]
    assert [ln.get("verdict") for ln in lines] == ["ELEMENTARY_CERTIFIED", None, "ELEMENTARY_CERTIFIED"]


def test_batch_parallel_matches_serial(capsys, tmp_path):
    batch_file = tmp_path / "sigs.txt"
    batch_file.write_text("5,2,3,3,1\n3,2,3,2,1\n")
    outputs = []
    for jobs in ("1", "2"):
        out_file = tmp_path / f"out{jobs}.jsonl"
        code, _, _ = run(
            [
                "batch",
                str(batch_file),
                "--trials",
                "1",
                "--jobs",
                jobs,
                "--json",
                str(out_file),
                "--no-timings",
            ],
            capsys,
        )
        assert code == 0
        outputs.append(out_file.read_bytes())
    assert outputs[0] == outputs[1]


def test_batch_workers_capped_at_line_count(capsys, tmp_path, monkeypatch):
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    batch_file = tmp_path / "sigs.txt"
    batch_file.write_text("3,2,3,2,1\n0,0,0,0,0\n")
    code, out, _ = run(
        ["batch", str(batch_file), "--trials", "1", "--jobs", "64", "--no-timings"], capsys
    )
    assert code == 0
    assert pools == [2]
    assert len(out.splitlines()) == 2


def test_unwritable_json_fails_before_any_certification(capsys, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "certify", lambda sig, **settings: calls.append(sig))
    batch_file = tmp_path / "sigs.txt"
    batch_file.write_text("3,2,3,2,1\n5,2,3,3,1\n")
    bad = "/no/such/dir/out.json"
    assert run(["batch", str(batch_file), "--jobs", "1", "--json", bad], capsys)[0] == 2
    assert run(["certify", "--signature", "5,2,3,3,1", "--json", bad], capsys)[0] == 2
    assert calls == []


def test_batch_exits_4_on_an_internal_error(capsys, tmp_path, monkeypatch):
    real_certify = cli.certify

    def certify(sig, **settings):
        if sig.as_tuple() == (5, 2, 3, 3, 1):
            raise InternalInvariantError("planted")
        return real_certify(sig, **settings)

    monkeypatch.setattr(cli, "certify", certify)
    batch_file = tmp_path / "sigs.txt"
    batch_file.write_text("3,2,3,2,1\n5,2,3,3,1\n3,2,3,2,1\n")
    code, out, _ = run(
        ["batch", str(batch_file), "--trials", "1", "--jobs", "1", "--no-timings"], capsys
    )
    assert code == 4
    lines = [json.loads(ln) for ln in out.splitlines()]
    assert len(lines) == 3
    assert lines[0]["signature"] == [3, 2, 3, 2, 1]
    assert lines[2] == lines[0]
    assert lines[1] == {"signature": "5,2,3,3,1", "error": "InternalInvariantError: planted"}


# ---------------------------------------------------------------------------
# installed entry point


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "bordercert.cli", "inspect", "--signature", "5,2,3,3,0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "dimU       86" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
