"""Command-line front end: a thin shell over `certify` and its building blocks.

Subcommands: inspect, modify, verify, tangent, certify, batch.  Each handler
reads the parsed arguments directly; argparse checks the flags, `certify`
checks its own arguments.  Exit codes: 0 success, 2 argument error, 3
inconclusive certification or failed verification, 4 internal invariant
violation (for `batch`, on any line).  `batch` ends with a count of each
verdict and of error lines on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Tuple

from .borderbasis import is_border_basis
from .certify import certify, inspect_signature, report_to_json_dict
from .linalg import FIELDS
from .modification import build_generic_modification, build_targets, render_targets
from .monomial import ArgumentError, InternalInvariantError
from .orderideal import Signature, build, shape_to_signature
from .version import __version__

EXIT_OK = 0
EXIT_ARGUMENT = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4


def _parse_ints(text: str, count: int, what: str) -> List[int]:
    parts = [p.strip() for p in text.split(",")]
    # isdecimal, not isdigit: "²".isdigit() holds, but int("²") raises
    if len(parts) != count or not all(p.removeprefix("-").isdecimal() for p in parts):
        raise ArgumentError(f"{what} must be {count} comma-separated integers, got {text!r}")
    return [int(p) for p in parts]


def _trial_count(text: str) -> int:
    try:
        trials = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"trials must be an integer, got {text!r}")
    if trials < 1:
        raise argparse.ArgumentTypeError("trials must be at least 1")
    return trials


def _signature(args: argparse.Namespace) -> Signature:
    if args.signature is not None:
        return Signature(*_parse_ints(args.signature, 5, "--signature"))
    n, kappa, r, s = _parse_ints(args.shape, 4, "--shape")
    return shape_to_signature(n, kappa, r, s)


def _build_parser() -> argparse.ArgumentParser:
    flags = functools.partial(argparse.ArgumentParser, add_help=False)
    located = flags()
    group = located.add_mutually_exclusive_group(required=True)
    group.add_argument("--signature", help="n,r,s,delta,w")
    group.add_argument("--shape", help="n,kappa,r,s (converted to a signature)")
    seed = flags()
    seed.add_argument("--seed", type=int, default=1)
    trials = flags(parents=[seed])
    trials.add_argument("--trials", type=_trial_count, default=3)
    field = flags()
    field.add_argument("--field", choices=FIELDS, default="exact")
    report = flags(parents=[trials, field])
    report.add_argument("--no-timings", action="store_true", help="omit timings from output")

    parser = argparse.ArgumentParser(
        prog="bordercert",
        description="Construct, modify, verify, and certify a family of border bases.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", parents=[located], help="structural summary of one signature")
    p.add_argument("--json", metavar="PATH", help="write the summary as JSON")
    p.add_argument("-v", "--verbose", action="count", default=0)

    sub.add_parser("modify", parents=[located], help="emit the target-assignment dump")

    sub.add_parser(
        "verify", parents=[located], help="symbolic border-basis check of the modified system"
    )

    sub.add_parser(
        "tangent", parents=[located, seed, field], help="tangent dimension at one specialization"
    )

    p = sub.add_parser("certify", parents=[located, report], help="full certification pipeline")
    p.add_argument("--json", metavar="PATH", help="write the report as JSON")

    p = sub.add_parser("batch", parents=[report], help="certify every signature in a file")
    p.add_argument("input", help="file with one signature n,r,s,delta,w per line")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.add_argument("--json", metavar="PATH", help="write JSON lines to a file")
    return parser


def _cmd_inspect(args: argparse.Namespace) -> int:
    info = inspect_signature(_signature(args))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(info, f, indent=2)
            f.write("\n")
    print(f"signature  {tuple(info['signature'])}")
    print(f"hilbert    {tuple(info['hilbert'])}")
    for key in ("mu", "nu", "ell", "tau", "gamma", "eta", "dimU", "principalDim"):
        print(f"{key:<10} {info[key]}")
    print(f"leading    {', '.join(info['leading'])}")
    print(f"trailing   {', '.join(info['trailing'])}")
    print(f"leadTargets {', '.join(info['leadTargets'])}")
    print(f"deepTargets {', '.join(info['deepTargets'])}")
    if args.verbose > 0:
        print(f"basis      {', '.join(info['basis'])}")
        print(f"border     {', '.join(info['border'])}")
        print(f"anchors    {', '.join(info['translationAnchors'].values())}")
    return EXIT_OK


def _cmd_modify(args: argparse.Namespace) -> int:
    oid = build(_signature(args))
    print(render_targets(oid, build_targets(oid)))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    ok, failures = is_border_basis(build_generic_modification(build(_signature(args))))
    print(f"symbolic border-basis check: {'ok' if ok else 'FAILED'}")
    for pair, residue in failures[:5]:
        print(f"  pair {pair}: residue {residue}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_INCONCLUSIVE


def _cmd_tangent(args: argparse.Namespace) -> int:
    report = certify(_signature(args), trials=1, field_kind=args.field, seed=args.seed)
    tangent = report.trials[0]["tangentDim"]
    if tangent is None:  # the symbolic check failed
        for note in report.evidence:
            print(f"note: {note}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    print(f"tangentDim {tangent}")
    print(f"dimU       {report.dimU}")
    print(f"field      {args.field}")
    print(f"seed       {args.seed}")
    return EXIT_OK


def _cmd_certify(args: argparse.Namespace) -> int:
    sig = _signature(args)
    with open(args.json, "w") if args.json else contextlib.nullcontext() as out:
        report = certify(sig, trials=args.trials, field_kind=args.field, seed=args.seed)
        if out:
            payload = report_to_json_dict(report, include_timings=not args.no_timings)
            json.dump(payload, out, indent=2)
            out.write("\n")
    print(f"signature     {report.signature}")
    print(f"verdict       {report.verdict}")
    print(f"dimU          {report.dimU}")
    print(f"principalDim  {report.principalDim}")
    print(f"tangent dims  {[t['tangentDim'] for t in report.trials]}")
    print(f"verification  {report.verificationMode}")
    for note in report.evidence:
        print(f"note: {note}", file=sys.stderr)
    return EXIT_OK if report.verdict != "INCONCLUSIVE" else EXIT_INCONCLUSIVE


def _batch_entry(line: str, include_timings: bool, **settings) -> Tuple[dict, bool]:
    """One line's JSON object, and whether it hit an internal invariant violation."""
    try:
        signature = Signature(*_parse_ints(line, 5, "signature line"))
        report = certify(signature, **settings)
        return report_to_json_dict(report, include_timings=include_timings), False
    except Exception as exc:  # one bad signature must not abort the batch
        error = {"signature": line, "error": f"{type(exc).__name__}: {exc}"}
        return error, isinstance(exc, InternalInvariantError)


def _cmd_batch(args: argparse.Namespace) -> int:
    run_line = functools.partial(
        _batch_entry,
        include_timings=not args.no_timings,
        trials=args.trials,
        field_kind=args.field,
        seed=args.seed,
    )
    with open(args.input) as f:
        lines = [ln.strip() for ln in f]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    # fork starts every worker at the first submit, so never ask for more than lines
    jobs = min(max(1, args.jobs), len(lines))
    with open(args.json, "w") if args.json else contextlib.nullcontext(sys.stdout) as out:
        if jobs <= 1:
            results = [run_line(ln) for ln in lines]
        else:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(run_line, lines))
        for payload, _ in results:
            out.write(json.dumps(payload) + "\n")
    verdicts = Counter(payload.get("verdict") for payload, _ in results)
    errors = verdicts.pop(None, 0)
    for verdict, count in verdicts.items():
        print(f"verdict {verdict}: {count}", file=sys.stderr)
    print(f"error lines: {errors}", file=sys.stderr)
    return EXIT_INTERNAL if any(internal for _, internal in results) else EXIT_OK


_COMMANDS = {
    "inspect": _cmd_inspect,
    "modify": _cmd_modify,
    "verify": _cmd_verify,
    "tangent": _cmd_tangent,
    "certify": _cmd_certify,
    "batch": _cmd_batch,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ARGUMENT if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (ArgumentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGUMENT
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
