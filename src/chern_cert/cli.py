"""Command-line interface.

Status lines go to standard error; standard output carries exactly the
certificate JSON (with --json), the certificate file path, or the polynomial
text for single-point reports, so the tool is scriptable.

Exit codes: 0 everything verified, 1 a check falsified or an invalid input
value (e.g. the zero restriction point), 2 usage or configuration errors,
each reported as one "error: ..." line.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .certificates import STATEMENTS, Certificate, default_cert_dir
from .chern import RestrictionPoint, report_named
from .dickson import lemma_facts
from .spinchar import REP_NAMES, registry, rep_group
from .verify import run_statement, statements_for

GROUPS = ("F4", "E6", "E7", "E8")


class UsageError(Exception):
    """A usage or configuration error: main prints "error: <message>" and
    exits 2."""


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="print the full JSON to stdout")
    parser.add_argument("--out", metavar="PATH", help="certificate output path")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="accepted for compatibility and must be positive; sweeps run in one process",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chern-cert",
        description=(
            "Exact mod-p verification of total Chern classes of restricted"
            " exceptional-group representations, with machine-readable"
            " certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify a statement (or all of them)")
    p_verify.add_argument("target", choices=STATEMENTS + ("all",))
    p_verify.add_argument("--p", type=int, choices=(3, 5), default=None,
                          help="with 'all': restrict to statements at this prime")
    p_verify.add_argument("--mode", choices=("canonical", "full"), default="canonical",
                          help="sweep mode for the mod-5 statements (default canonical)")
    p_verify.add_argument("--full-dickson", action="store_true",
                          help="include the full p=5 invariant expansion")
    _add_common(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    p_chern = sub.add_parser("chern", help="total Chern class at one restriction point")
    p_chern.add_argument("--group", choices=GROUPS, default=None)
    p_chern.add_argument("--rep", choices=REP_NAMES, required=True)
    p_chern.add_argument("--p", type=int, required=True)
    p_chern.add_argument("--alpha", required=True, metavar="A1,A2,...",
                         help="comma-separated restriction exponents")
    p_chern.add_argument("--rank", type=int, default=None,
                         help="expected torus rank (must match the alpha length)")
    _add_common(p_chern)
    p_chern.set_defaults(handler=_cmd_chern)

    p_enum = sub.add_parser("enumerate", help="exhaustive classification sweep")
    p_enum.add_argument("--p", type=int, choices=(3, 5), required=True)
    p_enum.add_argument("--rep", default="all",
                        choices=("all",) + REP_NAMES)
    p_enum.add_argument("--mode", choices=("full", "canonical"), default="full")
    _add_common(p_enum)
    p_enum.set_defaults(handler=_cmd_enumerate)

    p_dickson = sub.add_parser("dickson", help="rank-3 invariant facts")
    p_dickson.add_argument("--p", type=int, choices=(3, 5), required=True)
    p_dickson.add_argument("--full", "--check-sl3", action="store_true",
                           help="force the full 3-variable expansion and its"
                                " transvection-invariance check")
    p_dickson.add_argument("--restrict", action="store_true",
                           help="rank-1 restriction facts only (cheap path)")
    _add_common(p_dickson)
    p_dickson.set_defaults(handler=_cmd_dickson)

    p_branch = sub.add_parser("branch", help="branching identities / branch a character")
    p_branch.add_argument("--rep", choices=REP_NAMES, default=None)
    p_branch.add_argument("--rank", type=int, default=None)
    p_branch.add_argument("--steps", type=int, default=1)
    _add_common(p_branch)
    p_branch.set_defaults(handler=_cmd_branch)

    return parser


def _emit_certificate(cert: Certificate, args, default_name: str) -> None:
    if args.out:
        path = Path(args.out)
    else:
        path = default_cert_dir() / f"{default_name}.json"
    cert.write(path)
    print(f"{cert.statement}: {cert.status}", file=sys.stderr)
    if args.json:
        print(cert.to_json())
    else:
        print(path)


def _cmd_verify(args) -> int:
    if args.target == "all":
        statements = statements_for(args.p)
        out_dir = Path(args.out) if args.out else default_cert_dir()
        single_out = None
    else:
        statements = (args.target,)
        out_dir = default_cert_dir()
        single_out = Path(args.out) if args.out else None
    certs = []
    payloads = []
    for statement in statements:
        cert = run_statement(statement, mode=args.mode, full_dickson=args.full_dickson)
        path = single_out if single_out else out_dir / f"{statement}.json"
        cert.write(path)
        print(
            f"{statement}: {cert.status}"
            f" ({cert.run.get('elapsed_seconds', 0):.3f}s)",
            file=sys.stderr,
        )
        certs.append(cert)
        payloads.append((cert, path))
    if args.json:
        docs = [c.to_dict() for c in certs]
        print(json.dumps(docs[0] if len(docs) == 1 else docs, indent=2, sort_keys=True))
    else:
        for _, path in payloads:
            print(path)
    return 0 if all(c.verified for c in certs) else 1


def _cmd_chern(args) -> int:
    try:
        point = RestrictionPoint.parse(args.p, args.alpha)
    except ValueError as exc:
        raise UsageError(exc) from None
    if args.rank is not None and args.rank != point.rank:
        raise UsageError(f"--rank {args.rank} does not match alpha of length {point.rank}")
    if args.group and rep_group(args.rep) != args.group:
        raise UsageError(f"{args.rep} belongs to {rep_group(args.rep)}, not {args.group}")
    try:
        registry(args.rep, point.rank)
    except ValueError as exc:
        raise UsageError(exc) from None
    if point.is_zero:
        print("error: alpha must not be the zero vector", file=sys.stderr)
        return 1
    report = report_named(args.rep, point)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.poly.render())
    return 0


def _cmd_enumerate(args) -> int:
    if args.p == 3:
        statement = "theorem-1.1"
        mode = "full"  # the 80-point sweep is always exhaustive
    else:
        if args.rep not in ("all", "rho8"):
            raise UsageError(f"the mod-5 sweep covers rho8 (got --rep {args.rep})")
        statement = "theorem-4.1"
        mode = args.mode
    cert = run_statement(statement, mode=mode)
    _emit_certificate(cert, args, statement)
    return 0 if cert.verified else 1


def _cmd_dickson(args) -> int:
    full = args.full or (args.p == 3 and not args.restrict)
    started = time.perf_counter()
    result = lemma_facts(args.p, full=full)
    cert = Certificate.from_result(
        result,
        run={"elapsed_seconds": round(time.perf_counter() - started, 6)},
    )
    _emit_certificate(cert, args, result.statement)
    return 0 if cert.verified else 1


def _cmd_branch(args) -> int:
    if args.rep is None:
        cert = run_statement("prop-2.2-branching")
        _emit_certificate(cert, args, "prop-2.2-branching")
        return 0 if cert.verified else 1
    if args.rank is None:
        raise UsageError("--rank is required with --rep")
    try:
        char = registry(args.rep, args.rank)
    except ValueError as exc:
        raise UsageError(exc) from None
    if args.steps < 0 or args.rank - args.steps < 1:
        raise UsageError(f"cannot branch {args.steps} steps from rank {args.rank}")
    branched = char
    for _ in range(args.steps):
        branched = branched.branch()
    info: dict = {
        "rep": args.rep,
        "from_rank": args.rank,
        "steps": args.steps,
        "to_rank": branched.rank,
        "dim": branched.dim,
    }
    matches = None
    try:
        target = registry(args.rep, branched.rank)
        matches = branched == target
        info["matches_registry"] = matches
    except ValueError:
        pass
    if args.json:
        info["weights"] = branched.canonical_list()
        print(json.dumps(info, indent=2, sort_keys=True))
    else:
        line = (
            f"{args.rep}@{args.rank} branched {args.steps} step(s):"
            f" rank {branched.rank}, dim {branched.dim}"
        )
        if matches is not None:
            line += f", matches registry entry: {matches}"
        print(line)
    return 0 if matches in (None, True) else 1


def _check_out(args) -> None:
    """Raise UsageError if --out cannot take the command's output.  `verify
    all` writes one certificate per statement into a directory, every other
    command one file; the nearest existing ancestor of that directory or file
    must be a directory.  This runs before any sweep."""
    if not args.out:
        return
    path = Path(args.out)
    into_dir = args.command == "verify" and args.target == "all"
    if not into_dir and path.is_dir():
        raise UsageError(f"--out {path} is a directory; give the certificate's file path")
    first = path if into_dir else path.parent
    ancestor = next(a for a in (first, *first.parents) if a.exists())
    if not ancestor.is_dir():
        raise UsageError(f"--out {path}: {ancestor} is not a directory")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.workers is not None and args.workers < 1:
            raise UsageError(f"--workers must be a positive integer, got {args.workers}")
        _check_out(args)
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
