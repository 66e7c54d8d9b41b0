"""Command-line interface.

Every certificate command (verify, enumerate, dickson, branch without --rep)
runs through `_certify`.  --out is the certificate file of a one-statement
command and the directory of `verify all`; otherwise certificates go to
$CHERN_CERT_DIR (default ./certs) as <statement>.json.  Every target is
checked before the first statement runs.  Each certificate prints one status
line, "<statement>: <status> (<seconds>s)", to standard error; standard
output carries exactly the certificate JSON (with --json), the certificate
paths, or a single-point report (chern, branch --rep), so the tool is
scriptable.

Exit codes: 0 everything verified, 1 a check falsified or an invalid input
value (e.g. the zero restriction point), 2 usage or configuration errors,
each reported as one "error: ..." line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .certificates import STATEMENTS, default_cert_dir
from .chern import RestrictionPoint, report_named
from .dickson import STATEMENT, lemma_facts
from .spinchar import REP_NAMES, registry, rep_group
from .verify import certify, run_statement, statements_for

GROUPS = ("F4", "E6", "E7", "E8")


class UsageError(Exception):
    """A usage or configuration error: main prints "error: <message>" and
    exits 2."""


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="print the full JSON to stdout")
    parser.add_argument("--out", metavar="PATH",
                        help="output file (with 'verify all': directory)")
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
                          help="with 'all': restrict to statements at this prime;"
                               " with one statement: must be its prime")
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
    p_enum.add_argument("--mode", choices=("full", "canonical"), default="full",
                        help="sweep mode at --p 5 (default full); --p 3 always"
                             " sweeps all 80 points")
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


def _targets(args, statements) -> list[Path]:
    """Each statement's certificate file, by the rule in the module docstring."""
    if args.out and getattr(args, "target", None) != "all":
        return [Path(args.out)]
    root = Path(args.out) if args.out else default_cert_dir()
    return [root / f"{statement}.json" for statement in statements]


def _check_target(path: Path, where: str) -> None:
    """Raise UsageError unless a file can be written at path: it must not be
    a directory, and its nearest existing ancestor must be one."""
    if path.is_dir():
        raise UsageError(f"{where}: {path} is a directory, not a file")
    ancestor = next(a for a in path.parents if a.exists())
    if not ancestor.is_dir():
        raise UsageError(f"{where}: {ancestor} is not a directory")


def _certify(args, statements, run) -> int:
    """The one certificate path.  Check every target, then for each statement
    run(statement) -> Certificate, write it and print its status line; print
    the paths (or the JSON).  Exit 0 exactly when every certificate is
    Verified."""
    targets = _targets(args, statements)
    where = f"--out {args.out}" if args.out else f"CHERN_CERT_DIR={default_cert_dir()}"
    for path in targets:
        _check_target(path, where)
    certs = []
    for statement, path in zip(statements, targets):
        cert = run(statement)
        cert.write(path)
        print(f"{statement}: {cert.status} ({cert.run['elapsed_seconds']:.3f}s)", file=sys.stderr)
        certs.append(cert)
    if args.json:
        docs = [c.to_dict() for c in certs]
        print(json.dumps(docs[0] if len(docs) == 1 else docs, indent=2, sort_keys=True))
    else:
        print(*targets, sep="\n")
    return 0 if all(c.verified for c in certs) else 1


def _cmd_verify(args) -> int:
    statements = statements_for(args.p)
    if args.target != "all":
        if args.target not in statements:
            raise UsageError(f"--p {args.p} does not match {args.target}'s prime")
        statements = (args.target,)
    return _certify(args, statements,
                    lambda s: run_statement(s, mode=args.mode, full_dickson=args.full_dickson))


def _cmd_chern(args) -> int:
    if args.out:
        _check_target(Path(args.out), f"--out {args.out}")
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
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text + "\n")
    if args.json:
        print(text)
    else:
        print(report.poly.render())
    return 0


def _cmd_enumerate(args) -> int:
    if args.p == 3:
        statement, mode = "theorem-1.1", "full"  # the 80-point sweep is always exhaustive
    elif args.rep not in ("all", "rho8"):
        raise UsageError(f"the mod-5 sweep covers rho8 (got --rep {args.rep})")
    else:
        statement, mode = "theorem-4.1", args.mode
    return _certify(args, (statement,), lambda s: run_statement(s, mode=mode))


def _cmd_dickson(args) -> int:
    full = args.full or (args.p == 3 and not args.restrict)
    return _certify(args, (STATEMENT[args.p],),
                    lambda s: certify(lambda: lemma_facts(args.p, full=full)))


def _cmd_branch(args) -> int:
    if args.rep is None:
        return _certify(args, ("prop-2.2-branching",), lambda s: run_statement(s))
    if args.out:
        raise UsageError("--out takes a certificate; branch --rep prints a report (use --json)")
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.workers is not None and args.workers < 1:
            raise UsageError(f"--workers must be a positive integer, got {args.workers}")
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
