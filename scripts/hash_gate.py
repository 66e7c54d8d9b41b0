"""Compare the canonical_sha256 of every certificate two checkouts write,
and the bytes of the single-point reports they print.

Usage:
    python3 scripts/hash_gate.py TREE_A TREE_B

Each command below runs in a fresh interpreter on each TREE (a checkout of
this repository, imported from TREE/src) with its own temporary
CHERN_CERT_DIR: `verify all` in both sweep modes, with and without
--full-dickson, `enumerate --p 3`, `enumerate --p 5` in both modes, the four
`dickson` forms and `branch`, 44 certificates in all.  Each `chern --json`
command in REPORTS runs the same way, and its standard output, the report
JSON, is compared byte for byte.  One line is printed per certificate and per
report, and the exit status is 1 when any certificate is missing from either
tree, any canonical_sha256 or report differs, or a command fails, else 0.  A
certificate command fails when it writes no certificate or exits with a
status other than 0 (all verified) or 1 (something falsified); a report
command fails when it exits with any status but 0.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = (
    ["verify", "all"],
    ["verify", "all", "--mode", "full"],
    ["verify", "all", "--full-dickson"],
    ["verify", "all", "--mode", "full", "--full-dickson"],
    ["enumerate", "--p", "3"],
    ["enumerate", "--p", "5"],
    ["enumerate", "--p", "5", "--mode", "canonical"],
    ["dickson", "--p", "3"],
    ["dickson", "--p", "3", "--restrict"],
    ["dickson", "--p", "5"],
    ["dickson", "--p", "5", "--full"],
    ["branch"],
)

REPORTS = (
    ["chern", "--rep", "rho8", "--p", "5", "--alpha", "1,2,3,4,0,1,2,3", "--json"],
    ["chern", "--rep", "rho4", "--p", "3", "--alpha", "1,1,1,0", "--json"],
    ["chern", "--rep", "rho7", "--p", "3", "--alpha", "3,1,4,1", "--json"],
)


def _run(tree: str, command: list, certs: str) -> subprocess.CompletedProcess:
    """The CLI command run in a fresh interpreter on tree's source, writing
    no bytecode into tree (scripts/bench_record.py refuses a tree that holds
    any)."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree, "src").resolve()), CHERN_CERT_DIR=certs,
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "chern_cert.cli", *command],
                          env=env, capture_output=True)


def digests(tree: str, command: list) -> "dict | None":
    """statement -> canonical_sha256 of each certificate the command writes,
    or None when the command fails (see the module docstring)."""
    with tempfile.TemporaryDirectory() as certs:
        done = _run(tree, command, certs)
        found = {path.stem: json.loads(path.read_text())["canonical_sha256"]
                 for path in sorted(Path(certs).glob("*.json"))}
    return found if found and done.returncode in (0, 1) else None


def report(tree: str, command: list) -> "bytes | None":
    """The report bytes the command prints, or None when it fails."""
    with tempfile.TemporaryDirectory() as certs:
        done = _run(tree, command, certs)
    return done.stdout if done.returncode == 0 else None


def _digest(out: "bytes | None") -> str:
    return "failed" if out is None else hashlib.sha256(out).hexdigest()[:16]


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1].strip())
    tree_a, tree_b = sys.argv[1:]
    total = differ = failed = 0
    for command in COMMANDS:
        a, b = digests(tree_a, command), digests(tree_b, command)
        if a is None or b is None:
            failed += 1
            print(f"{' '.join(command)}: {'failed' if a is None else 'ok'}"
                  f" {'failed' if b is None else 'ok'} FAILED")
            continue
        for statement in sorted(a.keys() | b.keys()):
            same = statement in a and a.get(statement) == b.get(statement)
            total += 1
            differ += not same
            print(f"{' '.join(command)} :: {statement}: {a.get(statement, 'missing')[:16]}"
                  f" {b.get(statement, 'missing')[:16]} {'equal' if same else 'DIFFERENT'}")
    print(f"{total - differ} of {total} canonical_sha256 equal, {differ} different,"
          f" {failed} of {len(COMMANDS)} commands failed")
    reports_differ = 0
    for command in REPORTS:
        a, b = report(tree_a, command), report(tree_b, command)
        same = a is not None and a == b
        reports_differ += not same
        print(f"{' '.join(command)}: {_digest(a)} {_digest(b)}"
              f" {'identical' if same else 'DIFFERENT'}")
    print(f"{len(REPORTS) - reports_differ} of {len(REPORTS)} chern reports byte-identical,"
          f" {reports_differ} different")
    return 1 if differ or failed or reports_differ or not total else 0


if __name__ == "__main__":
    sys.exit(main())
