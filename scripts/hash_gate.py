"""Compare the canonical_sha256 of every certificate two checkouts write.

Usage:
    python3 scripts/hash_gate.py TREE_A TREE_B

Each command below runs in a fresh interpreter on each TREE (a checkout of
this repository, imported from TREE/src) with its own temporary
CHERN_CERT_DIR: `verify all` in both sweep modes, with and without
--full-dickson, `enumerate --p 3`, `enumerate --p 5` in both modes, the four
`dickson` forms and `branch`, 44 certificates in all.  One line is printed
per certificate, and the exit status is 1 when any certificate is missing
from either tree or its canonical_sha256 differs, else 0.
"""

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


def digests(tree: str, command: list) -> dict:
    """statement -> canonical_sha256 of each certificate the command writes."""
    with tempfile.TemporaryDirectory() as certs:
        env = dict(os.environ, PYTHONPATH=str(Path(tree, "src").resolve()), CHERN_CERT_DIR=certs)
        subprocess.run([sys.executable, "-m", "chern_cert.cli", *command],
                       env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return {path.stem: json.loads(path.read_text())["canonical_sha256"]
                for path in sorted(Path(certs).glob("*.json"))}


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1].strip())
    tree_a, tree_b = sys.argv[1:]
    total = differ = 0
    for command in COMMANDS:
        a, b = digests(tree_a, command), digests(tree_b, command)
        for statement in sorted(a.keys() | b.keys()):
            same = statement in a and a.get(statement) == b.get(statement)
            total += 1
            differ += not same
            print(f"{' '.join(command)} :: {statement}: {a.get(statement, 'missing')[:16]}"
                  f" {b.get(statement, 'missing')[:16]} {'equal' if same else 'DIFFERENT'}")
    print(f"{total - differ} of {total} canonical_sha256 equal, {differ} different")
    return 1 if differ or not total else 0


if __name__ == "__main__":
    sys.exit(main())
