"""Certificate records for verification outcomes.

A certificate ties a named statement to the computed evidence.  The canonical
payload (statement, status, parameters, evidence, schema version, toolchain)
is serialized as sorted-key JSON and must be byte-identical across reruns;
volatile data (timings) lives in a separate "run" section excluded from the
canonical bytes and their hash.  Loading checks the stored hash.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

__all__ = [
    "SCHEMA_VERSION",
    "STATEMENTS",
    "VERIFIED",
    "FALSIFIED",
    "CheckResult",
    "Certificate",
    "canonical_json",
    "toolchain_fingerprint",
    "default_cert_dir",
]

SCHEMA_VERSION = "1.0"

VERIFIED = "Verified"
FALSIFIED = "Falsified"

STATEMENTS = (
    "theorem-1.1",
    "theorem-4.1",
    "lemma-3.1-facts",
    "lemma-4.2-facts",
    "prop-2.2-branching",
    "prop-3.2",
    "prop-3.3",
    "prop-4.3",
    "prop-4.4",
)

_CERT_DIR_ENV = "CHERN_CERT_DIR"


class CheckResult:
    """Outcome of one statement-level check, before certificate wrapping."""

    __slots__ = ("statement", "status", "parameters", "evidence")

    def __init__(self, statement: str, status: str, parameters: dict, evidence: dict):
        self.statement = statement
        self.status = status
        self.parameters = parameters
        self.evidence = evidence

    @classmethod
    def judge(
        cls, statement: str, parameters: dict, evidence: dict, problems=(), witnesses=()
    ) -> "CheckResult":
        """The one verdict rule: Falsified exactly when problems or witnesses
        name something.  The evidence records each of the two only when it
        is non-empty, so a Verified result carries neither."""
        if problems:
            evidence["problems"] = list(problems)
        if witnesses:
            evidence["witnesses"] = witnesses
        status = FALSIFIED if problems or witnesses else VERIFIED
        return cls(statement, status, parameters, evidence)

    @property
    def verified(self) -> bool:
        return self.status == VERIFIED


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, no whitespace, ASCII only."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def toolchain_fingerprint() -> dict:
    from . import __version__

    return {
        "package": "chern-cert",
        "package_version": __version__,
        "python": sys.version.split()[0],
    }


def default_cert_dir() -> Path:
    """$CHERN_CERT_DIR, or ./certs when it is unset or empty."""
    return Path(os.environ.get(_CERT_DIR_ENV) or "certs")


def _check_known(statement, status) -> None:
    """Raise ValueError unless statement is one of STATEMENTS and status a
    verdict."""
    if statement not in STATEMENTS:
        raise ValueError(f"unknown statement {statement!r}")
    if status not in (VERIFIED, FALSIFIED):
        raise ValueError(f"unknown status {status!r}")


class Certificate:
    """A CheckResult with its schema version, the toolchain that produced it
    (this interpreter's by default) and the volatile run section."""

    __slots__ = ("statement", "status", "parameters", "evidence", "schema_version", "toolchain", "run")

    def __init__(
        self,
        statement: str,
        status: str,
        parameters: dict,
        evidence: dict,
        schema_version: str = SCHEMA_VERSION,
        toolchain: "dict | None" = None,
        run: "dict | None" = None,
    ):
        self.statement = statement
        self.status = status
        self.parameters = parameters
        self.evidence = evidence
        self.schema_version = schema_version
        self.toolchain = toolchain_fingerprint() if toolchain is None else toolchain
        self.run = {} if run is None else run

    @classmethod
    def from_result(cls, result: CheckResult, run: "dict | None" = None) -> "Certificate":
        _check_known(result.statement, result.status)
        return cls(
            statement=result.statement,
            status=result.status,
            parameters=result.parameters,
            evidence=result.evidence,
            run=dict(run or {}),
        )

    @property
    def verified(self) -> bool:
        return self.status == VERIFIED

    def payload(self) -> dict:
        """The canonical part of the certificate (run section excluded)."""
        return {
            "schema_version": self.schema_version,
            "statement": self.statement,
            "status": self.status,
            "parameters": self.parameters,
            "evidence": self.evidence,
            "toolchain": self.toolchain,
        }

    def canonical_bytes(self) -> bytes:
        return canonical_json(self.payload()).encode("ascii")

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    def to_dict(self) -> dict:
        out = self.payload()
        out["canonical_sha256"] = self.sha256()
        out["run"] = self.run
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2, ensure_ascii=True)

    def write(self, path: "Path | str") -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n", encoding="ascii")
        return path

    @classmethod
    def load(cls, path: "Path | str") -> "Certificate":
        """Read a certificate file; unknown future fields are ignored.  Raises
        ValueError, naming path, unless the file can be read as ASCII JSON,
        holds a known statement and status (the checks of from_result) and
        the stored canonical_sha256 is the hash of the loaded payload."""
        try:
            raw = json.loads(Path(path).read_text(encoding="ascii"))
        except (OSError, ValueError) as exc:
            # ValueError covers json.JSONDecodeError and UnicodeDecodeError
            raise ValueError(f"{path}: {exc}") from None
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: expected a JSON object, got {type(raw).__name__}")
        for field in ("statement", "status"):
            if field not in raw:
                raise ValueError(f"{path}: {field} is missing")
        try:
            _check_known(raw["statement"], raw["status"])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        cert = cls(
            statement=raw["statement"],
            status=raw["status"],
            parameters=raw.get("parameters", {}),
            evidence=raw.get("evidence", {}),
            schema_version=raw.get("schema_version", SCHEMA_VERSION),
            toolchain=raw.get("toolchain", {}),
            run=raw.get("run", {}),
        )
        stored = raw.get("canonical_sha256")
        if stored is None:
            raise ValueError(f"{path}: canonical_sha256 is missing")
        if stored != cert.sha256():
            raise ValueError(f"{path}: canonical_sha256 does not match the payload")
        return cert

