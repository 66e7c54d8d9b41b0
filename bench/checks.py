"""Certificate checks of the chern-cert benchmark.

Each certificate written by a pass is read back from disk and checked
against the independent reference (bench/reference.py) or against a
property the method must have; nothing is compared with a stored copy of
earlier output.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from reference import render

POINTS_5 = 5**8 - 1


def canonical_sha256(doc: dict) -> str:
    """SHA-256 of the canonical bytes: the certificate without its hash and
    its volatile run section, as sorted-key compact ASCII JSON."""
    payload = {k: v for k, v in doc.items() if k not in ("canonical_sha256", "run")}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _expect(problems: list, label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


def _mod3(statement: str, ev: dict, ref: dict, problems: list) -> None:
    m3 = ref["mod3"]
    if statement == "prop-3.2":
        # prop-3.2 filters on c(lambda1+delta) alone, not on the joint set
        _expect(problems, "consistent set", ev["consistent_alphas"], m3["lambda1_delta_set"])
        _expect(problems, "value", [ev["value_on_consistent_set"]], m3["lambda1_delta_values"])
        return
    _expect(problems, "consistent set", ev["consistent_alphas"], m3["joint_set"])
    if statement == "prop-3.3":
        _expect(problems, "value", [ev["value_on_consistent_set"]], m3["joint_values"])
    else:
        _expect(problems, "consistent value", [ev["consistent_value"]], m3["joint_values"])
        _expect(problems, "rho8 value", [ev["polynomials"]["rho8"]], m3["rho8_values"])


def _mod5(statement: str, ev: dict, ref: dict, mode: str, problems: list) -> None:
    m5 = ref["mod5"]
    _expect(problems, "mode", ev["mode"], mode)
    _expect(problems, "points_weighted", ev["points_weighted"], POINTS_5)
    _expect(problems, "reference points_weighted", m5["points_weighted"], POINTS_5)
    scanned = POINTS_5 if mode == "full" else m5["representatives"]
    _expect(problems, "points_scanned", ev["points_scanned"], scanned)
    _expect(problems, "pm_form_all", ev["pm_form_all"], True)
    if statement == "theorem-4.1":
        _expect(problems, "s5_count", ev["s5_count"], m5["s5_count"])
        _expect(problems, "s5_value_occurrences", ev["s5_value_occurrences"],
                m5["s5_value_occurrences"])


def _dickson(p: int, ev: dict, full: bool, problems: list) -> None:
    images = {"c0": "0", "c1": "0", "c2": render([0] * (p**3 - p**2) + [1]), "e3": "0"}
    _expect(problems, "restriction images", ev["restriction_images"], images)
    if full:
        _expect(problems, "full expansion", ev["full_expansion"], True)
    if ev["full_expansion"]:
        degrees = {"c0": 2 * (p**3 - 1), "c1": 2 * (p**3 - p), "c2": 2 * (p**3 - p**2),
                   "e3": p**3 - 1}
        _expect(problems, "degrees", ev["cohomological_degrees"], degrees)
        _expect(problems, "transvection invariance", ev["transvection_invariance"], True)


def _branching(ev: dict, ref_dims: dict, problems: list) -> None:
    bad = [i["identity"] for i in ev["identities"] if not i["ok"]]
    _expect(problems, "failed identities", bad, [])
    for key, dim in ref_dims.items():
        _expect(problems, f"dim {key}", ev["dimensions"].get(key), dim)


def check_certificate(statement: str, doc: dict, ref: dict, mode: str, full_dickson: bool) -> list[str]:
    """Problems with one Verified certificate (an empty list when it holds)."""
    problems: list[str] = []
    _expect(problems, "statement", doc.get("statement"), statement)
    _expect(problems, "canonical_sha256", doc.get("canonical_sha256"), canonical_sha256(doc))
    try:
        ev = doc["evidence"]
        if statement in ("theorem-1.1", "prop-3.2", "prop-3.3"):
            _mod3(statement, ev, ref, problems)
        elif statement in ("theorem-4.1", "prop-4.3", "prop-4.4"):
            _mod5(statement, ev, ref, mode, problems)
        elif statement == "lemma-3.1-facts":
            _dickson(3, ev, True, problems)
        elif statement == "lemma-4.2-facts":
            _dickson(5, ev, full_dickson, problems)
        elif statement == "prop-2.2-branching":
            _branching(ev, ref["dims"], problems)
        else:
            problems.append("unknown statement")
    except (KeyError, TypeError) as exc:
        problems.append(f"evidence field missing or malformed: {exc!r}")
    return [f"{statement}: {p}" for p in problems]


def check_pass(cert_dir: Path, statements, ref: dict, mode: str, full_dickson: bool):
    """(attempted, failed, problems) over the certificates one pass should
    have written: one attempt per statement.  A missing, unreadable or
    non-Verified certificate counts as failed and is a problem too, since the
    reference holds every statement; every other one must pass
    check_certificate."""
    failed = 0
    problems: list[str] = []
    for statement in statements:
        path = Path(cert_dir) / f"{statement}.json"
        try:
            doc = json.loads(path.read_text(encoding="ascii"))
        except (OSError, ValueError) as exc:
            failed += 1
            problems.append(f"{statement}: no readable certificate: {exc}")
            continue
        if doc.get("status") != "Verified":
            failed += 1
            problems.append(f"{statement}: status {doc.get('status')!r}, expected 'Verified'")
            continue
        problems.extend(check_certificate(statement, doc, ref, mode, full_dickson))
    return len(statements), failed, problems
