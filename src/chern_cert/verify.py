"""Statement-level verification: the branching suite, dispatch from statement
identifiers to checks, and certificate wrapping."""

from __future__ import annotations

import time

from . import classify, dickson
from .certificates import STATEMENTS, Certificate, CheckResult
from .spinchar import (
    Character,
    char_equal,
    exterior_square_weights,
    half_spin_weights,
    registry,
    trivial,
    vector_weights,
)

__all__ = [
    "CHECKS",
    "check_branching",
    "run_statement",
    "statements_for",
]

_EXPECTED_DIMS = {
    ("rho4", 4): 26,
    ("rho4adj", 4): 52,
    ("rho6", 5): 27,
    ("rho6", 4): 27,
    ("rho7", 6): 56,
    ("rho7", 4): 56,
    ("rho8", 8): 248,
    ("rho8", 4): 248,
}


def _branch_times(char: Character, steps: int) -> Character:
    for _ in range(steps):
        char = char.branch()
    return char


def check_branching() -> CheckResult:
    """Exact multiset checks of the one-step branching identities for the
    basic characters at every rank 2 <= n <= 8, and of the registry chains
    connecting each representation's native-rank entry to its rank-4 form."""
    identities: list[dict] = []
    failures: list[str] = []

    def record(label: str, ok: bool) -> None:
        identities.append({"identity": label, "ok": ok})
        if not ok:
            failures.append(label)

    for n in range(2, 9):
        record(
            f"lambda1@{n} -> 2 + lambda1",
            char_equal(
                vector_weights(n).branch(),
                trivial(n - 1, 2) + vector_weights(n - 1),
            ),
        )
        # at n = 2 the exterior square of the lower rank is the empty weight
        # system, so the right side degenerates to 2*lambda1
        lam2_target = 2 * vector_weights(n - 1)
        if n - 1 >= 2:
            lam2_target = lam2_target + exterior_square_weights(n - 1)
        record(
            f"lambda2@{n} -> 2*lambda1 + lambda2",
            char_equal(exterior_square_weights(n).branch(), lam2_target),
        )
        delta_lower = half_spin_weights(n - 1, "both")
        record(
            f"delta+@{n} -> delta",
            char_equal(half_spin_weights(n, "+").branch(), delta_lower),
        )
        record(
            f"delta-@{n} -> delta",
            char_equal(half_spin_weights(n, "-").branch(), delta_lower),
        )
        record(
            f"delta@{n} -> 2*delta",
            char_equal(half_spin_weights(n, "both").branch(), 2 * delta_lower),
        )

    record(
        "rho8@8 branched four times equals rho8@4",
        char_equal(_branch_times(registry("rho8", 8), 4), registry("rho8", 4)),
    )
    record(
        "rho6@5 branched once equals rho6@4",
        char_equal(_branch_times(registry("rho6", 5), 1), registry("rho6", 4)),
    )
    record(
        "rho7@6 branched twice equals rho7@4",
        char_equal(_branch_times(registry("rho7", 6), 2), registry("rho7", 4)),
    )

    dims = {}
    for (name, rank), expected in sorted(_EXPECTED_DIMS.items()):
        got = registry(name, rank).dim
        dims[f"{name}@{rank}"] = got
        record(f"dim {name}@{rank} = {expected}", got == expected)

    evidence = {
        "identities": identities,
        "dimensions": dims,
        "ranks_checked": list(range(2, 9)),
    }
    return CheckResult.judge("prop-2.2-branching", {"ranks": "2..8"}, evidence, witnesses=failures)


# statement -> (prime, check): the prime selects statements for
# `verify all --p` (None: every prime), and check(mode, full_dickson) runs
# the statement.  Each check looks its function up as a module attribute
# when called, so a replaced attribute (a test double, a tracing wrapper)
# is the one that runs.
CHECKS = {
    "theorem-1.1": (3, lambda mode, full: classify.classify_f4_mod3()),
    "theorem-4.1": (5, lambda mode, full: classify.classify_e8_mod5(mode=mode)),
    "lemma-3.1-facts": (3, lambda mode, full: dickson.lemma_facts(3, full=True)),
    "lemma-4.2-facts": (5, lambda mode, full: dickson.lemma_facts(5, full=full)),
    "prop-2.2-branching": (None, lambda mode, full: check_branching()),
    "prop-3.2": (3, lambda mode, full: classify.check_prop32()),
    "prop-3.3": (3, lambda mode, full: classify.check_prop33()),
    "prop-4.3": (5, lambda mode, full: classify.check_prop43(mode=mode)),
    "prop-4.4": (5, lambda mode, full: classify.check_prop44(mode=mode)),
}


def run_statement(
    statement: str, mode: str = "canonical", full_dickson: bool = False
) -> Certificate:
    """Run one statement check and wrap it in a certificate.  The timing goes
    into the volatile run section, outside the canonical payload."""
    if statement not in CHECKS:
        raise ValueError(f"unknown statement {statement!r} (expected one of {STATEMENTS})")
    started = time.perf_counter()
    result = CHECKS[statement][1](mode, full_dickson)
    elapsed = time.perf_counter() - started
    return Certificate.from_result(result, run={"elapsed_seconds": round(elapsed, 6)})


def statements_for(p: "int | None") -> tuple[str, ...]:
    """Statements filtered by prime; prime-independent statements are always
    included."""
    return tuple(s for s, (prime, _) in CHECKS.items() if p is None or prime in (p, None))
