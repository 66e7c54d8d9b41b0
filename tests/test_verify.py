"""Statement dispatch: the one statement table and the certificates it
produces."""

import pytest

from chern_cert import classify, verify
from chern_cert.certificates import STATEMENTS, CheckResult


def test_table_keys_are_the_statements_in_order():
    assert tuple(verify.CHECKS) == STATEMENTS


@pytest.mark.parametrize(
    "p,expected",
    [
        (None, STATEMENTS),
        (3, ("theorem-1.1", "lemma-3.1-facts", "prop-2.2-branching", "prop-3.2", "prop-3.3")),
        (5, ("theorem-4.1", "lemma-4.2-facts", "prop-2.2-branching", "prop-4.3", "prop-4.4")),
    ],
)
def test_statements_for_a_prime(p, expected):
    assert verify.statements_for(p) == expected


@pytest.mark.parametrize("statement", STATEMENTS)
def test_verified_certificate_carries_no_problems_or_witnesses(statement):
    cert = verify.run_statement(statement)
    assert cert.verified
    assert "problems" not in cert.evidence
    assert "witnesses" not in cert.evidence


def test_checks_are_looked_up_at_call_time(monkeypatch):
    # a tracing wrapper or a test double replaces the module attribute; the
    # table must reach the replacement, not a function it captured earlier
    fake = CheckResult.judge("prop-3.2", {"p": 3}, {}, problems=["injected"])
    monkeypatch.setattr(classify, "check_prop32", lambda: fake)
    cert = verify.run_statement("prop-3.2")
    assert not cert.verified
    assert cert.evidence == {"problems": ["injected"]}


def test_unknown_statement_is_rejected():
    with pytest.raises(ValueError):
        verify.run_statement("theorem-9.9")
