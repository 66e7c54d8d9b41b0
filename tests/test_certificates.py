"""Certificate serialization: canonical payloads, hashing, persistence."""

import json

import pytest

from chern_cert.certificates import (
    FALSIFIED,
    SCHEMA_VERSION,
    STATEMENTS,
    VERIFIED,
    Certificate,
    CheckResult,
    canonical_json,
    default_cert_dir,
    toolchain_fingerprint,
)


def _result(status=VERIFIED):
    return CheckResult(
        statement="prop-2.2-branching",
        status=status,
        parameters={"ranks": "2..8"},
        evidence={"identities": [], "witnesses": ["x"] if status == FALSIFIED else []},
    )


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [2, 1]}) == '{"a":[2,1],"b":1}'


class TestCertificate:
    def test_payload_excludes_run_section(self):
        cert = Certificate.from_result(_result(), run={"elapsed_seconds": 1.23})
        assert "run" not in cert.payload()
        assert cert.run == {"elapsed_seconds": 1.23}

    def test_canonical_bytes_ignore_timings(self):
        a = Certificate.from_result(_result(), run={"elapsed_seconds": 0.5, "workers": 1})
        b = Certificate.from_result(_result(), run={"elapsed_seconds": 9.9, "workers": 8})
        assert a.canonical_bytes() == b.canonical_bytes()
        assert a.sha256() == b.sha256()

    def test_schema_fields(self):
        cert = Certificate.from_result(_result())
        doc = cert.to_dict()
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["statement"] in STATEMENTS
        assert doc["status"] == VERIFIED
        assert doc["canonical_sha256"] == cert.sha256()
        assert set(toolchain_fingerprint()) <= set(doc["toolchain"])

    def test_defaults_are_fresh_per_instance(self):
        a = Certificate("prop-3.2", VERIFIED, {}, {})
        b = Certificate("prop-3.2", VERIFIED, {}, {})
        assert a.schema_version == SCHEMA_VERSION
        assert a.run == {} and a.run is not b.run
        assert a.toolchain == toolchain_fingerprint() and a.toolchain is not b.toolchain

    def test_rejects_unknown_statement(self):
        bad = CheckResult("lemma-9.9", VERIFIED, {}, {})
        with pytest.raises(ValueError):
            Certificate.from_result(bad)

    def test_rejects_unknown_status(self):
        bad = CheckResult("prop-3.2", "Maybe", {}, {})
        with pytest.raises(ValueError):
            Certificate.from_result(bad)

    def test_falsified_keeps_witnesses(self):
        cert = Certificate.from_result(_result(FALSIFIED))
        assert cert.status == FALSIFIED
        assert cert.evidence["witnesses"]

    def test_write_and_load_roundtrip(self, tmp_path):
        cert = Certificate.from_result(_result(), run={"workers": 2})
        path = cert.write(tmp_path / "sub" / "cert.json")
        loaded = Certificate.load(path)
        assert loaded.payload() == cert.payload()
        assert loaded.run == cert.run

    def test_load_ignores_unknown_fields(self, tmp_path):
        cert = Certificate.from_result(_result())
        doc = cert.to_dict()
        doc["some_future_field"] = {"x": 1}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        loaded = Certificate.load(path)
        assert loaded.payload() == cert.payload()

    def test_load_rejects_edited_evidence(self, tmp_path):
        path = Certificate.from_result(_result()).write(tmp_path / "c.json")
        doc = json.loads(path.read_text())
        doc["evidence"]["identities"] = [{"identity": "edited", "ok": True}]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="does not match"):
            Certificate.load(path)

    def test_load_rejects_missing_hash(self, tmp_path):
        doc = Certificate.from_result(_result()).to_dict()
        del doc["canonical_sha256"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="missing"):
            Certificate.load(path)

    def test_load_rejects_unknown_statement_and_status(self, tmp_path):
        # the hash matches, but from_result would refuse either field
        for cert, match in (
            (Certificate("nonsense", "Bogus", {}, {}), "unknown statement 'nonsense'"),
            (Certificate("prop-3.2", "Bogus", {}, {}), "unknown status 'Bogus'"),
        ):
            path = cert.write(tmp_path / "c.json")
            with pytest.raises(ValueError, match=match) as info:
                Certificate.load(path)
            assert str(path) in str(info.value)

    @pytest.mark.parametrize("field", ["statement", "status"])
    def test_load_rejects_missing_statement_or_status(self, tmp_path, field):
        doc = Certificate.from_result(_result()).to_dict()
        del doc[field]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"{field} is missing") as info:
            Certificate.load(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("text", ["5", "null", '["statement", "status"]'])
    def test_load_rejects_non_object_json(self, tmp_path, text):
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="expected a JSON object") as info:
            Certificate.load(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "content, match",
        [
            (b"{", "Expecting property name"),  # malformed JSON
            (b'{"statement": "caf\xc3\xa9"}', "codec can't decode"),  # a non-ASCII byte
            (None, "No such file"),  # a missing file
        ],
        ids=["malformed", "non-ascii", "missing"],
    )
    def test_load_rejects_unreadable_file(self, tmp_path, content, match):
        path = tmp_path / "c.json"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ValueError, match=match) as info:
            Certificate.load(path)
        assert str(path) in str(info.value)

    def test_file_is_ascii_json(self, tmp_path):
        cert = Certificate.from_result(_result())
        path = cert.write(tmp_path / "c.json")
        raw = path.read_bytes()
        raw.decode("ascii")
        json.loads(raw)


class TestCertDir:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("CHERN_CERT_DIR", str(tmp_path / "elsewhere"))
        assert default_cert_dir() == tmp_path / "elsewhere"

    def test_default(self, monkeypatch):
        monkeypatch.delenv("CHERN_CERT_DIR", raising=False)
        assert str(default_cert_dir()) == "certs"


class TestJudge:
    """CheckResult.judge is the one verdict rule: Falsified exactly when
    problems or witnesses name something, each recorded only when present."""

    def _judge(self, **findings):
        return CheckResult.judge("prop-3.2", {"p": 3}, {"points_total": 80}, **findings)

    def test_problems_alone(self):
        result = self._judge(problems=["consistent set is empty"])
        assert result.status == FALSIFIED
        assert result.evidence == {"points_total": 80, "problems": ["consistent set is empty"]}

    def test_witnesses_alone(self):
        result = self._judge(witnesses=["lambda1@3 -> 2 + lambda1"])
        assert result.status == FALSIFIED
        assert result.evidence == {"points_total": 80, "witnesses": ["lambda1@3 -> 2 + lambda1"]}

    def test_problems_and_witnesses(self):
        result = self._judge(problems=("value",), witnesses={"fail_pm": ["1,0"]})
        assert result.status == FALSIFIED
        assert result.evidence["problems"] == ["value"]
        assert result.evidence["witnesses"] == {"fail_pm": ["1,0"]}

    @pytest.mark.parametrize("empty", [(), [], {}])
    def test_neither(self, empty):
        result = self._judge(problems=empty, witnesses=empty)
        assert result.verified
        assert result.evidence == {"points_total": 80}
        assert result.statement == "prop-3.2" and result.parameters == {"p": 3}
