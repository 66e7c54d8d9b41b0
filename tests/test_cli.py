"""Command-line surface: outputs, exit codes, certificate files."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import chern_cert
from chern_cert import cli
from chern_cert.certificates import Certificate
from chern_cert.cli import main
from chern_cert.fppoly import UPoly, inv2


@pytest.fixture(autouse=True)
def cert_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("CHERN_CERT_DIR", str(tmp_path / "certs"))
    return tmp_path / "certs"


def run_cli(args, cert_dir, timeout=20):
    """The command in a fresh interpreter, killed after timeout seconds, so
    a command that hangs fails the test instead of stalling the suite."""
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(chern_cert.__file__).resolve().parents[1]),
        CHERN_CERT_DIR=str(cert_dir),
    )
    return subprocess.run(
        [sys.executable, "-m", "chern_cert.cli", *args],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


class TestChern:
    def test_rho8_mod3_witness(self, capsys):
        code = main(
            ["chern", "--group", "E8", "--rep", "rho8", "--p", "3", "--alpha", "1,1,1,0"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "1 + 2*t^162"

    def test_adjoint_expanded_square(self, capsys):
        code = main(
            ["chern", "--group", "F4", "--rep", "rho4adj", "--p", "3", "--alpha", "1,1,1,0"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "1 + t^18 + t^36"

    def test_zero_vector_rejected_with_exit_1(self, capsys):
        code = main(
            ["chern", "--group", "E8", "--rep", "rho8", "--p", "5",
             "--alpha", "0,0,0,0,0,0,0,0"]
        )
        assert code == 1
        assert "zero" in capsys.readouterr().err

    def test_malformed_alpha_is_usage_error(self, capsys):
        code = main(["chern", "--rep", "rho4", "--p", "3", "--alpha", "1,x,0,0"])
        assert code == 2

    def test_rank_flag_must_match(self):
        code = main(
            ["chern", "--rep", "rho4", "--p", "3", "--alpha", "1,1,1,0", "--rank", "5"]
        )
        assert code == 2

    def test_group_rep_consistency(self):
        code = main(
            ["chern", "--group", "E6", "--rep", "rho8", "--p", "3", "--alpha", "1,1,1,0"]
        )
        assert code == 2

    def test_no_registry_entry_at_rank(self):
        code = main(["chern", "--rep", "rho8", "--p", "3", "--alpha", "1,1"])
        assert code == 2

    def test_large_prime_modulus(self, cert_dir):
        # 10^18 + 3 is prime; products of its residues need slots wider than
        # 8 bytes.  At alpha = e1, lambda2 restricts to +-1 fourteen times
        # each and delta+ to +-1/2 sixty-four times each.
        p = 10**18 + 3
        done = run_cli(["chern", "--rep", "rho8", "--p", str(p), "--alpha", "1,0,0,0,0,0,0,0"], cert_dir)
        assert done.returncode == 0, done.stderr
        h2 = inv2(p) ** 2
        expected = UPoly(p, (1, 0, -1)) ** 14 * UPoly(p, (1, 0, -h2)) ** 64
        assert done.stdout.strip() == expected.render()

    @pytest.mark.parametrize(
        "p, message",
        [(3825123056546413051, "odd prime"), (2**89 - 1, "bound")],
        ids=["strong-pseudoprime-to-bases-up-to-23", "prime-above-the-bound"],
    )
    def test_unsupported_modulus_is_usage_error(self, cert_dir, p, message):
        done = run_cli(["chern", "--rep", "rho8", "--p", str(p), "--alpha", "1,0,0,0,0,0,0,0"], cert_dir)
        assert done.returncode == 2
        assert message in done.stderr and "Traceback" not in done.stderr

    def test_json_report(self, capsys):
        code = main(
            ["chern", "--rep", "rho4", "--p", "3", "--alpha", "1,1,1,0", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total_chern"] == "1 + 2*t^18"
        assert doc["flags"]["in_subring"] is True
        assert doc["flags"]["pm_form"] == [9, 0]


class TestVerify:
    def test_branching_statement(self, capsys, cert_dir):
        code = main(["verify", "prop-2.2-branching"])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith("prop-2.2-branching.json")
        cert = Certificate.load(out)
        assert cert.verified

    def test_theorem_11_json(self, capsys):
        code = main(["verify", "theorem-1.1", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "Verified"
        assert doc["evidence"]["polynomials"]["rho8"] == "1 + 2*t^162"

    def test_all_p3(self, capsys, cert_dir):
        code = main(["verify", "all", "--p", "3"])
        assert code == 0
        paths = capsys.readouterr().out.split()
        names = sorted(p.rsplit("/", 1)[-1] for p in paths)
        assert names == [
            "lemma-3.1-facts.json",
            "prop-2.2-branching.json",
            "prop-3.2.json",
            "prop-3.3.json",
            "theorem-1.1.json",
        ]
        for p in paths:
            assert Certificate.load(p).verified

    def test_empty_cert_dir_counts_as_unset(self, tmp_path, capsys, monkeypatch):
        # CHERN_CERT_DIR= writes into ./certs, not into the working directory
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        monkeypatch.setenv("CHERN_CERT_DIR", "")
        assert main(["verify", "prop-3.2"]) == 0
        assert capsys.readouterr().out.split() == [str(Path("certs", "prop-3.2.json"))]
        assert sorted(p.relative_to(work) for p in work.rglob("*")) == [
            Path("certs"),
            Path("certs", "prop-3.2.json"),
        ]

    def test_explicit_out_path(self, tmp_path, capsys):
        target = tmp_path / "somewhere" / "t11.json"
        code = main(["verify", "theorem-1.1", "--out", str(target)])
        assert code == 0
        assert target.exists()

    def test_out_directory_for_one_statement_is_usage_error(self, tmp_path, capsys, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("--out must be checked before any statement runs")

        monkeypatch.setattr(cli, "run_statement", no_sweep)
        assert main(["verify", "prop-3.2", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--out" in err
        assert list(tmp_path.iterdir()) == []

    def test_out_file_for_all_is_usage_error(self, tmp_path, capsys, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("--out must be checked before any statement runs")

        monkeypatch.setattr(cli, "run_statement", no_sweep)
        target = tmp_path / "certs.txt"
        target.write_text("keep\n")
        assert main(["verify", "all", "--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--out" in err
        assert target.read_text() == "keep\n"

    def test_unknown_statement_is_usage_error(self):
        assert main(["verify", "theorem-9.9"]) == 2

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_nonpositive_workers_is_usage_error(self, workers, capsys, cert_dir):
        assert main(["verify", "theorem-1.1", "--workers", workers]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--workers" in err
        assert not cert_dir.exists()


class TestEnumerate:
    def test_mod3(self, capsys, cert_dir):
        code = main(["enumerate", "--p", "3", "--rep", "all"])
        assert code == 0
        captured = capsys.readouterr()
        cert = Certificate.load(captured.out.strip())
        assert cert.statement == "theorem-1.1"
        assert cert.parameters["points"] == 80

    def test_mod5_canonical(self, capsys, cert_dir):
        code = main(
            ["enumerate", "--p", "5", "--rep", "rho8", "--mode", "canonical",
             "--workers", "1", "--json"]
        )
        assert code == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["evidence"]["points_weighted"] == 5**8 - 1
        # the status line goes to stderr
        assert re.fullmatch(r"theorem-4\.1: Verified \(\d+\.\d{3}s\)\n", captured.err)

    def test_mod3_rep_names_the_same_certificate(self, capsys, cert_dir):
        # theorem-1.1 covers all five representations at once
        digests = []
        for rep in ("rho8", "all"):
            assert main(["enumerate", "--p", "3", "--rep", rep, "--json"]) == 0
            digests.append(json.loads(capsys.readouterr().out)["canonical_sha256"])
        assert digests[0] == digests[1]

    def test_mod5_wrong_rep(self):
        assert main(["enumerate", "--p", "5", "--rep", "rho4"]) == 2

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_nonpositive_workers_is_usage_error(self, workers, capsys, cert_dir):
        assert main(["enumerate", "--p", "3", "--workers", workers]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--workers" in err
        assert not cert_dir.exists()


class TestDickson:
    def test_mod3_default(self, capsys, cert_dir):
        code = main(["dickson", "--p", "3"])
        assert code == 0
        cert = Certificate.load(capsys.readouterr().out.strip())
        assert cert.statement == "lemma-3.1-facts"
        assert cert.evidence["cohomological_degrees"]["c2"] == 36

    def test_mod5_restrict_only(self, capsys, cert_dir):
        code = main(["dickson", "--p", "5", "--restrict", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["statement"] == "lemma-4.2-facts"
        assert doc["parameters"]["full_expansion"] is False
        assert doc["evidence"]["restriction_images"]["c2"] == "t^100"

    @pytest.mark.parametrize(
        "flags,full",
        [
            (["--p", "5", "--full"], True),
            (["--p", "5", "--check-sl3"], True),
            (["--p", "3", "--full"], True),
            (["--p", "5"], False),
            (["--p", "5", "--restrict"], False),
            (["--p", "3", "--restrict"], False),
        ],
    )
    def test_flag_matrix(self, capsys, flags, full):
        code = main(["dickson", *flags, "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["parameters"]["full_expansion"] is full
        assert doc["evidence"]["full_expansion"] is full


class TestBranch:
    def test_suite(self, capsys, cert_dir):
        code = main(["branch"])
        assert code == 0
        cert = Certificate.load(capsys.readouterr().out.strip())
        assert cert.statement == "prop-2.2-branching"

    def test_single_character(self, capsys):
        code = main(["branch", "--rep", "rho8", "--rank", "8", "--steps", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "dim 248" in out
        assert "matches registry entry: True" in out

    def test_steps_default_to_one(self, capsys):
        assert main(["branch", "--rep", "rho8", "--rank", "8"]) == 0
        assert "branched 1 step(s): rank 7" in capsys.readouterr().out

    def test_rank_required_with_rep(self):
        assert main(["branch", "--rep", "rho8"]) == 2

    def test_too_many_steps(self):
        assert main(["branch", "--rep", "rho8", "--rank", "8", "--steps", "9"]) == 2


class TestDeterminism:
    def test_verify_all_p3_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert main(["verify", "all", "--p", "3", "--out", str(out1), "--workers", "1"]) == 0
        assert main(["verify", "all", "--p", "3", "--out", str(out2), "--workers", "3"]) == 0
        for path in sorted(out1.iterdir()):
            a = Certificate.load(path)
            b = Certificate.load(out2 / path.name)
            assert a.canonical_bytes() == b.canonical_bytes()


def test_commands_run_without_numpy(tmp_path):
    # the runtime is pure Python: a fresh interpreter running the mod-3
    # statements and a single-point class never loads numpy
    code = (
        "import sys\n"
        "from chern_cert.cli import main\n"
        "assert main(['verify', 'all', '--p', '3']) == 0\n"
        "assert main(['chern', '--rep', 'rho8', '--p', '3', '--alpha', '1,1,1,0']) == 0\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(chern_cert.__file__).resolve().parents[1]),
        CHERN_CERT_DIR=str(tmp_path / "certs"),
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-1] == "False"


def test_import_layering():
    # the package root loads no submodule, the per-point layers do not load
    # the Dickson expansion, and the CLI loads the single-point layer only
    # for the chern command
    env = dict(os.environ, PYTHONPATH=str(Path(chern_cert.__file__).resolve().parents[1]))

    def loaded(module):
        probe = "print(*[m for m in sys.modules if m.startswith('chern_cert.')])"
        done = subprocess.run(
            [sys.executable, "-c", f"import sys, {module}; {probe}"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.split()

    assert loaded("chern_cert") == []
    for module in ("chern_cert.chern", "chern_cert.classify"):
        modules = loaded(module)
        assert module in modules and "chern_cert.dickson" not in modules
    modules = loaded("chern_cert.cli")
    assert "chern_cert.cli" in modules and "chern_cert.chern" not in modules


class TestUsageErrors:
    """Every usage error exits 2 with one "error:" line and no traceback,
    before any certificate is written."""

    ALPHA = ["--rep", "rho8", "--p", "3", "--alpha", "1,1,1,1"]

    @pytest.mark.parametrize(
        "args",
        [
            ["verify", "prop-3.2", "--out", "{file}/x.json"],
            ["verify", "all", "--out", "{file}/sub"],
            ["verify", "all", "--out", "{file}"],
            ["chern", *ALPHA, "--out", "{file}/x.json"],
            ["verify", "prop-3.2", "--out", "{dir}"],
            ["verify", "prop-3.2", "--workers", "0"],
            ["chern", "--rep", "rho8", "--p", "3", "--alpha", "1,x"],
            ["chern", *ALPHA, "--rank", "8"],
            ["chern", "--group", "F4", *ALPHA],
            ["chern", "--rep", "rho8", "--p", "3", "--alpha", "1,1,1"],
            ["enumerate", "--p", "5", "--rep", "rho4"],
            ["branch", "--rep", "rho8"],
            ["branch", "--rep", "rho8", "--rank", "3"],
            ["branch", "--rep", "rho8", "--rank", "8", "--steps", "9"],
            ["branch", "--rank", "0"],
            ["branch", "--steps", "2"],
            ["dickson", "--p", "3", "--out", "{file}/x.json"],
            ["dickson", "--p", "3", "--restrict", "--check-sl3"],
            ["dickson", "--p", "5", "--restrict", "--full"],
            ["enumerate", "--p", "3", "--out", "{dir}"],
            ["branch", "--out", "{file}/x.json"],
            ["branch", "--rep", "rho8", "--rank", "8", "--out", "{file}"],
            ["verify", "theorem-1.1", "--p", "5"],
            ["verify", "theorem-4.1", "--p", "3"],
        ],
        ids=lambda args: " ".join(args),
    )
    def test_exit_2_without_traceback(self, tmp_path, cert_dir, args):
        blocker = tmp_path / "F"
        blocker.write_text("keep\n")
        empty = tmp_path / "D"
        empty.mkdir()
        args = [a.format(file=blocker, dir=empty) for a in args]
        done = run_cli(args, cert_dir)
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert done.stdout == ""
        assert blocker.read_text() == "keep\n"
        assert list(empty.iterdir()) == []
        assert not cert_dir.exists()

    def test_all_into_a_directory_blocked_by_one_target(self, tmp_path, cert_dir):
        # every target is checked before the first statement runs, so a
        # directory where the third certificate would go stops all of them
        out = tmp_path / "D"
        (out / "prop-3.2.json").mkdir(parents=True)
        done = run_cli(["verify", "all", "--p", "3", "--out", str(out)], cert_dir)
        assert done.returncode == 2, done.stderr
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --out ")
        assert done.stdout == ""
        assert list(out.iterdir()) == [out / "prop-3.2.json"]
        assert list((out / "prop-3.2.json").iterdir()) == []

    @pytest.mark.parametrize(
        "args",
        [["verify", "prop-3.2"], ["enumerate", "--p", "3"], ["dickson", "--p", "3"], ["branch"]],
        ids=lambda args: " ".join(args),
    )
    def test_cert_dir_that_is_a_file(self, tmp_path, args):
        blocker = tmp_path / "F"
        blocker.write_text("keep\n")
        done = run_cli(args, blocker)
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: CHERN_CERT_DIR=")
        assert done.stdout == ""
        assert blocker.read_text() == "keep\n"


class TestRoutes:
    """Every certificate command reaches the same certificate as the verify
    statement it certifies, with one status line per certificate."""

    @pytest.mark.parametrize(
        "command, verify",
        [
            (["enumerate", "--p", "3"], ["verify", "theorem-1.1"]),
            (["enumerate", "--p", "5", "--mode", "canonical"], ["verify", "theorem-4.1"]),
            (["dickson", "--p", "3"], ["verify", "lemma-3.1-facts"]),
            (["dickson", "--p", "5", "--full"], ["verify", "lemma-4.2-facts", "--full-dickson"]),
            (["branch"], ["verify", "prop-2.2-branching"]),
        ],
        ids=lambda args: " ".join(args),
    )
    def test_same_certificate_as_verify(self, capsys, command, verify):
        status = re.escape(verify[1]) + r": Verified \(\d+\.\d{3}s\)\n"
        digests = []
        for argv in (command, verify):
            assert main([*argv, "--json"]) == 0
            captured = capsys.readouterr()
            assert re.fullmatch(status, captured.err)
            digests.append(json.loads(captured.out)["canonical_sha256"])
        assert digests[0] == digests[1]


class TestHashGate:
    """scripts/hash_gate.py run on this checkout against itself, with short
    command lists."""

    ROOT = Path(__file__).resolve().parents[1]

    def load(self):
        path = self.ROOT / "scripts" / "hash_gate.py"
        spec = importlib.util.spec_from_file_location("hash_gate", path)
        gate = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gate)
        return gate

    def gate(self, monkeypatch, commands, reports):
        gate = self.load()
        monkeypatch.setattr(gate, "COMMANDS", commands)
        monkeypatch.setattr(gate, "REPORTS", reports)
        monkeypatch.setattr(sys, "argv", ["hash_gate.py", str(self.ROOT), str(self.ROOT)])
        return gate.main()

    def test_equal_trees_pass(self, monkeypatch, capsys):
        report = ["chern", "--rep", "rho4", "--p", "3", "--alpha", "1,1,1,0", "--json"]
        assert self.gate(monkeypatch, (["branch"],), (report,)) == 0
        out = capsys.readouterr().out
        assert "1 of 1 canonical_sha256 equal, 0 different, 0 of 1 commands failed" in out
        assert "1 of 1 chern reports byte-identical, 0 different" in out

    def test_a_command_that_writes_nothing_fails(self, monkeypatch, capsys):
        # an unknown statement exits with status 2 and writes no certificate
        # in either tree, which must not read as agreement
        commands = (["branch"], ["verify", "no-such-statement"])
        assert self.gate(monkeypatch, commands, ()) == 1
        out = capsys.readouterr().out
        assert "verify no-such-statement: failed failed FAILED" in out
        assert "1 of 1 canonical_sha256 equal, 0 different, 1 of 2 commands failed" in out

    def test_runs_write_no_bytecode_into_the_tree(self, monkeypatch, tmp_path):
        # scripts/bench_record.py refuses a tree holding __pycache__, so the
        # gate's runs must not leave any, whatever the caller's environment
        seen = []
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
        monkeypatch.setattr(subprocess, "run", lambda cmd, env, **kw: seen.append(env))
        self.load()._run(str(tmp_path), ["branch"], str(tmp_path / "certs"))
        assert [env["PYTHONDONTWRITEBYTECODE"] for env in seen] == ["1"]
