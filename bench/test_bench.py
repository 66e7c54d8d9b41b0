"""Fast tests of the benchmark's own code: no full sweep runs here."""

import io
import json
import time
from contextlib import redirect_stdout
from pathlib import Path

import checks
import reference
import run
from tracer import Tracer

from chern_cert import cli
from chern_cert.chern import RestrictionPoint, chern_named, total_chern
from chern_cert.spinchar import exterior_square_weights, half_spin_weights, registry, vector_weights
from chern_cert.verify import run_statement

PROGRAM_CHARACTERS = {
    "lambda1+delta": lambda n: vector_weights(n) + half_spin_weights(n, "both"),
    "lambda2": exterior_square_weights,
    "delta+": lambda n: half_spin_weights(n, "+"),
    "rho8": lambda n: registry("rho8", n),
}


def test_reference_matches_total_chern_at_both_primes():
    model = reference.Reference()
    points = reference.sample_points(seed=7, count=3) + [(3, "1,1,1,0"), (5, "0,0,0,1,1,1,1,1")]
    for p, text in points:
        alpha = tuple(int(a) for a in text.split(","))
        for name, build in PROGRAM_CHARACTERS.items():
            want = total_chern(build(len(alpha)), RestrictionPoint(p, alpha)).render()
            assert reference.render(model.chern(name, p, alpha)) == want, (name, p, text)


def test_reference_mod3_consistent_set():
    m3 = reference.Reference().mod3()
    assert len(m3["joint_set"]) == 32
    assert m3["joint_values"] == ["1 + 2*t^18"]
    assert m3["rho8_values"] == ["1 + 2*t^162"]
    assert set(m3["joint_set"]) <= set(m3["lambda1_delta_set"])


def test_transposition_check_rejects_an_asymmetric_weight_set():
    assert reference.transposition_invariant(reference.rho8(8))
    assert not reference.transposition_invariant([(2, 0), (-2, 0)])


def test_check_pass_counts_attempted_and_failed(tmp_path):
    ref = {"dims": {"rho8@4": 248, "rho8@8": 248}}
    run_statement("prop-2.2-branching").write(tmp_path / "prop-2.2-branching.json")
    run_statement("lemma-3.1-facts").write(tmp_path / "lemma-3.1-facts.json")
    both = ("prop-2.2-branching", "lemma-3.1-facts")
    assert checks.check_pass(tmp_path, both, ref, "canonical", False) == (2, 0, [])

    doc = json.loads((tmp_path / "lemma-3.1-facts.json").read_text())
    doc["status"] = "Falsified"
    (tmp_path / "prop-3.2.json").write_text(json.dumps(doc))
    doc["status"] = "Verified"
    doc["evidence"]["restriction_images"]["c2"] = "t^17"
    (tmp_path / "lemma-3.1-facts.json").write_text(json.dumps(doc))

    statements = both + ("prop-3.2", "theorem-1.1")  # theorem-1.1 never written
    attempted, failed, problems = checks.check_pass(tmp_path, statements, ref, "canonical", False)
    assert (attempted, failed) == (4, 2)
    assert any("lemma-3.1-facts: canonical_sha256" in p for p in problems)
    assert any("lemma-3.1-facts: restriction images" in p for p in problems)
    assert any(p.startswith("prop-3.2: status 'Falsified'") for p in problems)
    assert any(p.startswith("theorem-1.1: no readable certificate") for p in problems)
    assert not any(p.startswith("prop-2.2-branching") for p in problems)


def test_run_workload_is_not_correct_when_a_certificate_is_falsified(tmp_path, monkeypatch):
    def fake_pass(name, index, trace, samples, tag):
        doc = {"statement": "lemma-4.2-facts", "status": "Falsified"}
        (tmp_path / "lemma-4.2-facts.json").write_text(json.dumps(doc))
        result = {
            "exit_code": 1, "wall_s": 2.0, "cpu_s": 2.0, "peak_rss_mib": 60.0,
            "module": str(run.SRC / "chern_cert" / "cli.py"),
            "samples": {
                f"{p}:{alpha}": chern_named("rho8", RestrictionPoint.parse(p, alpha)).render()
                for p, alpha in samples
            },
        }
        return result, tmp_path

    monkeypatch.setattr(run, "run_pass", fake_pass)
    monkeypatch.setattr(run, "setup_seconds", lambda: 0.2)
    result = run.run_workload("dickson-p5-full", seed=1, seconds=0, trace=False, ref={})
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert any("status 'Falsified'" in p for p in result["problems"])
    assert any("exited with 1" in p for p in result["problems"])


def test_tracer_self_times_add_up_and_uninstall_restores():
    original_main, original_registry = cli.main, cli.registry
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        with redirect_stdout(io.StringIO()):
            assert cli.main(["branch", "--rep", "rho8", "--rank", "8", "--steps", "4"]) == 0
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert cli.main is original_main and cli.registry is original_registry
    summary = tracer.summary(wall)
    assert summary["cli.main.calls"] == 1
    assert summary["spinchar.branch.calls"] == 4
    assert summary["spinchar.weights.calls"] >= 2
    total = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    assert abs(total + summary["trace.uncovered_s"] - wall) < 1e-6
    assert tracer.problems(t0, t0 + wall) == []


def test_tracer_problems_catch_spans_that_do_not_nest():
    tracer = Tracer()
    tracer.spans += [
        ["cli.main", "cli", 1.0, 5.0, -1],
        ["verify.prop-3.2", "verify", 2.0, 6.0, 0],  # ends after its parent
        ["verify.prop-3.3", "verify", 3.0, 4.0, 0],  # starts inside its sibling
        ["chern.total_chern", "chern", 4.5, float("nan"), 0],  # never closed
    ]
    problems = tracer.problems(0.0, 10.0)
    assert len(problems) == 3
    assert "outside its parent" in problems[0]
    assert "overlaps" in problems[1]
    assert "nan" in problems[2]
    assert tracer.problems(1.5, 10.0)[0].startswith("span 0 cli.main")


def test_benchmark_json_matches_the_runner():
    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
