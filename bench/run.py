"""chern-cert benchmark: three workloads, timed end to end and per layer.

Usage:
    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

A run measures set-up (fresh interpreters importing chern_cert.cli), then
repeats whole passes of its workload until --seconds have elapsed (at least
one pass).  Each pass runs the workload's CLI command in a fresh interpreter
(bench/child.py), so every pass pays the program's cold caches.  Every
certificate a pass writes is checked against the independent reference
(bench/reference.py), which is computed once per run outside the timed
passes.  With --trace 1, traced and untraced passes alternate and the run
reports the per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The seed picks the restriction points whose
rho8 classes each pass cross-checks against the reference; the sweeps
themselves are exhaustive and have no randomness.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

STATEMENTS = (
    "theorem-1.1", "theorem-4.1", "lemma-3.1-facts", "lemma-4.2-facts",
    "prop-2.2-branching", "prop-3.2", "prop-3.3", "prop-4.3", "prop-4.4",
)

# name -> (CLI arguments, certificates written, mod-5 sweep mode, full p = 5
# Dickson expansion required)
WORKLOADS = {
    "verify-all-canonical": (["verify", "all", "--workers", "2"], STATEMENTS, "canonical", False),
    "theorem-4.1-full": (
        ["verify", "theorem-4.1", "--mode", "full", "--workers", "1"],
        ("theorem-4.1",), "full", False,
    ),
    "dickson-p5-full": (
        ["verify", "lemma-4.2-facts", "--full-dickson", "--workers", "1"],
        ("lemma-4.2-facts",), None, True,
    ),
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}

PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in (
        "cli", "verify", "classify", "chern", "spinchar", "fppoly", "dickson", "certificates")},
    **{f"verify.{s}.s": "s" for s in STATEMENTS},
    "classify.sweep_mod5.calls": "count",
    "classify.sweep_mod5.s": "s",
    "classify.points_scanned": "count",
    "classify.points_per_s": "1/s",
    "classify.sweep_mod5.child_cpu_s": "s",
    "classify.pm_fallback.calls": "count",
    "classify.mod3.s": "s",
    "chern.total_chern.calls": "count",
    "chern.total_chern.s": "s",
    "chern.chern_named.calls": "count",
    "spinchar.weights.calls": "count",
    "spinchar.weights.s": "s",
    "spinchar.branch.calls": "count",
    "fppoly.chern_of_exponents.calls": "count",
    "fppoly.chern_of_exponents.s": "s",
    "fppoly.UPoly.divexact.calls": "count",
    "fppoly.MPoly.mul.calls": "count",
    "fppoly.MPoly.mul.s": "s",
    "fppoly.MPoly.substitute_linear.s": "s",
    "dickson.orbit_product.s": "s",
    "dickson.compute.calls": "count",
    "dickson.compute.cache_hits": "count",
    "dickson.sl3_invariance_check.s": "s",
    "dickson.rank1_restriction.s": "s",
    "certificates.write.calls": "count",
    "certificates.write.s": "s",
    "certificates.bytes": "B",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
    "trace.wall_s": "s",
}

SETUP_SAMPLES = 7  # at least
SAMPLE_POINTS = 3  # per prime
PASS_TIMEOUT_S = 170


def _env(cert_dir: "Path | None" = None) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if cert_dir is not None:
        env["CHERN_CERT_DIR"] = str(cert_dir)
    return env


def _run(cmd: list, env: dict) -> "tuple[int | None, str, str]":
    """Run cmd in its own session; on timeout kill the whole process group
    (pool workers included) and wait for it."""
    proc = subprocess.Popen(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, out, err + f"\ntimed out after {PASS_TIMEOUT_S} s"
    return proc.returncode, out, err


def setup_seconds() -> float:
    """Seconds from spawning a fresh interpreter to chern_cert.cli imported,
    both ends read on the system-wide monotonic clock."""
    code = (
        "import time\nimport chern_cert.cli\n"
        "print(time.clock_gettime(time.CLOCK_MONOTONIC))"
    )
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    rc, out, err = _run([sys.executable, "-c", code], _env())
    if rc != 0:
        raise RuntimeError(f"importing chern_cert.cli failed:\n{err}")
    return float(out.split()[-1]) - started


def run_pass(name: str, index: int, trace: bool, samples: list, tag: str) -> tuple[dict, Path]:
    cli_args = WORKLOADS[name][0]
    cert_dir = OUT / "certs" / name
    shutil.rmtree(cert_dir, ignore_errors=True)
    cmd = [sys.executable, str(BENCH / "child.py")]
    if trace:
        cmd += ["--trace", str(OUT / "traces" / f"{tag}-pass{index}.json")]
    for p, alpha in samples:
        cmd += ["--sample", f"{p}:{alpha}"]
    rc, out, err = _run(cmd + ["--"] + cli_args, _env(cert_dir))
    if rc != 0:
        return {"error": f"pass exited with {rc}:\n{err[-2000:]}"}, cert_dir
    return json.loads(out.splitlines()[-1]), cert_dir


def _layers(result: dict) -> dict:
    """The per-layer metrics of one traced pass."""
    raw = result["layers"]
    got = {k: raw.get(k, 0) for k in PER_LAYER}
    sweep_s = raw.get("classify.sweep_mod5.s", 0.0)
    got["classify.points_per_s"] = raw["classify.points_weighted"] / sweep_s if sweep_s else 0.0
    got["dickson.compute.cache_hits"] = (
        raw.get("dickson.compute.calls", 0) - raw.get("dickson.orbit_product.calls", 0)
    )
    return got


def run_workload(name: str, seed: int, seconds: float, trace: bool, ref: dict) -> dict:
    _, statements, mode, full_dickson = WORKLOADS[name]
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    samples = reference.sample_points(seed, SAMPLE_POINTS)
    model = reference.Reference()
    expected_samples = {
        f"{p}:{alpha}": reference.render(model.chern("rho8", p, tuple(map(int, alpha.split(",")))))
        for p, alpha in samples
    }

    setup: list[float] = []
    attempted = failed = 0
    problems: list[str] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        # one set-up sample per pass spreads them over the run like the passes
        setup.append(setup_seconds())
        do_trace = trace and index % 2 == 1
        result, cert_dir = run_pass(name, index, do_trace, samples, tag)
        index += 1
        a, f, probs = checks.check_pass(cert_dir, statements, ref, mode, full_dickson)
        attempted += a
        failed += f
        problems += probs
        if "error" in result:
            problems.append(result["error"])
        else:
            if result["exit_code"] != 0:
                problems.append(f"{' '.join(WORKLOADS[name][0])} exited with {result['exit_code']}")
            if not Path(result["module"]).resolve().is_relative_to(SRC):
                problems.append(f"chern_cert imported from {result['module']}, not {SRC}")
            if result["samples"] != expected_samples:
                problems.append(f"sampled rho8 classes {result['samples']} != {expected_samples}")
            (traced if do_trace else untraced).append(result)
            if do_trace:
                problems += result["trace_problems"]
        done = untraced and (traced or not trace)
        if done and time.perf_counter() >= deadline:
            break
        if not done and index >= 4:  # two failed rounds: stop
            break

    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_seconds())

    metrics: dict = {}
    if untraced:
        for key in ("wall_s", "cpu_s", "peak_rss_mib"):
            metrics[key] = statistics.median(r[key] for r in untraced)
    metrics["setup_s"] = statistics.median(setup)
    if trace and traced and untraced:
        per_pass = [_layers(r) for r in traced]
        for key in PER_LAYER:
            metrics[key] = statistics.median(p[key] for p in per_pass)
        metrics["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced) - metrics["wall_s"]
        )
    units = PER_LAYER if trace else END_TO_END
    missing = [k for k in units if k not in metrics]
    if missing:
        problems.append(f"no measurement for {missing}")
    return {
        "workload": name,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "pass_wall_s": {
            "untraced": [r["wall_s"] for r in untraced],
            "traced": [r["wall_s"] for r in traced],
        },
        "setup_samples_s": setup,
        "problems": problems,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS) + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "chern_cert" / "cli.py").is_file():
        print(f"error: no chern_cert sources under {SRC}", file=sys.stderr)
        return 2

    ref = reference.compute()
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace), ref) for n in names]

    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    for r in results:
        for problem in r["problems"]:
            print(f"{r['workload']}: {problem}", file=sys.stderr)
        shown = ", ".join(f"{k} {m['value']:.4g} {m['unit']}" for k, m in r["metrics"].items())
        print(
            f"{r['workload']}: {shown}; certificates attempted {r['attempted']},"
            f" failed {r['failed']}; passes {r['passes']}"
        )
        path = results_dir / f"{r['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(r, indent=2) + "\n")

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
