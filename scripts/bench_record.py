"""Record the benchmark's end-to-end metrics as BENCH_<n>.json at the repo root.

Usage:
    python3 scripts/bench_record.py --seconds S --seeds K,K,... N=TREE [N=TREE ...]

For every seed K, each TREE (a checkout of this repository) runs
`python3 bench/run.py --workload all --seconds S --seed K`, the trees taking
turns to go first.  BENCH_<N>.json holds, per workload and end-to-end
metric, every run's value with their median and quartiles, and the machine,
CPU count, Python version, the tree's commit, the seeds and the seconds.

Every run imports the package from source: each bench/run.py starts with
PYTHONDONTWRITEBYTECODE=1, and a TREE that holds src/chern_cert/__pycache__
is refused before any run.  Otherwise a tree with bytecode left from an
earlier run imports faster than one without (about 0.275 against 0.308 s of
setup_s), and a comparison reads a cache difference as a code difference.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("wall_s", "cpu_s", "peak_rss_mib", "setup_s")


def output(cmd: list, tree: str) -> str:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, check=True).stdout


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seeds", type=lambda s: [int(k) for k in s.split(",")], required=True)
    parser.add_argument("trees", nargs="+", metavar="N=TREE")
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    trees = dict(spec.split("=", 1) for spec in args.trees)
    for tree in trees.values():
        if (Path(tree) / "src" / "chern_cert" / "__pycache__").exists():
            parser.error(f"{tree} holds src/chern_cert/__pycache__; remove it so that"
                         " every tree imports from source")
    runs: dict = {n: [] for n in trees}
    for i, seed in enumerate(args.seeds):
        for n in list(trees)[:: (-1) ** i]:
            cmd = [sys.executable, "bench/run.py", "--workload", "all", "--seconds", str(args.seconds),
                   "--seed", str(seed)]
            runs[n].append(json.loads(output(cmd, trees[n]).splitlines()[-1]))
    cpuinfo = Path("/proc/cpuinfo")
    cpu = [s for s in (cpuinfo.read_text() if cpuinfo.exists() else "").splitlines() if s.startswith("model name")]
    for n, tree in trees.items():
        metrics = {}
        for key in (k for k in runs[n][0]["metrics"] if k.rsplit(".", 1)[-1] in END_TO_END):
            values = [r["metrics"][key]["value"] for r in runs[n]]
            q1, _, q3 = statistics.quantiles(values, n=4)
            metrics[key] = {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}
        record = {
            "commit": output(["git", "describe", "--always", "--dirty", "--abbrev=12"], tree).strip(),
            "seeds": args.seeds,
            "seconds": args.seconds,
            "machine": " ".join([platform.machine()] + [s.split(":", 1)[1].strip() for s in cpu[:1]]),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "correct": all(r["correct"] for r in runs[n]),
            "attempted": sum(r["attempted"] for r in runs[n]),
            "failed": sum(r["failed"] for r in runs[n]),
            "metrics": metrics,
        }
        (ROOT / f"BENCH_{n}.json").write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
