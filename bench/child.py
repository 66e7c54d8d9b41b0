"""One benchmark pass in a fresh interpreter.

Usage: python3 bench/child.py [--trace FILE] [--sample P:A1,A2,...]... -- CLI-ARGS

It imports chern_cert.cli (outside the timed span), runs ``cli.main`` on the
CLI arguments once, and prints one JSON line: the wall time and the CPU time
(self and reaped children) of that call, its exit code, peak RSS, and the
rho8 classes of the sampled points, computed after the timed span.  With
--trace the public functions are wrapped first, and the per-layer summary and
any way the spans fail to nest are added; the spans are written to FILE.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import chern_cert.cli as cli
from chern_cert.chern import RestrictionPoint, chern_named

from tracer import Tracer


def _cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=Path, default=None)
    parser.add_argument("--sample", action="append", default=[])
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = None
    if args.trace is not None:
        tracer = Tracer()
        tracer.install()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        cpu0 = _cpu()
        t0 = time.perf_counter()
        code = cli.main(cli_args)
        t1 = time.perf_counter()
        cpu = _cpu() - cpu0
    rss_kib = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    out = {
        "exit_code": code,
        "wall_s": t1 - t0,
        "cpu_s": cpu,
        "peak_rss_mib": rss_kib / 1024,
        "module": cli.__file__,
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.summary(t1 - t0)
        out["trace_problems"] = tracer.problems(t0, t1)
        tracer.dump(args.trace)
    samples = {}
    for item in args.sample:
        p, alpha = item.split(":")
        samples[item] = chern_named("rho8", RestrictionPoint.parse(int(p), alpha)).render()
    out["samples"] = samples
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
