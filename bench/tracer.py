"""Span tracer for the chern-cert benchmark.

It wraps public functions of chern_cert at the module attribute each caller
looks up (for example ``classify.total_chern`` and ``cli.run_statement``),
records one span per call (name, layer, start, end, parent) in memory, and
restores the originals on ``uninstall``.  A span's self time is its duration
minus the durations of its direct children and is charged to the layer
(module) that defines the wrapped function; time no span covers is reported
apart, so the self times and the uncovered time add up to the traced wall
time.  ``problems`` checks that the spans nest as a call tree must.
"""

from __future__ import annotations

import importlib
import json
import math
import resource
import time
from pathlib import Path

LAYERS = ("cli", "verify", "classify", "chern", "spinchar", "fppoly", "dickson", "certificates")

# (span name, module, function, local): the function is wrapped at every
# chern_cert module attribute that refers to it, so calls through an import
# are seen too, or with local=True in that module only (classify's calls
# into the greedy plus/minus factorization are its fallback path).
FUNCTIONS = (
    ("cli.main", "cli", "main", False),
    ("verify", "verify", "run_statement", False),
    ("classify.mod3", "classify", "classify_f4_mod3", False),
    ("classify.mod3", "classify", "check_prop32", False),
    ("classify.mod3", "classify", "check_prop33", False),
    ("classify.mod5", "classify", "classify_e8_mod5", False),
    ("classify.mod5", "classify", "check_prop43", False),
    ("classify.mod5", "classify", "check_prop44", False),
    ("classify.sweep_mod5", "classify", "sweep_mod5", False),
    ("classify.pm_fallback", "classify", "pm_factorization", True),
    ("chern.total_chern", "chern", "total_chern", False),
    ("chern.chern_named", "chern", "chern_named", False),
    ("spinchar.weights", "spinchar", "trivial", False),
    ("spinchar.weights", "spinchar", "vector_weights", False),
    ("spinchar.weights", "spinchar", "exterior_square_weights", False),
    ("spinchar.weights", "spinchar", "half_spin_weights", False),
    ("spinchar.weights", "spinchar", "registry", False),
    ("fppoly.chern_of_exponents", "fppoly", "chern_of_exponents", False),
    ("dickson.lemma_facts", "dickson", "lemma_facts", False),
    ("dickson.compute", "dickson", "compute", False),
    ("dickson.orbit_product", "dickson", "orbit_product", False),
    ("dickson.rank1_restriction", "dickson", "rank1_restriction", False),
    ("dickson.sl3_invariance_check", "dickson", "sl3_invariance_check", False),
)

# (span name, module, class, method names sharing one wrapper)
METHODS = (
    ("spinchar.branch", "spinchar", "Character", ("branch",)),
    ("fppoly.UPoly.divexact", "fppoly", "UPoly", ("divexact",)),
    ("fppoly.MPoly.mul", "fppoly", "MPoly", ("__mul__", "__rmul__")),
    ("fppoly.MPoly.substitute_linear", "fppoly", "MPoly", ("substitute_linear",)),
    ("certificates.from_result", "certificates", "Certificate", ("from_result",)),
    ("certificates.write", "certificates", "Certificate", ("write",)),
)

NAME, LAYER, START, END, PARENT = range(5)
NEST_TOLERANCE_S = 1e-9


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    """Spans as [name, layer, start, end, parent] lists, in start order."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self.counters = {
            "classify.points_scanned": 0,
            "classify.points_weighted": 0,
            "classify.sweep_mod5.child_cpu_s": 0.0,
            "certificates.bytes": 0,
        }
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, layer: str):
        """A wrapper of fn recording one span per call.  name "verify" is
        refined by the statement, the first argument of run_statement."""
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter

        def traced(*args, **kwargs):
            span_name = name
            if name == "verify":
                span_name = "verify." + (args[0] if args else kwargs["statement"])
            span = [span_name, layer, 0.0, math.nan, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            cpu0 = _children_cpu() if name == "classify.sweep_mod5" else 0.0
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if name == "classify.sweep_mod5":
                counters["classify.points_scanned"] += result["points"]
                counters["classify.points_weighted"] += result["weighted_points"]
                counters["classify.sweep_mod5.child_cpu_s"] += _children_cpu() - cpu0
            elif name == "certificates.write":
                counters["certificates.bytes"] += Path(result).stat().st_size
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"chern_cert.{m}") for m in LAYERS}
        for name, mod, attr, local in FUNCTIONS:
            fn = getattr(mods[mod], attr)
            wrapper = self.wrap(fn, name, fn.__module__.rsplit(".", 1)[-1])
            for module in (mods[mod],) if local else mods.values():
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, key, wrapper)
        for name, mod, cls_name, attrs in METHODS:
            cls = getattr(mods[mod], cls_name)
            raw = cls.__dict__[attrs[0]]
            if isinstance(raw, classmethod):
                wrapper = classmethod(self.wrap(raw.__func__, name, mod))
            else:
                wrapper = self.wrap(raw, name, mod)
            for attr in attrs:
                self._set(cls, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reports -----------------------------------------------------------

    def problems(self, t0: float, t1: float) -> list[str]:
        """Ways the spans fail to form a call tree inside the traced span
        [t0, t1] read on the same clock: a span left open or ending before
        it starts, a top-level span outside [t0, t1], a child outside its
        parent, siblings that overlap.  Any of these would make the self
        times and the uncovered time meaningless."""
        out: list[str] = []
        last_end = {}  # parent index -> end of its latest child so far
        for i, (name, _, start, end, parent) in enumerate(self.spans):
            if not (math.isfinite(start) and math.isfinite(end) and end >= start):
                out.append(f"span {i} {name}: start {start}, end {end}")
                continue
            lo, hi = (t0, t1) if parent < 0 else self.spans[parent][START:END + 1]
            if start < lo - NEST_TOLERANCE_S or end > hi + NEST_TOLERANCE_S:
                out.append(f"span {i} {name} [{start}, {end}] outside its parent [{lo}, {hi}]")
            if start < last_end.get(parent, -math.inf) - NEST_TOLERANCE_S:
                out.append(f"span {i} {name} overlaps its previous sibling")
            last_end[parent] = end
        return out

    def summary(self, wall: float) -> dict:
        """Per-layer metrics of the spans recorded over a traced span of wall
        seconds: calls and inclusive seconds per span name (a span nested in
        one of the same name is not counted twice), self seconds per layer,
        and the uncovered remainder."""
        spans = self.spans
        dur = [s[END] - s[START] for s in spans]
        child = [0.0] * len(spans)
        top = 0.0
        for i, s in enumerate(spans):
            if s[PARENT] < 0:
                top += dur[i]
            else:
                child[s[PARENT]] += dur[i]
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        calls: dict[str, int] = {}
        inclusive: dict[str, float] = {}
        for i, (name, layer, _, _, parent) in enumerate(spans):
            out[f"{layer}.self_s"] += dur[i] - child[i]
            calls[name] = calls.get(name, 0) + 1
            inclusive.setdefault(name, 0.0)
            while parent >= 0 and spans[parent][NAME] != name:
                parent = spans[parent][PARENT]
            if parent < 0:
                inclusive[name] += dur[i]
        out["trace.uncovered_s"] = wall - top
        out["trace.wall_s"] = wall
        out["trace.spans"] = len(spans)
        for name, count in calls.items():
            out[f"{name}.calls"] = count
            out[f"{name}.s"] = inclusive[name]
        out.update(self.counters)
        return out

    def dump(self, path: Path) -> None:
        """Write every span as [name, start, end, parent]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [[s[NAME], s[START], s[END], s[PARENT]] for s in self.spans]
        path.write_text(json.dumps({"spans": spans}) + "\n")
