"""Per-layer spans for the traced run, recorded from outside the package.

Each listed public function is replaced by a wrapper in every ``entcov.*``
module that binds the same object, so names imported into ``cli``,
``reference`` or ``suite`` are caught too.  ``CriterionEvaluator.__init__``
and ``.matrix`` are wrapped on the class.  Spans stay in memory until the run
ends.  A name that no longer exists is reported as absent, not as an error.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# (module, attribute) pairs; a dotted attribute is a method wrapped on its class.
# TARGETS are the layers of the listed workloads, wrapped on every workload.
TARGETS = (
    ("cli", "main"),
    ("linalg", "partial_transpose"),
    ("states", "werner_mix"),
    ("observables", "collective_spin_set"),
    ("observables", "hp_quadrature_set"),
    ("observables", "rotate_so3"),
    ("criterion", "CriterionEvaluator.__init__"),
    ("criterion", "CriterionEvaluator.matrix"),
    ("criterion", "detect"),
    ("reference", "ppt_min_eigenvalue"),
)
# layers that only an unlisted workload reaches; wrapped and reported on that
# workload alone, so the listed workloads report no metric that always reads 0
WORKLOAD_TARGETS = {
    "witness-m2": (
        ("reference", "witness_optimize"),
        ("reference", "decomposable_split"),
    ),
    "battery": (
        ("criterion", "uncertainty_matrix"),
        ("uncertainty", "variance"),
        ("uncertainty", "schrodinger_I2"),
        ("uncertainty", "schrodinger_I3"),
        ("uncertainty", "invariant_decomposition"),
        ("suite", "run_property_battery"),
    ),
}

# spans whose first returned element says whether the attempt was useful
FEASIBLE_FLAG = {"reference.decomposable_split"}


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.replace('__init__', 'init')}"


class Tracer:
    """Records one span per call of each wrapped (module, attribute) target.

    A span is [name, start, end, parent span index, round index]; ``feasible``
    counts the calls of FEASIBLE_FLAG functions that returned a true flag.
    """

    def __init__(self, targets):
        self.targets = targets
        self.spans: list[list] = []
        self.feasible: dict[str, int] = {}
        self.absent: list[str] = []
        self.round_index = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count_feasible = name in FEASIBLE_FLAG

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.round_index]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count_feasible and result[0]:
                self.feasible[name] = self.feasible.get(name, 0) + 1
            return result

        return wrapper

    def install(self, package: str = "entcov") -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for module_name, attr in self.targets:
            name = span_name(module_name, attr)
            module = sys.modules.get(f"{package}.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(method) if isinstance(owner, type) else None
                if original is None:
                    self.absent.append(name)
                    continue
                setattr(owner, method, self.wrap(name, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def summary(self) -> dict:
        """Calls, self time and feasible count per span name.

        Self time is a span's duration minus the durations of its direct
        children; spans never overlap because the run is single-threaded.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {span_name(m, a): {"calls": 0, "self_s": 0.0} for m, a in self.targets}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name]["calls"] += 1
            out[name]["self_s"] += (end - start) - child_time[i]
        for name in FEASIBLE_FLAG & out.keys():
            out[name]["feasible"] = self.feasible.get(name, 0)
        return out

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        payload = {
            "fields": ["name", "start_s", "end_s", "parent", "round"],
            "names": names,
            "absent": self.absent,
            "spans": [[index[n], round(s - t0, 9), round(e - t0, 9), p, r]
                      for n, s, e, p, r in self.spans],
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))
