"""Layer spans for the traced run, recorded from outside the program.

`Tracer.install` replaces each traced public function with a wrapper in its
defining module and in every lschains module that imported it (for example
both `pathmodel.enumerate_ls_chains`, which `_decompose_components` calls, and
`invariants.tensor_decompose`).  A wrapper records a span (name, start, end,
parent) in memory and a few counts taken from the arguments and the result;
`layer_metrics` turns them into per-layer numbers.  Nothing is written until
`dump` at the end.

Spans come from the benchmark's process only.  Workers forked by a sweep's
process pool inherit the wrappers, but their spans stay in the worker and
are lost, so the parent's `verify_inequality` and `saturation_scan` spans
include the pool and its children are missing.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter

# defining module -> traced public functions
LAYERS = {
    "rootsys": ("build_root_system", "weyl_orbit_poset"),
    "pathmodel": ("enumerate_ls_chains", "tensor_decompose"),
    "invariants": ("invariant_dim", "verify_inequality", "saturation_scan"),
    "charoracle": ("weight_multiplicities", "tensor_decompose_oracle", "weyl_dim"),
    "renorm": ("map_weight", "transport_chain", "validate"),
}
DECOMPOSITIONS = ("pathmodel.tensor_decompose", "charoracle.tensor_decompose_oracle")


def _key(args) -> tuple:
    """(root system, weights...) of a call, as the program's caches key it."""
    return (args[0].label,) + tuple(tuple(a) for a in args[1:])


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._seen: set = set()
        self._patched: list[tuple] = []

    def _is_new(self, name: str, args) -> bool:
        key = (name,) + _key(args)
        if key in self._seen:
            return False
        self._seen.add(key)
        self.counts[name + ".distinct"] += 1
        return True

    def _measure(self, name: str, args, result, parent: int) -> None:
        """Work counts of one call, taken where the work happens."""
        c = self.counts
        if name == "rootsys.weyl_orbit_poset":
            if self._is_new(name, args):
                c[name + ".elements"] += len(result.elements)
        elif name == "pathmodel.enumerate_ls_chains":
            self._is_new(name, args)
            c[name + ".chains"] += len(result)
        elif name == "pathmodel.tensor_decompose":
            if self._is_new(name, args):
                c[name + ".components"] += sum(result.components.values())
        elif name == "charoracle.weight_multiplicities":
            if self._is_new(name, args):
                c[name + ".weights"] += len(result.entries)
            if parent >= 0 and self.spans[parent][0] == "charoracle.tensor_decompose_oracle":
                c["charoracle.tensor_decompose_oracle.folded"] += len(result.entries)
        elif name == "charoracle.tensor_decompose_oracle":
            c[name + ".multiplicity"] += sum(result.components.values())

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            self._measure(name, args, result, parent)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "lschains" or n.startswith("lschains.")]
        for home, names in LAYERS.items():
            defining = importlib.import_module(f"lschains.{home}")
            for fname in names:
                fn = getattr(defining, fname)
                wrapper = self._wrap(f"{home}.{fname}", fn)
                for m in modules:
                    if getattr(m, fname, None) is fn:
                        setattr(m, fname, wrapper)
                        self._patched.append((m, fname, fn))

    def uninstall(self) -> None:
        for m, fname, fn in self._patched:
            setattr(m, fname, fn)
        self._patched.clear()

    def layer_metrics(self) -> dict[str, float]:
        """calls, s (outermost spans), self_s and the counts, per layer."""
        children_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children_s[parent] += end - start
        out: dict[str, float] = {}
        for home, names in LAYERS.items():
            for fname in names:
                for stat in ("calls", "s", "self_s"):
                    out[f"{home}.{fname}.{stat}"] = 0
        decomps_in_invdim = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[name + ".calls"] += 1
            out[name + ".self_s"] += (end - start) - children_s[i]
            if not self._inside(i, name):
                out[name + ".s"] += end - start
            if name in DECOMPOSITIONS and parent >= 0 \
                    and self.spans[parent][0] == "invariants.invariant_dim":
                decomps_in_invdim += 1
        for name in ("rootsys.weyl_orbit_poset.elements", "pathmodel.enumerate_ls_chains.distinct",
                     "pathmodel.enumerate_ls_chains.chains", "pathmodel.tensor_decompose.distinct",
                     "pathmodel.tensor_decompose.components",
                     "charoracle.weight_multiplicities.distinct",
                     "charoracle.weight_multiplicities.weights"):
            out[name] = self.counts[name]
        c = self.counts
        out["pathmodel.tensor_decompose.useful_ratio"] = _ratio(
            c["pathmodel.tensor_decompose.components"], c["pathmodel.enumerate_ls_chains.chains"])
        out["charoracle.tensor_decompose_oracle.useful_ratio"] = _ratio(
            c["charoracle.tensor_decompose_oracle.multiplicity"],
            c["charoracle.tensor_decompose_oracle.folded"])
        out["invariants.invariant_dim.decompositions_per_call"] = _ratio(
            decomps_in_invdim, out["invariants.invariant_dim.calls"])
        return out

    def _inside(self, i: int, name: str) -> bool:
        """True if span i runs inside another span of the same layer."""
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
