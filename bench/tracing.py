"""In-memory spans around coopshare's public functions, and the per-layer sums.

`Tracer.install` replaces each public function of every coopshare module
with a wrapper, in every module that holds a reference to it: the
defining module (so calls inside it are seen), the importing modules
(`coopshare.cli.value_general`, `coopshare.nucleolus.solve_lp`, ...) and
the package namespace.  A span is (item, id, parent, name, start, end);
spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import NamedTuple

MODULES = ("ratlp", "game", "nucleolus", "shapley", "multimarket", "files", "cli")
# rat() runs once per number handled; a span would cost more than its work
UNTRACED = frozenset({"rat"})

# metric layer -> the spans whose self time it adds up
LAYERS = {
    "nucleolus.step_size": ("nucleolus.step_size",),
    "nucleolus.primal_dual": ("nucleolus.nucleolus_primal_dual", "nucleolus.improving_direction"),
    "nucleolus.separation": ("nucleolus.nucleolus_separation",),
    "nucleolus.separate": ("nucleolus.separate",),
    "nucleolus.bruteforce": ("nucleolus.nucleolus_bruteforce",),
    "shapley.closed_form": ("shapley.shapley_single_market",),
    "shapley.bruteforce": ("shapley.shapley_bruteforce",),
    "game.core_check": ("game.core_check", "game.min_excess"),
    "game.value_single_market": ("game.value_single_market",),
    "game.value_general": ("game.value_general",),
    "multimarket": ("multimarket.decompose", "multimarket.core_point",
                    "multimarket.sum_of_nucleoli", "multimarket.shapley_multimarket"),
    "ratlp.solve_lp": ("ratlp.solve_lp", "ratlp.dual_of", "ratlp.linear_program",
                       "ratlp.solve_linear_system", "ratlp.span_membership"),
    "files.parse": ("files.parse_instance", "files.loads_instance", "files.parse_allocation"),
    "cli": ("cli.main", "cli.cmd_value", "cli.cmd_allocate", "cli.cmd_check"),
}
CALLS = ("nucleolus.step_size", "nucleolus.separate", "ratlp.solve_lp",
         "game.value_single_market", "game.value_general")


class Span(NamedTuple):
    item: int
    id: int
    parent: int
    name: str
    start: float
    end: float


def _bits(values) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in values or ()), default=0)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.item = -1
        self.lp_cells = 0
        self.lp_bits = 0
        self.masks: dict[int, int] = {}  # value_general span id -> coalition mask
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (holder, name, original)

    def install(self) -> None:
        package = sys.modules["coopshare"]
        holders = [package] + [sys.modules[f"coopshare.{m}"] for m in MODULES]
        for short in MODULES:
            module = sys.modules[f"coopshare.{short}"]
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or attr in UNTRACED or isinstance(fn, type)
                        or not callable(fn) or getattr(fn, "__module__", None) != module.__name__):
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            self._patched.append((holder, name, fn))
                            setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, original in self._patched:
            setattr(holder, name, original)
        self._patched.clear()

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span of the given name."""
        sid = len(self.spans) + len(self._stack)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(self.item, sid, parent, name, start, end))

    def _wrap(self, name, fn):
        tracer = self
        if name == "ratlp.solve_lp":
            @functools.wraps(fn)
            def traced(lp, *args, **kwargs):
                res = tracer.span(name, fn, lp, *args, **kwargs)
                tracer.lp_cells += lp.num_rows * lp.num_vars
                tracer.lp_bits = max(tracer.lp_bits, _bits(res.x), _bits(res.duals))
                return res
        elif name == "game.value_general":
            @functools.wraps(fn)
            def traced(inst, coalition, *args, **kwargs):
                tracer.masks[len(tracer.spans) + len(tracer._stack)] = coalition.mask
                return tracer.span(name, fn, inst, coalition, *args, **kwargs)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return tracer.span(name, fn, *args, **kwargs)
        return traced

    def metrics(self, items: int) -> dict:
        """Per-layer figures per item; bit lengths and the ratio are not per item."""
        selfs = self_times(self.spans)
        by_name = defaultdict(float)
        calls = defaultdict(int)
        for span in self.spans:
            by_name[span.name] += selfs[span.id]
            calls[span.name] += 1
        out = {}
        for layer, names in LAYERS.items():
            out[f"{layer}.self_s"] = sum(by_name[n] for n in names) / items
        for name in CALLS:
            out[f"{name}.calls"] = calls[name] / items
        out["ratlp.solve_lp.cells"] = self.lp_cells / items
        out["ratlp.result_max_bits"] = self.lp_bits
        out["game.value_general.distinct_ratio"] = distinct_ratio(self.spans, self.masks)
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(list(Span._fields)) + "\n")
            for span in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> dict[int, float]:
    """span id -> its duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for span in spans:
        children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for start, end in sorted(children[span.id]):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out[span.id] = (span.end - span.start) - covered
    return out


def distinct_ratio(spans, masks) -> float:
    """Distinct coalitions valued per command, over value_general calls.

    A command is the nearest enclosing `cli.main` span (or the item when
    there is none): separate commands run as separate processes, so only
    repeats inside one command are avoidable work.  0 when no call was made.
    """
    if not masks:
        return 0.0
    parent = {s.id: s.parent for s in spans}
    name = {s.id: s.name for s in spans}
    item = {s.id: s.item for s in spans}
    seen = set()
    for sid, mask in masks.items():
        scope = parent[sid]
        while scope != -1 and name[scope] != "cli.main":
            scope = parent[scope]
        seen.add((item[sid], scope, mask))
    return len(seen) / len(masks)
