"""Outside-in per-layer trace of the qcoh package.

Spans go around public names only, so a private helper can be renamed or
deleted without breaking the trace. A wrapped function replaces the original
in every ``qcoh.*`` namespace that binds it, because ``duality``, ``cli`` and
``cohomology`` import many of them with ``from ... import``.

Spans are kept in memory and written out when the run ends. A span's self
time is its duration minus the time of the wrapped spans it called.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

# layer -> public names; "Cls.meth" is a method of a class of that module
LAYERS = {
    "zqlin": ("howell_form", "kernel", "solve", "smith_decomposition"),
    "groups": (
        "FiniteGroup.from_table",
        "q_central_series",
        "quotient",
        "normal_subgroups_within",
        "enumerate_homs",
        "is_isomorphic",
    ),
    "freemodel": ("free_level3",),
    "cohomology": (
        "h1",
        "h2",
        "is_coboundary",
        "Cochain2.is_cocycle",
        "cup11",
        "bockstein",
        "transgression",
        "tensor_kill_rows",
    ),
    "duality": (
        "duality_conditions",
        "transgression_solver",
        "transgression_pairing",
        "inflation_isomorphism_table",
        "lower3_intersection_check",
        "reconstruct_quotient",
        "dual_basis_check",
        "local_global_check",
    ),
    "report": ("Report.render",),
}


def _first_arg(args: tuple, kwargs: dict, name: str) -> Any:
    return args[0] if args else kwargs[name]


class Tracer:
    """Counts, self times and spans of the wrapped qcoh functions."""

    def __init__(self) -> None:
        self.task = ""
        self._stack: list[list] = []  # [span index, time spent in wrapped children]
        self.reset()

    def reset(self) -> None:
        """Start a fresh pass: drop the spans and zero every counter."""
        self.spans: list[tuple] = []  # (task, name, start, end, parent span index)
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.cells = 0
        self.cochains_built = 0
        self.potentials = 0
        # distinct groups by weak reference, so tracing keeps no group alive
        self.groups_seen = {"q_central_series": weakref.WeakSet(), "h1": weakref.WeakSet()}
        self.distinct_groups: Counter = Counter()

    # -- recording -----------------------------------------------------------

    def _see_group(self, fn: str, group: Any) -> None:
        seen = self.groups_seen[fn]
        if group not in seen:
            seen.add(group)
            self.distinct_groups[fn] += 1

    def _observe(self, key: str, args: tuple, kwargs: dict, result: Any) -> None:
        if key == "zqlin.howell_form":
            rows, cols = _first_arg(args, kwargs, "matrix").entries.shape
            self.cells += rows * cols
        elif key == "groups.q_central_series":
            self._see_group("q_central_series", _first_arg(args, kwargs, "group"))
        elif key == "cohomology.h1":
            self._see_group("h1", _first_arg(args, kwargs, "group"))
        elif key == "cohomology.is_coboundary" and result is not None:
            self.potentials += 1

    def _wrap(self, key: str, fn: Callable) -> Callable:
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            spans = self.spans
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                spans[frame[0]] = (self.task, key, start, end, parent)
                self.calls[key] += 1
                self.self_s[key] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            self._observe(key, args, kwargs, result)
            return result

        return traced

    def _count_cochains(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(obj: Any) -> None:
            self.cochains_built += 1
            fn(obj)

        return counted

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed name of every layer, once per process."""
        import qcoh  # noqa: F401  (loads every layer module)

        namespaces = [m for name, m in sys.modules.items() if name == "qcoh" or name.startswith("qcoh.")]
        for layer, names in LAYERS.items():
            module = sys.modules[f"qcoh.{layer}"]
            for name in names:
                key = f"{layer}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self._wrap(key, raw.__func__)))
                    else:
                        setattr(cls, meth, self._wrap(key, raw))
                    continue
                original = getattr(module, name)
                traced = self._wrap(key, original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, traced)
        cochain2 = sys.modules["qcoh.cohomology"].Cochain2
        cochain2.__post_init__ = self._count_cochains(cochain2.__post_init__)

    # -- results ---------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Every exact count of the pass; two passes over one input must agree."""
        out = {f"{key}.calls": self.calls[key] for key in _keys()}
        out["zqlin.howell_form.cells"] = self.cells
        out["cohomology.Cochain2.built"] = self.cochains_built
        out["cohomology.is_coboundary.potentials"] = self.potentials
        for fn in ("q_central_series", "h1"):
            out[f"distinct_groups.{fn}"] = self.distinct_groups[fn]
        return out

    def metrics(self) -> dict[str, dict]:
        """The per-layer metrics of the pass, by name with unit."""
        out: dict[str, dict] = {}
        for key in _keys():
            out[f"{key}.calls"] = {"value": self.calls[key], "unit": "count"}
            out[f"{key}.self_s"] = {"value": self.self_s[key], "unit": "s"}
        out["zqlin.howell_form.cells"] = {"value": self.cells, "unit": "count"}
        out["groups.q_central_series.per_group"] = {
            "value": _ratio(self.calls["groups.q_central_series"], self.distinct_groups["q_central_series"]),
            "unit": "calls/group",
        }
        out["cohomology.Cochain2.built"] = {"value": self.cochains_built, "unit": "count"}
        out["cohomology.is_cocycle.per_cochain"] = {
            "value": _ratio(self.calls["cohomology.Cochain2.is_cocycle"], self.cochains_built),
            "unit": "calls/cochain",
        }
        out["cohomology.is_coboundary.zero_ratio"] = {
            "value": _ratio(self.potentials, self.calls["cohomology.is_coboundary"]),
            "unit": "1",
        }
        out["cohomology.h1.per_group"] = {
            "value": _ratio(self.calls["cohomology.h1"], self.distinct_groups["h1"]),
            "unit": "calls/group",
        }
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["task", "name", "start", "end", "parent"], "spans": self.spans},
                fh,
            )


def _keys() -> list[str]:
    return [f"{layer}.{name}" for layer, names in LAYERS.items() for name in names]


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
