"""Report records and group-document ingestion for the command line.

A :class:`Report` collects named check records (pass / fail / skipped /
hypothesis-not-met) plus a machine section mirroring the matrices and bases
the checks produced.  Rendering is deterministic: identical inputs give
byte-identical JSON once the segregated ``timings`` block is dropped.

Group documents are JSON files holding exactly one of ``preset``,
``permutations`` or ``table``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from .groups import DEFAULT_MAX_ORDER, FiniteGroup
from .groups import preset as group_preset
from .zqlin import factor_prime_power

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"
HYPOTHESIS_NOT_MET = "hypothesis-not-met"

_STATUSES = (PASS, FAIL, SKIPPED, HYPOTHESIS_NOT_MET)


class GroupSpecError(ValueError):
    """A group document failed validation; ``location`` points at the key."""

    def __init__(self, message: str, location: str = "$"):
        super().__init__(f"{location}: {message}")
        self.location = location


@dataclass
class CheckRecord:
    name: str
    status: str
    details: str
    timing: float = 0.0
    machine: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")


@dataclass
class Report:
    """One command's outcome: echo, modulus data, and the check records."""

    command: tuple[str, ...]
    q: Optional[int] = None
    records: list[CheckRecord] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def add(
        self,
        name: str,
        status: str,
        details: str,
        timing: float = 0.0,
        machine: Optional[dict] = None,
    ) -> CheckRecord:
        rec = CheckRecord(name, status, details, timing, machine)
        self.records.append(rec)
        return rec

    @property
    def exit_code(self) -> int:
        statuses = [r.status for r in self.records]
        if FAIL in statuses:
            return 1
        informative = [s for s in statuses if s != SKIPPED]
        if informative and all(s == HYPOTHESIS_NOT_MET for s in informative):
            return 3
        return 0

    def _modulus_block(self) -> Optional[dict]:
        if self.q is None:
            return None
        p, s = factor_prime_power(self.q)
        return {"q": self.q, "p": p, "s": s, "delta": 2 if p == 2 else 1}

    def to_dict(self, include_timings: bool = True) -> dict:
        machine = {}
        for rec in self.records:
            if rec.machine is not None:
                machine[rec.name] = _plain(rec.machine)
        machine.update(_plain(self.extras))
        out: dict[str, Any] = {
            "command": list(self.command),
            "modulus": self._modulus_block(),
            "checks": [
                {"name": r.name, "status": r.status, "details": r.details}
                for r in self.records
            ],
            "machine": machine,
            "exit_code": self.exit_code,
        }
        if include_timings:
            out["timings"] = {r.name: round(r.timing, 6) for r in self.records}
        return out

    def render_json(self, include_timings: bool = True) -> str:
        return json.dumps(self.to_dict(include_timings), sort_keys=True, indent=2) + "\n"

    def render_markdown(self) -> str:
        lines = [f"# qcoh {self.command[0] if self.command else 'report'}"]
        lines.append("")
        lines.append("command: `" + " ".join(self.command) + "`")
        block = self._modulus_block()
        if block is not None:
            lines.append(
                f"modulus: q = {block['q']} = {block['p']}^{block['s']}, "
                f"delta = {block['delta']}"
            )
        lines.append("")
        for r in self.records:
            stamp = f" ({r.timing:.2f}s)" if r.timing >= 0.005 else ""
            lines.append(f"- **{r.status.upper()}** {r.name} — {r.details}{stamp}")
        lines.append("")
        lines.append(f"exit status: {self.exit_code}")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.render_json()
        if fmt == "md":
            return self.render_markdown()
        raise ValueError(f"unknown format {fmt!r}")


def _plain(obj: Any) -> Any:
    """Recursively convert numpy scalars/arrays and tuples to JSON types."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


# ---------------------------------------------------------------------------
# group documents


def _perm_group_from_generators(
    degree: int, gens: Sequence[Sequence[int]], location: str
) -> FiniteGroup:
    """Close 1-based permutation images under composition (apply left first)."""
    perms = []
    for i, images in enumerate(gens):
        loc = f"{location}.generators[{i}]"
        if sorted(images) != list(range(1, degree + 1)):
            raise GroupSpecError(
                f"not a permutation of 1..{degree}: {list(images)}", loc
            )
        perms.append(tuple(x - 1 for x in images))
    identity = tuple(range(degree))
    elements = [identity]
    index = {identity: 0}
    queue = [identity]
    while queue:
        current = queue.pop(0)
        for g in perms:
            nxt = tuple(g[current[x]] for x in range(degree))
            if nxt not in index:
                if len(elements) >= DEFAULT_MAX_ORDER:
                    raise GroupSpecError("permutation closure exceeds the order cap", location)
                index[nxt] = len(elements)
                elements.append(nxt)
                queue.append(nxt)
    n = len(elements)
    table = np.zeros((n, n), dtype=np.int64)
    for a, pa in enumerate(elements):
        for b, pb in enumerate(elements):
            table[a, b] = index[tuple(pb[pa[x]] for x in range(degree))]
    gen_indices = [index[p] for p in perms]
    return FiniteGroup.from_table(table, generators=gen_indices, name="perm-group")


def _labels_fit(labels: Any, n: int) -> bool:
    return isinstance(labels, list) and len(labels) == n and all(isinstance(x, str) for x in labels)


def parse_group_document(doc: dict) -> FiniteGroup:
    """Build a group from a parsed document; errors carry the key location."""
    if not isinstance(doc, dict):
        raise GroupSpecError("document must be a JSON object")
    keys = [k for k in ("preset", "permutations", "table") if k in doc]
    if len(keys) != 1:
        raise GroupSpecError(
            "exactly one of 'preset', 'permutations', 'table' is required"
        )
    kind = keys[0]
    body = doc[kind]
    labels = doc.get("labels")
    if kind == "preset":
        if not isinstance(body, dict) or "name" not in body:
            raise GroupSpecError("preset needs a 'name'", "$.preset")
        params = body.get("params", [])
        if not isinstance(params, list):
            raise GroupSpecError("'params' must be a list", "$.preset.params")
        try:
            if params and isinstance(params[0], list):
                parsed = [tuple(item) for item in params]
                group = group_preset(body["name"], parsed)
            elif params:
                group = group_preset(body["name"], params)
            else:
                group = group_preset(body["name"])
        except (ValueError, KeyError) as exc:
            raise GroupSpecError(str(exc), "$.preset") from exc
    elif kind == "permutations":
        if not isinstance(body, dict):
            raise GroupSpecError("permutations must be an object", "$.permutations")
        degree = body.get("degree")
        gens = body.get("generators")
        if not isinstance(degree, int) or degree < 1:
            raise GroupSpecError("'degree' must be a positive integer", "$.permutations.degree")
        if not isinstance(gens, list) or not gens:
            raise GroupSpecError(
                "'generators' must be a non-empty list of image lists",
                "$.permutations.generators",
            )
        group = _perm_group_from_generators(degree, gens, "$.permutations")
    else:
        try:
            arr = np.asarray(body, dtype=np.int64)
        except (ValueError, TypeError) as exc:
            raise GroupSpecError("table must be a square matrix", "$.table") from exc
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise GroupSpecError("table must be a square matrix", "$.table")
        # labels that fit are applied here, so the table is verified once
        fitting = labels if _labels_fit(labels, arr.shape[0]) else None
        try:
            group = FiniteGroup.from_table(arr, name=str(doc.get("name", "G")), labels=fitting)
        except (ValueError, IndexError) as exc:
            raise GroupSpecError(str(exc), "$.table") from exc
        if group.identity != 0:
            raise GroupSpecError("identity must be the element at index 0", "$.table")
    if labels is not None and not _labels_fit(labels, group.order):
        raise GroupSpecError(f"labels must be {group.order} strings", "$.labels")
    if labels is not None and kind != "table":
        group = FiniteGroup(
            group.table,
            group.identity,
            group.inverses,
            group.generators,
            tuple(labels),
            str(doc.get("name", group.name)),
        )
    return group


def load_group_document(path: str) -> FiniteGroup:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise GroupSpecError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise GroupSpecError(f"invalid JSON in {path}: {exc}")
    return parse_group_document(doc)


def group_to_document(group: FiniteGroup) -> dict:
    """A table-form document that parses back to an isomorphic copy."""
    table = group.table
    if group.identity != 0:
        # reindex so the identity sits at slot 0, as the format requires
        perm = list(range(group.order))
        perm[0], perm[group.identity] = perm[group.identity], perm[0]
        perm_arr = np.array(perm, dtype=np.int64)
        inv_perm = np.argsort(perm_arr)
        table = inv_perm[group.table[np.ix_(perm_arr, perm_arr)]]
    doc = {"name": group.name, "table": table.tolist()}
    if group.identity == 0:
        doc["labels"] = list(group.labels)
    return doc
