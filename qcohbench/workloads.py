"""Seeded inputs and tasks of the four benchmark workloads.

A workload is a list of tasks. Every task builds a fresh ``FiniteGroup`` from
a generated multiplication table and makes one public API call, so no group
object (and no cache keyed on one) carries over from one task to the next.
Each task returns a plain, JSON-able answer that is invariant under
relabeling the group elements; the answers are frozen in ``expected.json``.

The seed relabels the elements of every generated table by a random
permutation that fixes the identity, passes the generator images along, and
shuffles the task order. Seed 0 keeps the natural labels and order.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import qcoh
from qcoh import cli
from qcoh.groups import FiniteGroup, Subgroup

@dataclass(frozen=True)
class Table:
    """A relabeled multiplication table with its designated generators."""

    table: np.ndarray
    generators: tuple[int, ...]

    def group(self) -> FiniteGroup:
        # a copy, so that each group owns its table as one read from a group
        # document would, and what a cache keeps alive shows in retained_mb
        return FiniteGroup.from_table(self.table.copy(), generators=self.generators)


@dataclass(frozen=True)
class Task:
    """One timed unit: ``run(state)`` returns the task's answer."""

    id: str
    run: Callable[[dict], Any]


def random_labels(n: int, identity: int, rng: np.random.Generator | None) -> np.ndarray:
    """A permutation old label -> new label of range(n) that fixes ``identity``."""
    perm = np.arange(n)
    if rng is not None:
        others = np.delete(perm, identity)
        perm[others] = others[rng.permutation(n - 1)]
    return perm


def relabel(group: FiniteGroup, perm: np.ndarray) -> Table:
    """The table of ``group`` with every element x renamed perm[x]."""
    if perm.shape != (group.order,) or perm[group.identity] != group.identity:
        raise ValueError("relabeling must be a permutation of the group fixing the identity")
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    table = perm[group.table[np.ix_(inv, inv)]]
    table.flags.writeable = False
    return Table(table, tuple(int(perm[g]) for g in group.generators))


def _rng(seed: int) -> np.random.Generator | None:
    return None if seed == 0 else np.random.default_rng(seed)


def _relabeled(group: FiniteGroup, rng: np.random.Generator | None) -> Table:
    return relabel(group, random_labels(group.order, group.identity, rng))


def _shuffled(items: list, rng: np.random.Generator | None) -> list:
    if rng is None:
        return list(items)
    return [items[i] for i in rng.permutation(len(items))]


# ---------------------------------------------------------------------------
# duality-sharp: the duality-check path on the sharp models


def _duality_task(key: str, q: int, kind: str) -> Task:
    def run(state: dict) -> Any:
        g = state[key].group()
        tri = qcoh.triple_of(kind)
        top, floor = tri.top(g, q), tri.floor(g, q)
        rep = qcoh.duality_conditions(g, q, top, floor, tri.alpha_image)
        return [list(rep.as_tuple()), top.order, floor.order, rep.annihilator.order, rep.substituted]

    return Task(f"{key}/{kind}", run)


def _duality_sharp(seed: int) -> tuple[dict, list[Task]]:
    rng = _rng(seed)
    inputs, tasks = {}, []
    for d, q, kinds in ((2, 3, qcoh.TRIPLE_KINDS), (3, 2, qcoh.TRIPLE_KINDS), (2, 4, ("bock-cup",))):
        key = f"sharp({d},{q})"
        inputs[key] = _relabeled(qcoh.free_level3(d, q).group, rng)
        tasks.extend(_duality_task(key, q, kind) for kind in kinds)
    return inputs, _shuffled(tasks, rng)


# ---------------------------------------------------------------------------
# inflation-tables: both sides of the order <= 64 class-zero branch


def _inflation_task(key: str, q: int, kind: str) -> Task:
    def run(state: dict) -> Any:
        g = state[key].group()
        tab = qcoh.inflation_isomorphism_table(g, q, qcoh.triple_of(kind))
        rows = sorted(
            [r.sub.order, r.in_floor, r.alpha_iso, sorted([list(k), v] for k, v in r.tensor_iso.items())]
            for r in tab.rows
        )
        return [len(tab.rows), rows]

    return Task(f"{key}/{kind}", run)


def _inflation_tables(seed: int) -> tuple[dict, list[Task]]:
    rng = _rng(seed)
    inputs, tasks = {}, []
    for d, q, kinds in ((2, 2, ("dec-cup", "bock-cup")), (2, 3, ("bock",))):
        key = f"sharp({d},{q})"
        inputs[key] = _relabeled(qcoh.free_level3(d, q).group, rng)
        tasks.extend(_inflation_task(key, q, kind) for kind in kinds)
    return inputs, _shuffled(tasks, rng)


# ---------------------------------------------------------------------------
# verify-all: the packaged check suites, in process


def _verify_all_run(state: dict) -> Any:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "all", "--format", "json"])
    doc = json.loads(out.getvalue())
    statuses = sorted({c["status"] for c in doc["checks"]})
    machine = hashlib.sha256(json.dumps(doc["machine"], sort_keys=True).encode()).hexdigest()
    return [code, len(doc["checks"]), statuses, machine]


def _verify_all(seed: int) -> tuple[dict, list[Task]]:
    # The suites fix their own inputs, so the seed has nothing to vary.
    return {}, [Task("verify all", _verify_all_run)]


# ---------------------------------------------------------------------------
# order-cap: groups and freemodel at |G| = 3125, h2 at its cap


def _build_cap_model(state: dict) -> Any:
    model = qcoh.free_level3(2, 5)
    # the later tasks read the model's table under this seed's labels
    state["cap"] = relabel(model.group, state["cap_labels"])
    return [model.group.order, len(model.sigma)]


def _cap_series(state: dict) -> Any:
    g = state["cap"].group()
    series = qcoh.q_central_series(g, 5)
    state["cap_subs"] = {
        "term(2)": series.term(2).members,
        "lower3": series.lower3.members,
        "term(3)": series.term(3).members,
    }
    return [[t.order for t in series.terms], series.lower3.order, series.stabilized_at]


def _cap_quotient(name: str) -> Task:
    def run(state: dict) -> Any:
        g = state["cap"].group()
        qd = qcoh.quotient(g, Subgroup(g, state["cap_subs"][name]))
        return [qd.quotient.order, len(qd.quotient.generators)]

    return Task(f"sharp(2,5)/quotient {name}", run)


def _h2_task(key: str) -> Task:
    def run(state: dict) -> Any:
        space = qcoh.h2(state[key].group(), 2)
        return list(space.invariant_factors)

    return Task(f"{key}/h2", run)


def _order_cap(seed: int) -> tuple[dict, list[Task]]:
    rng = _rng(seed)
    # the 3125-element table is the output of the first task, so only its
    # relabeling is made here; the sharp models put the identity at 0
    inputs: dict = {"cap_labels": random_labels(5**5, 0, rng)}
    for d in (5, 6):
        inputs[f"(Z/2)^{d}"] = _relabeled(qcoh.preset("elementary_abelian", [2, d]), rng)
    chain = [Task("sharp(2,5)/free_level3", _build_cap_model), Task("sharp(2,5)/q_central_series", _cap_series)]
    chain += _shuffled([_cap_quotient(n) for n in ("term(2)", "lower3", "term(3)")], rng)
    units = _shuffled([chain, [_h2_task("(Z/2)^5")], [_h2_task("(Z/2)^6")]], rng)
    return inputs, [t for unit in units for t in unit]


_MAKERS = {
    "duality-sharp": _duality_sharp,
    "inflation-tables": _inflation_tables,
    "verify-all": _verify_all,
    "order-cap": _order_cap,
}
WORKLOADS = tuple(_MAKERS)


def make(workload: str, seed: int) -> tuple[dict, list[Task]]:
    """The seeded inputs and the ordered task list of one workload."""
    return _MAKERS[workload](seed)
