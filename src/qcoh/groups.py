"""Finite groups as fully validated multiplication tables.

Groups are dense n×n index tables checked for the group axioms at
construction.  Associativity is proven, not sampled, by Light's test:
(x·s)·y = x·(s·y) for every generator s, once the generators are verified
to reach every element as a positive word.  The same argument proves the
other two structural facts on the generators alone.  A map f with f(1) = 1
and f(x·s) = f(x)·f(s) for every x and generator s is multiplicative, at
n·|S| cells instead of n².  A subgroup N with s⁻¹Ns ⊆ N for every
generator s is normal, at |N|·|S| cells instead of n·|N|.

The scans that must stay all-pairs (Light's test, the closure check of a
:class:`Subgroup` and :func:`subgroup_closure`) run in row blocks of a fixed
cell budget, so no temporary outgrows one block; the products they collect
are marked in a boolean mask over the group rather than sorted and
deduplicated.  Power subgroups are computed by scanning *all* elements of
the subgroup and then closing: the powers of generators alone would miss
some.  A commutator subgroup [H, K] is the normal closure, under a
generating tuple Y of K, of the seeds [h, y] for h ∈ H and y ∈ Y; the
closure loop ends only once y⁻¹Cy ⊆ C is checked for every y, and that
check proves the result equal to [H, K] (:func:`commutator_subgroup`).

A solvable group also has a pc presentation (:func:`pc_presentation`): the
derived series refined into steps of prime index, each element's exponent
vector, and the power and conjugate relations, read off the table and
proven to present the group.  :mod:`qcoh.cohomology` builds H² on it.

Everything is immutable after construction and all operations are pure.
Facts that depend only on a group and q (element orders, the q-central
series, the whole group as a subgroup, the pc presentation, the BFS tree
over a generator tuple, and in :mod:`qcoh.cohomology` H¹ and H²) are
computed once and kept in a private per-group memo, freed with the group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, TypeVar

import numpy as np

#: Hard cap on group orders; everything here is desk scale by design.
DEFAULT_MAX_ORDER = 4096
#: Cap on the targets of enumerate_homs; in the library only
#: duality.floor_by_intersection enumerates, onto its extension list.
HOM_TARGET_LIMIT = 512
#: Cap on isomorphism testing.
ISO_LIMIT = 512
#: Cap for exhaustive subgroup-lattice walks.
NORMAL_ENUM_LIMIT = 64
#: Cells gathered per row block of an all-pairs scan.
_BLOCK_CELLS = 1 << 18

__all__ = [
    "DEFAULT_MAX_ORDER",
    "HOM_TARGET_LIMIT",
    "ISO_LIMIT",
    "NORMAL_ENUM_LIMIT",
    "FiniteGroup",
    "GroupHom",
    "PcPresentation",
    "QCentralSeries",
    "QuotientData",
    "Subgroup",
    "center",
    "commutator_subgroup",
    "direct_product",
    "element_orders",
    "enumerate_homs",
    "exponent",
    "is_abelian",
    "is_isomorphic",
    "normal_subgroups_within",
    "order_profile",
    "pc_presentation",
    "power_subgroup",
    "preset",
    "q_central_series",
    "quotient",
    "subgroup_closure",
    "trivial_subgroup",
    "whole_group",
]


# ---------------------------------------------------------------------------
# construction helpers


def _find_identity(table: np.ndarray) -> int:
    n = table.shape[0]
    idx = np.arange(n)
    for e in range(n):
        if np.array_equal(table[e], idx) and np.array_equal(table[:, e], idx):
            return e
    raise ValueError("table has no two-sided identity")


def _find_inverses(table: np.ndarray, identity: int) -> np.ndarray:
    """The right inverse of each row, found in row blocks; checked two-sided."""
    n = table.shape[0]
    inv = np.empty(n, dtype=np.int64)
    step = max(1, _BLOCK_CELLS // n)
    for lo in range(0, n, step):
        hit = table[lo : lo + step] == identity
        if not hit.any(axis=1).all():
            raise ValueError("table has elements without inverses")
        inv[lo : lo + step] = hit.argmax(axis=1)
    back = table[inv, np.arange(n)]
    if not (back == identity).all():
        raise ValueError("table has one-sided inverses only")
    return inv


def _reachable(table: np.ndarray, identity: int, gens: Sequence[int]) -> np.ndarray:
    """Elements expressible as left-associated words in ``gens`` (mask)."""
    n = table.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[identity] = True
    frontier = [identity]
    gens = list(gens)
    while frontier:
        nxt = np.unique(table[np.ix_(frontier, gens)]) if gens else np.array([], dtype=np.int64)
        fresh = nxt[~seen[nxt]]
        seen[fresh] = True
        frontier = list(fresh)
    return seen


def _greedy_generators(table: np.ndarray, identity: int, members: Sequence[int]) -> list[int]:
    """Generators of the subgroup on ``members``: the first member outside the
    subgroup generated so far, added until that subgroup holds every member."""
    target = np.zeros(table.shape[0], dtype=bool)
    target[np.asarray(members, dtype=np.int64)] = True
    gens: list[int] = []
    while True:
        missing = np.flatnonzero(target & ~_reachable(table, identity, gens))
        if missing.size == 0:
            return gens
        gens.append(int(missing[0]))


def _row_blocks(table: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> Iterator[np.ndarray]:
    """``table[np.ix_(rows, cols)]`` in consecutive row blocks of at most _BLOCK_CELLS cells."""
    n = table.shape[1]
    flat = table.reshape(-1)  # a view: group tables are C-contiguous
    step = max(1, _BLOCK_CELLS // max(1, cols.size))
    for lo in range(0, rows.size, step):
        yield flat[(rows[lo : lo + step] * n)[:, None] + cols]


def _check_associative(table: np.ndarray, gens: Sequence[int]) -> None:
    """Light's test: (x·s)·y == x·(s·y) for every generator s proves
    associativity outright once the generators' closure is the whole set."""
    n = table.shape[0]
    step = max(1, _BLOCK_CELLS // n)
    for s in gens:
        xs, sy = table[:, s], table[s, :]
        for lo in range(0, n, step):
            # rows x·s of the table against rows x with columns s·y
            if not np.array_equal(table[xs[lo : lo + step]], np.take(table[lo : lo + step], sy, axis=1)):
                raise ValueError("multiplication table is not associative")


def _bfs_tree(
    table: np.ndarray, identity: int, gens: Sequence[int]
) -> list[tuple[int, int, int]]:
    """Visit order [(element, parent, generator position)] with element = parent·gens[pos]."""
    n = table.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[identity] = True
    order: list[tuple[int, int, int]] = []
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for pos, g in enumerate(gens):
                y = int(table[x, g])
                if not seen[y]:
                    seen[y] = True
                    order.append((y, x, pos))
                    nxt.append(y)
        frontier = nxt
    return order


class _Run(NamedTuple):
    """The label before an element's last run, that run's generator name and length."""

    head: Optional[str]
    name: str
    length: int


def _labels_from_tree(n: int, tree: list[tuple[int, int, int]], gen_names: Sequence[str]) -> tuple[str, ...]:
    """Each element's BFS word with runs written x^k, as in "s1^2*s2".

    A label is its parent's label with one more letter, which either lengthens
    the parent's last run or starts a new one, so no word is built.
    """
    labels = ["1"] * n
    runs: list[Optional[_Run]] = [None] * n
    for elem, parent, pos in tree:
        name, prev = gen_names[pos], runs[parent]
        if prev is not None and prev.name == name:
            run = _Run(prev.head, name, prev.length + 1)
        else:
            run = _Run(None if prev is None else labels[parent], name, 1)
        runs[elem] = run
        word = name if run.length == 1 else f"{name}^{run.length}"
        labels[elem] = word if run.head is None else f"{run.head}*{word}"
    return tuple(labels)


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group as a full multiplication table of element indices."""

    table: np.ndarray
    identity: int
    inverses: np.ndarray
    generators: tuple[int, ...]
    labels: tuple[str, ...]
    name: str = "G"

    def __post_init__(self) -> None:
        t = np.ascontiguousarray(self.table, dtype=np.int64)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError("multiplication table must be square")
        n = t.shape[0]
        if n == 0 or n > DEFAULT_MAX_ORDER:
            raise ValueError(f"group order must be in [1, {DEFAULT_MAX_ORDER}], got {n}")
        # one pass: a negative entry reads as at least 2**63 through the unsigned view
        if t.view(np.uint64).max() >= n:
            raise ValueError("table entries must be element indices")
        t.flags.writeable = False
        object.__setattr__(self, "table", t)
        inv = np.asarray(self.inverses, dtype=np.int64)
        inv.flags.writeable = False
        object.__setattr__(self, "inverses", inv)
        object.__setattr__(self, "generators", tuple(int(g) for g in self.generators))

        idx = np.arange(n)
        e = self.identity
        if not (np.array_equal(t[e], idx) and np.array_equal(t[:, e], idx)):
            raise ValueError("designated identity is not an identity")
        if inv.shape != (n,) or (t[idx, inv] != e).any() or (t[inv, idx] != e).any():
            raise ValueError("inverse table is wrong")
        if not _reachable(t, e, self.generators).all():
            raise ValueError("designated generators do not generate")
        _check_associative(t, self.generators if self.generators else [e])
        if len(self.labels) != n:
            raise ValueError("need one label per element")
        # facts that depend only on the group (and q), filled by _memoized
        object.__setattr__(self, "_memo", {})

    # -- basic queries ------------------------------------------------------
    @property
    def order(self) -> int:
        return int(self.table.shape[0])

    def mul(self, x: int, y: int) -> int:
        return int(self.table[x, y])

    def inv(self, x: int) -> int:
        return int(self.inverses[x])

    def conj(self, x: int, g: int) -> int:
        """g⁻¹ x g."""
        return int(self.table[self.table[self.inverses[g], x], g])

    def commutator(self, x: int, y: int) -> int:
        """[x, y] = x⁻¹ y⁻¹ x y."""
        t = self.table
        return int(t[t[t[self.inverses[x], self.inverses[y]], x], y])

    def power(self, x: int, m: int) -> int:
        if m < 0:
            x, m = self.inv(x), -m
        m %= int(element_orders(self)[x])
        acc = self.identity
        for _ in range(m):
            acc = int(self.table[acc, x])
        return acc

    def elements(self) -> range:
        return range(self.order)

    def label(self, x: int) -> str:
        return self.labels[x]

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order {self.order})"

    @classmethod
    def from_table(
        cls,
        table: Sequence[Sequence[int]],
        generators: Optional[Sequence[int]] = None,
        gen_names: Optional[Sequence[str]] = None,
        name: str = "G",
        labels: Optional[Sequence[str]] = None,
    ) -> "FiniteGroup":
        """The group of ``table``; without ``labels``, elements are labeled by
        their BFS words in the generators."""
        t = np.ascontiguousarray(table, dtype=np.int64)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError("multiplication table must be square")
        e = _find_identity(t)
        inv = _find_inverses(t, e)
        if generators is None:
            gens = _greedy_generators(t, e, range(t.shape[0]))
        else:
            gens = [int(g) for g in generators]
        if gen_names is None:
            gen_names = [f"g{i}" for i in range(len(gens))]
        if len(gen_names) != len(gens):
            raise ValueError("need one name per generator")
        if labels is None:
            labels = _labels_from_tree(t.shape[0], _bfs_tree(t, e, gens), gen_names)
        return cls(t, e, inv, tuple(gens), tuple(labels), name)


_T = TypeVar("_T")


def _memoized(group: FiniteGroup, key: tuple, build: Callable[[], _T]) -> _T:
    """``build()`` once per group and key; the value is kept on the group.

    Values must be immutable.  Those that point back at the group form a
    cycle with it, so the group and its memo are freed together.
    """
    memo = group._memo  # type: ignore[attr-defined]
    if key not in memo:
        memo[key] = build()
    return memo[key]


def _generator_tree(group: FiniteGroup, gens: Sequence[int]) -> np.ndarray:
    """Read-only 3×m rows (element, parent, generator position) of the BFS tree
    over ``gens``, element = parent·gens[position]; kept on the group per ``gens``."""
    return _generator_tree_jumps(group, gens)[0]


def _generator_tree_jumps(
    group: FiniteGroup, gens: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """The :func:`_generator_tree` rows, each element's generator position
    (``len(gens)`` at the identity), and the ancestor maps a, a∘a, (a∘a)∘(a∘a),
    … of the parent map a, up to the last one that leaves an element below the
    identity; all read-only and kept on the group per ``gens``."""
    key = tuple(int(g) for g in gens)

    def build() -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
        e = group.identity
        arr = np.array(_bfs_tree(group.table, e, key), dtype=np.int64).reshape(-1, 3).T
        elem, parent, pos = arr
        position = np.full(group.order, len(key), dtype=np.int64)
        position[elem] = pos
        anc = np.full(group.order, e, dtype=np.int64)
        anc[elem] = parent
        jumps = []
        while (anc != e).any():
            jumps.append(anc)
            anc = anc[anc]
        for a in (arr, position, *jumps):
            a.flags.writeable = False
        return arr, position, tuple(jumps)

    return _memoized(group, ("bfs_tree", key), build)


# ---------------------------------------------------------------------------
# element statistics


def element_orders(group: FiniteGroup) -> np.ndarray:
    """Read-only vector of element orders, computed once and kept on the group."""
    return _memoized(group, ("element_orders",), lambda: _element_orders(group))


def _element_orders(group: FiniteGroup) -> np.ndarray:
    n = group.order
    out = np.zeros(n, dtype=np.int64)
    cur = np.arange(n)
    k = 1
    remaining = n
    while remaining:
        done = (cur == group.identity) & (out == 0)
        out[done] = k
        remaining -= int(done.sum())
        cur = group.table[cur, np.arange(n)]
        k += 1
    out.flags.writeable = False
    return out


def order_profile(group: FiniteGroup) -> dict[int, int]:
    vals, counts = np.unique(element_orders(group), return_counts=True)
    return {int(v): int(c) for v, c in zip(vals, counts)}


def exponent(group: FiniteGroup) -> int:
    orders = element_orders(group)
    out = 1
    for o in np.unique(orders):
        out = int(np.lcm(out, int(o)))
    return out


def is_abelian(group: FiniteGroup) -> bool:
    return bool(np.array_equal(group.table, group.table.T))


# ---------------------------------------------------------------------------
# subgroups


@dataclass(frozen=True, eq=False)
class Subgroup:
    """A verified subgroup, stored as a sorted member tuple."""

    parent: FiniteGroup
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        mem = tuple(sorted({int(m) for m in self.members}))
        object.__setattr__(self, "members", mem)
        if not mem:
            raise ValueError("subgroup cannot be empty")
        idx = np.array(mem, dtype=np.int64)
        mask = np.zeros(self.parent.order, dtype=bool)
        mask[idx] = True
        mask.flags.writeable = False
        object.__setattr__(self, "_mask", mask)
        if not mask[self.parent.identity]:
            raise ValueError("subgroup must contain the identity")
        if len(mem) == self.parent.order and mem[0] == 0:
            # all of G: every product and inverse is an element, so nothing to scan
            return
        if not all(mask[blk].all() for blk in _row_blocks(self.parent.table, idx, idx)):
            raise ValueError("member set is not closed under multiplication")
        if not mask[self.parent.inverses[idx]].all():
            raise ValueError("member set is not closed under inversion")

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def mask(self) -> np.ndarray:
        return self._mask  # type: ignore[attr-defined]

    def contains(self, x: int) -> bool:
        return bool(self.mask[x])

    def is_trivial(self) -> bool:
        return self.order == 1

    def is_normal(self) -> bool:
        """s⁻¹Ns ⊆ N for every generator s: conjugation by s is injective, so
        it maps N onto N, and every element is a positive word in the generators."""
        t = self.parent.table
        gens = np.array(self.parent.generators, dtype=np.int64)
        conj = t[t[np.ix_(self.parent.inverses[gens], self.members)], gens[:, None]]
        return bool(self.mask[conj].all())

    def same_as(self, other: "Subgroup") -> bool:
        return self.parent is other.parent and self.members == other.members

    def __repr__(self) -> str:
        return f"Subgroup(order {self.order} of {self.parent.name})"


def whole_group(group: FiniteGroup) -> Subgroup:
    """G as a subgroup of itself, built once per group."""
    return _memoized(group, ("whole_group",), lambda: Subgroup(group, tuple(range(group.order))))


def trivial_subgroup(group: FiniteGroup) -> Subgroup:
    return Subgroup(group, (group.identity,))


def subgroup_closure(group: FiniteGroup, seeds: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing ``seeds``: repeated product closure."""
    seen = np.zeros(group.order, dtype=bool)
    seen[np.array([group.identity, *seeds], dtype=np.int64)] = True
    return _close(group, seen)


def _close(group: FiniteGroup, seen: np.ndarray) -> Subgroup:
    """The subgroup generated by the marked elements and the identity; ``seen`` is overwritten."""
    seen[group.identity] = True
    while True:
        current = np.flatnonzero(seen)
        for blk in _row_blocks(group.table, current, current):
            seen[blk] = True
        if np.count_nonzero(seen) == current.size:
            return Subgroup(group, tuple(current.tolist()))


def subgroup_as_group(sub: Subgroup) -> FiniteGroup:
    """A standalone FiniteGroup on the members of ``sub``, kept on the parent
    per member tuple.

    Element i of the result is ``sub.members[i]``; use the member tuple to
    translate indices back into the parent group.
    """
    return _memoized(sub.parent, ("subgroup_as_group", sub.members), lambda: _subgroup_as_group(sub))


def _subgroup_as_group(sub: Subgroup) -> FiniteGroup:
    mem = np.array(sub.members, dtype=np.int64)
    pos = np.full(sub.parent.order, -1, dtype=np.int64)
    pos[mem] = np.arange(mem.size)
    table = pos[sub.parent.table[np.ix_(mem, mem)]]
    return FiniteGroup.from_table(table, name=f"{sub.parent.name}-sub{mem.size}")


def power_subgroup(group: FiniteGroup, sub: Subgroup, m: int) -> Subgroup:
    """Subgroup generated by the m-th powers of *every* element of ``sub``."""
    mem = np.array(sub.members, dtype=np.int64)
    acc = np.full(mem.size, group.identity, dtype=np.int64)
    for _ in range(int(m)):
        acc = group.table[acc, mem]
    return subgroup_closure(group, np.unique(acc))


def commutator_subgroup(group: FiniteGroup, left: Subgroup, right: Subgroup) -> Subgroup:
    """[H, K], the subgroup generated by [h, k] = h⁻¹k⁻¹hk over h ∈ left, k ∈ right.

    Built from generators (Holt, Eick and O'Brien, *Handbook of Computational
    Group Theory*, 2005, ch. 3).  Y generates K: it is the group's generating
    tuple when K is the whole group, else a greedy one.  The seeds [h, y],
    h ∈ H, y ∈ Y, are closed to a subgroup C, and C is conjugated by Y and
    closed again until y⁻¹Cy ⊆ C holds for every y ∈ Y.  That check, made
    before return, certifies the result.  C ≤ [H, K]: C is generated by
    K-conjugates of commutators, and K normalizes [H, K].  [H, K] ≤ C:
    [h, ky] = [h, y]·[h, k]^y, so with C normalized by K, induction on k as a
    positive word in Y puts every [h, k] in C.  The work is |H|·|Y| seeds and
    a few closure rounds, not |H|·|K| pairs.
    """
    t, inv = group.table, group.inverses
    if right.order == group.order:
        ys = group.generators
    else:
        ys = _greedy_generators(t, group.identity, right.members)
    h = np.array(left.members, dtype=np.int64)[:, None]
    y = np.array(ys, dtype=np.int64)
    seen = np.zeros(group.order, dtype=bool)
    seen[t[t[inv[h], inv[y]], t[h, y]]] = True  # [h, y] = (h⁻¹y⁻¹)(hy), one row per h
    closure = _close(group, seen)
    y = y[:, None]
    while True:
        conj = t[t[inv[y], np.array(closure.members, dtype=np.int64)], y]  # one row yᵢ⁻¹Cyᵢ per yᵢ
        if closure.mask[conj].all():
            return closure
        seen = closure.mask.copy()
        seen[conj] = True
        closure = _close(group, seen)


def center(group: FiniteGroup) -> Subgroup:
    """Z(G): x is central iff x·s = s·x for every generator s, one n × |S| comparison."""
    gens = np.array(group.generators, dtype=np.int64)
    central = (group.table[:, gens] == group.table[gens, :].T).all(axis=1)
    return Subgroup(group, tuple(np.flatnonzero(central).tolist()))


# ---------------------------------------------------------------------------
# q-central series


@dataclass(frozen=True, eq=False)
class QCentralSeries:
    """The descending q-central series of a group, plus its level-3 refinement.

    ``terms[0]`` is the whole group; ``terms[i] = (terms[i-1])^q · [terms[i-1], G]``.
    ``lower3`` is the refinement G^{δq}·[G⁽²⁾, G] with δ = 2 for p = 2 and 1
    otherwise; it always sits between terms 3 and 2 of the series, and
    coincides with term 3 when q = 2.
    """

    group: FiniteGroup
    q: int
    p: int
    s: int
    delta: int
    terms: tuple[Subgroup, ...]
    lower3: Subgroup
    stabilized_at: int

    def term(self, i: int) -> Subgroup:
        """G^(i), 1-based; beyond the computed range the series has stabilized."""
        if i < 1:
            raise ValueError("series terms are 1-based")
        return self.terms[min(i, len(self.terms)) - 1]


def q_central_series(group: FiniteGroup, q: int, depth: Optional[int] = None) -> QCentralSeries:
    """The series of ``group`` for (q, depth), computed once and kept on the group."""
    return _memoized(group, ("q_central_series", q, depth), lambda: _q_central_series(group, q, depth))


def _q_central_series(group: FiniteGroup, q: int, depth: Optional[int]) -> QCentralSeries:
    from qcoh.zqlin import factor_prime_power

    p, s = factor_prime_power(q)
    if depth is not None and depth < 3:
        raise ValueError("depth below 3 would truncate the level-3 data")
    delta = 2 if p == 2 else 1
    terms = [whole_group(group)]
    while True:
        prev = terms[-1]
        powers = power_subgroup(group, prev, q)
        comms = commutator_subgroup(group, prev, whole_group(group))
        nxt = subgroup_closure(group, powers.members + comms.members)
        terms.append(nxt)
        if nxt.members == prev.members or (depth is not None and len(terms) >= depth):
            break
    stabilized_at = len(terms) - 1 if terms[-1].members == terms[-2].members else len(terms)

    dq_powers = power_subgroup(group, whole_group(group), delta * q)
    two = terms[min(2, len(terms)) - 1]
    bracket = commutator_subgroup(group, two, whole_group(group))
    lower3 = subgroup_closure(group, dq_powers.members + bracket.members)

    series = QCentralSeries(group, q, p, s, delta, tuple(terms), lower3, stabilized_at)
    three = series.term(3)
    if not all(series.lower3.contains(x) for x in three.members):
        raise AssertionError("level-3 refinement must contain term 3")
    if not all(two.contains(x) for x in series.lower3.members):
        raise AssertionError("level-3 refinement must lie in term 2")
    if q == 2 and series.lower3.members != three.members:
        raise AssertionError("for q = 2 the refinement equals term 3")
    for t in series.terms:
        if not t.is_normal():
            raise AssertionError("series terms are verbal, hence normal")
    return series


# ---------------------------------------------------------------------------
# polycyclic presentations


@dataclass(frozen=True, eq=False)
class PcPresentation:
    """A polycyclic presentation of a solvable group, read off its table.

    The pc generators g_1…g_N (``gens[i]`` is g_{i+1}) refine the derived
    series into steps of prime index: G_i = ⟨g_i, …, g_N⟩ is normal in
    G_{i−1} with |G_i : G_{i+1}| = r_i (``rel_orders``).  Every element is
    g_1^{e_1}···g_N^{e_N} for exactly one exponent vector with 0 ≤ e_i < r_i;
    ``exponents[x]`` holds it.  The relations are g_i^{r_i} = w_ii and
    g_i⁻¹g_jg_i = w_ij for j > i; ``power_words[i]`` and ``conj_words[i, j]``
    are the exponent vectors of those normal words, which involve only
    g_{i+1}, …, g_N (``conj_words[i, j]`` is zero for j ≤ i).

    Construction proves that these relations present the group: Π r_i = |G|,
    the exponent map is a bijection onto Π [0, r_i), and every relation's
    normal word evaluates to its table element.  Collection then bounds the
    presented group's order by Π r_i, and G is a quotient of it.
    """

    group: FiniteGroup
    gens: tuple[int, ...]
    rel_orders: tuple[int, ...]
    exponents: np.ndarray
    power_words: np.ndarray
    conj_words: np.ndarray

    @property
    def length(self) -> int:
        return len(self.gens)


def pc_presentation(group: FiniteGroup) -> PcPresentation:
    """The pc presentation of a solvable ``group``, built once and kept on the group.

    Raises ValueError for a group that is not solvable.
    """
    return _memoized(group, ("pc_presentation",), lambda: _pc_presentation(group))


def _least_prime_factor(m: int) -> int:
    r = 2
    while m % r:
        r += 1
    return r


def _pc_presentation(group: FiniteGroup) -> PcPresentation:
    t = group.table
    n = group.order
    e = group.identity
    derived = [whole_group(group)]
    while not derived[-1].is_trivial():
        nxt = commutator_subgroup(group, derived[-1], derived[-1])
        if nxt.order == derived[-1].order:
            raise ValueError(
                f"{group.name} is not solvable: its derived series stops at a perfect "
                f"subgroup of order {nxt.order}, so it has no pc presentation"
            )
        derived.append(nxt)

    # bottom up: H runs from 1 to G through subgroups each normal in the next,
    # every step adjoining an element of prime order modulo H
    inside = np.zeros(n, dtype=bool)
    inside[e] = True
    added: list[int] = []
    orders: list[int] = []
    for term in reversed(derived[:-1]):
        while True:
            outside = np.flatnonzero(term.mask & ~inside)
            if outside.size == 0:
                break
            x = int(outside[0])
            m, cur = 1, x
            while not inside[cur]:
                cur, m = int(t[cur, x]), m + 1
            r = _least_prime_factor(m)
            y = group.power(x, m // r)
            # y normalizes H (D_k/D_{k+1} is abelian), so H⟨y⟩ = ∪ yᵉH
            members = np.flatnonzero(inside)
            cur = y
            for _ in range(r - 1):
                inside[t[cur, members]] = True
                cur = int(t[cur, y])
            added.append(y)
            orders.append(r)
    gens = tuple(reversed(added))
    rel = tuple(reversed(orders))
    big_n = len(gens)

    if int(np.prod(rel, dtype=np.int64)) != n:
        raise AssertionError("relative orders of the pc sequence must multiply to |G|")
    # elements[code] = g_1^{e_1}·(g_2^{e_2}·(···)), code = Σ e_i·stride_i
    elements = np.array([e], dtype=np.int64)
    strides = np.ones(big_n, dtype=np.int64)
    for i in reversed(range(big_n)):
        strides[i] = elements.size
        powers = [e]
        for _ in range(rel[i] - 1):
            powers.append(int(t[powers[-1], gens[i]]))
        elements = t[np.array(powers)[:, None], elements[None, :]].reshape(-1)
    code = np.full(n, -1, dtype=np.int64)
    code[elements] = np.arange(n)
    if (code < 0).any():
        raise AssertionError("normal words must reach every element exactly once")
    exps = (code[:, None] // strides[None, :]) % np.array(rel, dtype=np.int64)

    garr = np.array(gens, dtype=np.int64)
    power_targets = np.array([group.power(g, r) for g, r in zip(gens, rel)], dtype=np.int64)
    power_words = exps[power_targets].reshape(big_n, big_n)
    conj_targets = t[t[group.inverses[garr][:, None], garr[None, :]], garr[:, None]]
    conj_words = exps[conj_targets].reshape(big_n, big_n, big_n)
    later = np.triu(np.ones((big_n, big_n), dtype=bool), k=1)  # [i, m]: m > i
    conj_words = conj_words * later[:, :, None]
    # each word is read through the bijection, so it evaluates to its table
    # element; it must also involve only the generators after g_i
    if (power_words * ~later).any() or (conj_words * ~later[:, None, :]).any():
        raise AssertionError("pc relations must be words in the later generators")
    for arr in (exps, power_words, conj_words):
        arr.flags.writeable = False
    return PcPresentation(group, gens, rel, exps, power_words, conj_words)


# ---------------------------------------------------------------------------
# homomorphisms and quotients


def _is_multiplicative(source: FiniteGroup, target: FiniteGroup, images: np.ndarray) -> bool:
    """f(1) = 1 and f(x·s) = f(x)·f(s) for every x and generator s.

    That proves f multiplicative: every y is a positive word in the
    generators, and f(x·y) = f(x)·f(y) follows by induction on its length.
    ``images`` must already hold target indices, one per source element.
    """
    if int(images[source.identity]) != target.identity:
        return False
    gens = np.array(source.generators, dtype=np.int64)
    lhs = images[source.table[:, gens]]
    rhs = target.table[images[:, None], images[gens][None, :]]
    return bool(np.array_equal(lhs, rhs))


@dataclass(frozen=True, eq=False)
class GroupHom:
    """A homomorphism given by its full image table; multiplicativity is checked."""

    source: FiniteGroup
    target: FiniteGroup
    images: np.ndarray

    def __post_init__(self) -> None:
        img = np.asarray(self.images, dtype=np.int64)
        img.flags.writeable = False
        object.__setattr__(self, "images", img)
        n = self.source.order
        if img.shape != (n,):
            raise ValueError("need one image per source element")
        if img.min() < 0 or img.max() >= self.target.order:
            raise ValueError("images must be target indices")
        if int(img[self.source.identity]) != self.target.identity:
            raise ValueError("identity must map to identity")
        if not _is_multiplicative(self.source, self.target, img):
            raise ValueError("map is not multiplicative")

    def __call__(self, x: int) -> int:
        return int(self.images[x])

    def kernel(self) -> Subgroup:
        mem = np.flatnonzero(self.images == self.target.identity)
        return Subgroup(self.source, tuple(int(x) for x in mem))

    def image_members(self) -> tuple[int, ...]:
        return tuple(int(x) for x in np.unique(self.images))

    def is_surjective(self) -> bool:
        return len(self.image_members()) == self.target.order

    def __repr__(self) -> str:
        return f"GroupHom({self.source.name} -> {self.target.name})"


@dataclass(frozen=True, eq=False)
class QuotientData:
    """A quotient group together with the projection and coset representatives."""

    quotient: FiniteGroup
    projection: GroupHom
    coset_reps: np.ndarray

    @property
    def source(self) -> FiniteGroup:
        return self.projection.source


def quotient(group: FiniteGroup, normal: Subgroup) -> QuotientData:
    if normal.parent is not group:
        raise ValueError("subgroup belongs to a different group")
    if normal.is_trivial():
        # G/1 is G itself, with the identity projection
        idx = np.arange(group.order)
        return QuotientData(group, GroupHom(group, group, idx), idx)
    if not normal.is_normal():
        raise ValueError("can only quotient by a normal subgroup")
    mem = list(normal.members)
    # left cosets xN, canonical representative = smallest member index
    coset_min = group.table[:, mem].min(axis=1)
    reps = np.unique(coset_min)
    coset_index = np.searchsorted(reps, coset_min)
    m = reps.size
    qt = np.empty((m, m), dtype=np.int64)
    lo = 0
    for block in _row_blocks(group.table, reps, reps):
        qt[lo : lo + len(block)] = coset_index[block]
        lo += len(block)

    gen_images: list[int] = []
    gen_names: list[str] = []
    for g in group.generators:
        ci = int(coset_index[g])
        if ci != coset_index[group.identity] and ci not in gen_images:
            gen_images.append(ci)
            gen_names.append(group.labels[g])
    if not gen_images and m > 1:  # pragma: no cover - generators always cover quotients
        raise AssertionError("generator images must cover a nontrivial quotient")
    quot = FiniteGroup.from_table(
        qt, generators=gen_images, gen_names=gen_names, name=f"{group.name}/N"
    )
    proj = GroupHom(group, quot, coset_index)
    if proj.kernel().members != normal.members:
        raise AssertionError("projection kernel must equal the quotienting subgroup")
    if not proj.is_surjective():
        raise AssertionError("projection must be surjective")
    return QuotientData(quot, proj, reps)


def _extend_gen_images(
    source: FiniteGroup,
    tree_jumps: tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]],
    assignment: Sequence[int],
    target: FiniteGroup,
) -> np.ndarray:
    """The map with generator images ``assignment``, extended along the BFS tree
    of ``source`` (its :func:`_generator_tree_jumps`); multiplicativity is not checked.

    Each element's image is the product of the generator images on its tree
    path.  Pointer doubling forms it in log₂(depth) gathers: images[x] starts
    as the image of x's own step, and each round sets images[x] to
    images[a(x)]·images[x] for the next ancestor map a.  The target is
    associative, so the product is the one an edge-by-edge walk gives.
    """
    _, position, jumps = tree_jumps
    images = np.append(np.asarray(assignment, dtype=np.int64), target.identity)[position]
    for anc in jumps:
        images = target.table[images[anc], images]
    return images


def _hom_images(
    source: FiniteGroup,
    target: FiniteGroup,
    candidates: Sequence[Sequence[int]],
    surjective: bool = False,
) -> Iterator[np.ndarray]:
    """Image arrays of the homomorphisms source → target whose generator
    images are drawn from ``candidates``, one list per source generator.

    The one search over generator images.  Tuples are tried in
    ``itertools.product`` order; each is extended along the BFS tree over
    ``source.generators`` and yielded when it is multiplicative.  With
    ``surjective``, a map that is not onto is dropped first, before the
    multiplicativity check.
    """
    tree_jumps = _generator_tree_jumps(source, source.generators)
    for assignment in itertools.product(*candidates):
        images = _extend_gen_images(source, tree_jumps, assignment, target)
        if surjective and np.unique(images).size != target.order:
            continue
        if _is_multiplicative(source, target, images):
            yield images


def enumerate_homs(
    source: FiniteGroup,
    target: FiniteGroup,
    surjective_only: bool = False,
) -> tuple[GroupHom, ...]:
    """All homomorphisms source → target, by a search over generator images.

    Complete: a homomorphism is determined by its generator images, and every
    image tuple whose breadth-first extension passes the multiplicativity
    check is kept.  Candidates are pruned to target elements whose order
    divides the generator's order.
    """
    if target.order > HOM_TARGET_LIMIT:
        raise ValueError(f"homomorphism target capped at {HOM_TARGET_LIMIT} elements")
    if source.order > DEFAULT_MAX_ORDER:
        raise ValueError("source exceeds the order cap")
    src_orders = element_orders(source)
    tgt_orders = element_orders(target)
    candidates = [np.flatnonzero(src_orders[g] % tgt_orders == 0).tolist() for g in source.generators]
    found = _hom_images(source, target, candidates, surjective=surjective_only)
    return tuple(GroupHom(source, target, images) for images in found)


def is_isomorphic(left: FiniteGroup, right: FiniteGroup) -> bool:
    """Isomorphism test: invariant pre-screen, then a search for a bijective
    homomorphism with generator images of matching orders."""
    if max(left.order, right.order) > ISO_LIMIT:
        raise ValueError(f"isomorphism test capped at {ISO_LIMIT} elements")
    if left.order != right.order:
        return False
    if order_profile(left) != order_profile(right):
        return False
    if is_abelian(left) != is_abelian(right):
        return False
    if is_abelian(left):
        # equal order profiles classify finite abelian groups
        return True
    if center(left).order != center(right).order:
        return False
    ab_left = quotient(left, commutator_subgroup(left, whole_group(left), whole_group(left)))
    ab_right = quotient(right, commutator_subgroup(right, whole_group(right), whole_group(right)))
    if order_profile(ab_left.quotient) != order_profile(ab_right.quotient):
        return False

    src_orders = element_orders(left)
    tgt_orders = element_orders(right)
    candidates = [np.flatnonzero(tgt_orders == src_orders[g]).tolist() for g in left.generators]
    return next(_hom_images(left, right, candidates, surjective=True), None) is not None


def normal_subgroups_within(group: FiniteGroup, sub: Subgroup) -> tuple[Subgroup, ...]:
    """All subgroups of ``sub`` that are normal in ``group`` (lattice walk)."""
    if sub.order > NORMAL_ENUM_LIMIT:
        raise ValueError(f"subgroup lattice walk capped at {NORMAL_ENUM_LIMIT} elements")
    seen: set[tuple[int, ...]] = set()
    frontier = [subgroup_closure(group, [group.identity]).members]
    seen.add(frontier[0])
    while frontier:
        base = frontier.pop()
        for x in sub.members:
            if x in base:
                continue
            grown = subgroup_closure(group, base + (x,)).members
            if grown not in seen and all(sub.contains(m) for m in grown):
                seen.add(grown)
                frontier.append(grown)
    out = [Subgroup(group, mem) for mem in sorted(seen, key=lambda m: (len(m), m))]
    return tuple(s for s in out if s.is_normal())


# ---------------------------------------------------------------------------
# products


def direct_product(left: FiniteGroup, right: FiniteGroup, name: Optional[str] = None) -> FiniteGroup:
    nl, nr = left.order, right.order
    if nl * nr > DEFAULT_MAX_ORDER:
        raise ValueError("direct product exceeds the order cap")
    li, ri = np.divmod(np.arange(nl * nr), nr)
    table = left.table[np.ix_(li, li)] * nr + right.table[np.ix_(ri, ri)]
    # pair (x, y) ↦ index x*nr + y; generators from both factors
    gens = [g * nr + right.identity for g in left.generators]
    gens += [left.identity * nr + g for g in right.generators]
    gen_names = [f"a{i}" for i in range(len(left.generators))]
    gen_names += [f"b{i}" for i in range(len(right.generators))]
    label = name or f"{left.name}x{right.name}"
    return FiniteGroup.from_table(table, generators=gens, gen_names=gen_names, name=label)


# ---------------------------------------------------------------------------
# presets


def _cyclic(n: int) -> FiniteGroup:
    if n < 1 or n > DEFAULT_MAX_ORDER:
        raise ValueError(f"cyclic order must be in [1, {DEFAULT_MAX_ORDER}]")
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    gens = [1] if n > 1 else []
    return FiniteGroup.from_table(table, generators=gens, gen_names=["g"][: len(gens)], name=f"Z/{n}")


def _elementary_abelian(q: int, d: int) -> FiniteGroup:
    """(Z/q)^d; elementary abelian when q is prime, homocyclic in general."""
    from qcoh.zqlin import factor_prime_power

    factor_prime_power(q)
    if d < 1 or q**d > DEFAULT_MAX_ORDER:
        raise ValueError("rank must be >= 1 and the order within the cap")
    n = q**d
    digits = np.array([[(x // q**i) % q for i in range(d)] for x in range(n)], dtype=np.int64)
    sums = (digits[:, None, :] + digits[None, :, :]) % q
    table = sums @ (q ** np.arange(d))
    gens = [q**i for i in range(d)]
    names = [f"x{i}" for i in range(d)]
    return FiniteGroup.from_table(table, generators=gens, gen_names=names, name=f"(Z/{q})^{d}")


def _heisenberg(p: int) -> FiniteGroup:
    """Order p³, exponent p (p odd): upper unitriangular 3×3 matrices over Z/p."""
    if p < 3 or any(p % k == 0 for k in range(2, p)):
        raise ValueError("heisenberg preset needs an odd prime")
    n = p**3

    def enc(a: int, b: int, c: int) -> int:
        return (a % p) * p * p + (b % p) * p + (c % p)

    table = np.zeros((n, n), dtype=np.int64)
    for a1 in range(p):
        for b1 in range(p):
            for c1 in range(p):
                i = enc(a1, b1, c1)
                for a2 in range(p):
                    for b2 in range(p):
                        for c2 in range(p):
                            table[i, enc(a2, b2, c2)] = enc(a1 + a2, b1 + b2, c1 + c2 + a1 * b2)
    r, s = enc(1, 0, 0), enc(0, 1, 0)
    grp = FiniteGroup.from_table(table, generators=[r, s], gen_names=["r", "s"], name=f"H_{n}")
    t = grp.commutator(r, s)
    if t == grp.identity or grp.power(t, p) != grp.identity:
        raise AssertionError("heisenberg commutator must have order p")
    if grp.power(r, p) != grp.identity or grp.power(s, p) != grp.identity:
        raise AssertionError("heisenberg generators must have order p")
    return grp


def _modular(p: int) -> FiniteGroup:
    """Order p³, exponent p² (p odd): ⟨r, s | r^{p²} = s^p = 1, s⁻¹rs = r^{1+p}⟩."""
    if p < 3 or any(p % k == 0 for k in range(2, p)):
        raise ValueError("modular preset needs an odd prime")
    p2 = p * p
    n = p2 * p

    def enc(i: int, j: int) -> int:  # r^i s^j
        return (i % p2) * p + (j % p)

    table = np.zeros((n, n), dtype=np.int64)
    # s·r^k = r^{k(1+p)^{-1}}·s, so pushing s^{j} left past r^{i} twists by (1+p)^{-j}
    twist = [pow(1 + p, -j, p2) for j in range(p)]
    for i1 in range(p2):
        for j1 in range(p):
            src = enc(i1, j1)
            for i2 in range(p2):
                for j2 in range(p):
                    table[src, enc(i2, j2)] = enc(i1 + i2 * twist[j1], j1 + j2)
    r, s = enc(1, 0), enc(0, 1)
    grp = FiniteGroup.from_table(table, generators=[r, s], gen_names=["r", "s"], name=f"M_{n}")
    if grp.commutator(r, s) != grp.power(r, p):
        raise AssertionError("modular commutator must be r^p")
    if grp.power(s, p) != grp.identity:
        raise AssertionError("modular generator s must have order p")
    return grp


def _dihedral4() -> FiniteGroup:
    """D₄ of order 8: symmetries of the square, ⟨r, s | r⁴ = s² = 1, srs = r³⟩."""
    def enc(i: int, j: int) -> int:  # r^i s^j
        return (i % 4) * 2 + (j % 2)

    table = np.zeros((8, 8), dtype=np.int64)
    for i1 in range(4):
        for j1 in range(2):
            for i2 in range(4):
                for j2 in range(2):
                    sign = -1 if j1 else 1
                    table[enc(i1, j1), enc(i2, j2)] = enc(i1 + sign * i2, j1 + j2)
    grp = FiniteGroup.from_table(table, generators=[enc(1, 0), enc(0, 1)], gen_names=["r", "s"], name="D4")
    if center(grp).order != 2:
        raise AssertionError("D4 must have a center of order 2")
    return grp


def _quaternion8() -> FiniteGroup:
    """Q₈: ⟨x, y | x⁴ = 1, x² = y², y⁻¹xy = x⁻¹⟩."""
    def enc(i: int, j: int) -> int:  # x^i y^j
        return (i % 4) * 2 + (j % 2)

    table = np.zeros((8, 8), dtype=np.int64)
    for i1 in range(4):
        for j1 in range(2):
            for i2 in range(4):
                for j2 in range(2):
                    sign = -1 if j1 else 1
                    i = i1 + sign * i2 + 2 * ((j1 + j2) // 2)
                    table[enc(i1, j1), enc(i2, j2)] = enc(i, j1 + j2)
    grp = FiniteGroup.from_table(table, generators=[enc(1, 0), enc(0, 1)], gen_names=["x", "y"], name="Q8")
    x, y = enc(1, 0), enc(0, 1)
    if not grp.power(x, 2) == grp.power(y, 2) != grp.identity:
        raise AssertionError("Q8 needs x² = y² ≠ 1")
    if order_profile(grp) != {1: 1, 2: 1, 4: 6}:
        raise AssertionError("Q8 must have one involution and six elements of order 4")
    return grp


def preset(name: str, params: Sequence = ()) -> FiniteGroup:
    """Build one of the named stock groups."""
    params = list(params)
    if name == "cyclic":
        (n,) = params
        return _cyclic(int(n))
    if name == "elementary_abelian":
        q, d = params
        return _elementary_abelian(int(q), int(d))
    if name == "heisenberg":
        (p,) = params
        return _heisenberg(int(p))
    if name == "modular":
        (p,) = params
        return _modular(int(p))
    if name == "dihedral4":
        if params:
            raise ValueError("dihedral4 takes no parameters")
        return _dihedral4()
    if name == "quaternion8":
        if params:
            raise ValueError("quaternion8 takes no parameters")
        return _quaternion8()
    if name == "direct_product":
        if len(params) < 2:
            raise ValueError("direct_product needs at least two factor specs")
        factors = [preset(f[0], f[1] if len(f) > 1 else ()) for f in params]
        out = factors[0]
        for f in factors[1:]:
            out = direct_product(out, f)
        return out
    raise ValueError(f"unknown preset {name!r}")
