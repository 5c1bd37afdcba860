"""Finite free models at level three: the "sharp" and "flat" quotients.

The sharp model on d generators over Z/q is the group of normal forms

    σ_1^{a_1} ··· σ_d^{a_d} · ∏_i (σ_i^q)^{c_i} · ∏_{i<j} [σ_i, σ_j]^{b_ij}

with a_i ∈ [0, q) and central coordinates c_i, b_ij ∈ Z/q.  Multiplication is
collection: moving generator letters past each other emits central commutator
factors ([σ_j, σ_i] = [σ_i, σ_j]^{-1} per swapped letter pair), and exponent
overflow past q emits central σ_i^q factors.  The commutator convention is
[h, g] = h⁻¹g⁻¹hg throughout.

So sharp is a central extension of (Z/q)^d by the (c, b) part, and its table
is built as one: with A the sum of the a-parts mod q, Zadd the sum of the
central parts and f(a, a′) the cocycle of carries (a_i + a′_i) // q and
commutator terms −a_j·a′_i, the product of (a, z) and (a′, z′) is
(A[a, a′], Zadd[Zadd[z, z′], f(a, a′)]), one gather per block of rows
(see ``_sharp_table``).

The flat model is *constructed as a quotient of sharp* by the subgroup of
(δq)-th powers, δ = 2 for p = 2 and 1 otherwise — never by its own collection
law — so its correctness is inherited from sharp plus the verified quotient
machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from qcoh.groups import (
    DEFAULT_MAX_ORDER,
    FiniteGroup,
    power_subgroup,
    q_central_series,
    quotient,
    subgroup_closure,
    whole_group,
)
from qcoh.groups import _BLOCK_CELLS, _TABLE_DTYPE, _narrow
from qcoh.zqlin import factor_prime_power

__all__ = [
    "CanonicalBasis",
    "FreeLevel3Model",
    "NormalForm",
    "canonical_basis",
    "element_of",
    "free_level3",
    "normal_form_roundtrip",
]


def _pair_list(d: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(d) for j in range(i + 1, d)]


@dataclass(frozen=True, eq=False)
class FreeLevel3Model:
    """A finite level-3 free model with its designated generators and bases.

    ``coords[x]`` holds the normal-form coordinates of element x, laid out as
    (a_1..a_d, c_1..c_d, b_12, b_13, ..., b_{d-1,d}).  For the flat variant
    the c-block is reduced (zero when p is odd, mod 2 when p = 2).
    """

    d: int
    q: int
    p: int
    s: int
    variant: str
    group: FiniteGroup
    sigma: tuple[int, ...]
    power_central: tuple[int, ...]
    commutator_central: tuple[int, ...]
    power_labels: tuple[str, ...]
    commutator_labels: tuple[str, ...]
    coords: np.ndarray

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return _pair_list(self.d)

    @property
    def delta(self) -> int:
        return 2 if self.p == 2 else 1

    def __repr__(self) -> str:
        return f"FreeLevel3Model({self.variant}, d={self.d}, q={self.q}, order {self.group.order})"


@dataclass(frozen=True, eq=False)
class NormalForm:
    """Coordinates (a_i; c_i; b_ij) of one element."""

    a: tuple[int, ...]
    c: tuple[int, ...]
    b: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class CanonicalBasis:
    """The central-part basis {σ_i^q} ∪ {[σ_i, σ_j] : i < j} with coordinates."""

    model: FreeLevel3Model
    elements: tuple[int, ...]
    labels: tuple[str, ...]

    def coordinates(self, element: int) -> np.ndarray:
        """Exponent coordinates of a central element in this basis."""
        model = self.model
        row = model.coords[element]
        if row[: model.d].any():
            raise ValueError("element is not in the central part")
        return row[model.d :].copy()


def _sharp_table(d: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The multiplication table of sharp(d, q) and the coordinates of its elements.

    An index x = a + q^d·z splits into the d digits a = (a_i) and the
    m = d + C(d,2) central digits z = (c_i; b_ij).  The central part is shifted
    by a 2-cocycle f of (Z/q)^d, so

        index(x·y) = A[a, a′] + q^d · Zadd[Zadd[z, z′], f(a, a′)]

    with A the digitwise sum of the a-parts mod q and Zadd that of central
    indices.  The c_i-digit of f(a, a′) is the carry (a_i + a′_i) // q; its
    b_ij-digit is −a_j·a′_i mod q, since the σ_j letters of the left factor
    sweep past the σ_i letters of the right one and emit [σ_i, σ_j]⁻¹ each.
    A and the shift by f fold into R[a, w, a′] = A[a, a′] + q^d·Zadd[w, f(a, a′)],
    so a block of rows with central parts z is one gather of R at
    (a, Zadd[z, z′]), written straight into the uint16 table: R is narrowed
    once, so no n × n int64 array is built.
    """
    pairs = _pair_list(d)
    m = d + len(pairs)
    n = q ** (d + m)
    if n > DEFAULT_MAX_ORDER:
        raise ValueError(f"sharp model order {q}^{d + m} exceeds the cap {DEFAULT_MAX_ORDER}")
    na, nz = q**d, q**m
    radix = q ** np.arange(d + m, dtype=np.int64)

    def digits(count: int, width: int) -> np.ndarray:
        return (np.arange(count, dtype=np.int64)[:, None] // radix[:width]) % q

    coords, a, z = digits(n, d + m), digits(na, d), digits(nz, m)
    asum = a[:, None, :] + a[None, :, :]
    kap = [-a[:, None, j] * a[None, :, i] for i, j in pairs]
    f = (np.dstack([asum // q, *kap]) % q) @ radix[:m]
    zadd = ((z[:, None, :] + z[None, :, :]) % q) @ radix[:m]
    A = (asum % q) @ radix[:d]
    R = zadd[np.arange(nz)[:, None], f[:, None, :]]
    R *= na
    R += A[:, None, :]
    R = _narrow(R.reshape(na * nz, na), n)

    table = np.empty((n, n), dtype=_TABLE_DTYPE)
    rows_at = np.arange(na, dtype=np.int64)[:, None] * nz
    step = max(1, _BLOCK_CELLS // (na * n))
    for lo in range(0, nz, step):
        hi = min(nz, lo + step)
        out = table[lo * na : hi * na].reshape(hi - lo, na, nz, na)
        np.take(R, rows_at + zadd[lo:hi, None, :], axis=0, out=out)
    return table, coords


def _build_sharp(d: int, q: int) -> FreeLevel3Model:
    p, s = factor_prime_power(q)
    pairs = _pair_list(d)
    table, coords = _sharp_table(d, q)
    sigma = tuple(int(q**i) for i in range(d))
    gen_names = [f"s{i + 1}" for i in range(d)]
    group = FiniteGroup.from_table(table, generators=sigma, gen_names=gen_names, name=f"sharp({d},{q})")

    power_central = tuple(int(q ** (d + i)) for i in range(d))
    commutator_central = tuple(int(q ** (2 * d + t)) for t in range(len(pairs)))
    for i in range(d):
        if group.power(sigma[i], q) != power_central[i]:
            raise AssertionError("collection power law broken")
    for t, (i, j) in enumerate(pairs):
        if group.commutator(sigma[i], sigma[j]) != commutator_central[t]:
            raise AssertionError("collection commutator sign broken")

    coords.flags.writeable = False
    model = FreeLevel3Model(
        d=d,
        q=q,
        p=p,
        s=s,
        variant="sharp",
        group=group,
        sigma=sigma,
        power_central=power_central,
        commutator_central=commutator_central,
        power_labels=tuple(f"s{i + 1}^{q}" for i in range(d)),
        commutator_labels=tuple(f"[s{i + 1},s{j + 1}]" for i, j in pairs),
        coords=coords,
    )
    _check_model_series(model)
    return model


def _build_flat(d: int, q: int) -> FreeLevel3Model:
    sharp = _build_sharp(d, q)
    p, s = sharp.p, sharp.s
    delta = sharp.delta
    powers = power_subgroup(sharp.group, whole_group(sharp.group), delta * q)
    data = quotient(sharp.group, powers)
    flat_group = data.quotient
    if p != 2:
        expected = q ** (d + len(sharp.pairs))
        if flat_group.order != expected:
            raise AssertionError("flat order must drop the power block")

    proj = data.projection
    sigma = tuple(proj(g) for g in sharp.sigma)
    power_central = tuple(proj(g) for g in sharp.power_central)
    commutator_central = tuple(proj(g) for g in sharp.commutator_central)

    reps = data.coset_reps
    coords = sharp.coords[reps].copy()
    if p == 2:
        coords[:, d : 2 * d] %= 2
    else:
        coords[:, d : 2 * d] = 0
    coords.flags.writeable = False

    model = FreeLevel3Model(
        d=d,
        q=q,
        p=p,
        s=s,
        variant="flat",
        group=flat_group,
        sigma=sigma,
        power_central=power_central,
        commutator_central=commutator_central,
        power_labels=tuple(f"s{i + 1}^{q}" for i in range(d)),
        commutator_labels=tuple(f"[s{i + 1},s{j + 1}]" for i, j in sharp.pairs),
        coords=coords,
    )
    _check_model_series(model)
    return model


def _check_model_series(model: FreeLevel3Model) -> None:
    series = q_central_series(model.group, model.q)
    central_gens = model.power_central + model.commutator_central
    central = subgroup_closure(model.group, central_gens)
    if central.members != series.term(2).members:
        raise AssertionError("central basis must generate the level-2 term")
    if model.variant == "sharp" and not series.term(3).is_trivial():
        raise AssertionError("sharp model must have trivial level-3 term")
    if model.variant == "flat" and not series.lower3.is_trivial():
        raise AssertionError("flat model must have trivial level-3 refinement")


def free_level3(d: int, q: int, variant: str = "sharp") -> FreeLevel3Model:
    """Build the level-3 free model on d generators over Z/q."""
    if d < 1:
        raise ValueError("need at least one generator")
    if variant == "sharp":
        return _build_sharp(d, q)
    if variant == "flat":
        return _build_flat(d, q)
    raise ValueError(f"unknown variant {variant!r}; use 'sharp' or 'flat'")


def canonical_basis(model: FreeLevel3Model) -> CanonicalBasis:
    """The ordered central basis {σ_i^q} then {[σ_i, σ_j]} with coordinates.

    On the flat variant with p odd the σ_i^q entries vanish, so there is no
    such basis and this raises.
    """
    if model.variant == "flat" and model.p != 2:
        raise ValueError("flat model with p odd has no σ^q basis entries (they vanish)")
    return CanonicalBasis(
        model=model,
        elements=model.power_central + model.commutator_central,
        labels=model.power_labels + model.commutator_labels,
    )


def element_of(model: FreeLevel3Model, a: Sequence[int], c: Sequence[int], b: Sequence[int]) -> int:
    """Assemble ∏σ_i^{a_i}·∏(σ_i^q)^{c_i}·∏[σ_i,σ_j]^{b_ij} by group multiplication."""
    g = model.group
    acc = g.identity
    for i in range(model.d):
        for _ in range(int(a[i]) % model.q):
            acc = g.mul(acc, model.sigma[i])
    for i in range(model.d):
        for _ in range(int(c[i]) % model.q):
            acc = g.mul(acc, model.power_central[i])
    for t in range(len(model.pairs)):
        for _ in range(int(b[t]) % model.q):
            acc = g.mul(acc, model.commutator_central[t])
    return acc


def normal_form_roundtrip(model: FreeLevel3Model, element: int) -> NormalForm:
    """Coordinates (a_i; c_i; b_ij) of ``element``; reassembly is verified."""
    if not 0 <= element < model.group.order:
        raise ValueError("element index out of range")
    row = model.coords[element]
    d = model.d
    form = NormalForm(
        a=tuple(int(x) for x in row[:d]),
        c=tuple(int(x) for x in row[d : 2 * d]),
        b=tuple(int(x) for x in row[2 * d :]),
    )
    rebuilt = element_of(model, form.a, form.c, form.b)
    if rebuilt != element:
        raise AssertionError("normal form failed to reconstruct its element")
    return form
