"""Mod-q cohomology of finite groups in degrees one and two.

Carriers are normalized inhomogeneous cochains with trivial coefficients:
degree one is a value per element (zero at the identity), degree two a value
per ordered pair (zero whenever either argument is the identity).  The
coboundary is ∂u(g,h) = u(g) + u(h) − u(gh).

Three solver ideas keep everything exact while scaling past tiny groups:

* Cocycle validation only needs the triples (x, y, s) with s running over a
  generating set.  The degree-3 coboundary of any 2-cochain c vanishes
  identically, which gives the recurrence
      C(x, y, zw) = C(y, z, w) − C(xy, z, w) + C(x, yz, w) + C(x, y, z)
  for C = δc, so vanishing on generator slices propagates to all triples by
  induction over words.  |S|·n² checks replace n³.
* Coboundary tests: a potential u with ∂u = c is an affine function of its
  values on generators (propagate u(xs) = u(x) + u(s) − c(x,s) along a BFS
  tree), and the pair constraints (x, s∈S) suffice for the same reason.  The
  result is a |S|-unknown linear solve no matter the group order.  A stack of
  k twists with unknown coefficients y gives an |S|+k-unknown system whose
  kernel is exactly the set of combinations Σ yᵢ·cᵢ that are coboundaries.
* Full H² comes from a pc presentation (Holt–Eick–O'Brien, *Handbook of
  Computational Group Theory*, ch. 8–9).  A class is a vector of tails on
  the N(N+1)/2 pc relations; the consistent tails Z_t are the kernel of an
  n·N(N+1)/2 × N(N+1)/2 system, and H² = Z_t/B_t, with B_t the tail changes
  of the lift changes ĝ_i ↦ ĝ_i·z.  A cocycle is read back as its tails,
  the path sums of its values along each relation from 1, so every class
  solve is N(N+1)/2 columns wide; n × n cochains are built only for the
  basis representatives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from qcoh.groups import (
    _BLOCK_CELLS,
    FiniteGroup,
    GroupHom,
    PcPresentation,
    QuotientData,
    Subgroup,
    _generator_tree,
    _memoized,
    pc_presentation,
    q_central_series,
    quotient,
    subgroup_as_group,
)
from qcoh.zqlin import (
    AbGroupPresentation,
    HowellForm,
    ZqMatrix,
    coset_reduce,
    factor_prime_power,
    howell_form,
    kernel,
    row_span_contains,
    row_span_size,
    solve,
)

__all__ = [
    "H2_CAP",
    "CentralExtensionSpec",
    "Cochain1",
    "Cochain2",
    "FiveTermReport",
    "H1Space",
    "H2Space",
    "H2Subspace",
    "HatRing",
    "InvariantH1",
    "SymbolicElementaryH2",
    "bockstein",
    "class_from_extension",
    "coboundary1",
    "cup11",
    "extension_from_class",
    "five_term_check",
    "h1",
    "h2",
    "h2_dec",
    "hat_ring",
    "hom_from_generator_values",
    "img_bockstein",
    "inflation1",
    "inflation2",
    "invariants_h1",
    "is_coboundary",
    "restriction1",
    "restriction2",
    "span_of_classes",
    "symbolic_h2_elementary",
    "tensor_kill_rows",
    "tensor_quotient",
    "transgression",
]

H2_CAP = 64


def _same_group(a: FiniteGroup, b: FiniteGroup) -> bool:
    return a is b or (
        a.order == b.order and a.identity == b.identity and np.array_equal(a.table, b.table)
    )


def _solver_gens(group: FiniteGroup) -> tuple[int, ...]:
    gens = tuple(dict.fromkeys(group.generators))
    if group.identity in gens:
        gens = tuple(g for g in gens if g != group.identity)
    return gens


def _solver_tree(group: FiniteGroup) -> np.ndarray:
    """The BFS tree over the solver generators, as :func:`qcoh.groups._generator_tree` keeps it."""
    return _generator_tree(group, _solver_gens(group))


# --------------------------------------------------------------------------
# cochain carriers


@dataclass(frozen=True, eq=False)
class Cochain1:
    """Normalized 1-cochain: one value mod q per group element."""

    group: FiniteGroup
    modulus: int
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.mod(np.asarray(self.values, dtype=np.int64), self.modulus)
        if v.shape != (self.group.order,):
            raise ValueError("need one value per group element")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        if v[self.group.identity] != 0:
            raise ValueError("1-cochains are normalized: value 0 at the identity")

    def __call__(self, g: int) -> int:
        return int(self.values[g])

    def is_cocycle(self) -> bool:
        """True iff this is a homomorphism to Z/q.

        f(xs) = f(x) + f(s) over generator slices propagates to all pairs by
        induction over words in the second argument.
        """
        t = self.group.table
        v = self.values
        for s in _solver_gens(self.group):
            if ((v[t[:, s]] - v - v[s]) % self.modulus).any():
                return False
        return True

    def __add__(self, other: "Cochain1") -> "Cochain1":
        self._compat(other)
        return Cochain1(self.group, self.modulus, self.values + other.values)

    def __sub__(self, other: "Cochain1") -> "Cochain1":
        self._compat(other)
        return Cochain1(self.group, self.modulus, self.values - other.values)

    def __neg__(self) -> "Cochain1":
        return Cochain1(self.group, self.modulus, -self.values)

    def scale(self, k: int) -> "Cochain1":
        return Cochain1(self.group, self.modulus, self.values * int(k))

    def same_values(self, other: "Cochain1") -> bool:
        self._compat(other)
        return bool(np.array_equal(self.values, other.values))

    def _compat(self, other: "Cochain1") -> None:
        if self.modulus != other.modulus or not _same_group(self.group, other.group):
            raise ValueError("cochains live on different carriers")


@dataclass(frozen=True, eq=False)
class Cochain2:
    """Normalized 2-cochain: one value mod q per ordered element pair."""

    group: FiniteGroup
    modulus: int
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.mod(np.asarray(self.values, dtype=np.int64), self.modulus)
        n = self.group.order
        if v.shape != (n, n):
            raise ValueError("need a value per ordered pair")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        e = self.group.identity
        if v[e, :].any() or v[:, e].any():
            raise ValueError("2-cochains are normalized: zero when either argument is 1")
        # the is_cocycle verdict, kept once computed: the values are read-only
        object.__setattr__(self, "_cocycle", None)

    def __call__(self, g: int, h: int) -> int:
        return int(self.values[g, h])

    def is_cocycle(self) -> bool:
        """Exact check of c(x,y) + c(xy,z) = c(y,z) + c(x,yz) via generator slices.

        Computed on the first call and kept on the cochain.
        """
        if self._cocycle is None:  # type: ignore[attr-defined]
            object.__setattr__(self, "_cocycle", self._check_cocycle())
        return self._cocycle  # type: ignore[attr-defined]

    def _check_cocycle(self) -> bool:
        t = self.group.table
        c = self.values
        n = self.group.order
        chunk = max(1, _BLOCK_CELLS // n)
        for s in _solver_gens(self.group):
            ys = t[:, s]
            for lo in range(0, n, chunk):
                hi = min(n, lo + chunk)
                # c(y,s) − c(xy,s) + c(x,ys) − c(x,y) on the rows x of the block,
                # summed in place in one block-sized array
                lhs = c[lo:hi][:, ys]
                lhs -= c[lo:hi]
                lhs -= c[t[lo:hi], s]
                lhs += c[:, s]
                if np.remainder(lhs, self.modulus, out=lhs).any():
                    return False
        return True

    def __add__(self, other: "Cochain2") -> "Cochain2":
        self._compat(other)
        return Cochain2(self.group, self.modulus, self.values + other.values)

    def __sub__(self, other: "Cochain2") -> "Cochain2":
        self._compat(other)
        return Cochain2(self.group, self.modulus, self.values - other.values)

    def __neg__(self) -> "Cochain2":
        return Cochain2(self.group, self.modulus, -self.values)

    def scale(self, k: int) -> "Cochain2":
        return Cochain2(self.group, self.modulus, self.values * int(k))

    def same_values(self, other: "Cochain2") -> bool:
        self._compat(other)
        return bool(np.array_equal(self.values, other.values))

    def _compat(self, other: "Cochain2") -> None:
        if self.modulus != other.modulus or not _same_group(self.group, other.group):
            raise ValueError("cochains live on different carriers")


def coboundary1(u: Cochain1) -> Cochain2:
    """∂u(g,h) = u(g) + u(h) − u(gh)."""
    return Cochain2(u.group, u.modulus, _coboundary_values(u.values, u.group.table))


def _coboundary_values(v: np.ndarray, table: np.ndarray) -> np.ndarray:
    """v(g) + v(h) − v(gh) over all pairs, summed in place in one n × n int64 array."""
    out = v[table]
    np.subtract(v[:, None], out, out=out)
    out += v[None, :]
    return out


def _require_cocycle1(chi: Cochain1) -> None:
    if not chi.is_cocycle():
        raise ValueError("expected a degree-1 cocycle (homomorphism)")


def _require_cocycle2(c: Cochain2) -> None:
    # a kept verdict is read directly, so each cochain is checked once
    verdict = c.is_cocycle() if c._cocycle is None else c._cocycle  # type: ignore[attr-defined]
    if not verdict:
        raise ValueError("expected a degree-2 cocycle")


# --------------------------------------------------------------------------
# cup product and Bockstein


def cup11(chi: Cochain1, chi2: Cochain1) -> Cochain2:
    """(χ∪χ′)(g,h) = χ(g)·χ′(h)."""
    chi._compat(chi2)
    _require_cocycle1(chi)
    _require_cocycle1(chi2)
    vals = chi.values[:, None] * chi2.values[None, :]
    out = Cochain2(chi.group, chi.modulus, vals)
    if not out.is_cocycle():
        raise AssertionError("cup product of homomorphisms is not a cocycle")
    return out


def bockstein(chi: Cochain1, lift: Optional[Sequence[int]] = None) -> Cochain2:
    """Connecting class of 0 → Z/q → Z/q² → Z/q → 0 on a degree-1 cocycle.

    Representative c(σ,τ) = (χ̃(σ) + χ̃(τ) − χ̃(στ)) / q for an integer lift χ̃
    of χ; the default lift is the least non-negative residue.  Any other lift
    gives a cohomologous representative.
    """
    _require_cocycle1(chi)
    q = chi.modulus
    if lift is None:
        tilde = chi.values.astype(np.int64)
    else:
        tilde = np.asarray(lift, dtype=np.int64)
        if tilde.shape != chi.values.shape:
            raise ValueError("lift must assign one integer per element")
        if ((tilde % q) != chi.values).any():
            raise ValueError("lift must reduce to the cocycle mod q")
        if tilde[chi.group.identity] != 0:
            raise ValueError("lift must vanish at the identity")
    num = _coboundary_values(tilde, chi.group.table)
    if (num % q).any():
        raise ValueError("lift failure: coboundary numerator not divisible")
    out = Cochain2(chi.group, q, num // q)
    if not out.is_cocycle():
        raise AssertionError("Bockstein of a homomorphism is not a cocycle")
    return out


# --------------------------------------------------------------------------
# degree-1 machinery: propagation, Hom bases, coboundary tests


def _affine_propagation(group: FiniteGroup, q: int, twists: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """BFS-propagated representation u(x) = coeff[x]·U + const[x]·y.

    U stands for the unknown values of u on the (deduplicated) generators and
    y for the coefficients of a stack of k twists: ``twists[x, j, i]`` is the
    i-th 2-cochain at (x, gens[j]), and u(xs) = u(x) + u(s) − Σ yᵢ·twistᵢ(x, s)
    along the tree.  None means no twist (k = 0).
    """
    gens = _solver_gens(group)
    d = len(gens)
    n = group.order
    k = 0 if twists is None else twists.shape[2]
    # each element's step from its tree parent, then sums along the path to
    # the identity by pointer jumping (log-depth rounds)
    e = group.identity
    anc = np.full(n, e, dtype=np.int64)
    acc = np.zeros((n, d + k), dtype=np.int64)
    elem, parent, pos = _solver_tree(group)
    anc[elem] = parent
    acc[elem, pos] = 1
    if k:
        acc[elem, d:] = -twists[parent, pos]
    while (anc != e).any():
        acc += acc[anc]
        anc = anc[anc]
    coeff, const = acc[:, :d], acc[:, d:]
    return coeff % q, const % q, gens


def _pair_system(group: FiniteGroup, q: int, coeff: np.ndarray, const: np.ndarray, gens: tuple[int, ...], twists: Optional[np.ndarray] = None) -> np.ndarray:
    """Rows [A | R] of A·U = R·y, i.e. ∂u = Σ yᵢ·twistᵢ sampled on all pairs (x, s∈gens).

    Row x·|S| + j is the pair (x, gens[j]); rows are not deduplicated.
    """
    n, d = coeff.shape
    k = const.shape[1]
    xs = group.table[:, list(gens)]
    a = coeff[:, None, :] - coeff[xs] + np.eye(d, dtype=np.int64)
    r = (0 if twists is None else twists) - const[:, None, :] + const[xs]
    return (np.concatenate([a, r], axis=2) % q).reshape(n * d, d + k)


def is_coboundary(c: Cochain2) -> Optional[Cochain1]:
    """A 1-cochain u with ∂u = c, or None.  Requires c to be a cocycle.

    Unknowns are only the generator values of u (the one-twist case of the
    pair system), so this scales to the full group-order cap; the solution is
    verified on every pair before return.
    """
    _require_cocycle2(c)
    group, q = c.group, c.modulus
    gens = _solver_gens(group)
    twists = c.values[:, list(gens)][:, :, None]
    coeff, const, _ = _affine_propagation(group, q, twists)
    system = np.unique(_pair_system(group, q, coeff, const, gens, twists), axis=0)
    sol = solve(ZqMatrix(system[:, : len(gens)], q), system[:, len(gens)])
    if sol is None:
        return None
    u = Cochain1(group, q, coeff @ sol + const[:, 0])
    if not coboundary1(u).same_values(c):
        raise AssertionError("solver produced a non-solution")
    return u


def hom_from_generator_values(group: FiniteGroup, q: int, gen_values: Sequence[int]) -> Optional[Cochain1]:
    """The homomorphism G → Z/q with the given generator values, if it exists."""
    coeff, _, gens = _affine_propagation(group, q)
    u = np.asarray(gen_values, dtype=np.int64)
    if u.shape != (len(gens),):
        raise ValueError(f"need one value per deduplicated generator ({len(gens)})")
    chi = Cochain1(group, q, coeff @ u)
    return chi if chi.is_cocycle() else None


def _canonical_span_basis(rows: np.ndarray, q: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Invariant-factor basis of the row span: (basis rows, cyclic orders)."""
    rows = np.mod(np.asarray(rows, dtype=np.int64), q)
    if rows.size == 0:
        return np.zeros((0, rows.shape[1] if rows.ndim == 2 else 0), dtype=np.int64), ()
    hf = howell_form(ZqMatrix(rows, q))
    gens = hf.matrix.entries
    if gens.shape[0] == 0:
        return np.zeros((0, rows.shape[1]), dtype=np.int64), ()
    # relations among the Howell generators = left kernel
    rel = kernel(ZqMatrix(gens.T, q)).entries
    pres = AbGroupPresentation.from_relations(gens.shape[0], q, rel)
    basis = (pres.basis_images.entries @ gens) % q
    return basis, pres.invariant_factors


def _gen_value_rows(group: FiniteGroup, basis: Sequence[Cochain1]) -> np.ndarray:
    """Read-only rows of the basis homs' values on the solver generators."""
    gens = list(_solver_gens(group))
    rows = np.array([chi.values[gens] for chi in basis], dtype=np.int64).reshape(len(basis), len(gens))
    rows.flags.writeable = False
    return rows


@dataclass(frozen=True, eq=False)
class _HomBasis:
    """Homs ``group`` → Z/q with an invariant-factor ``basis``.

    Elements are identified with their value vectors on the solver generator
    set (``_gen_values``, one row per basis hom); ``coordinates_of`` inverts
    that identification.  Shared by :class:`H1Space` and :class:`InvariantH1`.
    """

    group: FiniteGroup
    modulus: int
    basis: tuple[Cochain1, ...]
    invariant_factors: tuple[int, ...]
    _gen_values: np.ndarray

    @property
    def order(self) -> int:
        n = 1
        for f in self.invariant_factors:
            n *= f
        return n

    def coordinates_of(self, chi: Cochain1) -> tuple[int, ...]:
        if not _same_group(chi.group, self.group) or chi.modulus != self.modulus:
            raise ValueError("class belongs to a different carrier")
        _require_cocycle1(chi)
        target = chi.values[list(_solver_gens(self.group))]
        if not self.basis:
            if target.any():
                raise ValueError("nonzero hom in a trivial Hom module")
            return ()
        sol = solve(ZqMatrix(self._gen_values.T, self.modulus), target)
        if sol is None:
            raise ValueError("hom does not lie in the computed basis span")
        return tuple(int(x) % f for x, f in zip(sol, self.invariant_factors))

    def element(self, coords: Sequence[int]) -> Cochain1:
        acc = np.zeros(self.group.order, dtype=np.int64)
        for x, chi in zip(coords, self.basis):
            acc += int(x) * chi.values
        return Cochain1(self.group, self.modulus, acc)

    def enumerate_elements(self) -> Iterable[Cochain1]:
        for coords in itertools.product(*(range(f) for f in self.invariant_factors)):
            yield self.element(coords)


@dataclass(frozen=True, eq=False)
class H1Space(_HomBasis):
    """Hom(G, Z/q) with an invariant-factor basis."""


def h1(group: FiniteGroup, q: int) -> H1Space:
    """Hom(G, Z/q), solved from generator unknowns and pair constraints.

    Computed once per q and kept on the group.
    """
    return _memoized(group, ("h1", q), lambda: _h1(group, q))


def _h1(group: FiniteGroup, q: int) -> H1Space:
    coeff, const, gens = _affine_propagation(group, q)
    a = _pair_system(group, q, coeff, const, gens)
    ker = kernel(ZqMatrix(a, q)).entries if a.size else np.eye(len(gens), dtype=np.int64)
    basis_rows, factors = _canonical_span_basis(ker, q)
    basis = []
    for row in basis_rows:
        chi = Cochain1(group, q, coeff @ row)
        if not chi.is_cocycle():
            raise AssertionError("an H¹ basis element is not a homomorphism")
        basis.append(chi)
    return H1Space(group, q, tuple(basis), factors, _gen_value_rows(group, basis))


# --------------------------------------------------------------------------
# restriction / inflation


def restriction1(chi: Cochain1, sub: Subgroup) -> Cochain1:
    if sub.parent is not chi.group:
        raise ValueError("subgroup belongs to a different group")
    return Cochain1(subgroup_as_group(sub), chi.modulus, chi.values[list(sub.members)])


def restriction2(c: Cochain2, sub: Subgroup) -> Cochain2:
    if sub.parent is not c.group:
        raise ValueError("subgroup belongs to a different group")
    mem = list(sub.members)
    return Cochain2(subgroup_as_group(sub), c.modulus, c.values[np.ix_(mem, mem)])


def inflation1(chi: Cochain1, data: QuotientData) -> Cochain1:
    if not _same_group(chi.group, data.quotient):
        raise ValueError("cochain does not live on the quotient")
    proj = data.projection.images
    return Cochain1(data.projection.source, chi.modulus, chi.values[proj])


def inflation2(c: Cochain2, data: QuotientData) -> Cochain2:
    if not _same_group(c.group, data.quotient):
        raise ValueError("cochain does not live on the quotient")
    proj = data.projection.images
    return Cochain2(data.projection.source, c.modulus, c.values[np.ix_(proj, proj)])


# --------------------------------------------------------------------------
# invariant homs on a normal subgroup, and transgression


@dataclass(frozen=True, eq=False)
class InvariantH1(_HomBasis):
    """Basis of the G-invariant homomorphisms T → Z/q.

    ``group`` is the subgroup as a standalone group; index i of it is
    ``sub.members[i]`` inside the parent.
    """

    sub: Subgroup
    _position: np.ndarray

    def position(self, parent_element: int) -> int:
        pos = int(self._position[parent_element])
        if pos < 0:
            raise ValueError("element is not in the subgroup")
        return pos

    def value(self, psi: Cochain1, parent_element: int) -> int:
        return int(psi.values[self.position(parent_element)])


def _conjugation_permutations(group: FiniteGroup, sub: Subgroup) -> list[np.ndarray]:
    """For each parent generator g, the permutation t ↦ position(g⁻¹tg) of sub."""
    mem = np.array(sub.members, dtype=np.int64)
    pos = np.full(group.order, -1, dtype=np.int64)
    pos[mem] = np.arange(mem.size)
    perms = []
    for g in group.generators:
        conj = group.table[group.table[group.inverses[g], mem], g]
        if (pos[conj] < 0).any():
            raise ValueError("subgroup is not normal")
        perms.append(pos[conj])
    return perms


def invariants_h1(group: FiniteGroup, sub: Subgroup, q: int) -> InvariantH1:
    """G-invariant homomorphisms ψ: T → Z/q, i.e. ψ(g⁻¹tg) = ψ(t).

    Computed once per (T, q) and kept on the group.
    """
    return _memoized(group, ("invariants_h1", sub.members, q), lambda: _invariants_h1(group, sub, q))


def _invariants_h1(group: FiniteGroup, sub: Subgroup, q: int) -> InvariantH1:
    if not sub.is_normal():
        raise ValueError("invariants need a normal subgroup")
    tgrp = subgroup_as_group(sub)
    full = h1(tgrp, q)
    mem = np.array(sub.members, dtype=np.int64)
    pos = np.full(group.order, -1, dtype=np.int64)
    pos[mem] = np.arange(mem.size)
    perms = _conjugation_permutations(group, sub)
    m = len(full.basis)
    if m == 0:
        return InvariantH1(tgrp, q, (), (), _gen_value_rows(tgrp, ()), sub, pos)
    vals = np.array([chi.values for chi in full.basis], dtype=np.int64)
    rows = []
    for perm in perms:
        rows.append((vals[:, perm] - vals).T % q)
    constraint = np.concatenate(rows, axis=0)
    ker = kernel(ZqMatrix(constraint, q)).entries
    inv_rows = (ker @ vals) % q
    basis_rows, factors = _canonical_span_basis(inv_rows, q)
    basis = []
    for row in basis_rows:
        psi = Cochain1(tgrp, q, row)
        if not psi.is_cocycle():
            raise AssertionError("invariant basis element is not a homomorphism")
        if not all(np.array_equal(psi.values[perm], psi.values) for perm in perms):
            raise AssertionError("invariance violated")
        basis.append(psi)
    return InvariantH1(tgrp, q, tuple(basis), factors, _gen_value_rows(tgrp, basis), sub, pos)


def transgression(
    group: FiniteGroup,
    sub: Subgroup,
    psi: Cochain1,
    q: int,
    data: QuotientData,
    section: Optional[Sequence[int]] = None,
    require_level2: bool = True,
) -> Cochain2:
    """The factor-set image of an invariant hom ψ on T ≤ G^(2) normal.

    With a set section s of G → G/T fixed by s(1̄) = 1, the output is
    c(x̄, ȳ) = ψ(s(x̄)·s(ȳ)·s(x̄ȳ)⁻¹) on the quotient.  The sign convention
    (no global minus) is pinned by the dual-basis requirements downstream.
    """
    if require_level2:
        series = q_central_series(group, q)
        level2 = set(series.term(2).members)
        if not set(sub.members) <= level2:
            raise ValueError("transgression needs T inside the level-2 term")
    if psi.modulus != q:
        raise ValueError("modulus mismatch")
    if psi.group.order != len(sub.members):
        raise ValueError("hom does not live on the subgroup")
    _require_cocycle1(psi)
    for perm in _conjugation_permutations(group, sub):
        if not np.array_equal(psi.values[perm], psi.values):
            raise ValueError("hom is not conjugation-invariant")
    mem = np.array(sub.members, dtype=np.int64)
    pos = np.full(group.order, -1, dtype=np.int64)
    pos[mem] = np.arange(mem.size)
    if section is None:
        sec = data.coset_reps.copy()
    else:
        sec = np.asarray(section, dtype=np.int64).copy()
        if sec.shape != (data.quotient.order,):
            raise ValueError("section must pick one representative per coset")
        if (data.projection.images[sec] != np.arange(data.quotient.order)).any():
            raise ValueError("section does not split the projection")
    sec[data.projection(group.identity)] = group.identity
    prod = group.table[np.ix_(sec, sec)]
    back = group.inverses[sec[data.quotient.table]]
    factor = group.table[prod, back]
    if (pos[factor] < 0).any():
        raise AssertionError("factor set escaped the subgroup")
    out = Cochain2(data.quotient, q, psi.values[pos[factor]])
    if not out.is_cocycle():
        raise ValueError("factor set is not a cocycle (hom not invariant enough)")
    return out


# --------------------------------------------------------------------------
# H² = Z_t/B_t from consistent pc tails


def _tail_index(big_n: int) -> np.ndarray:
    """index[i, j] for i ≤ j: the position of relation (i, j) among the N(N+1)/2 tails."""
    index = np.full((big_n, big_n), -1, dtype=np.int64)
    upper = np.triu_indices(big_n)
    index[upper] = np.arange(upper[0].size)
    return index


def _letters(word: np.ndarray) -> list[int]:
    """The normal word with exponent vector ``word``, one pc generator index per letter."""
    return [m for m in range(word.size) for _ in range(int(word[m]))]


def _relators(pc: PcPresentation) -> list[tuple[list[int], list[int]]]:
    """The letters (lhs, rhs) of each pc relation lhs = rhs·z^t, in tail order.

    Relation (i, i) is ĝ_i^{r_i} = ŵ_ii·z^{t_ii}; relation (i, j), j > i, is
    ĝ_jĝ_i = ĝ_iŵ_ij·z^{t_ij}.
    """
    out = []
    for i in range(pc.length):
        out.append(([i] * pc.rel_orders[i], _letters(pc.power_words[i])))
        out += [([j, i], [i] + _letters(pc.conj_words[i, j])) for j in range(i + 1, pc.length)]
    return out


def _path_forms(pc: PcPresentation, forms: np.ndarray, letters: Sequence[int], start: np.ndarray) -> np.ndarray:
    """P(w; y) for each y in ``start``: the sum of v(·, m) along the letters m of w from y."""
    t = pc.group.table
    acc = np.zeros((start.size, forms.shape[2]), dtype=np.int64)
    cur = start
    for m in letters:
        acc += forms[m, cur]
        cur = t[cur, pc.gens[m]]
    return acc


def _tail_forms(pc: PcPresentation, q: int) -> np.ndarray:
    """forms[i, x]: v(x, i) = c(x, g_i) as a linear form in the N(N+1)/2 tails.

    c is the cocycle of the normal-word section σ of the central extension
    with lifts ĝ_i and relations ĝ_i^{r_i} = ŵ_ii·z^{t_ii}, ĝ_i⁻¹ĝ_jĝ_i = ŵ_ij·z^{t_ij}.
    Where σ(x)·ĝ_i is again a normal word, v(x, i) = 0.  Where x ends in
    g_i^{r_i−1}, the power relation closes the word.  Where x ends in g_k
    with k > i, ĝ_kĝ_i = ĝ_iŵ_ik·z^{t_ik} moves ĝ_i left.  Only v(·, m) for
    m > i enter the path sums, so i runs from N down to 1.
    """
    group = pc.group
    t = group.table
    n, big_n = group.order, pc.length
    tails = _tail_index(big_n)
    forms = np.zeros((big_n, n, big_n * (big_n + 1) // 2), dtype=np.int64)
    exps = pc.exponents
    # last(x): the index of x's last nonzero exponent, −1 at the identity
    last = np.where(exps != 0, np.arange(big_n), -1).max(axis=1, initial=-1)
    for i in reversed(range(big_n)):
        g, r = pc.gens[i], pc.rel_orders[i]
        v = forms[i]
        # x = y·g_i^{r_i−1}: σ(x)·ĝ_i = σ(y)·ŵ_ii·z^{t_ii}
        top = np.flatnonzero((last == i) & (exps[:, i] == r - 1))
        v[top] = _path_forms(pc, forms, _letters(pc.power_words[i]), t[top, group.power(g, 1 - r)])
        v[top, tails[i, i]] += 1
        # x = x'·g_k, k = last(x) > i: σ(x)·ĝ_i = σ(x')·ĝ_i·ŵ_ik·z^{t_ik}
        for k in range(i + 1, big_n):
            word = _letters(pc.conj_words[i, k])
            prev = np.flatnonzero(last < k)
            for _ in range(pc.rel_orders[k] - 1):
                cur = t[prev, pc.gens[k]]
                v[cur] = v[prev] + _path_forms(pc, forms, word, t[prev, g])
                v[cur, tails[i, k]] += 1
                prev = cur
        v %= q
    return forms


def _consistent_tails(pc: PcPresentation, forms: np.ndarray, q: int) -> np.ndarray:
    """Rows generating Z_t, the tails whose extension is consistent.

    The tails are consistent exactly when every relator's path sum from every
    element x equals its tail: then the lifts act on Z/q × G, and the group
    they generate has order q·|G|.  That is n·N(N+1)/2 rows on N(N+1)/2 columns.
    """
    xs = np.arange(pc.group.order)
    blocks = []
    for k, (lhs, rhs) in enumerate(_relators(pc)):
        rows = _path_forms(pc, forms, lhs, xs) - _path_forms(pc, forms, rhs, xs)
        rows[:, k] -= 1
        blocks.append(rows % q)
    m = forms.shape[2]
    rows = np.concatenate(blocks) if blocks else np.zeros((0, m), dtype=np.int64)
    rows = rows[rows.any(axis=1)]
    return kernel(ZqMatrix(rows, q)).entries if rows.size else np.eye(m, dtype=np.int64)


def _lift_change_tails(pc: PcPresentation, q: int) -> np.ndarray:
    """Rows generating B_t: the tail changes from replacing each lift ĝ_m by ĝ_m·z.

    With ĝ_i ↦ ĝ_i·z^{a_i}, Δt_ii = r_i·a_i − a·exps(w_ii) and
    Δt_ij = a_j − a·exps(w_ij).
    """
    big_n = pc.length
    tails = _tail_index(big_n)
    rows = np.zeros((big_n, big_n * (big_n + 1) // 2), dtype=np.int64)
    for i in range(big_n):
        rows[i, tails[i, i]] += pc.rel_orders[i]
        rows[:, tails[i, i]] -= pc.power_words[i]
        for j in range(i + 1, big_n):
            rows[j, tails[i, j]] += 1
            rows[:, tails[i, j]] -= pc.conj_words[i, j]
    return rows % q


def _tail_reader(group: FiniteGroup) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (xs, ys, coef) with tails(c) = c.values[xs, ys] @ coef; kept on the group.

    For a cocycle c, the lifts (0, g_i) in the extension Z/q ×_c G satisfy
    each pc relation lhs = rhs up to z^{P_c(lhs; 1) − P_c(rhs; 1)}, where
    P_c(w; 1) sums c(·, g_m) along the letters m of w from 1: the path sums
    of :func:`_consistent_tails` at x = 1.  These tails are consistent, and
    their cocycle differs from c by the coboundary of the change of section,
    so tails(c) modulo B_t names the class of c.  Pairs (1, g) read 0 on a
    normalized cochain and are left out.
    """

    def build() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        pc = pc_presentation(group)
        relators = _relators(pc)
        reads = []  # (x, g_m, tail, sign), one per letter read off a relation side
        for k, (lhs, rhs) in enumerate(relators):
            for letters, sign in ((lhs, 1), (rhs, -1)):
                cur = group.identity
                for m in letters:
                    if cur != group.identity:
                        reads.append((cur, pc.gens[m], k, sign))
                    cur = int(group.table[cur, pc.gens[m]])
        arr = np.array(reads, dtype=np.int64).reshape(-1, 4)
        coef = np.zeros((len(arr), len(relators)), dtype=np.int64)
        coef[np.arange(len(arr)), arr[:, 2]] = arr[:, 3]
        out = (arr[:, 0].copy(), arr[:, 1].copy(), coef)
        for a in out:
            a.flags.writeable = False
        return out

    return _memoized(group, ("tail_reader",), build)


def _expand_v(group: FiniteGroup, q: int, vrows: np.ndarray) -> np.ndarray:
    """Value tables (b, n, n) of the 2-cochains with the given v-vectors.

    Columns of the solver generators are the v-vector; every other column
    follows the solver tree by c(x, y·s) = c(x, y) + c(x·y, s) − c(y, s).
    """
    gens = _solver_gens(group)
    n, d = group.order, len(gens)
    v = np.asarray(vrows, dtype=np.int64).reshape(len(vrows), n, d)
    out = np.zeros((v.shape[0], n, n), dtype=np.int64)
    t = group.table
    for w, y, k in _solver_tree(group).T.tolist():
        if y == group.identity:
            out[:, :, w] = v[:, :, k]
        else:
            out[:, :, w] = (out[:, :, y] + v[:, t[:, y], k] - v[:, y, k][:, None]) % q
    return out


@dataclass(frozen=True, eq=False)
class H2Space:
    """H²(G, Z/q) = Z_t/B_t with cocycle-representative basis and coordinates.

    A cocycle's class is its tail vector (:func:`_tail_reader`) modulo B_t,
    the lift-change tails, so ``express`` and ``relations`` answer every
    class solve N(N+1)/2 columns wide.  ``_basis_t`` holds the basis classes'
    tail vectors and ``_b_tails`` the Howell form of B_t.
    """

    group: FiniteGroup
    modulus: int
    basis: tuple[Cochain2, ...]
    invariant_factors: tuple[int, ...]
    _basis_t: np.ndarray
    _b_tails: HowellForm

    @property
    def order(self) -> int:
        n = 1
        for f in self.invariant_factors:
            n *= f
        return n

    def _tails(self, classes: Sequence[Cochain2]) -> np.ndarray:
        """The tail vectors of ``classes``, one row each; each must be a cocycle on the group."""
        for c in classes:
            if not _same_group(c.group, self.group) or c.modulus != self.modulus:
                raise ValueError("cochain belongs to a different carrier")
            _require_cocycle2(c)
        xs, ys, coef = _tail_reader(self.group)
        vals = np.array([c.values[xs, ys] for c in classes], dtype=np.int64).reshape(len(classes), xs.size)
        return (vals @ coef) % self.modulus

    def coordinates_of(self, c: Cochain2) -> tuple[int, ...]:
        """Class coordinates in the basis (reduced mod the cyclic orders)."""
        sol = self.express(self.basis, c)
        if sol is None:
            raise AssertionError("cocycle not in the computed span (solver bug)")
        return tuple(int(x) % f for x, f in zip(sol, self.invariant_factors))

    def express(self, classes: Sequence[Cochain2], c: Cochain2) -> Optional[np.ndarray]:
        """Coefficients y with Σ yᵢ·classesᵢ ≡ c modulo B², or None."""
        stacked = np.concatenate([self._tails(classes), self._b_tails.matrix.entries], axis=0)
        sol = solve(ZqMatrix(stacked.T, self.modulus), self._tails([c])[0])
        return None if sol is None else sol[: len(classes)]

    def relations(self, classes: Sequence[Cochain2]) -> np.ndarray:
        """Rows y generating the combinations with Σ yᵢ·classesᵢ in B²."""
        return _relations(self, classes, self._b_tails.matrix.entries)

    def representative(self, coords: Sequence[int]) -> Cochain2:
        acc = np.zeros((self.group.order, self.group.order), dtype=np.int64)
        for x, c in zip(coords, self.basis):
            acc += int(x) * c.values
        return Cochain2(self.group, self.modulus, acc)

    def same_class(self, a: Cochain2, b: Cochain2) -> bool:
        return self.coordinates_of(a) == self.coordinates_of(b)

    def is_zero_class(self, c: Cochain2) -> bool:
        return not any(self.coordinates_of(c))

    def enumerate_coordinates(self) -> Iterable[tuple[int, ...]]:
        yield from itertools.product(*(range(f) for f in self.invariant_factors))


def h2(group: FiniteGroup, q: int, cap: int = H2_CAP) -> H2Space:
    """Full H²(G, Z/q) of a solvable group.  Guarded by ``cap``.

    H² = Z_t/B_t, the consistent tails of :func:`qcoh.groups.pc_presentation`
    modulo the lift-change tails, presented by the Smith form of B_t on the
    Howell rows of Z_t.  Computed once per q and kept on the group; ``cap``
    is checked on every call.
    """
    if group.order > cap:
        raise ValueError(f"group order {group.order} exceeds the H² solver cap {cap}")
    return _memoized(group, ("h2", q), lambda: _h2(group, q))


def _h2(group: FiniteGroup, q: int) -> H2Space:
    n = group.order
    pc = pc_presentation(group)
    forms = _tail_forms(pc, q)
    z_h = howell_form(ZqMatrix(_consistent_tails(pc, forms, q), q))
    b_h = howell_form(ZqMatrix(_lift_change_tails(pc, q), q))
    zrows, brows = z_h.matrix.entries, b_h.matrix.entries
    if coset_reduce(z_h, brows).any():
        raise AssertionError("a lift change gave inconsistent tails")
    # the reader kills B²: tails(∂δ_g) lies in B_t for every g ≠ 1
    xs, ys, coef = _tail_reader(group)
    others = np.flatnonzero(np.arange(n) != group.identity)
    hits = (xs[:, None] == others).astype(np.int64) + (ys[:, None] == others) - (group.table[xs, ys][:, None] == others)
    if coset_reduce(b_h, (hits.T @ coef) % q).any():
        raise AssertionError("the tail reader does not kill a coboundary")
    # each Z_t generator's values c(x, s) = P(word(s); x) on the solver generators
    gens = _solver_gens(group)
    gen_forms = np.zeros((n, len(gens), forms.shape[2]), dtype=np.int64)
    for k, s in enumerate(gens):
        gen_forms[:, k] = _path_forms(pc, forms, _letters(pc.exponents[s]), np.arange(n))
    to_v = gen_forms.reshape(n * len(gens), forms.shape[2]).T
    for vals in _expand_v(group, q, (zrows @ to_v) % q):
        if not Cochain2(group, q, vals).is_cocycle():
            raise AssertionError("a consistent tail vector gave a non-cocycle")
    # relations of the quotient Z_t/B_t in terms of the Howell rows of Z_t
    left = kernel(ZqMatrix(np.concatenate([zrows, brows], axis=0).T, q)).entries
    pres = AbGroupPresentation.from_relations(zrows.shape[0], q, left[:, : zrows.shape[0]])
    basis_t = (pres.basis_images.entries @ zrows) % q
    basis_t.flags.writeable = False
    basis = tuple(Cochain2(group, q, v) for v in _expand_v(group, q, (basis_t @ to_v) % q))
    for c in basis:
        if not c.is_cocycle():
            raise AssertionError("an H² basis representative is not a cocycle")
    space = H2Space(group, q, basis, pres.invariant_factors, basis_t, b_h)
    # read-back: the reader returns each basis class's own tail vector
    if not np.array_equal(space._tails(basis), basis_t):
        raise AssertionError("tails read back from an H² basis representative differ from its tail vector")
    p, _ = factor_prime_power(q)
    for c, f in zip(basis, pres.invariant_factors):
        if is_coboundary(c.scale(f // p)) is not None:
            raise AssertionError("an H² basis class has smaller order than claimed")
    if space.order != row_span_size(z_h) // row_span_size(b_h):
        raise AssertionError("H² presentation order disagrees with |Z_t/B_t|")
    return space


@dataclass(frozen=True, eq=False)
class H2Subspace:
    """A submodule of H², stored as the Howell form of its tail vectors with B_t folded in."""

    space: H2Space
    gens: tuple[Cochain2, ...]
    _span: HowellForm

    @property
    def order(self) -> int:
        return row_span_size(self._span) // row_span_size(self.space._b_tails)

    def contains(self, c: Cochain2) -> bool:
        return row_span_contains(self._span, self.space._tails([c])[0])

    def relations(self, classes: Sequence[Cochain2]) -> np.ndarray:
        """Rows y generating the combinations with Σ yᵢ·classesᵢ in this subspace."""
        return _relations(self.space, classes, self._span.matrix.entries)

    def within(self, other: "H2Subspace") -> bool:
        """This span lies inside ``other``'s."""
        return not coset_reduce(other._span, self._span.matrix.entries).any()

    def same_span(self, other: "H2Subspace") -> bool:
        """Equal spans: Howell forms are canonical, so the forms are identical."""
        a, b = self._span.matrix.entries, other._span.matrix.entries
        return a.shape == b.shape and bool(np.array_equal(a, b))

    def coordinate_members(self) -> frozenset[tuple[int, ...]]:
        """All class coordinates lying in this subspace: each coordinate row's tails, reduced by the span."""
        coords = np.array(list(self.space.enumerate_coordinates()), dtype=np.int64)
        outside = coset_reduce(self._span, coords @ self.space._basis_t).any(axis=1)
        return frozenset(map(tuple, coords[~outside].tolist()))


def _relations(space: H2Space, classes: Sequence[Cochain2], rows: np.ndarray) -> np.ndarray:
    """Rows y generating the combinations with Σ yᵢ·classesᵢ in the span of the tail rows ``rows``."""
    stacked = np.concatenate([space._tails(classes), rows], axis=0)
    return kernel(ZqMatrix(stacked.T, space.modulus)).entries[:, : len(classes)]


def span_of_classes(space: H2Space, cochains: Sequence[Cochain2]) -> H2Subspace:
    stacked = np.concatenate([space._tails(cochains), space._b_tails.matrix.entries], axis=0)
    return H2Subspace(space, tuple(cochains), howell_form(ZqMatrix(stacked, space.modulus)))


def h2_dec(space: H2Space) -> H2Subspace:
    """Span of all cup products of degree-1 classes."""
    basis = h1(space.group, space.modulus).basis
    return span_of_classes(space, [cup11(a, b) for a in basis for b in basis])


def img_bockstein(space: H2Space) -> H2Subspace:
    basis = h1(space.group, space.modulus).basis
    return span_of_classes(space, [bockstein(chi) for chi in basis])


# --------------------------------------------------------------------------
# symbolic H² of elementary free modules (Z/q)^d


@dataclass(frozen=True, eq=False)
class SymbolicElementaryH2:
    """H²((Z/q)^d) as a free Z/q-module on β(χ_i) and χ_i∪χ_j (i < j).

    Coordinates: slots 0..d-1 are the Bockstein basis classes, the rest are
    the cup classes in lexicographic pair order.
    """

    d: int
    q: int

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.d) for j in range(i + 1, self.d)]

    @property
    def rank(self) -> int:
        return self.d + len(self.pairs)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(f"b{i + 1}" for i in range(self.d)) + tuple(
            f"x{i + 1}^x{j + 1}" for i, j in self.pairs
        )

    def cup_coords(self, a: Sequence[int], b: Sequence[int]) -> np.ndarray:
        """Class of (Σa_iχ_i) ∪ (Σb_iχ_i)."""
        p, _ = factor_prime_power(self.q)
        delta = 2 if p == 2 else 1
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = np.zeros(self.rank, dtype=np.int64)
        out[: self.d] = (self.q // delta) * a * b
        for t, (i, j) in enumerate(self.pairs):
            out[self.d + t] = a[i] * b[j] - a[j] * b[i]
        return out % self.q

    def dec_rows(self) -> np.ndarray:
        """Spanning rows of the decomposable part in symbolic coordinates."""
        rows = [self.cup_coords(np.eye(self.d, dtype=np.int64)[i], np.eye(self.d, dtype=np.int64)[j])
                for i in range(self.d) for j in range(self.d)]
        return np.array(rows, dtype=np.int64) % self.q

    def dec_order(self) -> int:
        return row_span_size(howell_form(ZqMatrix(self.dec_rows(), self.q)))


def symbolic_h2_elementary(d: int, q: int) -> SymbolicElementaryH2:
    factor_prime_power(q)
    if d < 1:
        raise ValueError("need at least one generator")
    return SymbolicElementaryH2(d, q)


# --------------------------------------------------------------------------
# central extensions


@dataclass(frozen=True, eq=False)
class CentralExtensionSpec:
    """A central extension 0 → Z/q → E → Q → 1 built from a factor set."""

    base: FiniteGroup
    modulus: int
    cocycle: Cochain2
    total: FiniteGroup
    embed: np.ndarray
    projection: GroupHom
    section: np.ndarray


def extension_from_class(base: FiniteGroup, c: Cochain2) -> CentralExtensionSpec:
    """The group on Z/q × Q with (a,x)(b,y) = (a+b+c(x,y), xy)."""
    if not _same_group(c.group, base):
        raise ValueError("cocycle does not live on the base group")
    _require_cocycle2(c)
    q = c.modulus
    m = base.order
    n = q * m
    idx = np.arange(n, dtype=np.int64)
    a_part, x_part = idx // m, idx % m
    av = a_part[:, None] + a_part[None, :] + c.values[np.ix_(x_part, x_part)]
    table = (av % q) * m + base.table[np.ix_(x_part, x_part)].astype(np.int64)
    gens = [int(x) for x in base.generators] + [m * 1 + base.identity if q > 1 else base.identity]
    gen_names = [base.labels[g] for g in base.generators] + ["z"]
    total = FiniteGroup.from_table(
        table, generators=gens, gen_names=gen_names, name=f"ext({base.name})"
    )
    embed = (np.arange(q, dtype=np.int64) * m) + base.identity
    proj = GroupHom(total, base, x_part.copy())
    section = np.arange(m, dtype=np.int64)
    # the fiber must be central
    fiber = embed[1] if q > 1 else embed[0]
    if not np.array_equal(table[fiber, :], table[:, fiber]):
        raise AssertionError("fiber is not central")
    if set(proj.kernel().members) != {int(e) for e in embed}:
        raise AssertionError("projection kernel is not the fiber")
    return CentralExtensionSpec(base, q, c, total, embed, proj, section)


def class_from_extension(
    total: FiniteGroup,
    embed: Sequence[int],
    projection: GroupHom,
    q: int,
    section: Optional[Sequence[int]] = None,
) -> Cochain2:
    """Factor-set cocycle of a central extension with the given (or minimal) section."""
    emb = np.asarray(embed, dtype=np.int64)
    if emb.shape != (q,):
        raise ValueError("embedding must list the images of 0..q-1")
    if projection.source is not total:
        raise ValueError("projection must start at the total group")
    base = projection.target
    if not projection.is_surjective():
        raise ValueError("projection must be onto")
    if set(projection.kernel().members) != {int(e) for e in emb}:
        raise ValueError("kernel of the projection must be the embedded Z/q")
    for a in range(q):
        for b in range(q):
            if total.mul(int(emb[a]), int(emb[b])) != int(emb[(a + b) % q]):
                raise ValueError("embedding is not a homomorphism from Z/q")
    ge = int(emb[1 % q])
    if not np.array_equal(total.table[ge, :], total.table[:, ge]):
        raise ValueError("embedded subgroup is not central")
    if section is None:
        sec = np.full(base.order, -1, dtype=np.int64)
        for x in range(total.order - 1, -1, -1):
            sec[projection(x)] = x
    else:
        sec = np.asarray(section, dtype=np.int64).copy()
        if (projection.images[sec] != np.arange(base.order)).any():
            raise ValueError("section does not split the projection")
    sec[projection(total.identity)] = total.identity
    back = np.full(total.order, -1, dtype=np.int64)
    back[emb] = np.arange(q)
    prod = total.table[np.ix_(sec, sec)]
    factor = total.table[prod, total.inverses[sec[base.table]]]
    vals = back[factor]
    if (vals < 0).any():
        raise ValueError("factor set escaped the embedded kernel")
    out = Cochain2(base, q, vals)
    _require_cocycle2(out)
    return out


# --------------------------------------------------------------------------
# tensor-power quotients (quadratic hull and friends)


def tensor_kill_rows(
    factors: Sequence[int],
    q: int,
    degrees: Sequence[int],
    t: int,
    alpha_kills: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, ...]:
    """Rows spanning the pure tensors with an α-killed t-subsequence, one
    array for each degree r in ``degrees``.

    The ambient module is the r-th tensor power of ⊕ Z/f_k; a pure tensor
    v₁⊗···⊗v_r contributes iff α(v_{j₁},…,v_{j_t}) = 0 for some
    j₁ < ··· < j_t.  ``alpha_kills`` maps an (N, t, m) array of coordinate
    vectors to N booleans; it is called at most once, on all t-tuples, and
    its answer serves every degree.  Degree cap r ≤ 3.

    Each array holds every killed pure tensor mod q, in the order of its
    r-tuple, so rows may repeat.  A span test needs no more; a caller that
    needs a fixed relation matrix deduplicates the rows itself.
    """
    m = len(factors)
    if not all(1 <= r <= 3 for r in degrees):
        raise ValueError("tensor degrees must lie between 1 and 3")
    elems = np.array(list(itertools.product(*(range(f) for f in factors))), dtype=np.int64)
    ne = elems.shape[0]
    killed: Optional[np.ndarray] = None
    out = []
    for r in degrees:
        if killed is None and r >= t:
            tuples = np.indices((ne,) * t).reshape(t, -1).T
            killed = np.asarray(alpha_kills(elems[tuples]), dtype=bool).reshape((ne,) * t)
        hit = np.zeros((ne,) * r, dtype=bool)
        for sub in itertools.combinations(range(r), t):
            hit |= killed.reshape([ne if j in sub else 1 for j in range(r)])
        tups = np.argwhere(hit)
        vecs = elems[tups[:, 0]]
        for j in range(1, r):
            vecs = (vecs[:, :, None] * elems[tups[:, j]][:, None, :]).reshape(len(tups), m ** (j + 1))
        out.append(vecs % q)
    return tuple(out)


def _tensor_relation_rows(factors: Sequence[int], q: int, r: int) -> np.ndarray:
    """Relations of (⊕Z/f_k)^{⊗r}: e_{k₁}⊗···⊗e_{k_r} has order min f_{k_i}."""
    m = len(factors)
    rows = []
    for flat, tup in enumerate(itertools.product(range(m), repeat=r)):
        f = min(factors[k] for k in tup)
        if f < q:
            row = np.zeros(m**r, dtype=np.int64)
            row[flat] = f
            rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(len(rows), m**r)


def tensor_quotient(factors: Sequence[int], q: int, r: int, kill_rows: np.ndarray) -> AbGroupPresentation:
    """Presentation of (⊕Z/f_k)^{⊗r} / span(kill_rows)."""
    ngens = len(factors) ** r
    kill = np.asarray(kill_rows, dtype=np.int64)
    # reshape(-1, 0) cannot infer a row count, so zero-width rows keep theirs
    rel_rows = np.concatenate(
        [kill.reshape(len(kill) if ngens == 0 else -1, ngens), _tensor_relation_rows(factors, q, r)]
    )
    return AbGroupPresentation.from_relations(ngens, q, rel_rows)


@dataclass(frozen=True, eq=False)
class HatRing:
    """Tensor algebra of H¹ modulo vanishing-cup pure tensors, by degree."""

    group: FiniteGroup
    modulus: int
    degrees: dict[int, AbGroupPresentation]
    dec_order: int

    @property
    def quadratic2(self) -> bool:
        """Degree-2 faithfulness: the cup epimorphism is injective there."""
        return self.degrees[2].order == self.dec_order


def hat_ring(group: FiniteGroup, q: int, max_degree: int = 2, cap: int = H2_CAP) -> HatRing:
    if max_degree > 3:
        raise ValueError("tensor degree capped at 3")
    if max_degree < 2:
        raise ValueError("need at least degree 2 for the quadraticity verdict")
    h1s = h1(group, q)
    sp = h2(group, q, cap=cap)
    m = len(h1s.basis)
    nfac = len(sp.invariant_factors)
    cup_tbl = np.zeros((m, m, nfac), dtype=np.int64)
    for i, a in enumerate(h1s.basis):
        for j, b in enumerate(h1s.basis):
            cup_tbl[i, j] = sp.coordinates_of(cup11(a, b))
    h2f = np.array(sp.invariant_factors, dtype=np.int64)

    def cup_is_zero(pairs: np.ndarray) -> np.ndarray:
        return ~(np.einsum("ni,nj,ijk->nk", pairs[:, 0], pairs[:, 1], cup_tbl) % h2f).any(axis=1)

    rs = range(1, max_degree + 1)
    kills = tensor_kill_rows(h1s.invariant_factors, q, rs, 2, cup_is_zero)
    degrees = {
        r: tensor_quotient(h1s.invariant_factors, q, r, np.unique(rows, axis=0)) for r, rows in zip(rs, kills)
    }
    dec = h2_dec(sp)
    return HatRing(group, q, degrees, dec.order)


# --------------------------------------------------------------------------
# five-term exact sequence


@dataclass(frozen=True, eq=False)
class FiveTermReport:
    group: FiniteGroup
    sub: Subgroup
    modulus: int
    nodes: tuple[tuple[str, bool, str], ...]

    @property
    def exact(self) -> bool:
        return all(ok for _, ok, _ in self.nodes)


def _span_equal(rows_a: np.ndarray, rows_b: np.ndarray, q: int, width: int) -> bool:
    if width == 0:
        return True
    a = np.asarray(rows_a, dtype=np.int64).reshape(-1, width)
    b = np.asarray(rows_b, dtype=np.int64).reshape(-1, width)
    ha = howell_form(ZqMatrix(a, q)).matrix.entries
    hb = howell_form(ZqMatrix(b, q)).matrix.entries
    return ha.shape == hb.shape and bool(np.array_equal(ha, hb))


def five_term_check(
    group: FiniteGroup, sub: Subgroup, q: int, require_level2: bool = True
) -> FiveTermReport:
    """Exactness of 0 → H¹(G/T) → H¹(G) → H¹(T)^G → H²(G/T) → H²(G).

    The last node tests ker(H²(G/T) → H²(G)) = img(trg) by running coboundary
    tests upstairs, so it works even when |G| exceeds the H² cap.
    """
    if require_level2:
        series = q_central_series(group, q)
        if not set(sub.members) <= set(series.term(2).members):
            raise ValueError("five-term check needs T inside the level-2 term")
    data = quotient(group, sub)
    quot = data.quotient
    h2_quot = h2(quot, q)
    h1_quot = h1(quot, q)
    h1_big = h1(group, q)
    inv = invariants_h1(group, sub, q)
    nodes = []

    # node 1: inflation H¹(G/T) → H¹(G) is injective
    gens_big = _solver_gens(group)
    infl_rows = np.array(
        [inflation1(chi, data).values[list(gens_big)] for chi in h1_quot.basis],
        dtype=np.int64,
    ).reshape(len(h1_quot.basis), len(gens_big))
    ok1 = row_span_size(howell_form(ZqMatrix(infl_rows, q))) == h1_quot.order
    nodes.append(("inflation-injective", ok1, f"|H1(Q)| = {h1_quot.order}"))

    # node 2: ker(res: H¹(G) → H¹(T)) = img(inf)
    tgens = _solver_gens(inv.group)
    tmem = [inv.sub.members[g] for g in tgens]  # positions back to parent elements
    res_mat = np.array(
        [[chi.values[pe] for pe in tmem] for chi in h1_big.basis], dtype=np.int64
    ).reshape(len(h1_big.basis), len(tgens))
    kerc = kernel(ZqMatrix(res_mat.T, q)).entries if h1_big.basis else np.zeros((0, 0), dtype=np.int64)
    big_vals = np.array(
        [chi.values[list(gens_big)] for chi in h1_big.basis], dtype=np.int64
    ).reshape(len(h1_big.basis), len(gens_big))
    ker_rows = (kerc @ big_vals) % q if kerc.size else np.zeros((0, len(gens_big)), dtype=np.int64)
    ok2 = _span_equal(ker_rows, infl_rows, q, len(gens_big))
    nodes.append(("kernel-res-equals-image-inf", ok2, f"ker rank rows {ker_rows.shape[0]}"))

    # node 3: ker(trg: H¹(T)^G → H²(G/T)) = img(res)
    trg_list = [
        transgression(group, sub, psi, q, data=data, require_level2=require_level2)
        for psi in inv.basis
    ]
    inv_vals = np.array(
        [psi.values[list(tgens)] for psi in inv.basis], dtype=np.int64
    ).reshape(len(inv.basis), len(tgens))
    ker_trg_rows = (h2_quot.relations(trg_list) @ inv_vals) % q
    ok3 = _span_equal(ker_trg_rows, res_mat, q, len(tgens))
    nodes.append(("kernel-trg-equals-image-res", ok3, f"{len(trg_list)} transgressed homs"))

    # node 4: ker(inf: H²(G/T) → H²(G)) = img(trg)
    killed = set()
    for coords in h2_quot.enumerate_coordinates():
        rep = h2_quot.representative(coords)
        if is_coboundary(inflation2(rep, data)) is not None:
            killed.add(coords)
    # class coordinates are linear, so each mix's class is mix @ (the images' coordinates)
    factors = np.array(h2_quot.invariant_factors, dtype=np.int64)
    trg_coords = np.array([h2_quot.coordinates_of(t) for t in trg_list], dtype=np.int64)
    mixes = np.array(list(itertools.product(range(q), repeat=len(trg_list))), dtype=np.int64)
    mixed = (mixes @ trg_coords.reshape(len(trg_list), factors.size)) % factors
    image = {tuple(row) for row in mixed.tolist()}
    ok4 = killed == image
    nodes.append(
        ("kernel-inf2-equals-image-trg", ok4, f"kernel size {len(killed)}, image size {len(image)}")
    )
    return FiveTermReport(group, sub, q, tuple(nodes))
