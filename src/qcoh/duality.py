"""Dualities between central subquotients and degree-two cohomology.

The objects here pair a finite p-group ``G`` (coefficients Z/q, q = p**s)
with the second term ``T`` of its descending q-central series and a chosen
normal subgroup ``T₀`` between ``T^q[T,G]`` and ``T``.  A submodule ``A`` of
H²(G/T) is *dual* to the pair when six equivalent conditions hold — kernel
matching, exactness through the coefficient module, a perfect substitution
pairing on T/T₀, an annihilator identity, and an intersection formula over
lifted homomorphisms into central extensions.  The triple kinds bundled as
:class:`DualityTriple` fix the standard choices: cup products only
(``dec-cup``), Bocksteins plus cups (``bock-cup``), and Bocksteins only
(``bock``).

The paper's structure theorem (Theorem D) compares the lower-3 subgroup
with the meet of the kernels of all epimorphisms onto Z/p and H_{p³} (Z/2,
Z/4 and D4 for p = 2).  No map is searched for: a pair (a, b) in H¹ lifts to
a central target iff a∪b is a coboundary, so one kernel over the cups of an
H¹ basis decides every pair and gives each lift's potential, and each lift
is proven a homomorphism before its kernel is used.  The relation-type test
that gates the theorem is linear algebra too: its Bockstein-by-cup twist is
one affine system, and its cup-kernel test one batched reduction.

Everything is verified exactly over Z/q linear algebra; no floating point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .cohomology import (
    Cochain1,
    Cochain2,
    H2Space,
    H2Subspace,
    CentralExtensionSpec,
    InvariantH1,
    SymbolicElementaryH2,
    bockstein,
    cup11,
    extension_from_class,
    h1,
    h2,
    h2_dec,
    invariants_h1,
    is_coboundary,
    restriction2,
    span_of_classes,
    symbolic_h2_elementary,
    tensor_kill_rows,
    transgression,
)
from .cohomology import (
    _affine_propagation,
    _canonical_span_basis,
    _pair_system,
    _solver_gens,
    _span_equal,
    _tensor_relation_rows,
)
from .errors import VerificationError
from .freemodel import FreeLevel3Model, canonical_basis, element_of, free_level3
from .groups import (
    FiniteGroup,
    GroupHom,
    QuotientData,
    Subgroup,
    commutator_subgroup,
    direct_product,
    element_orders,
    enumerate_homs,
    is_isomorphic,
    normal_subgroups_within,
    power_subgroup,
    preset,
    q_central_series,
    quotient,
    subgroup_as_group,
    subgroup_closure,
    trivial_subgroup,
    whole_group,
)
from .groups import _hom_images, _is_multiplicative, _memoized
from .zqlin import (
    AbGroupPresentation,
    PairingReport,
    ZqMatrix,
    _freeze,
    coset_reduce,
    factor_prime_power,
    howell_form,
    kernel,
    pairing_perfection,
    row_span_contains,
    row_span_size,
    solve,
)

# cap on the two searches left here: the q^|S| lift assignments of condition (f)
# (checked as is) and the power products of _power_products (at 16×)
SEARCH_CAP = 4096

TRIPLE_KINDS = ("dec-cup", "bock-cup", "bock")


# --------------------------------------------------------------------------
# subgroups of the filtration


def lower3_subgroup(group: FiniteGroup, q: int) -> Subgroup:
    """The subgroup generated by (δq)-th powers and [T, G], T the level-2 term.

    δ is 2 for p = 2 and 1 otherwise; the level-3 series term always sits
    inside this subgroup, with equality when q = 2.
    """
    return q_central_series(group, q).lower3


def power_commutator_subgroup(group: FiniteGroup, m: int) -> Subgroup:
    """The subgroup generated by all m-th powers together with [G, G]."""
    seeds = [group.power(g, m) for g in group.elements()]
    seeds.extend(commutator_subgroup(group, whole_group(group), whole_group(group)).members)
    return subgroup_closure(group, seeds)


# --------------------------------------------------------------------------
# triple kinds


@dataclass(frozen=True)
class DualityTriple:
    """One of the three standard (T, T₀, A, α) assignments.

    ``top`` is always the level-2 series term; ``floor`` and the coefficient
    submodule vary with the kind, as does the set of tensor degrees on which
    α acts nontrivially.
    """

    kind: str

    @property
    def active_degrees(self) -> tuple[int, ...]:
        return {"dec-cup": (2,), "bock-cup": (1, 2), "bock": (1,)}[self.kind]

    def top(self, group: FiniteGroup, q: int) -> Subgroup:
        return q_central_series(group, q).term(2)

    def floor(self, group: FiniteGroup, q: int) -> Subgroup:
        if self.kind == "dec-cup":
            return lower3_subgroup(group, q)
        if self.kind == "bock-cup":
            return q_central_series(group, q).term(3)
        return power_commutator_subgroup(group, q * q)

    def alpha_image(self, space: H2Space) -> H2Subspace:
        """The submodule A(Q) of H²(Q) spanned by the α-values."""
        return span_of_classes(space, list(self.alpha_generator_classes(space.group, space.modulus)))

    def alpha_generator_classes(self, group: FiniteGroup, q: int) -> tuple[Cochain2, ...]:
        """Cocycle generators of A(group) without solving H² of the group."""
        basis = h1(group, q).basis
        out: list[Cochain2] = []
        if self.kind in ("bock-cup", "bock"):
            out.extend(bockstein(chi) for chi in basis)
        if self.kind in ("dec-cup", "bock-cup"):
            out.extend(cup11(a, b) for a in basis for b in basis)
        return tuple(out)


def triple_of(kind: str) -> DualityTriple:
    if kind not in TRIPLE_KINDS:
        raise ValueError(f"unknown triple kind {kind!r}; expected one of {TRIPLE_KINDS}")
    return DualityTriple(kind)


# --------------------------------------------------------------------------
# Z/q span helpers


def _as_matrix(rows: np.ndarray, width: int, q: int) -> ZqMatrix:
    arr = np.asarray(rows, dtype=np.int64)
    # reshape(-1, 0) cannot infer a row count, so zero-width rows keep theirs
    return ZqMatrix(arr.reshape(len(arr) if width == 0 else -1, width), q)


def _span_intersection(a: np.ndarray, b: np.ndarray, width: int, q: int) -> np.ndarray:
    """Rows spanning (row span of a) ∩ (row span of b)."""
    a = np.asarray(a, dtype=np.int64).reshape(-1, width) % q
    b = np.asarray(b, dtype=np.int64).reshape(-1, width) % q
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((0, width), dtype=np.int64)
    stacked = np.concatenate([a, b], axis=0)
    combos = kernel(ZqMatrix(stacked.T, q)).entries
    inter = (combos[:, : a.shape[0]] @ a) % q
    return howell_form(_as_matrix(inter, width, q)).matrix.entries


def _twist_stack(
    source: FiniteGroup, cochains: Sequence[Cochain2], images: Optional[np.ndarray] = None
) -> np.ndarray:
    """The pullbacks of ``cochains`` sampled on the pairs (x, s∈S) of ``source``.

    ``twists[x, j, i]`` is cochains[i] at (images[x], images[gens[j]]);
    ``images`` are the values of a homomorphism from ``source`` into the
    carrier of the cochains (identity when omitted).
    """
    gens = list(_solver_gens(source))
    if not cochains:
        return np.zeros((source.order, len(gens), 0), dtype=np.int64)
    im = np.arange(source.order, dtype=np.int64) if images is None else np.asarray(images, dtype=np.int64)
    return np.stack([c.values[np.ix_(im, im[gens])] for c in cochains], axis=2)


def _twist_kernel(source: FiniteGroup, q: int, twists: np.ndarray) -> np.ndarray:
    """Coefficient rows y with Σ y_i·twists[..., i] a coboundary on ``source``.

    The unknowns are the |S| generator values U of a potential u on
    ``source`` and the k coefficients y: u is propagated along the BFS tree
    with the combination as twist, and ∂u = Σ y_i·c_i is imposed on every
    pair (x, s∈S).  That pair system is exact: the difference of two
    cocycles that vanishes on all (x, s) pairs vanishes everywhere (the
    fact ``cohomology._expand_v`` rests on), so the y-part of its kernel spans the
    kernel on classes exactly, at every order up to the order cap (there are
    only |S|+k unknowns).  Every kernel row is checked against the full pair
    system before return.  The read-only result is kept on ``source`` per
    exact twist bytes, so a system repeated across calls is solved once.
    """
    def build() -> np.ndarray:
        if twists.shape[2] == 0:
            return _freeze(np.zeros((0, 0), dtype=np.int64))
        coeff, const, gens = _affine_propagation(source, q, twists)
        system = _pair_system(source, q, coeff, const, gens, twists)
        combos = kernel(ZqMatrix(system, q)).entries
        if ((system @ combos.T) % q).any():
            raise AssertionError("combination kernel row violates the pair system")
        return _freeze(combos[:, len(gens) :] % q)

    return _memoized(source, ("twist_kernel", q, twists.shape, twists.tobytes()), build)


def _combo_kernel(
    source: FiniteGroup,
    q: int,
    cochains: Sequence[Cochain2],
    images: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Coefficient rows y with Σ y_i·(pullback of cochains[i]) a coboundary."""
    return _twist_kernel(source, q, _twist_stack(source, cochains, images))


def _inflation_iso(
    source: FiniteGroup,
    q: int,
    images: np.ndarray,
    target_gens: Sequence[Cochain2],
    own_gens: Sequence[Cochain2],
) -> tuple[bool, bool]:
    """(mono, surj) for the pullback of A(target) along ``images`` into A(source).

    ``target_gens`` generate A on the target and ``own_gens`` on ``source``.
    Mono: the pulled-back combinations that vanish upstairs are those that
    already vanish downstairs.  Surj: every own class lies in the span of
    the pulled-back classes plus B², i.e. the kernel of the stacked pair
    system projects onto all of (Z/q)^{len(own_gens)} in the own columns.
    """
    k = len(target_gens)
    mono = k == 0 or _span_equal(
        _combo_kernel(source, q, target_gens, images=images),
        _combo_kernel(target_gens[0].group, q, target_gens),
        q,
        k,
    )
    twists = np.concatenate(
        [_twist_stack(source, target_gens, images), _twist_stack(source, own_gens)], axis=2
    )
    own = _twist_kernel(source, q, twists)[:, k:]
    surj = row_span_size(howell_form(ZqMatrix(own, q))) == q ** len(own_gens)
    return mono, surj


def _nonzero_classes(
    space: H2Space, parts: Sequence[Cochain2], combos: np.ndarray
) -> tuple[Cochain2, ...]:
    """Canonical representatives of the distinct nonzero classes Σ row·parts, in row order."""
    # class coordinates are linear: a row's are row @ (the parts' coordinates)
    factors = np.array(space.invariant_factors, dtype=np.int64)
    part_coords = np.array([space.coordinates_of(c) for c in parts], dtype=np.int64)
    coords = (combos @ part_coords.reshape(len(parts), factors.size)) % factors
    seen: set[tuple[int, ...]] = set()
    out: list[Cochain2] = []
    for row in coords.tolist():
        key = tuple(row)
        if any(key) and key not in seen:
            seen.add(key)
            out.append(space.representative(key))
    return tuple(out)


def _inflation_kernel_classes(
    space: H2Space, source: FiniteGroup, images: Optional[np.ndarray], gens: Sequence[Cochain2]
) -> tuple[Cochain2, ...]:
    """Canonical representatives of the nonzero classes of span(gens) that die on ``source``.

    ``gens`` are cocycles on ``space.group`` and ``images`` a homomorphism
    from ``source`` into it; with the projection G → G/T this is
    Ker(inf: span(gens) → H²(G)).  The kernel is solved on ``source`` itself,
    exactly, at every order up to the order cap.
    """
    return _nonzero_classes(space, gens, _combo_kernel(source, space.modulus, list(gens), images))


# --------------------------------------------------------------------------
# the level-2 quotient as a free Z/q-module


@dataclass(frozen=True, eq=False)
class Level2Frame:
    """The quotient by the level-2 term T, split as a free Z/q-module.

    ``solver`` is the transgression solver of T; ``data`` (G/T) and ``space``
    (its solved H²) are the solver's.  ``basis`` lists quotient elements
    forming an independent generating set, ``chars`` the dual coordinate
    homomorphisms, and ``coords`` the full discrete-logarithm table (row per
    quotient element); ``symbolic`` is the matching free coordinate module on
    Bockstein and cup slots, and ``symbolic_classes`` its slot classes on G/T.
    """

    group: FiniteGroup
    modulus: int
    solver: TransgressionSolver
    basis: tuple[int, ...]
    chars: tuple[Cochain1, ...]
    coords: np.ndarray
    symbolic: SymbolicElementaryH2
    symbolic_classes: tuple[Cochain2, ...]

    @property
    def data(self) -> QuotientData:
        return self.solver.data

    @property
    def space(self) -> H2Space:
        return self.solver.space

    @property
    def d(self) -> int:
        return len(self.basis)

    @property
    def quotient(self) -> FiniteGroup:
        return self.data.quotient

    def char_of(self, vec: Sequence[int]) -> Cochain1:
        vals = (self.coords @ (np.asarray(vec, dtype=np.int64) % self.modulus)) % self.modulus
        return Cochain1(self.quotient, self.modulus, vals)

    def kernel_subgroup(self, vecs: Sequence[Sequence[int]]) -> Subgroup:
        """Common kernel of the coordinate forms given by ``vecs``."""
        mask = np.ones(self.quotient.order, dtype=bool)
        for vec in vecs:
            vals = (self.coords @ (np.asarray(vec, dtype=np.int64))) % self.modulus
            mask &= vals == 0
        return Subgroup(self.quotient, tuple(int(x) for x in np.flatnonzero(mask)))

    def class_symbolic_coords(self, c: Cochain2) -> np.ndarray:
        """Coordinates of a class in the Bockstein/cup slot basis."""
        sol = self.space.express(self.symbolic_classes, c)
        if sol is None:
            raise AssertionError("class escaped the Bockstein/cup span")
        return sol


def _power_products(group: FiniteGroup, gens: Sequence[int], q: int) -> tuple[np.ndarray, np.ndarray]:
    """All products Πg_i^{e_i} with 0 ≤ e_i < q, as (exponent rows, elements)."""
    if q ** len(gens) > SEARCH_CAP * 16:
        raise ValueError("power-product enumeration too large")
    exps = np.array(list(itertools.product(range(q), repeat=len(gens))), dtype=np.int64)
    elems = np.full(exps.shape[0], group.identity, dtype=np.int64)
    for j, g in enumerate(gens):
        powers = np.array([group.power(int(g), e) for e in range(q)], dtype=np.int64)
        elems = group.table[elems, powers[exps[:, j]]].astype(np.int64)
    return exps, elems


class NotFreeLevel2(ValueError):
    """The level-2 quotient G/T is trivial or not a free Z/q-module."""


def level2_frame(group: FiniteGroup, q: int) -> Level2Frame:
    """Split G/T as (Z/q)^d and solve its cohomology and transgressions.

    Computed once per q and kept on the group.  Raises NotFreeLevel2 when
    the quotient is trivial or not a free Z/q-module (|G/T| ≠ |(G/T)[p]|^s
    for q = p^s), before H² of G/T can hit its cap; any other ValueError, such
    as that cap, is not about freeness.
    """
    return _memoized(group, ("level2_frame", q), lambda: _level2_frame(group, q))


def _level2_frame(group: FiniteGroup, q: int) -> Level2Frame:
    series = q_central_series(group, q)
    top = series.term(2)
    if top.order == group.order:
        raise NotFreeLevel2("level-2 quotient is trivial")
    # G/T = G^ab/q is free iff |G/T| = |(G/T)[p]|^s, (G/T)[p] the cosets gT with g^p in T
    pth = np.full(group.order, group.identity, dtype=np.int64)
    for _ in range(series.p):
        pth = group.table[pth, np.arange(group.order)]
    if group.order // top.order != (int(top.mask[pth].sum()) // top.order) ** series.s:
        raise NotFreeLevel2("level-2 quotient is not a free module over Z/q")
    solver = transgression_solver(group, top, q)
    Q = solver.data.quotient
    orders = element_orders(Q)
    candidates = itertools.chain(Q.generators, range(Q.order))
    basis: list[int] = []
    current = trivial_subgroup(Q)
    for x in candidates:
        if current.order == Q.order:
            break
        if int(orders[x]) != q or current.contains(int(x)):
            continue
        enlarged = subgroup_closure(Q, list(current.members) + [int(x)])
        if enlarged.order == current.order * q:
            basis.append(int(x))
            current = enlarged
    d = len(basis)
    exps, elems = _power_products(Q, basis, q)
    if np.unique(elems).size != Q.order:
        raise AssertionError("basis products do not cover the quotient freely")
    coords = np.zeros((Q.order, d), dtype=np.int64)
    coords[elems] = exps
    chars = []
    for i in range(d):
        chi = Cochain1(Q, q, coords[:, i].copy())
        if not chi.is_cocycle():
            raise AssertionError("coordinate character of the level-2 quotient is not a homomorphism")
        chars.append(chi)
    sym = symbolic_h2_elementary(d, q)
    gen_classes = [bockstein(chi) for chi in chars]
    gen_classes.extend(cup11(chars[i], chars[j]) for i, j in sym.pairs)
    return Level2Frame(
        group=group,
        modulus=q,
        solver=solver,
        basis=tuple(basis),
        chars=tuple(chars),
        coords=coords,
        symbolic=sym,
        symbolic_classes=tuple(gen_classes),
    )


# --------------------------------------------------------------------------
# transgression solver


@dataclass(frozen=True, eq=False)
class TransgressionSolver:
    """Transgression images of the invariant homomorphisms on T, inverted.

    ``images[i]`` is the factor-set class on G/T of the i-th invariant basis
    homomorphism; ``preimage`` solves membership in that span modulo
    coboundaries.  On T inside the level-2 term the map is injective (the
    restriction of degree-1 classes of G to T vanishes), so preimages are
    unique as invariant homomorphisms.
    """

    group: FiniteGroup
    top: Subgroup
    modulus: int
    data: QuotientData
    invariants: InvariantH1
    images: tuple[Cochain2, ...]
    space: H2Space

    def preimage(self, c: Cochain2) -> Optional[Cochain1]:
        sol = self.space.express(self.images, c)
        if sol is None:
            return None
        coeffs = [
            int(x) % f for x, f in zip(sol, self.invariants.invariant_factors)
        ]
        return self.invariants.element(coeffs)


def transgression_solver(group: FiniteGroup, top: Subgroup, q: int) -> TransgressionSolver:
    """Computed once per (T, q) and kept on the group."""
    return _memoized(group, ("transgression_solver", top.members, q), lambda: _transgression_solver(group, top, q))


def _transgression_solver(group: FiniteGroup, top: Subgroup, q: int) -> TransgressionSolver:
    data = quotient(group, top)
    inv = invariants_h1(group, top, q)
    space = h2(data.quotient, q)
    images = tuple(transgression(group, top, psi, q, data) for psi in inv.basis)
    return TransgressionSolver(group, top, q, data, inv, images, space)


# --------------------------------------------------------------------------
# the two pairings


def _power_commutator_floor(group: FiniteGroup, top: Subgroup, q: int) -> Subgroup:
    """T^q[T,G]: the subgroup generated by the q-th powers of T and by [T, G]."""
    return subgroup_closure(
        group,
        [group.power(t, q) for t in top.members]
        + list(commutator_subgroup(group, top, whole_group(group)).members),
    )


@dataclass(frozen=True, eq=False)
class CentralSubquotient:
    """T/T₀ as a Z/q-module with parent representatives for its generators."""

    group: FiniteGroup
    top: Subgroup
    floor: Subgroup
    modulus: int
    presentation: AbGroupPresentation
    reps: tuple[int, ...]


def central_subquotient(
    group: FiniteGroup, top: Subgroup, floor: Subgroup, q: int
) -> CentralSubquotient:
    """Present T/T₀ on quotient generators; needs T^q[T,G] ≤ T₀ ≤ T."""
    if not top.is_normal() or not floor.is_normal():
        raise ValueError("both subgroups must be normal")
    if not all(top.contains(m) for m in floor.members):
        raise ValueError("floor must sit inside the top subgroup")
    lower = _power_commutator_floor(group, top, q)
    if not all(floor.contains(m) for m in lower.members):
        raise ValueError("floor must contain T^q[T,G]")
    tgrp = subgroup_as_group(top)
    pos = {int(m): i for i, m in enumerate(top.members)}
    floor_in_top = Subgroup(tgrp, tuple(pos[int(m)] for m in floor.members))
    qd = quotient(tgrp, floor_in_top)
    Q = qd.quotient
    if Q.order == 1:
        return CentralSubquotient(group, top, floor, q, AbGroupPresentation.from_relations(0, q, []), ())
    gens = list(Q.generators)
    exps, elems = _power_products(Q, gens, q)
    rel_rows = exps[elems == Q.identity]
    pres = AbGroupPresentation.from_relations(len(gens), q, _as_matrix(rel_rows, len(gens), q))
    reps = tuple(int(top.members[int(qd.coset_reps[g])]) for g in gens)
    return CentralSubquotient(group, top, floor, q, pres, reps)


@dataclass(frozen=True, eq=False)
class RestrictionKernel:
    """Invariant homomorphisms on T that vanish on T₀, canonically based."""

    invariants: InvariantH1
    basis: tuple[Cochain1, ...]
    invariant_factors: tuple[int, ...]
    coordinate_rows: np.ndarray

    @property
    def order(self) -> int:
        n = 1
        for f in self.invariant_factors:
            n *= f
        return n


def restriction_kernel(group: FiniteGroup, top: Subgroup, floor: Subgroup, q: int) -> RestrictionKernel:
    inv = invariants_h1(group, top, q)
    k = len(inv.basis)
    if k == 0:
        return RestrictionKernel(inv, (), (), np.zeros((0, 0), dtype=np.int64))
    rows = np.array(
        [[inv.value(b, int(m)) for b in inv.basis] for m in floor.members],
        dtype=np.int64,
    )
    combos = kernel(ZqMatrix(rows, q)).entries % q
    vals = np.array([b.values for b in inv.basis], dtype=np.int64)
    value_rows = (combos @ vals) % q
    basis_rows, factors = _canonical_span_basis(value_rows, q)
    basis = tuple(Cochain1(inv.group, q, row.copy()) for row in basis_rows)
    if basis:
        coord_rows = np.array([inv.coordinates_of(b) for b in basis], dtype=np.int64)
    else:
        coord_rows = np.zeros((0, k), dtype=np.int64)
    return RestrictionKernel(inv, basis, factors, coord_rows)


@dataclass(frozen=True, eq=False)
class SubstitutionPairing:
    """(σT₀, ψ) ↦ ψ(σ) between T/T₀ and the restriction kernel."""

    module: CentralSubquotient
    kernel: RestrictionKernel
    report: PairingReport

    @property
    def perfect(self) -> bool:
        return self.report.perfect


def substitution_pairing(
    group: FiniteGroup,
    q: int,
    top: Subgroup,
    floor: Optional[Subgroup] = None,
) -> SubstitutionPairing:
    """The substitution pairing; ``floor`` defaults to T^q[T,G]."""
    if floor is None:
        floor = _power_commutator_floor(group, top, q)
    module = central_subquotient(group, top, floor, q)
    ker = restriction_kernel(group, top, floor, q)
    table = np.array(
        [[ker.invariants.value(psi, rep) for psi in ker.basis] for rep in module.reps],
        dtype=np.int64,
    ).reshape(len(module.reps), len(ker.basis))
    right = AbGroupPresentation.from_relations(len(ker.basis), q, ZqMatrix(np.diag(np.array(ker.invariant_factors, dtype=np.int64)), q))
    report = pairing_perfection(ZqMatrix(table, q), module.presentation, right)
    return SubstitutionPairing(module, ker, report)


@dataclass(frozen=True, eq=False)
class TransgressionPairing:
    """(σT₀, φ) ↦ (trg⁻¹φ)(σ) between T/T₀ and the inflation kernel of A.

    ``well_defined`` records whether every transgression preimage kills T₀;
    when it does not, the map is not a pairing on T/T₀ at all and ``perfect``
    is False regardless of the table.
    """

    module: CentralSubquotient
    classes: tuple[Cochain2, ...]
    preimages: tuple[Cochain1, ...]
    well_defined: bool
    report: PairingReport

    @property
    def perfect(self) -> bool:
        return self.well_defined and self.report.perfect


def transgression_pairing(
    group: FiniteGroup,
    q: int,
    top: Subgroup,
    floor: Subgroup,
    alpha: Union[H2Subspace, Callable[[H2Space], H2Subspace]],
) -> TransgressionPairing:
    solver = transgression_solver(group, top, q)
    sub = alpha(solver.space) if callable(alpha) else alpha
    if sub.space is not solver.space:
        raise ValueError("coefficient submodule must live on the solver's quotient")
    classes = _inflation_kernel_classes(solver.space, group, solver.data.projection.images, sub.gens)
    return _pairing_on_classes(group, q, top, floor, solver, classes)


def _pairing_on_classes(
    group: FiniteGroup,
    q: int,
    top: Subgroup,
    floor: Subgroup,
    solver: TransgressionSolver,
    classes: tuple[Cochain2, ...],
) -> TransgressionPairing:
    """The transgression pairing of T/T₀ against the given inflation-kernel classes."""
    module = central_subquotient(group, top, floor, q)
    preimages = []
    for c in classes:
        psi = solver.preimage(c)
        if psi is None:
            raise AssertionError(
                "kernel class with no transgression preimage (five-term exactness violated)"
            )
        preimages.append(psi)
    inv = solver.invariants
    well_defined = all(
        inv.value(psi, int(m)) == 0 for psi in preimages for m in floor.members
    )
    table = np.array(
        [[inv.value(psi, rep) for psi in preimages] for rep in module.reps],
        dtype=np.int64,
    ).reshape(len(module.reps), len(classes))
    rel = _combo_kernel(solver.space.group, q, list(classes))
    right = AbGroupPresentation.from_relations(len(classes), q, _as_matrix(rel, len(classes), q))
    if well_defined:
        report = pairing_perfection(ZqMatrix(table, q), module.presentation, right)
    else:
        report = PairingReport(
            matrix=ZqMatrix(table, q),
            perfect=False,
            left_order=module.presentation.order,
            right_order=right.order,
            left_annihilator=(),
            right_annihilator=(),
        )
    return TransgressionPairing(module, classes, tuple(preimages), well_defined, report)


# --------------------------------------------------------------------------
# the six duality conditions


@dataclass(frozen=True, eq=False)
class DualityConditionsReport:
    """Verdicts of the six equivalent duality conditions (they must agree)."""

    kernel_matches_preimage: bool
    exact_through_coefficients: bool
    quotient_kernel_matches: bool
    pairing_perfect: bool
    annihilator_is_floor: bool
    lift_kernels_meet_floor: bool
    annihilator: Subgroup
    # every kernel is solved on G itself; the flag stays for the duality-check JSON
    substituted = False

    def as_tuple(self) -> tuple[bool, bool, bool, bool, bool, bool]:
        return (
            self.kernel_matches_preimage,
            self.exact_through_coefficients,
            self.quotient_kernel_matches,
            self.pairing_perfect,
            self.annihilator_is_floor,
            self.lift_kernels_meet_floor,
        )

    @property
    def verdict(self) -> bool:
        return self.kernel_matches_preimage


def _intersection_class_reps(
    space: H2Space, gens_a: Sequence[Cochain2], gens_b: Sequence[Cochain2]
) -> tuple[Cochain2, ...]:
    """Canonical representatives generating span(gens_a) ∩ span(gens_b) mod coboundaries."""
    return _nonzero_classes(space, gens_a, span_of_classes(space, gens_b).relations(gens_a))


def _lift_kernel_mask(
    group: FiniteGroup, data: QuotientData, ext: CentralExtensionSpec
) -> np.ndarray:
    """Ker(Ψ) for the first lift Ψ: G → E above the projection G → G/T.

    Two lifts differ by a homomorphism G → Z/q, which vanishes on T ⊇ Ker(Ψ),
    so every lift has the same kernel.
    """
    gens = group.generators
    if ext.modulus ** len(gens) > SEARCH_CAP:
        raise ValueError("lift enumeration too large")
    pi = data.projection.images
    m = ext.base.order
    fibers = [[a * m + int(pi[g]) for a in range(ext.modulus)] for g in gens]
    for images in _hom_images(group, ext.total, fibers):
        if not np.array_equal(ext.projection.images[images], pi):
            raise AssertionError("a lift does not cover the projection")
        return images == ext.total.identity
    raise AssertionError("no lift exists for a transgressed class")


def duality_conditions(
    group: FiniteGroup,
    q: int,
    top: Subgroup,
    floor: Subgroup,
    alpha: Union[H2Subspace, Callable[[H2Space], H2Subspace]],
    a0: Sequence[Sequence[int]] = (),
) -> DualityConditionsReport:
    """Evaluate all six duality conditions for (T, T₀, A) independently.

    ``a0`` optionally fixes the classes of condition (f) as H²(G/T)
    coordinate tuples.  The six verdicts are asserted to agree (they are
    equivalent statements); the returned report carries the common verdict
    plus the computed annihilator subgroup.
    """
    solver = transgression_solver(group, top, q)
    space = solver.space
    inv = solver.invariants
    sub = alpha(space) if callable(alpha) else alpha
    if sub.space is not space:
        raise ValueError("coefficient submodule must live on the solver's quotient")
    kamb = len(inv.basis)
    width = kamb
    rel_rows = np.diag(np.array(inv.invariant_factors, dtype=np.int64)) if kamb else np.zeros((0, 0), dtype=np.int64)
    K = restriction_kernel(group, top, floor, q)
    k_rows = K.coordinate_rows

    # (a) restriction kernel equals the transgression preimage of A
    if kamb:
        pre_a = sub.relations(solver.images)
        cond_a = _span_equal(
            np.concatenate([pre_a, rel_rows], axis=0),
            np.concatenate([k_rows.reshape(-1, kamb), rel_rows], axis=0),
            q,
            width,
        )
    else:
        cond_a = True

    # kernel of inflation restricted to A, as a subspace of H²(G/T)
    ker_classes = _inflation_kernel_classes(space, group, solver.data.projection.images, sub.gens)
    ker_sub = span_of_classes(space, list(ker_classes))

    # (b) transgression maps the restriction kernel isomorphically onto that kernel
    image_values = np.array([c.values for c in solver.images], dtype=np.int64)
    trg_k = [Cochain2(space.group, q, np.tensordot(row, image_values, 1)) for row in k_rows]
    trg_sub = span_of_classes(space, trg_k)
    if kamb:
        ker_trg = space.relations(solver.images)
        meet = _span_intersection(
            np.concatenate([k_rows.reshape(-1, kamb), rel_rows], axis=0),
            np.concatenate([ker_trg, rel_rows], axis=0),
            width,
            q,
        )
        injective = not coset_reduce(_as_matrix(rel_rows, width, q), meet).any()
    else:
        injective = True
    cond_b = injective and trg_sub.within(sub) and trg_sub.same_span(ker_sub)

    # (c) kernel toward G/T₀ sits in A and matches the inflation kernel
    qd0 = quotient(group, floor)
    mid_hom = GroupHom(qd0.quotient, space.group, solver.data.projection.images[qd0.coset_reps])
    kp_classes = _inflation_kernel_classes(space, mid_hom.source, mid_hom.images, space.basis)
    kp_sub = span_of_classes(space, kp_classes)
    cond_c = kp_sub.within(sub) and kp_sub.same_span(ker_sub)

    # (d) the transgression pairing on T/T₀ × Ker(inf|A) is perfect, on the kernel of (b)
    pairing = _pairing_on_classes(group, q, top, floor, solver, ker_classes)
    cond_d = pairing.perfect

    # (e) the annihilator of A ∩ img(trg) inside T is exactly T₀
    inter = _intersection_class_reps(space, sub.gens, solver.images)
    psis = []
    for c in inter:
        psi = solver.preimage(c)
        if psi is None:
            raise AssertionError("intersection class with no transgression preimage")
        psis.append(psi)
    ann_members = [
        int(t)
        for t in top.members
        if all(inv.value(psi, int(t)) == 0 for psi in psis)
    ]
    annihilator = Subgroup(group, tuple(ann_members))
    cond_e = annihilator.same_as(floor)

    # (f) lifts into the central extensions of the A₀-classes cut out T₀
    chosen = tuple(space.representative(c) for c in a0) if a0 else inter
    for c in chosen:
        if not sub.contains(c):
            raise ValueError("a0 class lies outside the coefficient submodule")
    if chosen:
        mask = np.ones(group.order, dtype=bool)
        for c in chosen:
            ext = extension_from_class(space.group, c)
            mask &= _lift_kernel_mask(group, solver.data, ext)
    else:
        mask = top.mask.copy()
    f_sub = Subgroup(group, tuple(int(x) for x in np.flatnonzero(mask)))
    cond_f = f_sub.same_as(floor)

    verdicts = (cond_a, cond_b, cond_c, cond_d, cond_e, cond_f)
    if len(set(verdicts)) != 1:
        raise VerificationError(f"duality conditions disagree: {verdicts}", {"verdicts": list(verdicts)})
    return DualityConditionsReport(
        kernel_matches_preimage=cond_a,
        exact_through_coefficients=cond_b,
        quotient_kernel_matches=cond_c,
        pairing_perfect=cond_d,
        annihilator_is_floor=cond_e,
        lift_kernels_meet_floor=cond_f,
        annihilator=annihilator,
    )


# --------------------------------------------------------------------------
# tensor-power functors


def _alpha_zero_predicate(
    triple: DualityTriple,
    t: int,
    chars: Sequence[Cochain1],
    source: FiniteGroup,
    q: int,
    images: Optional[np.ndarray] = None,
) -> Callable[[np.ndarray], np.ndarray]:
    """Which of an (N, t, m) batch of coordinate t-tuples over ``chars`` α, pulled back to ``source``, kills.

    α is linear in the coordinates for t = 1 (Bockstein) and bilinear for
    t = 2 (cup), so a tuple is killed iff a (t = 1), or a⊗b flattened
    row-major (t = 2), lies in the kernel K_t of the m classes β(χᵢ), or of
    the m² classes χᵢ∪χⱼ at index i·m+j.  K_t is found once, by
    ``_combo_kernel``, and the batch is reduced against it in one pass;
    ``images`` maps ``source`` into the carrier of ``chars`` (identity when omitted).
    """
    if t not in triple.active_degrees or t > 2:
        return lambda vecs: np.ones(len(vecs), dtype=bool)
    if t == 1:
        classes = [bockstein(chi) for chi in chars]
    else:
        classes = [cup11(a, b) for a in chars for b in chars]
    span = howell_form(ZqMatrix(_combo_kernel(source, q, classes, images=images), q))

    def kills(vecs: np.ndarray) -> np.ndarray:
        rows = vecs[:, 0] if t == 1 else np.einsum("ni,nj->nij", vecs[:, 0], vecs[:, 1])
        return ~coset_reduce(span, rows.reshape(len(vecs), -1)).any(axis=1)

    return kills


# --------------------------------------------------------------------------
# inflation isomorphism table (quotients by N ≤ T)


@dataclass(frozen=True, eq=False)
class InflationIsoRow:
    sub: Subgroup
    in_floor: bool
    alpha_iso: bool
    tensor_iso: dict


@dataclass(frozen=True, eq=False)
class InflationIsoTable:
    group: FiniteGroup
    kind: str
    rows: tuple[InflationIsoRow, ...]


def inflation_isomorphism_table(
    group: FiniteGroup,
    q: int,
    triple: DualityTriple,
) -> InflationIsoTable:
    """For every normal N ≤ T: does inflation identify A(G/N) with A(G)?

    Asserts N ≤ T₀ ⇔ A-inflation iso, and that the iso forces every
    tensor-power functor of degree at most 3 to inflate isomorphically as well.
    """
    top = triple.top(group, q)
    floor = triple.floor(group, q)
    own_gens = triple.alpha_generator_classes(group, q)
    rows_out = []
    for N in normal_subgroups_within(group, top):
        qd = quotient(group, N)
        h1n = h1(qd.quotient, q)
        in_floor = all(floor.contains(int(m)) for m in N.members)
        injective, surjective = _inflation_iso(
            group, q, qd.projection.images, triple.alpha_generator_classes(qd.quotient, q), own_gens
        )
        alpha_iso = injective and surjective
        tensor_iso: dict = {}
        m = len(h1n.invariant_factors)
        for t in triple.active_degrees:
            rs = range(t, 4)
            pred_down = _alpha_zero_predicate(triple, t, h1n.basis, qd.quotient, q)
            pred_up = _alpha_zero_predicate(triple, t, h1n.basis, group, q, images=qd.projection.images)
            kills_down = tensor_kill_rows(h1n.invariant_factors, q, rs, t, pred_down)
            kills_up = tensor_kill_rows(h1n.invariant_factors, q, rs, t, pred_up)
            for r, kill_down, kill_up in zip(rs, kills_down, kills_up):
                base = _tensor_relation_rows(h1n.invariant_factors, q, r)
                tensor_iso[(r, t)] = _span_equal(
                    np.concatenate([kill_down.reshape(-1, m**r), base], axis=0),
                    np.concatenate([kill_up.reshape(-1, m**r), base], axis=0),
                    q,
                    m**r,
                )
        if in_floor != alpha_iso:
            raise AssertionError(
                f"containment in the floor and A-inflation disagree on {N.members}"
            )
        if alpha_iso and not all(tensor_iso.values()):
            raise AssertionError(
                f"A-inflation is an isomorphism but a tensor functor is not on {N.members}"
            )
        rows_out.append(InflationIsoRow(N, in_floor, alpha_iso, tensor_iso))
    return InflationIsoTable(group, triple.kind, tuple(rows_out))


# --------------------------------------------------------------------------
# epimorphism conditions


@dataclass(frozen=True, eq=False)
class ProjectionReport:
    quotient_iso: bool
    kernel_in_floor: bool
    pullback_iso: bool
    pullback_mono: bool

    @property
    def all_equal(self) -> bool:
        return len({self.quotient_iso, self.kernel_in_floor, self.pullback_iso, self.pullback_mono}) == 1


def projection_conditions(
    pi: GroupHom,
    q: int,
    triple: DualityTriple,
) -> ProjectionReport:
    """Equivalent conditions on an epimorphism that respects the level-2 split.

    (i) the induced map on the T₀-quotients is an isomorphism, (ii) the
    kernel sits inside T₀, (iii)/(iv) the pullback on coefficient submodules
    is an isomorphism / a monomorphism.  The four verdicts are asserted equal.
    """
    if not pi.is_surjective():
        raise ValueError("projection conditions need an epimorphism")
    g1, g2 = pi.source, pi.target
    top1 = triple.top(g1, q)
    top2 = triple.top(g2, q)
    qd2 = quotient(g2, top2)
    level2 = GroupHom(g1, qd2.quotient, qd2.projection.images[pi.images])
    if not level2.kernel().same_as(top1):
        raise ValueError("epimorphism does not identify the level-2 quotients")
    floor1 = triple.floor(g1, q)
    floor2 = triple.floor(g2, q)
    qd20 = quotient(g2, floor2)
    to_floor2 = GroupHom(g1, qd20.quotient, qd20.projection.images[pi.images])
    quotient_iso = to_floor2.kernel().same_as(floor1)
    kernel_in_floor = all(floor1.contains(int(m)) for m in pi.kernel().members)
    mono, surj = _inflation_iso(
        g1, q, pi.images, triple.alpha_generator_classes(g2, q), triple.alpha_generator_classes(g1, q)
    )
    report = ProjectionReport(quotient_iso, kernel_in_floor, mono and surj, mono)
    if not report.all_equal:
        raise AssertionError(
            f"projection conditions disagree: {report}"
        )
    return report


# --------------------------------------------------------------------------
# relation type of the level-2 kernel


@dataclass(frozen=True, eq=False)
class GaloisRelationReport:
    """The three-part shape test for the defining relations of G.

    (i) the level-2 quotient is a free Z/q-module; (ii) one degree-1 class ξ
    twists every Bockstein into a cup product; (iii) the inflation kernel of
    the decomposable part is generated by cup products lying in it.
    """

    free_level2: bool
    bockstein_by_cup: bool
    twist: Optional[Cochain1]
    kernel_cup_generated: bool

    @property
    def passes(self) -> bool:
        return self.free_level2 and self.bockstein_by_cup and self.kernel_cup_generated


def galois_relation_type(group: FiniteGroup, q: int) -> GaloisRelationReport:
    """The three-part test of :class:`GaloisRelationReport`; computed once per q and kept on the group."""
    return _memoized(group, ("relation_type", q), lambda: _galois_relation_type(group, q))


def _galois_relation_type(group: FiniteGroup, q: int) -> GaloisRelationReport:
    try:
        frame = level2_frame(group, q)
    except NotFreeLevel2:
        frame = None
    twist = _bockstein_cup_twist(group, q)
    cup_generated = frame is not None and _kernel_cup_generated(group, frame)
    return GaloisRelationReport(frame is not None, twist is not None, twist, cup_generated)


def _cup_twists(group: FiniteGroup, q: int, chars: np.ndarray) -> np.ndarray:
    """The cups χᵢ∪χⱼ of the rows of ``chars`` on the pairs (x, s∈S), at index i·d + j.

    ``chars`` holds the values of d homomorphisms to Z/q, one row each.  A cup
    of homomorphisms is a cocycle, so these samples are all that the pair
    system needs, and no n × n cochain is built.
    """
    gens = list(_solver_gens(group))
    d = chars.shape[0]
    return (np.einsum("ix,js->xsij", chars, chars[:, gens]) % q).reshape(group.order, len(gens), d * d)


def _bockstein_twists(group: FiniteGroup, q: int, chars: np.ndarray) -> np.ndarray:
    """β(χᵢ) of the rows of ``chars`` on the pairs (x, s∈S): (χ(x) + χ(s) − χ(xs)) / q on residues."""
    gens = list(_solver_gens(group))
    num = chars[:, :, None] + chars[:, gens][:, None, :] - chars[:, group.table[:, gens]]
    return np.moveaxis(num // q, 0, 2)


def _bockstein_cup_twist(group: FiniteGroup, q: int) -> Optional[Cochain1]:
    """A ξ in H¹ with β(χᵢ) − χᵢ∪ξ ∈ B² for every basis class χᵢ, or None.

    With ξ = Σⱼ xⱼχⱼ the condition is affine in x.  Over the d + d² classes
    β(χᵢ), χᵢ∪χⱼ, let K be the rows of the combinations in B² (one
    ``_twist_kernel``); then e_{β(χᵢ)} − Σⱼ xⱼ·e_{χᵢ∪χⱼ} must lie in span K
    for each i.  That is one system, Σⱼ xⱼ·e_{χᵢ∪χⱼ} + cᵢ·K = e_{β(χᵢ)} for
    i = 1..d, in x and the coefficient rows cᵢ, and ``solve`` checks its
    solution by substitution.
    """
    h1s = h1(group, q)
    d = len(h1s.basis)
    if d == 0:
        return h1s.element(())
    chars = np.array([chi.values for chi in h1s.basis], dtype=np.int64)
    twists = np.concatenate([_bockstein_twists(group, q, chars), _cup_twists(group, q, chars)], axis=2)
    combos = _twist_kernel(group, q, twists)
    width, r = d + d * d, combos.shape[0]
    system = np.zeros((d, width, d + d * r), dtype=np.int64)
    rhs = np.zeros((d, width), dtype=np.int64)
    for i in range(d):
        system[i, d + i * d : d + (i + 1) * d, :d] = np.eye(d, dtype=np.int64)
        system[i, :, d + i * r : d + (i + 1) * r] = combos.T
        rhs[i, i] = 1
    sol = solve(ZqMatrix(system.reshape(d * width, -1), q), rhs.reshape(-1))
    if sol is None:
        return None
    return h1s.element(sol[:d] % np.array(h1s.invariant_factors, dtype=np.int64))


def _kernel_cup_generated(group: FiniteGroup, frame: Level2Frame) -> bool:
    """Whether Ker(inf: H²_dec(G/T) → H²(G)) is spanned by the cups a∪b that lie in it.

    A cup is bilinear, a∪b = Σ aᵢbⱼ·χᵢ∪χⱼ over the frame's characters, so
    each pair is read in these d² cup coordinates as a⊗b.  The combinations
    that die on G are the rows K of a ``_twist_kernel`` on G, and those that
    are already zero on G/T the rows R of one on G/T, with R ⊆ K.  So a∪b is
    in the kernel iff a⊗b ∈ span K, decided for every pair with a ≠ 0 in one
    batch, and those cups span the kernel iff together with R they span K.
    """
    q, d, Q = frame.modulus, frame.d, frame.quotient
    chars = frame.coords.T
    inflated = chars[:, frame.data.projection.images]
    on_g = howell_form(ZqMatrix(_twist_kernel(group, q, _cup_twists(group, q, inflated)), q))
    on_q = _twist_kernel(Q, q, _cup_twists(Q, q, chars))
    vecs = np.array(list(itertools.product(range(q), repeat=d)), dtype=np.int64)
    pairs = np.einsum("ai,bj->abij", vecs[1:], vecs).reshape(-1, d * d) % q
    found = pairs[~coset_reduce(on_g, pairs).any(axis=1)]
    return row_span_size(howell_form(ZqMatrix(np.concatenate([found, on_q]), q))) == row_span_size(on_g)


# --------------------------------------------------------------------------
# generating pairs for the inflation kernel, and the extensions they define


@dataclass(frozen=True, eq=False)
class KernelPair:
    """A finite level-2 quotient with a tensor whose α-value generates kernel."""

    quotient: FiniteGroup
    data: QuotientData
    linear: Optional[Cochain1]
    pair: Optional[tuple[Cochain1, Cochain1]]
    defining_class: Cochain2
    kernel_class: Cochain2


@dataclass(frozen=True, eq=False)
class KernelGeneratingSet:
    entries: tuple[KernelPair, ...]
    kernel_order: int
    generates: bool
    relation_type: GaloisRelationReport


def _alpha_of_parts(
    carrier: FiniteGroup,
    q: int,
    linear: Optional[Cochain1],
    pair: Optional[tuple[Cochain1, Cochain1]],
) -> Cochain2:
    acc = np.zeros((carrier.order, carrier.order), dtype=np.int64)
    if linear is not None:
        acc += bockstein(linear).values
    if pair is not None:
        acc += cup11(pair[0], pair[1]).values
    return Cochain2(carrier, q, acc)


def kernel_generating_pairs(
    group: FiniteGroup, q: int, triple: DualityTriple
) -> KernelGeneratingSet:
    """Greedy tensors of the triple's shape whose α-values generate the kernel.

    The kernel is Ker(inf: A(G/T) → H²(G)).  Each chosen tensor is pushed to
    the smallest quotient of G/T on which its characters live; the α-value
    there is recorded as the defining class of that entry.
    """
    grt = galois_relation_type(group, q)
    frame = level2_frame(group, q)
    A = triple.alpha_image(frame.space)
    ker_classes = _inflation_kernel_classes(frame.space, group, frame.data.projection.images, A.gens)
    ker_sub = span_of_classes(frame.space, ker_classes)
    target_order = ker_sub.order
    vectors = list(itertools.product(range(q), repeat=frame.d))
    candidates: list[tuple[Optional[np.ndarray], Optional[tuple[np.ndarray, np.ndarray]]]] = []
    if triple.kind == "dec-cup":
        for a in vectors:
            for b in vectors:
                candidates.append((None, (np.array(a), np.array(b))))
    elif triple.kind == "bock":
        for a in vectors:
            if any(a):
                candidates.append((np.array(a), None))
    else:
        for a in vectors:
            if not any(a):
                continue
            for b in vectors:
                neg = (-np.array(a)) % q
                candidates.append((neg, (np.array(a), np.array(b))))
    kept: list[KernelPair] = []
    kept_classes: list[Cochain2] = []
    for lin_vec, pair_vecs in candidates:
        span = span_of_classes(frame.space, kept_classes)
        if span.order == target_order:
            break
        lin = frame.char_of(lin_vec) if lin_vec is not None else None
        pair = (
            (frame.char_of(pair_vecs[0]), frame.char_of(pair_vecs[1]))
            if pair_vecs is not None
            else None
        )
        c = _alpha_of_parts(frame.quotient, q, lin, pair)
        if not ker_sub.contains(c):
            continue
        if span.contains(c):
            continue
        kill_vecs = []
        if lin_vec is not None:
            kill_vecs.append(lin_vec)
        if pair_vecs is not None:
            kill_vecs.extend(pair_vecs)
        N = frame.kernel_subgroup(kill_vecs)
        qd2 = quotient(frame.quotient, N)
        lin_small = (
            Cochain1(qd2.quotient, q, lin.values[qd2.coset_reps]) if lin is not None else None
        )
        pair_small = (
            tuple(Cochain1(qd2.quotient, q, chi.values[qd2.coset_reps]) for chi in pair)
            if pair is not None
            else None
        )
        defining = _alpha_of_parts(qd2.quotient, q, lin_small, pair_small)
        kept.append(KernelPair(qd2.quotient, qd2, lin_small, pair_small, defining, c))
        kept_classes.append(c)
    generates = span_of_classes(frame.space, kept_classes).order == target_order
    return KernelGeneratingSet(tuple(kept), target_order, generates, grt)


def _named_candidates(order: int, q: int) -> list[tuple[str, FiniteGroup]]:
    try:
        p, _ = factor_prime_power(order)
    except ValueError:
        return []
    out: list[tuple[str, FiniteGroup]] = []
    if order == p:
        out.append((f"cyclic({p})", preset("cyclic", [p])))
    elif order == p**2:
        out.append((f"cyclic({order})", preset("cyclic", [order])))
        out.append((f"elementary_abelian({p},2)", preset("elementary_abelian", [p, 2])))
    elif order == p**3:
        out.append((f"cyclic({order})", preset("cyclic", [order])))
        out.append(
            (
                f"cyclic({p**2})xcyclic({p})",
                direct_product(preset("cyclic", [p**2]), preset("cyclic", [p])),
            )
        )
        out.append((f"elementary_abelian({p},3)", preset("elementary_abelian", [p, 3])))
        if p == 2:
            out.append(("dihedral4", preset("dihedral4")))
            out.append(("quaternion8", preset("quaternion8")))
        else:
            out.append((f"heisenberg({p})", preset("heisenberg", [p])))
            out.append((f"modular({p})", preset("modular", [p])))
    return out


def _identify_small(group: FiniteGroup, q: int) -> Optional[str]:
    for name, cand in _named_candidates(group.order, q):
        if is_isomorphic(group, cand):
            return name
    return None


@dataclass(frozen=True, eq=False)
class ExtensionEntry:
    group: FiniteGroup
    source: KernelPair
    name: Optional[str]


@dataclass(frozen=True, eq=False)
class ExtensionList:
    entries: tuple[ExtensionEntry, ...]
    generating: KernelGeneratingSet


def extension_list(group: FiniteGroup, q: int, triple: DualityTriple) -> ExtensionList:
    """Isomorphism classes of the central extensions cut out by the kernel pairs."""
    ks = kernel_generating_pairs(group, q, triple)
    entries: list[ExtensionEntry] = []
    for pair in ks.entries:
        ext = extension_from_class(pair.quotient, pair.defining_class)
        if any(is_isomorphic(ext.total, e.group) for e in entries):
            continue
        entries.append(ExtensionEntry(ext.total, pair, _identify_small(ext.total, q)))
    return ExtensionList(tuple(entries), ks)


def floor_by_intersection(group: FiniteGroup, q: int, triple: DualityTriple) -> Subgroup:
    """T ∩ ⋂ Ker(π) over all epimorphisms π onto the listed extensions.

    An empty extension list leaves the intersection at T itself.
    """
    ext = extension_list(group, q, triple)
    return _epimorphism_kernel_meet(group, [e.group for e in ext.entries], triple.top(group, q).mask)


def _epimorphism_kernel_meet(group: FiniteGroup, targets: Sequence[FiniteGroup], mask: np.ndarray) -> Subgroup:
    """The members of ``mask`` in Ker(π) for every epimorphism π of ``group`` onto each target."""
    mask = mask.copy()
    for tgt in targets:
        for hom in enumerate_homs(group, tgt, surjective_only=True):
            mask &= hom.kernel().mask
    return Subgroup(group, tuple(int(x) for x in np.flatnonzero(mask)))


def _lift_target(p: int, rank: int) -> CentralExtensionSpec:
    """(Z/p)^rank extended by the class c₁∪c_rank of its coordinate characters cᵢ.

    Rank 2 gives H_{p³} for p odd and D4 for p = 2; rank 1 at p = 2 gives
    Z/4, since c₁∪c₁ = β(c₁) there.
    """
    base = preset("elementary_abelian", [p, rank])
    digits = np.arange(base.order) // p ** np.arange(rank)[:, None] % p
    first, last = (Cochain1(base, p, row) for row in digits[[0, -1]])
    return extension_from_class(base, cup11(first, last))


def _named_quotient_meet(group: FiniteGroup, p: int) -> Subgroup:
    """⋂ Ker(π) over the epimorphisms π of ``group`` onto the Theorem D targets.

    The targets are Z/p and H_{p³} for p odd, and Z/2, Z/4 and D4 for p = 2.
    The epimorphisms onto Z/p cut out Φ(G), the common kernel of H¹.  Each
    other target is the extension E of (Z/p)^r by c₁∪c_r (:func:`_lift_target`).
    A surjection (a, b): G → (Z/p)², or a: G → Z/2 with b = a for Z/4, lifts
    to E iff a∪b = ∂u (Hoechsmann 1968); ψ = (−u, a, b) is then onto by
    Burnside's basis theorem, and the other lifts ψ + χ, χ ∈ H¹, meet Φ(G)
    in the same Φ(G) ∩ Ker ψ.  For p odd one basis (a, b) per plane of H¹ is
    enough: Aut(H_{p³}) induces GL₂(p) on the Frattini quotient, and a change
    of basis scales the class by its determinant.  For p = 2, where a∪a = β(a)
    need not vanish, every ordered pair is tried.

    All pairs are decided, and their potentials found, in one batch.  The
    kernel rows [y | U] of the pair system of the d² cups χᵢ∪χⱼ (combination
    first, generator values of the potential after) reduce [a⊗b | 0] to
    [0 | U′] exactly when a∪b = ∂u, and U′ is then u on the generators.  Each
    lift is proven a homomorphism by ``_is_multiplicative``, and onto by its
    image, before its kernel enters the mask.
    """
    n = group.order
    chars = np.array([chi.values for chi in h1(group, p).basis], dtype=np.int64).reshape(-1, n)
    d = chars.shape[0]
    if d == 0:
        return whole_group(group)
    mask = ~chars.any(axis=0)
    vecs = np.array(list(itertools.product(range(p), repeat=d)), dtype=np.int64)[1:]
    leads = (vecs != 0).argmax(axis=1)
    monic = vecs[np.arange(len(vecs)), leads] == 1
    lines, leads = vecs[monic], leads[monic]
    twists = _cup_twists(group, p, chars)
    coeff, const, gens = _affine_propagation(group, p, twists)
    system = _pair_system(group, p, coeff, const, gens, twists)
    potentials = howell_form(kernel(ZqMatrix(np.roll(system, -len(gens), axis=1), p)))
    targets: dict[int, CentralExtensionSpec] = {}
    for a, lead in zip(lines, leads):
        # p odd: the other row of the plane's reduced echelon basis
        betas = lines if p == 2 else lines[(leads > lead) & (a[leads] == 0)]
        combos = (a[None, :, None] * betas[:, None, :]).reshape(-1, d * d)
        reduced = coset_reduce(potentials, np.pad(combos, ((0, 0), (0, len(gens)))))
        liftable = ~reduced[:, : d * d].any(axis=1)
        for b, combo, gen_values in zip(betas[liftable], combos[liftable], reduced[liftable, d * d :]):
            rank = 1 if np.array_equal(a, b) else 2
            if rank not in targets:
                targets[rank] = _lift_target(p, rank)
            ext = targets[rank]
            u = (coeff @ gen_values + const @ combo) % p
            base = (a @ chars) % p + (p * ((b @ chars) % p) if rank == 2 else 0)
            images = (-u % p) * ext.base.order + base
            if not _is_multiplicative(group, ext.total, images) or np.unique(images).size != ext.total.order:
                raise VerificationError(
                    "a potential lift is not an epimorphism",
                    {"alpha": a.tolist(), "beta": b.tolist()},
                )
            mask &= images == ext.total.identity
    return Subgroup(group, tuple(int(x) for x in np.flatnonzero(mask)))


@dataclass(frozen=True, eq=False)
class Lower3Report:
    lower3: Subgroup
    intersection: Subgroup
    equal: bool
    relation_type: GaloisRelationReport


def lower3_intersection_check(group: FiniteGroup, p: int) -> Lower3Report:
    """Compare the lower-3 subgroup with the named-quotient intersection.

    For p odd the targets are Z/p and the exponent-p extraspecial group of
    order p³; for p = 2 they are Z/2, Z/4 and the dihedral group of order 8
    (see :func:`_named_quotient_meet`).  Equality is verified when the
    relation-type test passes, and only reported otherwise.
    """
    if p != factor_prime_power(p)[0]:
        raise ValueError("intersection lists need a prime modulus")
    grt = galois_relation_type(group, p)
    low = lower3_subgroup(group, p)
    inter = _named_quotient_meet(group, p)
    equal = inter.same_as(low)
    if grt.passes and not equal:
        raise VerificationError(
            f"relation type passes but the intersection misses the lower-3 subgroup: "
            f"{low.members} vs {inter.members}",
            {"lower3_members": list(low.members), "intersection_members": list(inter.members), "equal": False},
        )
    return Lower3Report(low, inter, equal, grt)


# --------------------------------------------------------------------------
# decomposable transgressions


def _order_q_lines(group: FiniteGroup, q: int) -> list[Subgroup]:
    """The distinct cyclic subgroups of order q, in the order of their least element of order q."""
    lines: dict[tuple[int, ...], Subgroup] = {}
    for x in np.flatnonzero(element_orders(group) == q):
        line = subgroup_closure(group, [int(x)])
        lines.setdefault(line.members, line)
    return list(lines.values())


@dataclass(frozen=True, eq=False)
class TransgressionDecomposableReport:
    decomposable: bool
    cyclic_local: bool
    extends_on_lines: bool
    kills_lower3: bool

    @property
    def all_equal(self) -> bool:
        return len({self.decomposable, self.cyclic_local, self.extends_on_lines, self.kills_lower3}) == 1


def decomposable_transgression_conditions(
    group: FiniteGroup,
    q: int,
    psi: Cochain1,
) -> TransgressionDecomposableReport:
    """Four equivalent tests for trg(ψ) landing in the decomposable part.

    ψ is an invariant homomorphism on the level-2 term T.  The local test
    scales the transgression within each preimage M of a cyclic order-q
    subgroup of G/T by δ; the extension test asks for degree-1 classes of M
    restricting to δψ; the last test evaluates ψ on the lower-3 subgroup.
    """
    p, _ = factor_prime_power(q)
    delta = 2 if p == 2 else 1
    frame = level2_frame(group, q)
    top = frame.solver.top
    tg = transgression(group, top, psi, q, frame.data)
    decomposable = h2_dec(frame.space).contains(tg)

    cyclic_local = True
    extends_on_lines = True
    t_members = np.array(top.members, dtype=np.int64)
    for line in _order_q_lines(frame.quotient, q):
        m_members = np.flatnonzero(line.mask[frame.data.projection.images])
        m_sub = Subgroup(group, tuple(int(y) for y in m_members))
        mgrp = subgroup_as_group(m_sub)
        positions = np.searchsorted(m_members, t_members)
        t_in_m = Subgroup(mgrp, tuple(int(pos) for pos in positions))
        psi_m = Cochain1(subgroup_as_group(t_in_m), q, psi.values.copy())
        tg_line = transgression(mgrp, t_in_m, psi_m, q, quotient(mgrp, t_in_m), require_level2=False)
        if is_coboundary(tg_line.scale(delta)) is None:
            cyclic_local = False
        h1m = h1(mgrp, q)
        target = (delta * psi.values) % q
        if h1m.basis:
            mat = np.array([b.values[positions] for b in h1m.basis], dtype=np.int64)
            found = solve(ZqMatrix(mat.T, q), target) is not None
        else:
            found = not target.any()
        if not found:
            extends_on_lines = False
    low = lower3_subgroup(group, q)
    pos_in_top = np.searchsorted(t_members, np.array(low.members, dtype=np.int64))
    kills_lower3 = not psi.values[pos_in_top].any()
    report = TransgressionDecomposableReport(
        decomposable, cyclic_local, extends_on_lines, kills_lower3
    )
    if not report.all_equal:
        raise AssertionError(f"decomposable-transgression conditions disagree: {report}")
    return report


# --------------------------------------------------------------------------
# local-global detection of the decomposable part


@dataclass(frozen=True, eq=False)
class LocalGlobalReport:
    matches: bool
    checked: int
    coefficient_route: bool


def local_global_check(d: int, q: int) -> LocalGlobalReport:
    """On (Z/q)^d: a class is decomposable iff δ·res kills it on every line.

    Also verifies the coefficient identity: restricting to the k-th
    coordinate line reads off the k-th Bockstein slot.
    """
    p, _ = factor_prime_power(q)
    delta = 2 if p == 2 else 1
    Q = preset("elementary_abelian", [q, d])
    space = h2(Q, q)
    dec_set = h2_dec(space).coordinate_members()
    maps = []
    for line in _order_q_lines(Q, q):
        sgrp = subgroup_as_group(line)
        sspace = h2(sgrp, q)
        rows = np.array(
            [sspace.coordinates_of(restriction2(b, line)) for b in space.basis],
            dtype=np.int64,
        ).reshape(len(space.basis), -1)
        maps.append((rows, np.array(sspace.invariant_factors, dtype=np.int64)))
    checked = 0
    matches = True
    for coords in space.enumerate_coordinates():
        checked += 1
        vec = np.array(coords, dtype=np.int64)
        local = True
        for rows, facs in maps:
            res = (delta * (vec @ rows)) % facs if facs.size else np.zeros(0, dtype=np.int64)
            if res.any():
                local = False
                break
        if local != (coords in dec_set):
            matches = False
    # coefficient route on the coordinate lines
    frame = level2_frame(Q, q)
    coefficient_route = True
    for k in range(frame.d):
        line = subgroup_closure(frame.quotient, [frame.basis[k]])
        sgrp = subgroup_as_group(line)
        sspace = h2(sgrp, q)
        res_chi = Cochain1(sgrp, q, frame.chars[k].values[np.array(line.members, dtype=np.int64)])
        for i in range(frame.d):
            lhs = restriction2(bockstein(frame.chars[i]), line)
            rhs = bockstein(res_chi).scale(1 if i == k else 0)
            coefficient_route = coefficient_route and sspace.same_class(lhs, rhs)
        for i, j in frame.symbolic.pairs:
            lhs = restriction2(cup11(frame.chars[i], frame.chars[j]), line)
            coefficient_route = coefficient_route and sspace.is_zero_class(lhs)
    return LocalGlobalReport(matches, checked, coefficient_route)


# --------------------------------------------------------------------------
# dual bases on the free level-3 models


@dataclass(frozen=True, eq=False)
class DualBasisReport:
    matrix: np.ndarray
    formula_matrix: np.ndarray

    @property
    def identity(self) -> bool:
        n = self.matrix.shape[0]
        return bool(np.array_equal(self.matrix, np.eye(n, dtype=np.int64)))

    @property
    def formulas_match(self) -> bool:
        return bool(np.array_equal(self.matrix, self.formula_matrix))


def closed_pairing_value(
    model: FreeLevel3Model,
    element: int,
    linear: Optional[Sequence[int]] = None,
    pair: Optional[tuple[Sequence[int], Sequence[int]]] = None,
) -> int:
    """The substitution pairing value by the closed normal-form formulas.

    For an element of the level-2 part with normal form Π σ_i^{q·c_i} ·
    Π [σ_i, σ_j]^{b_ij}: a Bockstein class with coefficients u pairs to
    Σ c_i·u_i, and a cup product of u and v pairs to (q/δ)·Σ c_i·u_i·v_i +
    Σ_{i<j} b_ij·(u_i·v_j − u_j·v_i).
    """
    if model.variant != "sharp":
        raise ValueError("closed pairing formulas live on the sharp model")
    q = model.q
    d = model.d
    nf = model.coords[element]
    if nf[:d].any():
        raise ValueError("element lies outside the level-2 part")
    c = nf[d : 2 * d]
    b = nf[2 * d :]
    total = 0
    if linear is not None:
        u = np.asarray(linear, dtype=np.int64)
        total += int((c * u).sum())
    if pair is not None:
        u = np.asarray(pair[0], dtype=np.int64)
        v = np.asarray(pair[1], dtype=np.int64)
        total += (q // model.delta) * int((c * u * v).sum())
        for t, (i, j) in enumerate(model.pairs):
            total += int(b[t]) * (int(u[i]) * int(v[j]) - int(u[j]) * int(v[i]))
    return total % q


def dual_basis_check(d: int, q: int) -> DualBasisReport:
    """Pair the canonical central basis against the Bockstein/cup basis.

    On the free sharp model the matrix must be the identity, and must agree
    with the closed formulas entry by entry.
    """
    model = free_level3(d, q, "sharp")
    frame = level2_frame(model.group, q)
    if frame.d != d:
        raise AssertionError("level-2 quotient rank mismatch on the free model")
    solver = frame.solver
    basis = canonical_basis(model)
    shapes: list[tuple[Optional[np.ndarray], Optional[tuple[np.ndarray, np.ndarray]]]] = []
    for i in range(d):
        e = np.eye(d, dtype=np.int64)[i]
        shapes.append((e, None))
    for i, j in model.pairs:
        ei = np.eye(d, dtype=np.int64)[i]
        ej = np.eye(d, dtype=np.int64)[j]
        shapes.append((None, (ei, ej)))
    n = len(basis.elements)
    mat = np.zeros((n, n), dtype=np.int64)
    formula = np.zeros((n, n), dtype=np.int64)
    for col, (lin, pr) in enumerate(shapes):
        chi_l = frame.char_of(lin) if lin is not None else None
        chi_p = (
            (frame.char_of(pr[0]), frame.char_of(pr[1])) if pr is not None else None
        )
        phi = _alpha_of_parts(frame.quotient, q, chi_l, chi_p)
        psi = solver.preimage(phi)
        if psi is None:
            raise AssertionError("basis class is not a transgression on the free model")
        for row, element in enumerate(basis.elements):
            mat[row, col] = solver.invariants.value(psi, int(element))
            formula[row, col] = closed_pairing_value(
                model,
                int(element),
                linear=lin,
                pair=(pr if pr is None else (pr[0], pr[1])),
            )
    return DualBasisReport(mat, formula)


# --------------------------------------------------------------------------
# reconstruction from kernel data


@dataclass(frozen=True, eq=False)
class Reconstruction:
    kind: str
    model_group: FiniteGroup
    annihilator: Subgroup
    data: QuotientData

    @property
    def group(self) -> FiniteGroup:
        return self.data.quotient


def inflation_kernel_symbolic(
    group: FiniteGroup, q: int, triple: DualityTriple
) -> np.ndarray:
    """Rows of Bockstein/cup coordinates spanning Ker(inf: A(G/T) → H²(G))."""
    frame = level2_frame(group, q)
    A = triple.alpha_image(frame.space)
    classes = _inflation_kernel_classes(frame.space, group, frame.data.projection.images, A.gens)
    rows = [frame.class_symbolic_coords(c) for c in classes]
    if not rows:
        return np.zeros((0, frame.symbolic.rank), dtype=np.int64)
    canon, _ = _canonical_span_basis(np.array(rows, dtype=np.int64), q)
    return canon


def reconstruct_quotient(
    d: int, q: int, triple: DualityTriple, kernel_rows: Sequence[Sequence[int]]
) -> Reconstruction:
    """Rebuild G/T₀ from the symbolic kernel data of a d-generated group.

    The kernel rows annihilate a submodule of the central part of the free
    sharp model under the closed pairing (the pairing matrix between the
    canonical central basis and the Bockstein/cup slots is the identity);
    quotienting the kind's model by that submodule recovers the group.
    """
    sym = symbolic_h2_elementary(d, q)
    rows = np.asarray(kernel_rows, dtype=np.int64).reshape(-1, sym.rank) % q
    bock_rows = np.eye(d, sym.rank, dtype=np.int64)
    if triple.kind == "dec-cup":
        allowed = sym.dec_rows()
    elif triple.kind == "bock":
        allowed = bock_rows
    else:
        allowed = np.concatenate([sym.dec_rows(), bock_rows], axis=0)
    allowed_h = howell_form(_as_matrix(allowed, sym.rank, q))
    for row in rows:
        if not row_span_contains(allowed_h, row):
            raise ValueError("kernel data is not inside the coefficient submodule")
    sharp = free_level3(d, q, "sharp")
    G = sharp.group
    if rows.shape[0]:
        combos = kernel(ZqMatrix(rows, q)).entries % q
    else:
        combos = np.eye(sym.rank, dtype=np.int64)
    seeds = [
        element_of(sharp, np.zeros(d, dtype=np.int64), combo[:d], combo[d:])
        for combo in combos
    ]
    # the kind's model is sharp modulo the δq-th powers (the flat model), the
    # commutators, or nothing
    if triple.kind == "dec-cup":
        kill = power_subgroup(G, whole_group(G), sharp.delta * q)
    elif triple.kind == "bock":
        kill = subgroup_closure(G, sharp.commutator_central)
    else:
        kill = trivial_subgroup(G)
    model = quotient(G, kill)
    model_group = model.quotient
    ann = subgroup_closure(model_group, [int(model.projection(s)) for s in seeds])
    data = quotient(model_group, ann)
    return Reconstruction(triple.kind, model_group, ann, data)
