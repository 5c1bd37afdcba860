"""Cohomology layer tests.

The pc-tails H² solver is pinned against the all-triples brute-force oracle
and, byte for byte, against the cocycle-lattice route it replaced.
Everything class-level is double-checked through coboundary tests, which run
on a completely separate (degree-1) solver path.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qcoh.cohomology import (
    Cochain1,
    Cochain2,
    H2_CAP,
    bockstein,
    class_from_extension,
    coboundary1,
    cup11,
    extension_from_class,
    five_term_check,
    h1,
    h2,
    h2_dec,
    hat_ring,
    hom_from_generator_values,
    img_bockstein,
    inflation1,
    inflation2,
    invariants_h1,
    is_coboundary,
    restriction1,
    restriction2,
    span_of_classes,
    symbolic_h2_elementary,
    tensor_kill_rows,
    tensor_quotient,
    transgression,
)
from oracles import zero2
from qcoh import cohomology
from qcoh.cohomology import _solver_tree
from qcoh.freemodel import free_level3
from qcoh.groups import (
    center,
    is_isomorphic,
    pc_presentation,
    preset,
    q_central_series,
    quotient,
    subgroup_as_group,
    subgroup_closure,
    trivial_subgroup,
    whole_group,
)
from qcoh.zqlin import ZqMatrix, row_span_contains, row_span_size, howell_form


@pytest.fixture(scope="module")
def klein():
    return preset("elementary_abelian", [2, 2])


@pytest.fixture(scope="module")
def g33():
    return preset("elementary_abelian", [3, 2])


@pytest.fixture(scope="module")
def d4():
    return preset("dihedral4")


@pytest.fixture(scope="module")
def q8():
    return preset("quaternion8")


@pytest.fixture(scope="module")
def h27():
    return preset("heisenberg", [3])


@pytest.fixture(scope="module")
def sp33(g33):
    return h2(g33, 3)


@pytest.fixture(scope="module")
def sp22(klein):
    return h2(klein, 2)


def zero1(group, q):
    return Cochain1(group, q, np.zeros(group.order, dtype=np.int64))


def unit_chars(group, q, d):
    """The coordinate characters χ_i (value 1 on generator i, 0 on the rest)."""
    chars = []
    for i in range(d):
        vals = [1 if j == i else 0 for j in range(d)]
        chi = hom_from_generator_values(group, q, vals)
        assert chi is not None
        chars.append(chi)
    return chars


# ---------------------------------------------------------------------------
# cochain carriers


def test_cochain1_requires_normalization(d4):
    with pytest.raises(ValueError):
        Cochain1(d4, 2, np.ones(8, dtype=np.int64))


def test_cochain2_requires_normalization(d4):
    vals = np.ones((8, 8), dtype=np.int64)
    with pytest.raises(ValueError):
        Cochain2(d4, 2, vals)


def test_cochain2_shape_check(d4):
    with pytest.raises(ValueError):
        Cochain2(d4, 2, np.zeros((4, 4), dtype=np.int64))


def test_cochain_algebra(g33):
    rng = np.random.default_rng(0)
    u = rng.integers(0, 3, size=9)
    v = rng.integers(0, 3, size=9)
    u[g33.identity] = v[g33.identity] = 0
    a, b = Cochain1(g33, 3, u), Cochain1(g33, 3, v)
    assert np.array_equal((a + b).values, (u + v) % 3)
    assert np.array_equal((a - b).values, (u - v) % 3)
    assert np.array_equal((-a).values, (-u) % 3)
    assert np.array_equal(a.scale(2).values, (2 * u) % 3)


def test_carrier_mismatch_rejected(g33, klein):
    with pytest.raises(ValueError):
        zero1(g33, 3) + Cochain1(g33, 9, np.zeros(9, dtype=np.int64))
    with pytest.raises(ValueError):
        zero2(g33, 3) + zero2(klein, 3)


@given(seed=st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_cocycle_check_agrees_with_all_triples(seed):
    """The generator-slice test must match the full n³ loop on arbitrary
    cochains, not just on honest cocycles."""
    g = preset("dihedral4")
    rng = np.random.default_rng(seed)
    vals = rng.integers(0, 2, size=(8, 8))
    vals[g.identity, :] = 0
    vals[:, g.identity] = 0
    c = Cochain2(g, 2, vals)
    full = all(
        (c(y, z) - c(int(g.table[x, y]), z) + c(x, int(g.table[y, z])) - c(x, y)) % 2 == 0
        for x in range(8)
        for y in range(8)
        for z in range(8)
    )
    assert c.is_cocycle() == full


def test_cocycle_check_over_several_row_blocks():
    """One wrong cell in the last row block is found, and the in-place
    coboundary sum equals v(g) + v(h) − v(gh); also under ``python -O``."""
    from qcoh.groups import _BLOCK_CELLS

    g = preset("cyclic", [1024])
    n = g.order
    if n * n <= 2 * _BLOCK_CELLS:
        raise AssertionError("the check must run over several row blocks")
    v = np.random.default_rng(11).integers(0, 4, size=n)
    v[g.identity] = 0
    c = coboundary1(Cochain1(g, 4, v))
    np.testing.assert_array_equal(c.values, (v[:, None] + v[None, :] - v[g.table]) % 4)
    if not c.is_cocycle():
        raise AssertionError("a coboundary must pass the cocycle check")
    # c(x, y) for y outside the slice generators enters only the equations of row x
    x = n - 1 if g.identity != n - 1 else n - 2
    y = next(y for y in range(n) if y != g.identity and y not in cohomology._solver_gens(g))
    vals = c.values.copy()
    vals[x, y] += 1
    if Cochain2(g, 4, vals).is_cocycle():
        raise AssertionError("a cell changed in the last row block must fail the check")


def test_coboundary_is_cocycle(h27):
    rng = np.random.default_rng(5)
    vals = rng.integers(0, 3, size=27)
    vals[h27.identity] = 0
    c = coboundary1(Cochain1(h27, 3, vals))
    assert c.is_cocycle()


# ---------------------------------------------------------------------------
# degree 1


@pytest.mark.parametrize(
    "name,params,q,factors",
    [
        ("elementary_abelian", [3, 2], 3, (3, 3)),
        ("dihedral4", None, 2, (2, 2)),
        ("heisenberg", [3], 3, (3, 3)),
        ("quaternion8", None, 2, (2, 2)),
        ("cyclic", [4], 2, (2,)),
        ("cyclic", [4], 4, (4,)),
        ("cyclic", [9], 3, (3,)),
        ("elementary_abelian", [4, 2], 4, (4, 4)),
        ("modular", [3], 3, (3, 3)),
    ],
)
def test_h1_invariant_factors(name, params, q, factors):
    g = preset(name, params) if params else preset(name)
    assert h1(g, q).invariant_factors == factors


def test_h1_basis_are_homomorphisms(g33):
    space = h1(g33, 3)
    for chi in space.basis:
        assert chi.is_cocycle()


def test_h1_coordinates_round_trip(g33):
    space = h1(g33, 3)
    for coords in [(0, 0), (1, 0), (2, 1), (1, 2)]:
        assert space.coordinates_of(space.element(coords)) == coords
    assert len(list(space.enumerate_elements())) == 9


def test_hom_from_generator_values(g33):
    chi = hom_from_generator_values(g33, 3, [1, 2])
    assert chi is not None and chi.is_cocycle()
    assert chi(g33.generators[0]) == 1 and chi(g33.generators[1]) == 2
    # no surjection Z/3 -> Z/2
    assert hom_from_generator_values(preset("cyclic", [3]), 2, [1]) is None


# ---------------------------------------------------------------------------
# H² solver against the brute-force oracle


@pytest.mark.parametrize(
    "name,params,q",
    [
        ("cyclic", [2], 2),
        ("cyclic", [3], 3),
        ("cyclic", [4], 2),
        ("cyclic", [4], 4),
        ("cyclic", [8], 2),
        ("cyclic", [9], 3),
        ("cyclic", [16], 4),
        ("elementary_abelian", [2, 2], 2),
        ("elementary_abelian", [3, 2], 3),
        ("elementary_abelian", [4, 2], 4),
        ("dihedral4", None, 2),
        ("quaternion8", None, 2),
    ],
)
def test_h2_matches_brute_force(name, params, q):
    g = preset(name, params) if params else preset(name)
    space = h2(g, q)
    assert space.invariant_factors == oracles.brute_h2_invariant_factors(g.table, g.identity, q)


def test_h2_matches_brute_force_order_27(h27):
    m27 = preset("modular", [3])
    assert h2(h27, 3).invariant_factors == oracles.brute_h2_invariant_factors(
        h27.table, h27.identity, 3
    )
    assert h2(m27, 3).invariant_factors == oracles.brute_h2_invariant_factors(
        m27.table, m27.identity, 3
    )


@pytest.mark.parametrize(
    "name,params,q",
    [
        ("cyclic", [2], 2),
        ("cyclic", [3], 3),
        ("cyclic", [4], 2),
        ("cyclic", [4], 4),
        ("elementary_abelian", [2, 2], 2),
    ],
)
def test_h2_order_by_pure_enumeration(name, params, q):
    g = preset(name, params)
    assert h2(g, q).order == oracles.brute_h2_order_tiny(g.table, g.identity, q)


def test_h2_basis_lies_in_brute_spans(g33, d4, sp33):
    """Each solver basis cochain is an oracle cocycle and a nonzero class."""
    for g, q, space in [(g33, 3, sp33), (d4, 2, h2(d4, 2))]:
        slots, zmat, bmat = oracles.brute_h2_spans(g.table, g.identity, q)
        zh, bh = howell_form(zmat), howell_form(bmat)
        for c in space.basis:
            vec = np.array([c(a, b) for a, b in slots], dtype=np.int64)
            assert row_span_contains(zh, vec)
            assert not row_span_contains(bh, vec)
        rng = np.random.default_rng(11)
        u = rng.integers(0, q, size=g.order)
        u[g.identity] = 0
        cb = coboundary1(Cochain1(g, q, u))
        vec = np.array([cb(a, b) for a, b in slots], dtype=np.int64)
        assert row_span_contains(bh, vec)


def test_h2_coordinates_round_trip(sp33):
    for coords in sp33.enumerate_coordinates():
        assert sp33.coordinates_of(sp33.representative(coords)) == coords


@given(seed=st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_h2_coordinates_ignore_coboundaries(seed):
    g = preset("elementary_abelian", [3, 2])
    space = h2(g, 3)
    rng = np.random.default_rng(seed)
    coords = tuple(int(x) for x in rng.integers(0, 3, size=3))
    u = rng.integers(0, 3, size=9)
    u[g.identity] = 0
    shifted = space.representative(coords) + coboundary1(Cochain1(g, 3, u))
    assert space.coordinates_of(shifted) == coords


def test_h2_cap():
    with pytest.raises(ValueError):
        h2(preset("cyclic", [128]), 2)
    # the cap is a default, not a wall
    assert h2(preset("cyclic", [128]), 2, cap=128).invariant_factors == (2,)
    assert H2_CAP == 64


# ---------------------------------------------------------------------------
# coboundary solving


def test_zero_class_has_coboundary_witness(g33):
    u = is_coboundary(zero2(g33, 3))
    assert u is not None and coboundary1(u).same_values(zero2(g33, 3))


def test_bockstein_generator_is_not_coboundary():
    for m, q in [(2, 2), (3, 3), (4, 4)]:
        g = preset("cyclic", [m])
        chi = h1(g, q).basis[0]
        assert is_coboundary(bockstein(chi)) is None


def test_cup_and_bockstein_raise_on_a_failed_cocycle_check(g33, monkeypatch):
    """The built cochain's cocycle check is an explicit raise, so it also runs under ``python -O``."""
    chi = h1(g33, 3).basis[0]
    monkeypatch.setattr(Cochain2, "is_cocycle", lambda self: False)
    with pytest.raises(AssertionError, match="cup product of homomorphisms is not a cocycle"):
        cup11(chi, chi)
    with pytest.raises(AssertionError, match="Bockstein of a homomorphism is not a cocycle"):
        bockstein(chi)


def test_inflated_defining_class_dies_upstairs(h27):
    """The class presenting E as an extension of Q inflates to zero on E."""
    data = quotient(h27, center(h27))
    quot = data.quotient
    x1, x2 = unit_chars(quot, 3, 2)
    assert is_coboundary(inflation2(cup11(x1, x2), data)) is not None


@given(seed=st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_random_coboundaries_are_recovered(seed):
    g = preset("cyclic", [9])
    rng = np.random.default_rng(seed)
    vals = rng.integers(0, 3, size=9)
    vals[g.identity] = 0
    c = coboundary1(Cochain1(g, 3, vals))
    u = is_coboundary(c)
    assert u is not None and coboundary1(u).same_values(c)


def test_is_coboundary_requires_cocycle(d4):
    vals = np.zeros((8, 8), dtype=np.int64)
    others = [x for x in range(8) if x != d4.identity]
    vals[others[0], others[1]] = 1
    c = Cochain2(d4, 2, vals)
    assert not c.is_cocycle()
    with pytest.raises(ValueError):
        is_coboundary(c)


# ---------------------------------------------------------------------------
# cup products and the Bockstein


def test_cup_is_the_value_product(g33):
    x1, x2 = unit_chars(g33, 3, 2)
    c = cup11(x1, x2)
    for g in range(9):
        for h in range(9):
            assert c(g, h) == (x1(g) * x2(h)) % 3


def test_cup_anticommutes_on_classes(g33, sp33):
    x1, x2 = unit_chars(g33, 3, 2)
    assert is_coboundary(cup11(x1, x2) + cup11(x2, x1)) is not None
    assert sp33.same_class(cup11(x2, x1), cup11(x1, x2).scale(-1))


@pytest.mark.parametrize("q,d", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3)])
def test_cup_square_is_scaled_bockstein(q, d):
    """χ∪χ = (q/δ)·β(χ) as classes on (Z/q)^d."""
    g = preset("elementary_abelian", [q, d])
    delta = 2 if q % 2 == 0 else 1
    rng = np.random.default_rng(q * 10 + d)
    for _ in range(3):
        a = rng.integers(0, q, size=d)
        chi = hom_from_generator_values(g, q, a)
        diff = cup11(chi, chi) - bockstein(chi).scale(q // delta)
        assert is_coboundary(diff) is not None


def test_bockstein_generates_cyclic_h2():
    for m in (2, 3, 4):
        g = preset("cyclic", [m])
        space = h2(g, m)
        assert space.invariant_factors == (m,)
        assert img_bockstein(space).order == m
        chi = hom_from_generator_values(g, m, [1])
        p = 2 if m % 2 == 0 else 3
        # the class has full order m, not just "nonzero"
        assert not space.is_zero_class(bockstein(chi).scale(m // p))


def test_bockstein_of_liftable_character_vanishes():
    g = preset("cyclic", [9])
    chi = h1(g, 3).basis[0]
    assert is_coboundary(bockstein(chi)) is not None


def test_bockstein_additive_on_classes(g33):
    x1, x2 = unit_chars(g33, 3, 2)
    diff = bockstein(x1 + x2) - bockstein(x1) - bockstein(x2)
    assert is_coboundary(diff) is not None
    g44 = preset("elementary_abelian", [4, 2])
    y1, y2 = unit_chars(g44, 4, 2)
    diff4 = bockstein(y1 + y2) - bockstein(y1) - bockstein(y2)
    assert is_coboundary(diff4) is not None


def test_bockstein_lift_independence():
    g = preset("cyclic", [4])
    chi = h1(g, 2).basis[0]
    lift = chi.values.astype(np.int64).copy()
    other = next(x for x in range(4) if x != g.identity and lift[x])
    lift[other] += 2
    assert is_coboundary(bockstein(chi, lift=lift) - bockstein(chi)) is not None


def test_bockstein_lift_validation():
    g = preset("cyclic", [4])
    chi = h1(g, 2).basis[0]
    with pytest.raises(ValueError):
        bockstein(chi, lift=chi.values + 1)  # wrong residues
    bad = chi.values.astype(np.int64).copy()
    bad[g.identity] = 2
    with pytest.raises(ValueError):
        bockstein(chi, lift=bad)
    with pytest.raises(ValueError):
        bockstein(chi, lift=[0, 1])


# ---------------------------------------------------------------------------
# invariant homs and transgression


def test_invariants_of_abelian_group_are_everything(g33):
    inv = invariants_h1(g33, whole_group(g33), 3)
    assert inv.invariant_factors == (3, 3)


def test_invariants_sharp_level2():
    sharp = free_level3(2, 3)
    series = q_central_series(sharp.group, 3)
    inv = invariants_h1(sharp.group, series.term(2), 3)
    assert inv.invariant_factors == (3, 3, 3)


def test_invariants_d4_center(d4):
    inv = invariants_h1(d4, center(d4), 2)
    assert inv.invariant_factors == (2,)


def test_invariants_require_normal_subgroup(d4):
    refl = subgroup_closure(d4, [d4.generators[1]])
    assert not refl.is_normal()
    with pytest.raises(ValueError):
        invariants_h1(d4, refl, 2)


def test_invariant_coordinates_round_trip():
    sharp = free_level3(2, 3)
    series = q_central_series(sharp.group, 3)
    inv = invariants_h1(sharp.group, series.term(2), 3)
    for coords in [(1, 0, 0), (0, 2, 1), (2, 2, 2)]:
        assert inv.coordinates_of(inv.element(coords)) == coords


def test_h1_restriction_kills_level2(d4):
    """Degree-1 classes of G vanish on the level-2 term, so the pairing
    entry ψ(σ) is insensitive to shifting ψ by a restricted class."""
    for g, q in [(d4, 2), (free_level3(2, 3).group, 3)]:
        series = q_central_series(g, q)
        sub = series.term(2)
        for chi in h1(g, q).basis:
            res = restriction1(chi, sub)
            assert not res.values.any()


def test_transgression_of_zero_hom(d4):
    sub = center(d4)
    tgrp = subgroup_as_group(sub)
    tg = transgression(d4, sub, zero1(tgrp, 2), 2, quotient(d4, sub))
    assert not tg.values.any()


def test_transgression_cyclic4_is_bockstein_downstairs():
    g = preset("cyclic", [4])
    sub = subgroup_closure(g, [g.table[1, 1]])
    data = quotient(g, sub)
    inv = invariants_h1(g, sub, 2)
    sq = int(g.table[1, 1])
    psi = next(p for p in inv.enumerate_elements() if inv.value(p, sq) == 1)
    tg = transgression(g, sub, psi, 2, data=data)
    space = h2(data.quotient, 2)
    chi = next(c for c in h1(data.quotient, 2).enumerate_elements() if c(data.projection(1)) == 1)
    assert not space.is_zero_class(tg)
    assert space.same_class(tg, bockstein(chi))


def test_transgression_cyclic9_is_bockstein_downstairs():
    g = preset("cyclic", [9])
    cube = int(g.table[1, g.table[1, 1]])
    sub = subgroup_closure(g, [cube])
    data = quotient(g, sub)
    inv = invariants_h1(g, sub, 3)
    psi = next(p for p in inv.enumerate_elements() if inv.value(p, cube) == 1)
    tg = transgression(g, sub, psi, 3, data=data)
    space = h2(data.quotient, 3)
    chi = next(c for c in h1(data.quotient, 3).enumerate_elements() if c(data.projection(1)) == 1)
    assert space.same_class(tg, bockstein(chi))


def test_transgression_sharp_commutator_dual_is_cup():
    """On the rank-2 sharp model, the hom dual to [σ₁,σ₂] transgresses to
    exactly +χ₁∪χ₂ — this pins the global sign."""
    sharp = free_level3(2, 3)
    series = q_central_series(sharp.group, 3)
    sub = series.term(2)
    inv = invariants_h1(sharp.group, sub, 3)
    comm = sharp.commutator_central[0]
    powers = list(sharp.power_central)
    psi = next(
        p
        for p in inv.enumerate_elements()
        if inv.value(p, comm) == 1 and all(inv.value(p, g) == 0 for g in powers)
    )
    data = quotient(sharp.group, sub)
    tg = transgression(sharp.group, sub, psi, 3, data=data)
    space = h2(data.quotient, 3)
    x1, x2 = unit_chars(data.quotient, 3, 2)
    assert space.same_class(tg, cup11(x1, x2))


def test_transgression_section_independent():
    g = preset("cyclic", [8])
    sub = subgroup_closure(g, [4])
    data = quotient(g, sub)
    inv = invariants_h1(g, sub, 2)
    psi = next(p for p in inv.enumerate_elements() if inv.value(p, 4) == 1)
    space = h2(data.quotient, 2)
    base = transgression(g, sub, psi, 2, data=data)
    rng = np.random.default_rng(21)
    for _ in range(10):
        sec = data.coset_reps.copy()
        for j in range(data.quotient.order):
            fiber = [x for x in range(8) if data.projection(x) == j]
            sec[j] = fiber[rng.integers(len(fiber))]
        tg = transgression(g, sub, psi, 2, data=data, section=sec)
        assert space.same_class(tg, base)


def test_transgression_level2_guard(d4):
    rot = subgroup_closure(d4, [d4.generators[0]])
    tgrp = subgroup_as_group(rot)
    psi = h1(tgrp, 2).basis[0]
    data = quotient(d4, rot)
    with pytest.raises(ValueError):
        transgression(d4, rot, psi, 2, data)
    # the guard is the only obstruction: lifting it computes a factor set
    tg = transgression(d4, rot, psi, 2, data, require_level2=False)
    assert tg.is_cocycle()


def test_transgression_rejects_non_invariant_hom(d4):
    # ψ: ⟨r⟩ → Z/4 with ψ(r) = 1 is not stable under r ↦ r⁻¹
    rot = subgroup_closure(d4, [d4.generators[0]])
    tgrp = subgroup_as_group(rot)
    pos = rot.members.index(d4.generators[0])
    psi = next(c for c in h1(tgrp, 4).enumerate_elements() if c.values[pos] == 1)
    with pytest.raises(ValueError):
        transgression(d4, rot, psi, 4, quotient(d4, rot), require_level2=False)


# ---------------------------------------------------------------------------
# restriction and inflation


def test_inflation_h1_bijective_when_sub_is_level2(d4):
    for g, q in [(d4, 2), (free_level3(2, 3).group, 3)]:
        series = q_central_series(g, q)
        data = quotient(g, series.term(2))
        hq = h1(data.quotient, q)
        hg = h1(g, q)
        assert hq.order == hg.order
        images = {hg.coordinates_of(inflation1(chi, data)) for chi in hq.enumerate_elements()}
        assert len(images) == hg.order


def test_restriction_values(g33):
    x1, x2 = unit_chars(g33, 3, 2)
    line = subgroup_closure(g33, [g33.generators[0]])
    res = restriction1(x1, line)
    # x1 is faithful on its own line, x2 dies
    assert sorted(int(v) for v in res.values) == [0, 1, 2]
    assert not restriction1(x2, line).values.any()
    r2 = restriction2(cup11(x1, x2), line)
    assert not r2.values.any()


def test_restriction_inflation_carrier_guards(g33, klein):
    line = subgroup_closure(g33, [g33.generators[0]])
    with pytest.raises(ValueError):
        restriction1(zero1(klein, 2), line)
    data = quotient(g33, line)
    with pytest.raises(ValueError):
        inflation1(zero1(klein, 2), data)


# ---------------------------------------------------------------------------
# decomposable part, Bockstein image, symbolic model


def test_h2_dec_orders(g33, klein, sp33, sp22):
    assert h2_dec(sp33).order == 3
    assert h2_dec(sp22).order == 8 == sp22.order
    z3 = preset("cyclic", [3])
    sp3 = h2(z3, 3)
    assert h2_dec(sp3).order == 1
    assert img_bockstein(sp3).order == 3 == sp3.order


def test_h2_is_bocksteins_plus_decomposables():
    for q, d in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
        g = preset("elementary_abelian", [q, d])
        space = h2(g, q)
        chars = unit_chars(g, q, d)
        gens = [bockstein(c) for c in chars]
        gens += [cup11(a, b) for a in chars for b in chars]
        assert span_of_classes(space, gens).order == space.order


def test_dec_subspace_membership(sp33, g33):
    x1, x2 = unit_chars(g33, 3, 2)
    dec = h2_dec(sp33)
    assert dec.contains(cup11(x1, x2))
    assert not dec.contains(bockstein(x1))
    members = dec.coordinate_members()
    assert len(members) == 3
    zero = tuple(0 for _ in sp33.invariant_factors)
    assert zero in members
    nonzero = next(m for m in members if any(m))
    doubled = tuple((2 * x) % f for x, f in zip(nonzero, sp33.invariant_factors))
    assert doubled in members


@pytest.mark.parametrize("d,q,rank", [(1, 2, 1), (2, 2, 3), (3, 2, 6), (2, 3, 3), (3, 3, 6), (2, 4, 3), (1, 4, 1)])
def test_symbolic_rank(d, q, rank):
    sym = symbolic_h2_elementary(d, q)
    assert sym.rank == rank
    assert len(sym.labels) == rank


def test_symbolic_rank_matches_solver():
    """For (Z/q)^d within the cap, the solver H² is free of rank d + C(d,2)."""
    for d, q in [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4)]:
        g = preset("elementary_abelian", [q, d])
        sym = symbolic_h2_elementary(d, q)
        assert h2(g, q).invariant_factors == (q,) * sym.rank


def test_symbolic_dec_order_matches_solver():
    for d, q in [(2, 2), (3, 2), (2, 3), (2, 4)]:
        g = preset("elementary_abelian", [q, d])
        sym = symbolic_h2_elementary(d, q)
        assert sym.dec_order() == h2_dec(h2(g, q)).order


@pytest.mark.parametrize("q", [2, 3, 4])
def test_symbolic_cup_coordinates_match_real_classes(q):
    """cup_coords gives honest coefficients: rebuilding the
    combination from actual representatives lands in the same class."""
    d = 2
    g = preset("elementary_abelian", [q, d])
    sym = symbolic_h2_elementary(d, q)
    chars = unit_chars(g, q, d)
    basis_reps = [bockstein(c) for c in chars] + [
        cup11(chars[i], chars[j]) for i, j in sym.pairs
    ]
    rng = np.random.default_rng(q)
    for _ in range(4):
        a = rng.integers(0, q, size=d)
        b = rng.integers(0, q, size=d)
        chi_a = hom_from_generator_values(g, q, a)
        chi_b = hom_from_generator_values(g, q, b)
        coords = sym.cup_coords(a, b)
        rebuilt = zero2(g, q)
        for x, rep in zip(coords, basis_reps):
            rebuilt = rebuilt + rep.scale(int(x))
        assert is_coboundary(cup11(chi_a, chi_b) - rebuilt) is not None


def test_symbolic_validation():
    with pytest.raises(ValueError):
        symbolic_h2_elementary(0, 3)
    with pytest.raises(ValueError):
        symbolic_h2_elementary(2, 6)


# ---------------------------------------------------------------------------
# central extensions


def test_split_extension_is_direct_product(g33):
    spec = extension_from_class(g33, zero2(g33, 3))
    assert is_isomorphic(spec.total, preset("elementary_abelian", [3, 3]))


def test_bockstein_class_extends_to_cyclic():
    for m in (3, 4):
        g = preset("cyclic", [m])
        chi = hom_from_generator_values(g, m, [1])
        spec = extension_from_class(g, bockstein(chi))
        assert is_isomorphic(spec.total, preset("cyclic", [m * m]))


def test_cup_class_extends_to_heisenberg(g33, h27):
    x1, x2 = unit_chars(g33, 3, 2)
    spec = extension_from_class(g33, cup11(x1, x2))
    assert is_isomorphic(spec.total, h27)


def test_mixed_class_extends_to_modular(g33):
    x1, x2 = unit_chars(g33, 3, 2)
    c = bockstein(x1).scale(-1) + cup11(x1, x2)
    spec = extension_from_class(g33, c)
    assert is_isomorphic(spec.total, preset("modular", [3]))


def test_extension_round_trip_exact(g33, sp33):
    x1, x2 = unit_chars(g33, 3, 2)
    c = cup11(x1, x2)
    spec = extension_from_class(g33, c)
    assert oracles.class_of_spec(spec).same_values(c)
    for coords in [(1, 0, 2), (0, 1, 1), (2, 2, 0)]:
        rep = sp33.representative(coords)
        back = oracles.class_of_spec(extension_from_class(g33, rep))
        assert sp33.same_class(back, rep)


def test_klein_extension_classification(klein, sp22, d4, q8):
    """The eight classes over (Z/2)² sort into the four order-8 candidates."""
    z2z4 = preset("direct_product", [("cyclic", [2]), ("cyclic", [4])])
    z222 = preset("elementary_abelian", [2, 3])
    counts = {"d4": 0, "q8": 0, "z2z4": 0, "z222": 0}
    for coords in sp22.enumerate_coordinates():
        total = extension_from_class(klein, sp22.representative(coords)).total
        if is_isomorphic(total, d4):
            counts["d4"] += 1
        elif is_isomorphic(total, q8):
            counts["q8"] += 1
        elif is_isomorphic(total, z2z4):
            counts["z2z4"] += 1
        elif is_isomorphic(total, z222):
            counts["z222"] += 1
    assert counts == {"d4": 3, "q8": 1, "z2z4": 3, "z222": 1}


def test_d4_extension_class_has_cup_part(d4, sp22, klein):
    data = quotient(d4, center(d4))
    emb = sorted(center(d4).members)
    cls = class_from_extension(d4, emb, data.projection, 2)
    # move the class to the preset copy of (Z/2)² via the symbolic basis:
    # on the quotient itself, check it is NOT in Img β (the cup part is there)
    quot = data.quotient
    space = h2(quot, 2)
    assert not img_bockstein(space).contains(cls)
    rebuilt = extension_from_class(quot, cls)
    assert is_isomorphic(rebuilt.total, d4)


def test_q8_round_trip(q8):
    data = quotient(q8, center(q8))
    cls = class_from_extension(q8, sorted(center(q8).members), data.projection, 2)
    assert is_isomorphic(extension_from_class(data.quotient, cls).total, q8)


def test_cohomologous_classes_give_isomorphic_extensions(g33, h27):
    x1, x2 = unit_chars(g33, 3, 2)
    c = cup11(x1, x2)
    rng = np.random.default_rng(3)
    for _ in range(3):
        u = rng.integers(0, 3, size=9)
        u[g33.identity] = 0
        shifted = c + coboundary1(Cochain1(g33, 3, u))
        assert is_isomorphic(extension_from_class(g33, shifted).total, h27)


def test_class_from_extension_validation(d4):
    zc = center(d4)
    data = quotient(d4, zc)
    emb = sorted(zc.members)
    refl = subgroup_closure(d4, [d4.generators[1]])
    wrong = sorted(refl.members)
    with pytest.raises(ValueError):
        class_from_extension(d4, wrong, data.projection, 2)
    rot = subgroup_closure(d4, [d4.generators[0]])
    rdata = quotient(d4, rot)
    r = d4.generators[0]
    chain = [d4.identity, r, int(d4.table[r, r]), int(d4.table[d4.table[r, r], r])]
    with pytest.raises(ValueError, match="not central"):
        class_from_extension(d4, chain, rdata.projection, 4)
    with pytest.raises(ValueError):
        class_from_extension(d4, [emb[0], emb[0]], data.projection, 2)


# ---------------------------------------------------------------------------
# tensor-power quotients and the hat ring


def test_kill_rows_empty_when_alpha_never_vanishes():
    (rows,) = tensor_kill_rows((3, 3), 3, (2,), 2, lambda pairs: np.zeros(len(pairs), dtype=bool))
    assert rows.shape[0] == 0


def test_kill_rows_degree_below_t():
    (rows,) = tensor_kill_rows((3, 3), 3, (1,), 2, lambda pairs: np.ones(len(pairs), dtype=bool))
    assert rows.shape[0] == 0
    pres = tensor_quotient((3, 3), 3, 1, rows)
    assert pres.order == 9


def test_tensor_degree_cap():
    with pytest.raises(ValueError):
        tensor_kill_rows((3,), 3, (4,), 2, lambda pairs: np.zeros(len(pairs), dtype=bool))
    with pytest.raises(ValueError):
        tensor_kill_rows((3,), 3, (0,), 2, lambda pairs: np.zeros(len(pairs), dtype=bool))


def test_tensor_quotient_order_by_closure():
    """Dual route: quotient order equals ambient size over the set-closure of
    the relation rows, with one predicate call for all degrees."""
    factors, q = (3, 3), 3
    calls = []

    def parallel(pairs):
        calls.append(len(pairs))
        a, b = pairs[:, 0], pairs[:, 1]
        return (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]) % q == 0

    kills = tensor_kill_rows(factors, q, (1, 2, 3), 2, parallel)
    assert calls == [81]  # one call on all 9² pairs serves every degree
    assert kills[0].shape == (0, 2)
    for r, rows in zip((2, 3), kills[1:]):
        pres = tensor_quotient(factors, q, r, rows)
        ncols = len(factors) ** r
        closure = oracles.span_closure(rows, q, ncols)
        assert pres.order == q**ncols // len(closure)


def test_hat_ring_rank2_elementary(g33):
    ring = hat_ring(g33, 3)
    assert ring.degrees[1].invariant_factors == (3, 3)
    assert ring.degrees[2].invariant_factors == (3,)
    assert ring.dec_order == 3
    assert ring.quadratic2


def test_hat_ring_cyclic3():
    ring = hat_ring(preset("cyclic", [3]), 3)
    assert ring.degrees[2].is_trivial
    assert ring.dec_order == 1
    assert ring.quadratic2


def test_hat_ring_bockstein_style_alpha():
    """t = 1 with α = Bockstein-vanishing: on Z/9 every character lifts, so
    everything is killed; on (Z/3)² nothing nonzero is."""
    z9 = preset("cyclic", [9])
    h19 = h1(z9, 3)
    space9 = h2(z9, 3)

    def beta_dies_9(tups):
        return np.array([space9.is_zero_class(bockstein(h19.element(v))) for v in tups[:, 0]])

    (rows,) = tensor_kill_rows(h19.invariant_factors, 3, (2,), 1, beta_dies_9)
    assert tensor_quotient(h19.invariant_factors, 3, 2, rows).is_trivial

    g33 = preset("elementary_abelian", [3, 2])
    h133 = h1(g33, 3)
    space33 = h2(g33, 3)

    def beta_dies_33(tups):
        return np.array([space33.is_zero_class(bockstein(h133.element(v))) for v in tups[:, 0]])

    (rows33,) = tensor_kill_rows(h133.invariant_factors, 3, (2,), 1, beta_dies_33)
    assert tensor_quotient(h133.invariant_factors, 3, 2, rows33).order == 81


def test_hat_ring_degree_three_cyclic():
    ring = hat_ring(preset("cyclic", [3]), 3, max_degree=3)
    assert ring.degrees[3].is_trivial
    with pytest.raises(ValueError):
        hat_ring(preset("cyclic", [3]), 3, max_degree=4)


# ---------------------------------------------------------------------------
# five-term exact sequence


def test_five_term_d4_center(d4):
    report = five_term_check(d4, center(d4), 2)
    assert report.exact
    assert [name for name, _, _ in report.nodes] == [
        "inflation-injective",
        "kernel-res-equals-image-inf",
        "kernel-trg-equals-image-res",
        "kernel-inf2-equals-image-trg",
    ]


def test_five_term_cyclic4():
    g = preset("cyclic", [4])
    sub = subgroup_closure(g, [int(g.table[1, 1])])
    assert five_term_check(g, sub, 2).exact


def test_five_term_sharp_model_beyond_cap():
    """|G| = 243 > the H² cap; the last node routes through coboundary tests."""
    sharp = free_level3(2, 3)
    series = q_central_series(sharp.group, 3)
    report = five_term_check(sharp.group, series.term(2), 3)
    assert report.exact


def test_five_term_flat_model():
    flat = free_level3(2, 3, variant="flat")
    series = q_central_series(flat.group, 3)
    assert five_term_check(flat.group, series.term(2), 3).exact


def test_five_term_whole_group_degenerate(g33):
    report = five_term_check(g33, whole_group(g33), 3, require_level2=False)
    assert report.exact


def test_five_term_level2_guard(d4):
    rot = subgroup_closure(d4, [d4.generators[0]])
    with pytest.raises(ValueError):
        five_term_check(d4, rot, 2)


def test_five_term_quotient_beyond_cap_raises_h2_error():
    """An order-81 quotient fails in h2 itself, with the solver's cap message."""
    g = preset("elementary_abelian", [3, 4])
    with pytest.raises(ValueError, match="exceeds the H² solver cap 64"):
        five_term_check(g, trivial_subgroup(g), 3)


# ---------------------------------------------------------------------------
# H² from pc tails against the cocycle-lattice oracle


@pytest.mark.parametrize("relabel", [False, True], ids=["natural", "relabeled"])
@pytest.mark.parametrize("label,build,qs", oracles.SMALL_SOLVABLE, ids=[c[0] for c in oracles.SMALL_SOLVABLE])
def test_h2_tails_oracle_matches_cocycle_lattice(label, build, qs, relabel):
    """Same Z² generators, invariant factors, _basis_v bytes and basis cochains."""
    g = oracles.relabeled(build(), seed=len(label)) if relabel else build()
    for q in qs:
        space = h2(g, q)
        zrows, factors, basis_v, values = oracles.h2_cocycle_lattice(g, q)
        ours = cohomology._cocycle_span(g, q, space._cob_v, space._cob_howell).matrix.entries
        if ours.shape != zrows.shape or ours.tobytes() != zrows.tobytes():
            raise AssertionError(f"{label}, q = {q}: Z² generators differ from the lattice kernel")
        if space.invariant_factors != factors:
            raise AssertionError(f"{label}, q = {q}: {space.invariant_factors} against {factors}")
        if space._basis_v.shape != basis_v.shape or space._basis_v.tobytes() != basis_v.tobytes():
            raise AssertionError(f"{label}, q = {q}: the basis v-vectors differ")
        if any(not np.array_equal(c.values, v) for c, v in zip(space.basis, values)):
            raise AssertionError(f"{label}, q = {q}: a basis cochain differs")


def test_h2_tails_fault_one_wrong_tail_raises(monkeypatch):
    """A consistent-tails step with one wrong tail is caught by an explicit raise."""
    g = preset("heisenberg", [3])
    pc = pc_presentation(g)
    real = cohomology._consistent_tails
    good = real(pc, cohomology._tail_forms(pc, 3), 3)
    bad = good.copy()
    bad[0, -1] = (bad[0, -1] + 1) % 3
    if row_span_contains(howell_form(ZqMatrix(good, 3)), bad[0]):
        raise AssertionError("the changed row must leave the consistent tails")
    monkeypatch.setattr(cohomology, "_consistent_tails", lambda pc, forms, q: bad)
    with pytest.raises(AssertionError, match="non-cocycle"):
        h2(g, 3)


def test_h2_tails_fault_wrong_lift_changes_raise(monkeypatch):
    """Dropping the lift-change tails B_t breaks the |Z_t/B_t| count, an explicit raise."""
    g = preset("cyclic", [4])
    pc = pc_presentation(g)
    if not cohomology._lift_change_tails(pc, 2).any():
        raise AssertionError("Z/4 must have a nonzero lift change")
    monkeypatch.setattr(cohomology, "_lift_change_tails", lambda pc, q: np.zeros((pc.length, 3), dtype=np.int64))
    with pytest.raises(AssertionError, match="Z_t/B_t"):
        h2(g, 2)


# ---------------------------------------------------------------------------
# per-group memo


def test_memo_returns_the_same_h1_h2_and_tree():
    g = preset("dihedral4")
    assert h1(g, 2) is h1(g, 2)
    assert h2(g, 2) is h2(g, 2)
    assert _solver_tree(g) is _solver_tree(g)
    assert h1(g, 4) is not h1(g, 2)
    assert h1(g, 4).invariant_factors == (2, 2)


def test_memo_cocycle_verdict_is_computed_once(monkeypatch):
    """is_cocycle checks a cochain once; is_coboundary reuses the kept verdict."""
    g = preset("dihedral4")
    chi = h1(g, 2).basis[0]
    good = cup11(chi, chi)
    vals = np.zeros((8, 8), dtype=np.int64)
    others = [x for x in range(8) if x != g.identity]
    vals[others[0], others[1]] = 1
    bad = Cochain2(g, 2, vals)
    checks = []
    real = Cochain2._check_cocycle
    monkeypatch.setattr(Cochain2, "_check_cocycle", lambda self: checks.append(self) or real(self))
    is_coboundary(good)
    is_coboundary(good)
    if checks or not good.is_cocycle():
        raise AssertionError("cup11 already checked its cochain; the verdict must be reused")
    for _ in range(2):
        if bad.is_cocycle():
            raise AssertionError("a non-cocycle passed the check")
        with pytest.raises(ValueError, match="expected a degree-2 cocycle"):
            is_coboundary(bad)
    if len(checks) != 1:
        raise AssertionError(f"the bad cochain was checked {len(checks)} times")


def test_memo_h2_checks_the_cap_on_every_call():
    g = preset("elementary_abelian", [2, 3])
    space = h2(g, 2)
    with pytest.raises(ValueError):
        h2(g, 2, cap=4)
    assert h2(g, 2) is space


def test_memo_cached_arrays_are_read_only():
    g = preset("heisenberg", [3])
    space = h2(g, 3)
    pc = pc_presentation(g)
    arrays = (h1(g, 3)._gen_values, _solver_tree(g), space._basis_v, space._cob_v)
    for arr in arrays + (pc.exponents, pc.power_words, pc.conj_words):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1


def test_memo_is_freed_with_its_group():
    g = preset("quaternion8")
    h1(g, 2)
    h2(g, 2)
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None
