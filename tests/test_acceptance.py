"""Acceptance gate: the thirteen headline checks, one test per criterion.

Run ``pytest -v tests/test_acceptance.py`` for one pass/fail line per
criterion.  Stated runtime budgets are asserted alongside the mathematical
content, so a regression in either fails the gate.  Randomized criteria use
a frozen seed; the exhaustive-search oracles below are vectorized but still
enumerate every candidate vector.
"""

import itertools
import time

import numpy as np
import pytest

import oracles
from qcoh.cohomology import (
    bockstein,
    cup11,
    extension_from_class,
    five_term_check,
    h1,
    h2,
    hom_from_generator_values,
    is_coboundary,
)
from qcoh.duality import (
    TRIPLE_KINDS,
    dual_basis_check,
    duality_conditions,
    inflation_isomorphism_table,
    inflation_kernel_symbolic,
    level2_frame,
    local_global_check,
    lower3_intersection_check,
    lower3_subgroup,
    reconstruct_quotient,
    triple_of,
)
from qcoh.freemodel import free_level3
from qcoh.groups import (
    is_isomorphic,
    normal_subgroups_within,
    preset,
    q_central_series,
    quotient,
)
from qcoh.zqlin import ZqMatrix, howell_form, kernel, solve


def _zq_power(q: int, d: int):
    if d == 1:
        return preset("cyclic", [q])
    if q in (2, 3):
        return preset("elementary_abelian", [q, d])
    return preset("direct_product", [("cyclic", [q])] * d)


_STANDARD_NINE = [
    ("dihedral4", preset("dihedral4"), 2),
    ("quaternion8", preset("quaternion8"), 2),
    ("cyclic4", preset("cyclic", [4]), 2),
    ("cyclic16-q4", preset("cyclic", [16]), 4),
    ("heisenberg3", preset("heisenberg", [3]), 3),
    ("modular3", preset("modular", [3]), 3),
    ("sharp22", free_level3(2, 2, "sharp").group, 2),
    ("sharp23", free_level3(2, 3, "sharp").group, 3),
    ("flat23", free_level3(2, 3, "flat").group, 3),
]


def test_criterion_01_h2_dimensions():
    start = time.perf_counter()
    for p in (2, 3):
        for d in (1, 2, 3):
            space = h2(_zq_power(p, d), p)
            want = d + d * (d - 1) // 2
            assert space.invariant_factors == (p,) * want
    for d in (1, 2, 3):
        space = h2(_zq_power(4, d), 4)
        want = d + d * (d - 1) // 2
        assert space.invariant_factors == (4,) * want
    assert time.perf_counter() - start < 30.0


_DUAL_BASIS_CASES = [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 2)]


def test_criterion_02_dual_basis_identity():
    start = time.perf_counter()
    for d, q in _DUAL_BASIS_CASES:
        rep = dual_basis_check(d, q)
        assert rep.identity, (d, q)
    assert time.perf_counter() - start < 60.0


def test_criterion_03_closed_pairing_formulas():
    for d, q in _DUAL_BASIS_CASES:
        rep = dual_basis_check(d, q)
        assert np.array_equal(rep.matrix, rep.formula_matrix), (d, q)
        assert rep.formulas_match, (d, q)


def test_criterion_04_self_cup_is_scaled_bockstein():
    for q in (2, 3, 4):
        delta = 2 if q % 2 == 0 else 1
        scale = q // delta
        for d in (1, 2, 3):
            g = _zq_power(q, d)
            for values in itertools.product(range(q), repeat=d):
                chi = hom_from_generator_values(g, q, list(values))
                diff = cup11(chi, chi) + bockstein(chi).scale(-scale)
                assert is_coboundary(diff) is not None, (q, d, values)


def test_criterion_05_local_global_decomposability():
    for q in (2, 3, 4):
        for d in (1, 2, 3):
            rep = local_global_check(d, q)
            assert rep.matches, (d, q)
            assert rep.coefficient_route, (d, q)


def test_criterion_06_duality_for_standard_groups():
    start = time.perf_counter()
    tri = triple_of("dec-cup")
    for label, group, q in _STANDARD_NINE:
        top = q_central_series(group, q).term(2)
        floor = lower3_subgroup(group, q)
        assert duality_conditions(group, q, top, floor, tri.alpha_image).verdict, label
    assert time.perf_counter() - start < 120.0


def test_criterion_07_refined_level3_intersection():
    start = time.perf_counter()
    cases = [
        ("heisenberg3", preset("heisenberg", [3]), 3, True),
        ("modular3", preset("modular", [3]), 3, True),
        ("el33", preset("elementary_abelian", [3, 2]), 3, True),
        ("flat23", free_level3(2, 3, "flat").group, 3, True),
        ("sharp23", free_level3(2, 3, "sharp").group, 3, True),
        ("cyclic4", preset("cyclic", [4]), 2, True),
        ("cyclic16", preset("cyclic", [16]), 2, True),
        ("dihedral4", preset("dihedral4"), 2, True),
        ("quaternion8", preset("quaternion8"), 2, False),
        ("sharp22", free_level3(2, 2, "sharp").group, 2, True),
    ]
    for label, group, p, expect_equal in cases:
        rep = lower3_intersection_check(group, p)
        if rep.relation_type.passes:
            # the hypothesis holds, so equality is asserted
            assert rep.equal, label
        assert rep.equal is expect_equal, label
    assert time.perf_counter() - start < 120.0


def test_criterion_08_six_conditions_identical_across_matrix():
    for label, group, q in _STANDARD_NINE:
        for kind in TRIPLE_KINDS:
            tri = triple_of(kind)
            rep = duality_conditions(
                group, q, tri.top(group, q), tri.floor(group, q), tri.alpha_image
            )
            verdicts = rep.as_tuple()
            assert len(set(verdicts)) == 1, (label, kind, verdicts)
            assert verdicts[0] is True, (label, kind)


def test_criterion_09_inflation_tables_over_all_normal_subgroups():
    for label, group, q in _STANDARD_NINE:
        for kind in TRIPLE_KINDS:
            tab = inflation_isomorphism_table(group, q, triple_of(kind))
            for row in tab.rows:
                assert row.in_floor == row.alpha_iso, (label, kind, row.sub.order)
                if row.alpha_iso:
                    assert all(row.tensor_iso.values()), (label, kind, row.sub.order)


def test_criterion_10_reconstruction_roundtrip():
    start = time.perf_counter()
    pool = [
        ("heisenberg3", preset("heisenberg", [3]), 3),
        ("modular3", preset("modular", [3]), 3),
        ("el33", preset("elementary_abelian", [3, 2]), 3),
        ("dihedral4", preset("dihedral4"), 2),
        ("cyclic4", preset("cyclic", [4]), 2),
        ("quaternion8", preset("quaternion8"), 2),
    ]
    for label, group, q in pool:
        frame = level2_frame(group, q)
        for kind in TRIPLE_KINDS:
            tri = triple_of(kind)
            rows = inflation_kernel_symbolic(group, q, tri)
            rec = reconstruct_quotient(frame.d, q, tri, rows)
            target = quotient(group, tri.floor(group, q)).quotient
            assert is_isomorphic(rec.group, target), (label, kind)
    assert time.perf_counter() - start < 60.0


# --- criterion 11: exhaustive-search oracle, vectorized over all candidates


def _all_vectors(q: int, n: int) -> np.ndarray:
    if n == 0:
        return np.zeros((1, 0), dtype=np.int64)
    return np.indices((q,) * n).reshape(n, -1).T.astype(np.int64)


def _span_set(rows: np.ndarray, q: int, width: int) -> set:
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, width) % q
    coeffs = _all_vectors(q, rows.shape[0])
    points = (coeffs @ rows) % q if rows.shape[0] else np.zeros((1, width), dtype=np.int64)
    return set(map(tuple, points.tolist()))


def test_criterion_11_linalg_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(40961)
    for q in (2, 3, 4, 8, 9):
        for trial in range(200):
            rows = int(rng.integers(1, 5))
            cols = int(rng.integers(1, 6))
            entries = rng.integers(0, q, size=(rows, cols))
            m = ZqMatrix(entries, q)
            candidates = _all_vectors(q, cols)
            images = (candidates @ entries.T) % q

            if trial % 2 == 0:
                rhs = (entries @ rng.integers(0, q, size=cols)) % q
            else:
                rhs = rng.integers(0, q, size=rows)
            solvable = bool((images == rhs).all(axis=1).any())
            found = solve(m, rhs)
            assert (found is not None) == solvable, (q, trial)
            if found is not None:
                assert ((entries @ found) % q == rhs % q).all(), (q, trial)

            brute_null = set(
                map(tuple, candidates[(images == 0).all(axis=1)].tolist())
            )
            lib_null = _span_set(kernel(m).entries, q, cols)
            assert lib_null == brute_null, (q, trial)

            h = howell_form(m)
            assert _span_set(h.matrix.entries, q, cols) == _span_set(entries, q, cols), (
                q,
                trial,
            )
    assert time.perf_counter() - start < 30.0


def test_criterion_12_five_term_exactness_randomized():
    pool = [
        (preset("cyclic", [8]), 2),
        (preset("cyclic", [16]), 2),
        (preset("cyclic", [9]), 3),
        (preset("cyclic", [27]), 3),
        (preset("dihedral4"), 2),
        (preset("quaternion8"), 2),
        (preset("heisenberg", [3]), 3),
        (preset("modular", [3]), 3),
        (preset("direct_product", [("cyclic", [4]), ("cyclic", [4])]), 2),
        (preset("direct_product", [("cyclic", [8]), ("cyclic", [2])]), 2),
        (preset("direct_product", [("cyclic", [9]), ("cyclic", [3])]), 3),
        (free_level3(2, 2, "sharp").group, 2),
        (free_level3(2, 2, "flat").group, 2),
        (free_level3(1, 4, "sharp").group, 4),
    ]
    assert all(g.order <= 64 for g, _ in pool)
    rng = np.random.default_rng(20260816)
    for _ in range(20):
        group, q = pool[int(rng.integers(0, len(pool)))]
        inside = normal_subgroups_within(group, q_central_series(group, q).term(2))
        sub = inside[int(rng.integers(0, len(inside)))]
        rep = five_term_check(group, sub, q)
        assert rep.exact, (group.name, q, sub.order, rep.nodes)


def test_criterion_13_extension_classification_roundtrip():
    for p in (3, 5):
        g = preset("elementary_abelian", [p, 2])
        x1 = hom_from_generator_values(g, p, [1, 0])
        x2 = hom_from_generator_values(g, p, [0, 1])
        cup = cup11(x1, x2)
        assert is_isomorphic(extension_from_class(g, cup).total, preset("heisenberg", [p]))
        mixed = bockstein(x1).scale(-1) + cup
        assert is_isomorphic(extension_from_class(g, mixed).total, preset("modular", [p]))
        spec = extension_from_class(g, cup)
        assert is_coboundary(oracles.class_of_spec(spec) + cup.scale(-1)) is not None
    for q in (2, 3, 4, 9):
        c = preset("cyclic", [q])
        chi = hom_from_generator_values(c, q, [1])
        total = extension_from_class(c, bockstein(chi)).total
        assert is_isomorphic(total, preset("cyclic", [q * q])), q
