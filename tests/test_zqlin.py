"""Tests for exact linear algebra over Z/p**s, pinned against brute force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import all_vectors, brute_kernel, brute_solutions, span_closure
from qcoh.cohomology import _coboundary_rows, _solver_gens
from qcoh.groups import preset
from qcoh.zqlin import (
    _howell_rows,
    AbGroupPresentation,
    ZqMatrix,
    coset_reduce,
    factor_prime_power,
    howell_form,
    kernel,
    pairing_perfection,
    row_span_contains,
    row_span_size,
    smith_decomposition,
    solve,
)

MODULI = [2, 3, 4, 8, 9]


# ---------------------------------------------------------------------------
# scalars and modulus plumbing


@pytest.mark.parametrize("q,p,s", [(2, 2, 1), (3, 3, 1), (4, 2, 2), (8, 2, 3), (9, 3, 2), (27, 3, 3), (25, 5, 2)])
def test_factor_prime_power(q, p, s):
    assert factor_prime_power(q) == (p, s)


@pytest.mark.parametrize("q", [1, 6, 12, 0, -4, 100, (1 << 16) + 1])
def test_factor_prime_power_rejects(q):
    with pytest.raises(ValueError):
        factor_prime_power(q)


# ---------------------------------------------------------------------------
# Howell form

rng_matrix = st.integers(min_value=0, max_value=8)


def matrices(max_rows=4, max_cols=4):
    return st.tuples(
        st.sampled_from(MODULI),
        st.integers(0, max_rows),
        st.integers(1, max_cols),
    ).flatmap(
        lambda t: st.lists(
            st.lists(st.integers(0, t[0] - 1), min_size=t[2], max_size=t[2]),
            min_size=t[1],
            max_size=t[1],
        ).map(lambda rows: ZqMatrix.from_rows(rows, t[2], t[0]))
    )


def test_howell_already_canonical_single_entry():
    hf = howell_form(ZqMatrix([[2]], 4))
    assert hf.matrix == ZqMatrix([[2]], 4)
    assert hf.pivots == ((0, 0, 2),)


def test_howell_zero_matrix_is_empty():
    hf = howell_form(ZqMatrix.zeros(3, 2, 4))
    assert hf.matrix.rows == 0 and hf.matrix.cols == 2


def test_howell_span_size_example():
    # Frozen from the brute-force span closure: {(1,1),(0,2)} over Z/4 spans
    # the 8 vectors (a, a+2b).
    m = ZqMatrix([[1, 1], [0, 2]], 4)
    oracle_span = span_closure(m.entries, 4, 2)
    assert len(oracle_span) == 8
    hf = howell_form(m)
    assert span_closure(hf.matrix.entries, 4, 2) == oracle_span
    assert row_span_size(hf) == 8


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_howell_preserves_span(m):
    hf = howell_form(m)
    assert span_closure(hf.matrix.entries, m.modulus, m.cols) == span_closure(
        m.entries, m.modulus, m.cols
    )


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_howell_transform_and_idempotence(m):
    hf = howell_form(m)
    again = howell_form(hf.matrix)
    assert again.matrix == hf.matrix
    # the record ``solve`` builds: [M | I] pivoted in M's columns is [H | U] with U·M ≡ H
    aug = np.concatenate([m.entries, np.eye(m.rows, dtype=np.int64)], axis=1)
    rows, pivots = _howell_rows(aug, m.modulus, m.cols)
    h, u = rows[:, : m.cols], rows[:, m.cols :]
    assert np.array_equal(h, hf.matrix.entries) and pivots == hf.pivots
    assert np.array_equal((u @ m.entries) % m.modulus, h)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.randoms(use_true_random=False))
def test_howell_canonical_under_row_mixes(m, rnd):
    q = m.modulus
    mixed = m.entries.copy()
    for _ in range(6):
        op = rnd.randrange(3)
        if m.rows == 0:
            break
        i = rnd.randrange(m.rows)
        k = rnd.randrange(m.rows)
        if op == 0 and i != k:
            mixed[[i, k]] = mixed[[k, i]]
        elif op == 1:
            units = [u for u in range(1, q) if u % factor_prime_power(q)[0]]
            mixed[i] = (mixed[i] * rnd.choice(units)) % q
        elif op == 2 and i != k:
            mixed[i] = (mixed[i] + rnd.randrange(q) * mixed[k]) % q
    assert howell_form(ZqMatrix(mixed, q)).matrix == howell_form(m).matrix


@settings(max_examples=100, deadline=None)
@given(matrices(max_rows=3, max_cols=3))
def test_row_span_size_matches_closure(m):
    assert row_span_size(m) == len(span_closure(m.entries, m.modulus, m.cols))


@settings(max_examples=100, deadline=None)
@given(matrices(max_rows=3, max_cols=3), st.data())
def test_coset_reduce_is_canonical(m, data):
    q = m.modulus
    v = np.array(data.draw(st.lists(st.integers(0, q - 1), min_size=m.cols, max_size=m.cols)))
    # shifting by a span element must not change the representative
    coeffs = data.draw(st.lists(st.integers(0, q - 1), min_size=m.rows, max_size=m.rows))
    shift = (np.array(coeffs, dtype=np.int64) @ m.entries) % q if m.rows else np.zeros(m.cols, dtype=np.int64)
    assert np.array_equal(coset_reduce(m, v), coset_reduce(m, (v + shift) % q))
    assert row_span_contains(m, shift)
    assert not coset_reduce(m, shift).any()
    # a 2-D batch reduces each row as it would alone
    assert np.array_equal(coset_reduce(m, np.stack([v, shift])), np.stack([coset_reduce(m, v), coset_reduce(m, shift)]))


# ---------------------------------------------------------------------------
# solve / kernel against exhaustive search


def test_solve_postcondition_fault_raises(monkeypatch):
    """A solution that fails its substitution check raises, also under ``python -O``."""
    m = ZqMatrix([[1, 2], [0, 1]], 3)
    monkeypatch.setattr(ZqMatrix, "apply", lambda self, vec: np.ones(self.rows, dtype=np.int64))
    with pytest.raises(AssertionError, match="solver postcondition violated"):
        solve(m, [0, 0])


def test_solve_unsolvable_and_solvable_mod4():
    m = ZqMatrix([[2]], 4)
    assert solve(m, [1]) is None
    x = solve(m, [2])
    assert x is not None and (2 * x[0]) % 4 == 2


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(ZqMatrix([[1, 0]], 3), [1, 2])


def test_kernel_trivial_cases():
    k = kernel(ZqMatrix([[2]], 4))
    assert span_closure(k.entries, 4, 1) == {(0,), (2,)}
    k2 = kernel(ZqMatrix.identity(2, 3))
    assert span_closure(k2.entries, 3, 2) == {(0, 0)}


def test_kernel_of_empty_matrix_is_everything():
    k = kernel(ZqMatrix.zeros(0, 3, 4))
    assert len(span_closure(k.entries, 4, 3)) == 4**3


@pytest.mark.parametrize("q", MODULI)
def test_solve_and_kernel_match_brute_force(q):
    rnd = np.random.default_rng(1000 + q)
    for trial in range(40):
        rows = int(rnd.integers(1, 7))
        cols = int(rnd.integers(1, 5))
        mat = rnd.integers(0, q, size=(rows, cols))
        rhs = rnd.integers(0, q, size=rows)
        m = ZqMatrix(mat, q)
        sols = brute_solutions(mat, rhs, q)
        got = solve(m, rhs)
        if sols:
            assert got is not None and tuple(int(v) for v in got) in sols
        else:
            assert got is None
        assert span_closure(kernel(m).entries, q, cols) == brute_kernel(mat, q)


def test_solve_random_6x4_mod9_matches_exhaustive():
    rnd = np.random.default_rng(9)
    for trial in range(5):
        mat = rnd.integers(0, 9, size=(6, 4))
        rhs = rnd.integers(0, 9, size=6)
        sols = brute_solutions(mat, rhs, 9)
        got = solve(ZqMatrix(mat, 9), rhs)
        assert (got is None) == (not sols)
        if sols:
            assert tuple(int(v) for v in got) in sols


def test_kernel_random_3x3_mod8_cardinality():
    rnd = np.random.default_rng(8)
    for trial in range(5):
        mat = rnd.integers(0, 8, size=(3, 3))
        k = kernel(ZqMatrix(mat, 8))
        assert len(span_closure(k.entries, 8, 3)) == len(brute_kernel(mat, 8))


def _differential_inputs(q):
    """Random, empty, all-zero, tall (some with repeated rows) and
    coboundary-shaped sparse wide matrices over Z/q."""
    rnd = np.random.default_rng(2000 + q)
    p, _ = factor_prime_power(q)
    out = [np.zeros((0, 4)), np.zeros((3, 0)), np.zeros((0, 0)), np.zeros((5, 6))]
    for _ in range(40):
        shape = tuple(int(x) for x in rnd.integers(0, 13, size=2))
        mat = rnd.integers(0, q, size=shape) * (rnd.random(shape) < rnd.random())
        out.append(mat * p**int(rnd.integers(0, 2)))
    out.append(rnd.integers(0, q, size=(700, 8)) * p ** rnd.integers(0, 2, size=(700, 1)))
    # tall, with repeated rows; kernel reduces those with over four rows per column first
    for rows, distinct, cols in ((400, 9, 10), (60, 4, 3), (50, 1, 12), (30, 5, 10)):
        base = rnd.integers(0, q, size=(distinct, cols)) * p ** rnd.integers(0, 2, size=(distinct, 1))
        out.append(base[rnd.integers(0, distinct, size=rows)])
    g = preset("elementary_abelian", [2, 4])
    out.append(_coboundary_rows(g, q, _solver_gens(g)))
    return [ZqMatrix(np.asarray(mat, dtype=np.int64), q) for mat in out]


@pytest.mark.parametrize("q", [2, 4, 8, 9, 25, 27])
def test_zqlin_matches_row_loop_oracle(q):
    """The array-native Howell form, ``solve``, ``kernel`` and Smith form equal the
    row-loop oracles byte for byte.  Explicit raises, so it also runs under ``python -O``."""
    rnd = np.random.default_rng(q)
    for m in _differential_inputs(q):
        h, _, pivots = oracles.howell_form_loop(m)
        hf = howell_form(m)
        np.testing.assert_array_equal(hf.matrix.entries, h)
        if hf.pivots != pivots:
            raise AssertionError(f"pivots {hf.pivots} != {pivots}")
        np.testing.assert_array_equal(kernel(m).entries, oracles.kernel_loop(m))
        for rhs in (rnd.integers(0, q, size=m.rows), m.apply(rnd.integers(0, q, size=m.cols))):
            got, want = solve(m, rhs), oracles.solve_loop(m, rhs)
            if (got is None) != (want is None):
                raise AssertionError(f"solve gave {got}, oracle {want}")
            if got is not None:
                np.testing.assert_array_equal(got, want)
        dec = smith_decomposition(m)
        got = (dec.diagonal, dec.row_transform, dec.col_transform, dec.col_transform_inv)
        for mine, theirs in zip(got, oracles.smith_decomposition_loop(m)):
            np.testing.assert_array_equal(mine.entries, theirs)


# ---------------------------------------------------------------------------
# Smith form and abelian-group presentations


@settings(max_examples=100, deadline=None)
@given(matrices(max_rows=4, max_cols=4))
def test_smith_diagonal_shape(m):
    q = m.modulus
    p, s = factor_prime_power(q)
    dec = smith_decomposition(m)
    d = dec.diagonal.entries
    off_diag = d.copy()
    np.fill_diagonal(off_diag, 0)
    assert not off_diag.any()
    vals = []
    for j in range(min(m.rows, m.cols)):
        e = int(d[j, j])
        assert e == 0 or (e != 0 and p ** round(np.log(e) / np.log(p)) == e) or e == 1
        v = s if e == 0 else next(k for k in range(s + 1) if e == p**k)
        vals.append(v)
    assert vals == sorted(vals)


@pytest.mark.parametrize(
    "ngens,q,relations,expected_factors",
    [
        (1, 4, [[2]], (2,)),
        (1, 4, [[1]], ()),
        (2, 9, [], (9, 9)),
        (2, 9, [[3, 3]], (3, 9)),
        (2, 4, [[2, 0], [0, 2]], (2, 2)),
        (3, 2, [[1, 1, 0]], (2, 2)),
    ],
)
def test_presentation_invariant_factors(ngens, q, relations, expected_factors):
    pres = AbGroupPresentation.from_relations(ngens, q, relations)
    assert pres.invariant_factors == expected_factors
    rel_span = span_closure(
        np.array(relations, dtype=np.int64).reshape(len(relations), ngens), q, ngens
    )
    assert pres.order * len(rel_span) == q**ngens


@settings(max_examples=80, deadline=None)
@given(matrices(max_rows=3, max_cols=3))
def test_presentation_order_counts_cosets(m):
    pres = AbGroupPresentation.from_relations(m.cols, m.modulus, m)
    assert pres.order * len(span_closure(m.entries, m.modulus, m.cols)) == m.modulus**m.cols
    # coordinates vanish exactly on the relation span
    for v in all_vectors(m.modulus, m.cols):
        expected = tuple(int(x) for x in v) in span_closure(m.entries, m.modulus, m.cols)
        assert (not any(pres.coordinates(v))) == expected
        if m.modulus**m.cols > 81:
            break  # keep the exhaustive sweep tiny


def test_presentation_basis_images_have_unit_coordinates():
    pres = AbGroupPresentation.from_relations(2, 9, [[3, 3]])
    for i in range(pres.basis_images.rows):
        coords = pres.coordinates(pres.basis_images.entries[i])
        assert coords[i] == 1
        assert all(c == 0 for j, c in enumerate(coords) if j != i)


# ---------------------------------------------------------------------------
# pairing perfection


def _free(ngens, q):
    return AbGroupPresentation.from_relations(ngens, q, [])


def test_identity_pairing_is_perfect():
    for q in MODULI:
        report = pairing_perfection(ZqMatrix.identity(2, q), _free(2, q), _free(2, q))
        assert report.perfect
        assert report.left_annihilator == () and report.right_annihilator == ()


def test_doubling_pairing_mod4_annihilators():
    report = pairing_perfection(ZqMatrix([[2]], 4), _free(1, 4), _free(1, 4))
    assert not report.perfect
    assert report.left_annihilator == ((2,),)
    assert report.right_annihilator == ((2,),)


def test_pairing_unequal_orders_not_perfect():
    report = pairing_perfection(ZqMatrix([[1, 0]], 3), _free(1, 3), _free(2, 3))
    assert not report.perfect
    assert report.left_annihilator == ()
    assert ((0, 1) in report.right_annihilator) or ((0, 2) in report.right_annihilator)


def test_pairing_respects_relations_checked():
    a = AbGroupPresentation.from_relations(1, 4, [[2]])
    with pytest.raises(ValueError):
        pairing_perfection(ZqMatrix([[1]], 4), a, _free(1, 4))
    # compatible table: the Z/2 x Z/2 pairing scaled to land in 2Z/4
    report = pairing_perfection(ZqMatrix([[2]], 4), a, AbGroupPresentation.from_relations(1, 4, [[2]]))
    assert report.perfect


def test_perfect_pairing_composed_with_non_injective_endo_fails():
    rnd = np.random.default_rng(5)
    for q in MODULI:
        p, _ = factor_prime_power(q)
        n = 3
        base = ZqMatrix.identity(n, q)
        endo = np.eye(n, dtype=np.int64)
        endo[rnd.integers(0, n), rnd.integers(0, n)] = p  # rank drop mod p
        endo[0] = (endo[0] * p) % q
        composed = ZqMatrix((endo @ base.entries) % q, q)
        report = pairing_perfection(composed, _free(n, q), _free(n, q))
        assert not report.perfect
        assert report.left_annihilator != ()
