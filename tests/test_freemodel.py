"""Level-3 free models: collection law, normal forms, flat quotients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qcoh.freemodel import (
    canonical_basis,
    element_of,
    free_level3,
    normal_form_roundtrip,
)
from qcoh import freemodel
from qcoh.groups import (
    FiniteGroup,
    enumerate_homs,
    is_isomorphic,
    preset,
    q_central_series,
    subgroup_closure,
)


@pytest.fixture(scope="module")
def sharp22():
    return free_level3(2, 2, "sharp")


@pytest.fixture(scope="module")
def sharp23():
    return free_level3(2, 3, "sharp")


# ---------------------------------------------------------------- orders

@pytest.mark.parametrize(
    "d, q, expected",
    [
        (1, 2, 4),
        (1, 3, 9),
        (1, 4, 16),
        (2, 2, 32),
        (2, 3, 243),
        (2, 4, 1024),
        (3, 2, 512),
    ],
)
def test_sharp_orders(d, q, expected):
    model = free_level3(d, q, "sharp")
    assert model.group.order == expected
    npairs = d * (d - 1) // 2
    assert expected == q ** (2 * d + npairs)


@pytest.mark.parametrize(
    "d, q, expected",
    [
        (1, 3, 3),
        (2, 3, 27),
        (1, 4, 8),
        (2, 4, 256),
        (2, 2, 32),  # q=2: fourth powers vanish, flat == sharp
    ],
)
def test_flat_orders(d, q, expected):
    model = free_level3(d, q, "flat")
    assert model.group.order == expected


def test_order_cap_errors():
    with pytest.raises(ValueError):
        free_level3(3, 3)  # 3^9 = 19683
    with pytest.raises(ValueError):
        free_level3(4, 2)  # 2^14
    with pytest.raises(ValueError):
        free_level3(0, 2)
    with pytest.raises(ValueError):
        free_level3(2, 2, "semisharp")


@pytest.mark.parametrize(
    "d, q",
    [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2)] + [(1, q) for q in (2, 3, 4, 5, 7, 8, 9, 16, 27, 32, 49, 64)],
)
def test_sharp_table_matches_collection_oracle(d, q):
    """The central-extension table equals collection, cell for cell (also under ``-O``)."""
    table, coords = freemodel._sharp_table(d, q)
    want_table, want_coords = oracles.sharp_table_by_collection(d, q)
    np.testing.assert_array_equal(table, want_table)
    np.testing.assert_array_equal(coords, want_coords)
    if (table.dtype, coords.dtype) != (want_table.dtype, want_coords.dtype):
        raise AssertionError(f"dtypes {table.dtype}, {coords.dtype} differ from the oracle's")


# ------------------------------------------------------- small isomorphisms

def test_sharp_rank_one_is_cyclic():
    model = free_level3(1, 4, "sharp")
    assert is_isomorphic(model.group, preset("cyclic", [16]))


def test_flat_rank_one_is_cyclic():
    model = free_level3(1, 3, "flat")
    assert is_isomorphic(model.group, preset("cyclic", [3]))


def test_flat_23_is_heisenberg():
    model = free_level3(2, 3, "flat")
    assert is_isomorphic(model.group, preset("heisenberg", [3]))


def test_flat_equals_sharp_for_q2(sharp22):
    flat = free_level3(2, 2, "flat")
    assert is_isomorphic(flat.group, sharp22.group)


# ------------------------------------------------------------- collection law

def test_generator_commutator_is_basis_element(sharp23):
    g = sharp23.group
    comm = g.commutator(sharp23.sigma[0], sharp23.sigma[1])
    assert comm == sharp23.commutator_central[0]


def test_opposite_products_differ_by_single_commutator(sharp23):
    g = sharp23.group
    s1, s2 = sharp23.sigma
    fwd = normal_form_roundtrip(sharp23, g.mul(s1, s2))
    rev = normal_form_roundtrip(sharp23, g.mul(s2, s1))
    assert fwd.a == rev.a == (1, 1)
    assert fwd.c == rev.c == (0, 0)
    # s1·s2 is already in normal order; s2·s1 picks up [s1,s2]^{-1}
    assert fwd.b == (0,)
    assert rev.b == (2,)


def test_identity_has_zero_coordinates(sharp23):
    nf = normal_form_roundtrip(sharp23, sharp23.group.identity)
    assert nf.a == (0, 0) and nf.c == (0, 0) and nf.b == (0,)


def test_generator_power_lands_in_power_slot(sharp23):
    g = sharp23.group
    nf = normal_form_roundtrip(sharp23, g.power(sharp23.sigma[0], 3))
    assert nf.a == (0, 0) and nf.c == (1, 0) and nf.b == (0,)


@pytest.mark.parametrize("d, q", [(2, 2), (2, 3), (1, 4), (2, 4)])
def test_qth_power_law(d, q):
    # x^q drops the old central part: a-block moves into the c-block, and for
    # p = 2 the collection correction adds (q/2)·a_i·a_j to each b_ij.
    model = free_level3(d, q, "sharp")
    g = model.group
    half = q // 2 if q % 2 == 0 else 0
    for x in g.elements():
        a = model.coords[x, :d]
        nf = normal_form_roundtrip(model, g.power(x, q))
        assert nf.a == (0,) * d
        assert nf.c == tuple(int(v) for v in a)
        expected_b = tuple(
            (half * int(a[i]) * int(a[j])) % q for (i, j) in model.pairs
        )
        assert nf.b == expected_b


@pytest.mark.parametrize("d, q", [(2, 2), (2, 3), (2, 4), (3, 2)])
def test_commutator_is_alternating_form(d, q):
    # [x, y] = ∏ [σ_i,σ_j]^(a_i a'_j - a_j a'_i): the central form is the
    # alternating product of leading exponent vectors.
    model = free_level3(d, q, "sharp")
    g = model.group
    rng = np.random.default_rng(7)
    xs = rng.integers(0, g.order, size=60)
    ys = rng.integers(0, g.order, size=60)
    for x, y in zip(xs, ys):
        ax = model.coords[int(x), :d]
        ay = model.coords[int(y), :d]
        nf = normal_form_roundtrip(model, g.commutator(int(x), int(y)))
        assert nf.a == (0,) * d and nf.c == (0,) * d
        for t, (i, j) in enumerate(model.pairs):
            assert nf.b[t] == (int(ax[i]) * int(ay[j]) - int(ax[j]) * int(ay[i])) % q


_MODEL_CACHE: dict = {}


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_roundtrip_is_total(data):
    model = _MODEL_CACHE.setdefault((2, 3), free_level3(2, 3, "sharp"))
    x = data.draw(st.integers(min_value=0, max_value=model.group.order - 1))
    nf = normal_form_roundtrip(model, x)
    assert element_of(model, nf.a, nf.c, nf.b) == x


@given(
    a=st.tuples(st.integers(0, 5), st.integers(0, 5)),
    c=st.tuples(st.integers(0, 5), st.integers(0, 5)),
    b=st.tuples(st.integers(0, 5)),
)
@settings(max_examples=40, deadline=None)
def test_assembly_reduces_coordinates(a, c, b):
    model = _MODEL_CACHE.setdefault((2, 3), free_level3(2, 3, "sharp"))
    x = element_of(model, a, c, b)
    nf = normal_form_roundtrip(model, x)
    assert nf.a == tuple(v % 3 for v in a)
    assert nf.c == tuple(v % 3 for v in c)
    assert nf.b == tuple(v % 3 for v in b)


# ------------------------------------------------------------------ series

@pytest.mark.parametrize("d, q, variant", [(2, 2, "sharp"), (2, 3, "sharp"), (2, 3, "flat"), (1, 4, "sharp")])
def test_series_agreement(d, q, variant):
    model = free_level3(d, q, variant)
    series = q_central_series(model.group, q)
    central = subgroup_closure(model.group, model.power_central + model.commutator_central)
    assert central.same_as(series.term(2))
    if variant == "sharp":
        assert series.term(3).is_trivial()
    else:
        assert series.lower3.is_trivial()


def test_sharp_23_central_part_order(sharp23):
    series = q_central_series(sharp23.group, 3)
    assert len(series.term(2).members) == 27  # q^(d + C(d,2)) central classes
    assert series.lower3.same_as(subgroup_closure(sharp23.group, sharp23.power_central))


# ------------------------------------------------------------ canonical basis

def test_canonical_basis_counts(sharp23):
    basis = canonical_basis(sharp23)
    assert len(basis.elements) == 3
    assert basis.labels == ("s1^3", "s2^3", "[s1,s2]")


def test_canonical_basis_rank_three():
    model = free_level3(3, 2, "sharp")
    basis = canonical_basis(model)
    assert len(basis.elements) == 6
    assert basis.labels[:3] == ("s1^2", "s2^2", "s3^2")


def test_canonical_basis_rank_one_inside_cyclic():
    model = free_level3(1, 4, "sharp")
    basis = canonical_basis(model)
    assert basis.elements == (model.group.power(model.sigma[0], 4),)


def test_canonical_basis_coordinates(sharp23):
    basis = canonical_basis(sharp23)
    g = sharp23.group
    x = g.mul(basis.elements[0], g.mul(basis.elements[2], basis.elements[2]))
    assert list(basis.coordinates(x)) == [1, 0, 2]


def test_canonical_basis_rejects_noncentral(sharp23):
    basis = canonical_basis(sharp23)
    with pytest.raises(ValueError):
        basis.coordinates(sharp23.sigma[0])


def test_canonical_basis_rejects_flat_odd():
    model = free_level3(2, 3, "flat")
    with pytest.raises(ValueError):
        canonical_basis(model)


def test_canonical_basis_flat_even():
    model = free_level3(2, 4, "flat")
    basis = canonical_basis(model)
    assert len(basis.elements) == 3
    # σ^4 survives with order 2 in the flat quotient
    g = model.group
    sq = basis.elements[0]
    assert sq != g.identity and g.mul(sq, sq) == g.identity


# ------------------------------------------------------------- universality

@pytest.mark.parametrize(
    "d, q, target_spec",
    [
        (2, 2, ("dihedral4", [])),
        (2, 2, ("quaternion8", [])),
        (1, 2, ("cyclic", [4])),
        (2, 3, ("heisenberg", [3])),
        (2, 3, ("modular", [3])),
        (2, 3, ("elementary_abelian", [3, 2])),
    ],
)
def test_sharp_surjects_onto_small_level3_groups(d, q, target_spec):
    # every d-generated group with elementary abelian top layer and trivial
    # third term receives a surjection from the sharp model
    model = free_level3(d, q, "sharp")
    target = preset(*target_spec)
    series = q_central_series(target, q)
    assert series.term(3).is_trivial()
    epis = enumerate_homs(model.group, target, surjective_only=True)
    assert epis
    for phi in epis[:2]:
        assert phi.is_surjective()


# ------------------------------------------------------- checks that survive -O


def test_law_check_fires_when_tampered(monkeypatch):
    """The collection-law checks are explicit raises, so they also fire under ``python -O``."""
    monkeypatch.setattr(FiniteGroup, "commutator", lambda self, x, y: self.identity)
    with pytest.raises(AssertionError, match="collection commutator sign broken"):
        free_level3(2, 2, "sharp")


def test_roundtrip_check_fires_when_tampered(sharp22, monkeypatch):
    monkeypatch.setattr(freemodel, "element_of", lambda model, a, c, b: model.group.identity)
    x = sharp22.sigma[0]
    with pytest.raises(AssertionError, match="normal form failed to reconstruct"):
        normal_form_roundtrip(sharp22, x)
