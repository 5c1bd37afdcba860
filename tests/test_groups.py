"""Tests for the finite-group engine, pinned against plain-loop oracles."""

import gc
import itertools
import weakref

import numpy as np
import pytest

import oracles
from qcoh import groups
from qcoh.cohomology import h2
from qcoh.freemodel import free_level3
from qcoh.groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    center,
    commutator_subgroup,
    direct_product,
    element_orders,
    enumerate_homs,
    exponent,
    is_abelian,
    is_isomorphic,
    normal_subgroups_within,
    order_profile,
    pc_presentation,
    power_subgroup,
    preset,
    q_central_series,
    quotient,
    subgroup_closure,
    trivial_subgroup,
    whole_group,
)


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
def m27():
    return preset("modular", [3])


# ---------------------------------------------------------------------------
# construction and presets


def test_cyclic_preset():
    g = preset("cyclic", [16])
    assert g.order == 16
    assert element_orders(g)[1] == 16
    assert g.labels[0] == "1" and g.labels[2] == "g^2"


def test_elementary_abelian_preset():
    g = preset("elementary_abelian", [3, 2])
    assert g.order == 9 and is_abelian(g) and exponent(g) == 3


def test_heisenberg_preset(h27):
    assert h27.order == 27
    assert not is_abelian(h27)
    assert exponent(h27) == 3
    assert oracles.table_is_associative(h27.table)


def test_heisenberg5_exponent_scan():
    g = preset("heisenberg", [5])
    assert g.order == 125
    orders = element_orders(g)
    assert set(orders.tolist()) == {1, 5} and list(orders).count(1) == 1


def test_heisenberg_rejects_two():
    with pytest.raises(ValueError):
        preset("heisenberg", [2])


def test_modular_preset(m27):
    assert m27.order == 27
    assert not is_abelian(m27)
    assert exponent(m27) == 9
    r, s = m27.generators
    assert m27.commutator(r, s) == m27.power(r, 3)


def test_dihedral4_center(d4):
    assert d4.order == 8
    # direct table check of the centre
    central = [
        x for x in d4.elements() if all(d4.mul(x, y) == d4.mul(y, x) for y in d4.elements())
    ]
    assert len(central) == 2
    assert center(d4).members == tuple(sorted(central))


def test_quaternion8_profile(q8):
    assert order_profile(q8) == {1: 1, 2: 1, 4: 6}


def test_direct_product_order():
    g = preset("direct_product", [["cyclic", [4]], ["cyclic", [2]]])
    assert g.order == 8 and is_abelian(g)
    assert order_profile(g) == {1: 1, 2: 3, 4: 4}


def test_full_axiom_check_small_presets(d4, q8, h27):
    for g in (d4, q8, h27):
        assert oracles.table_is_associative(g.table)


def test_preset_check_fires_when_tampered(monkeypatch):
    """The preset checks are explicit raises, so they also fire under ``python -O``."""
    monkeypatch.setattr(groups, "center", trivial_subgroup)
    with pytest.raises(AssertionError, match="center of order 2"):
        preset("dihedral4")


def test_fault_missing_inverse_in_later_block_rejected():
    n = 1024
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    x = n - 3
    if x < _first_block_rows(n):
        raise AssertionError("the corrupted row must lie past the first row block")
    bad = table.copy()
    bad[x, 3] = 1  # row x loses its only identity entry
    with pytest.raises(ValueError, match="without inverses"):
        FiniteGroup.from_table(bad)
    bad = table.copy()
    bad[x, [3, 4]] = bad[x, [4, 3]]  # x·4 = 1, but 4·x ≠ 1
    with pytest.raises(ValueError, match="one-sided inverses"):
        FiniteGroup.from_table(bad)


def test_corrupted_table_rejected(d4):
    bad = d4.table.copy()
    bad[3, 4] = d4.table[3, 5]
    with pytest.raises(ValueError):
        FiniteGroup.from_table(bad)


# ---------------------------------------------------------------------------
# subgroup machinery


def test_subgroup_closure_examples(d4, h27):
    assert subgroup_closure(d4, [d4.identity]).members == (d4.identity,)
    r = d4.generators[0]
    assert subgroup_closure(d4, [r]).order == 4
    t = h27.commutator(*h27.generators)
    zc = subgroup_closure(h27, [t])
    assert zc.order == 3
    assert zc.members == center(h27).members
    assert zc.members == tuple(sorted(oracles.closure_of(h27.table, h27.identity, [t])))


def test_subgroup_validation(d4):
    r = d4.generators[0]
    with pytest.raises(ValueError):
        Subgroup(d4, (d4.identity, r))  # not closed: r has order 4


def test_power_subgroup_examples(h27, m27):
    z16 = preset("cyclic", [16])
    quarters = power_subgroup(z16, whole_group(z16), 4)
    assert quarters.members == (0, 4, 8, 12)
    assert power_subgroup(h27, whole_group(h27), 3).is_trivial()
    r = m27.generators[0]
    cubes = power_subgroup(m27, whole_group(m27), 3)
    assert cubes.members == subgroup_closure(m27, [m27.power(r, 3)]).members
    assert cubes.order == 3
    # oracle: scan all elements, then close
    seeds = oracles.power_elements(m27.table, m27.identity, range(m27.order), 3)
    assert cubes.members == tuple(sorted(oracles.closure_of(m27.table, m27.identity, seeds)))


def test_commutator_subgroup_examples(d4, h27):
    z9 = preset("cyclic", [9])
    assert commutator_subgroup(z9, whole_group(z9), whole_group(z9)).is_trivial()
    der = commutator_subgroup(d4, whole_group(d4), whole_group(d4))
    r = d4.generators[0]
    assert der.members == (d4.identity, d4.power(r, 2))
    der27 = commutator_subgroup(h27, whole_group(h27), whole_group(h27))
    assert der27.members == center(h27).members
    oracle = oracles.commutator_elements(
        d4.table, d4.inverses, range(d4.order), range(d4.order)
    )
    assert der.members == tuple(sorted(oracles.closure_of(d4.table, d4.identity, oracle)))


# ---------------------------------------------------------------------------
# q-central series


def test_series_z16_q4():
    z16 = preset("cyclic", [16])
    series = q_central_series(z16, 4)
    assert series.delta == 2
    assert series.term(2).members == (0, 4, 8, 12)
    assert series.term(3).is_trivial()
    assert series.lower3.members == (0, 8)


def test_series_heisenberg_q3(h27):
    series = q_central_series(h27, 3)
    assert series.delta == 1
    assert series.term(2).members == center(h27).members
    assert series.term(3).is_trivial()
    assert series.lower3.is_trivial()


def test_series_d4_q2(d4):
    series = q_central_series(d4, 2)
    r = d4.generators[0]
    assert series.term(2).members == (d4.identity, d4.power(r, 2))
    assert series.term(3).is_trivial()
    assert series.lower3.members == series.term(3).members


def test_series_recomputation_invariant(d4, q8, h27, m27):
    z16 = preset("cyclic", [16])
    for g, q in [(d4, 2), (q8, 2), (h27, 3), (m27, 3), (z16, 2), (z16, 4)]:
        series = q_central_series(g, q)
        for i in range(1, len(series.terms)):
            prev = series.terms[i - 1]
            powers = oracles.power_elements(g.table, g.identity, prev.members, q)
            comms = oracles.commutator_elements(g.table, g.inverses, prev.members, range(g.order))
            expected = oracles.closure_of(g.table, g.identity, powers | comms)
            assert series.terms[i].members == tuple(sorted(expected))
        # the level-3 term, recomputed the same way
        dq = oracles.power_elements(g.table, g.identity, range(g.order), series.delta * q)
        br = oracles.commutator_elements(
            g.table, g.inverses, series.term(2).members, range(g.order)
        )
        assert series.lower3.members == tuple(sorted(oracles.closure_of(g.table, g.identity, dq | br)))
        assert set(series.term(3).members) <= set(series.lower3.members)
        assert set(series.lower3.members) <= set(series.term(2).members)
        if q == 2:
            assert series.lower3.members == series.term(3).members


# ---------------------------------------------------------------------------
# quotients


def test_quotient_by_whole_group(d4):
    data = quotient(d4, whole_group(d4))
    assert data.quotient.order == 1


def test_quotient_heisenberg_center(h27):
    data = quotient(h27, center(h27))
    assert data.quotient.order == 9
    assert is_abelian(data.quotient) and exponent(data.quotient) == 3
    assert data.projection.kernel().members == center(h27).members


def test_quotient_d4(d4):
    r = d4.generators[0]
    data = quotient(d4, subgroup_closure(d4, [d4.power(r, 2)]))
    assert data.quotient.order == 4 and exponent(data.quotient) == 2


def test_quotient_rejects_non_normal(d4):
    s = d4.generators[1]
    refl = subgroup_closure(d4, [s])
    assert not refl.is_normal()
    with pytest.raises(ValueError):
        quotient(d4, refl)


# ---------------------------------------------------------------------------
# homomorphism enumeration


def test_hom_z3_to_z2_only_trivial():
    homs = enumerate_homs(preset("cyclic", [3]), preset("cyclic", [2]))
    assert len(homs) == 1


def test_epis_z3sq_to_z3():
    epis = enumerate_homs(
        preset("elementary_abelian", [3, 2]), preset("cyclic", [3]), surjective_only=True
    )
    assert len(epis) == 8
    kernels = {e.kernel().members for e in epis}
    assert len(kernels) == 4


def test_no_epis_m27_to_h27(m27, h27):
    assert enumerate_homs(m27, h27, surjective_only=True) == ()


@pytest.mark.parametrize(
    "src,tgt",
    [
        (("cyclic", [4]), ("cyclic", [8])),
        (("cyclic", [6]), ("cyclic", [4])),
        (("dihedral4", []), ("cyclic", [2])),
        (("dihedral4", []), ("dihedral4", [])),
        (("elementary_abelian", [2, 2]), ("dihedral4", [])),
        (("quaternion8", []), ("cyclic", [4])),
        (("heisenberg", [3]), ("cyclic", [3])),
    ],
)
def test_hom_count_matches_exhaustive(src, tgt):
    g = preset(*src)
    b = preset(*tgt)
    expected = oracles.brute_hom_count(
        g.table, g.identity, list(g.generators), b.table, b.identity
    )
    assert len(enumerate_homs(g, b)) == expected
    expected_epi = oracles.brute_hom_count(
        g.table, g.identity, list(g.generators), b.table, b.identity, surjective_only=True
    )
    assert len(enumerate_homs(g, b, surjective_only=True)) == expected_epi


ORDER8 = [
    ("cyclic", [8]),
    ("direct_product", [("cyclic", [4]), ("cyclic", [2])]),
    ("elementary_abelian", [2, 3]),
    ("dihedral4", []),
    ("quaternion8", []),
]
ORDER27 = [("heisenberg", [3]), ("modular", [3])]


def _spec_id(spec):
    return repr(spec).replace(" ", "")


@pytest.mark.parametrize(
    "left,right",
    list(itertools.product(ORDER8, ORDER8)) + list(itertools.product(ORDER27, ORDER27)),
    ids=_spec_id,
)
def test_is_isomorphic_matches_exhaustive(left, right):
    """``is_isomorphic`` agrees with an exhaustive count of epimorphisms between
    groups of equal order; raises explicitly, so it also checks under ``python -O``."""
    g, b = preset(*left), preset(*right)
    expected = oracles.brute_hom_count(
        g.table, g.identity, list(g.generators), b.table, b.identity, surjective_only=True
    ) > 0
    if is_isomorphic(g, b) != expected:
        raise AssertionError(f"is_isomorphic({g.name}, {b.name}) disagrees with the exhaustive search")


def test_every_enumerated_hom_is_multiplicative(d4):
    for hom in enumerate_homs(d4, preset("cyclic", [2])):
        for x in d4.elements():
            for y in d4.elements():
                assert hom(d4.mul(x, y)) == (hom(x) + hom(y)) % 2


# ---------------------------------------------------------------------------
# generator-local checks against the all-pairs oracles
#
# The comparisons raise explicitly or use numpy assertions, so these tests
# also check under ``python -O``.

# the ten groups of POOL in test_duality.py, and small homomorphism targets
POOL_PRESETS = [
    ("cyclic", [4]),
    ("cyclic", [8]),
    ("cyclic", [9]),
    ("cyclic", [16]),
    ("dihedral4", []),
    ("quaternion8", []),
    ("heisenberg", [3]),
    ("modular", [3]),
    ("elementary_abelian", [2, 2]),
    ("elementary_abelian", [3, 2]),
]
SMALL_TARGETS = [
    ("dihedral4", []),
    ("quaternion8", []),
    ("cyclic", [2]),
    ("cyclic", [4]),
    ("elementary_abelian", [3, 2]),
]


def _preset_id(spec):
    name, params = spec
    return "-".join([name, *map(str, params)])


def _pool_group(spec) -> FiniteGroup:
    """A POOL preset, or ("sharp", [d, q]) for sharp(d, q), or ("trivial", [])."""
    name, params = spec
    if name == "sharp":
        return free_level3(*params).group
    if name == "trivial":
        return FiniteGroup.from_table([[0]], name="1")
    return preset(name, params)


@pytest.mark.parametrize("spec", [*POOL_PRESETS, ("sharp", [2, 3]), ("sharp", [3, 2]), ("trivial", [])], ids=_preset_id)
def test_bfs_labels_match_word_oracle(spec):
    """Labels built from the parent's label equal the compressed whole words:
    with the group's generators, with one name shared by all of them (runs
    that span generators), and with a repeated generator.  Explicit raises, so
    it also checks under ``python -O``."""
    g = _pool_group(spec)
    gens = list(g.generators)
    cases = [(gens, [f"g{i}" for i in range(len(gens))]), (gens, ["a"] * len(gens))]
    if gens:
        cases.append((gens[::-1] + gens[:1], [("x", "y")[i % 2] for i in range(len(gens) + 1)]))
    for gs, names in cases:
        tree = groups._bfs_tree(g.table, g.identity, gs)
        got = groups._labels_from_tree(g.order, tree, names)
        want = oracles.labels_by_words(g.order, g.identity, tree, names)
        if got != want:
            bad = next(x for x in range(g.order) if got[x] != want[x])
            raise AssertionError(f"element {bad}: {got[bad]!r} != {want[bad]!r}")


@pytest.mark.parametrize("spec", [*POOL_PRESETS, ("sharp", [2, 3]), ("trivial", [])], ids=_preset_id)
def test_trivial_quotient_matches_coset_oracle(spec):
    """G/1 is G itself with the identity projection, and its table, projection
    images, coset representatives and generators equal the coset-table
    construction's.  Explicit raises, so it also checks under ``python -O``."""
    g = _pool_group(spec)
    data = quotient(g, trivial_subgroup(g))
    if data.quotient is not g or data.source is not g:
        raise AssertionError("the quotient by 1 must be the group itself")
    slow = oracles.quotient_by_cosets(g, trivial_subgroup(g))
    np.testing.assert_array_equal(data.quotient.table, slow.quotient.table)
    np.testing.assert_array_equal(data.projection.images, slow.projection.images)
    np.testing.assert_array_equal(data.coset_reps, slow.coset_reps)
    if (data.quotient.identity, data.quotient.generators) != (slow.quotient.identity, slow.quotient.generators):
        raise AssertionError("the quotient by 1 must keep the oracle's identity and generators")


@pytest.mark.parametrize("spec", [*POOL_PRESETS, ("sharp", [2, 3]), ("trivial", [])], ids=_preset_id)
def test_whole_group_matches_full_closure_check(spec):
    """whole_group, which skips the closure scan, equals G's member set closed
    by the pairwise-product oracle; one element short of G is still rejected."""
    g = _pool_group(spec)
    G = whole_group(g)
    full = Subgroup(g, range(g.order))
    if G.members != full.members or G.members != tuple(range(g.order)):
        raise AssertionError("whole_group must hold every element")
    np.testing.assert_array_equal(G.mask, full.mask)
    if g.order <= 64 and oracles.closure_of(g.table, g.identity, G.members) != frozenset(G.members):
        raise AssertionError("the oracle's closure of G must be G")
    if not (G.mask[g.table].all() and G.mask[g.inverses].all()):
        raise AssertionError("all of G must be closed under products and inverses")
    if g.order > 2:
        # a proper subgroup has at most half the elements, so G minus one is not closed
        missing = max(x for x in g.elements() if x != g.identity)
        with pytest.raises(ValueError, match="not closed"):
            Subgroup(g, [x for x in g.elements() if x != missing])


@pytest.mark.parametrize("entry", [-1, 4, np.iinfo(np.int64).min, np.iinfo(np.int64).max], ids=["-1", "n", "int64-min", "int64-max"])
def test_table_range_rejects_non_indices(entry):
    z4 = preset("cyclic", [4])
    bad = z4.table.copy()
    bad[1, 2] = entry
    with pytest.raises(ValueError, match="table entries must be element indices"):
        FiniteGroup(bad, z4.identity, z4.inverses, z4.generators, z4.labels)


def _permutation_group(perms: list, name: str) -> FiniteGroup:
    """The group of the given permutations of range(k) under composition."""
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(a[x] for x in b)] for b in perms] for a in perms]
    return FiniteGroup.from_table(table, name=name)


def _symmetric4() -> FiniteGroup:
    return _permutation_group(list(itertools.permutations(range(4))), "S4")


def _commutator_corpus():
    """(name, group, left, right): every bracket the q-central series, its
    level-3 refinement and the derived series take on presets up to order 64
    (the brackets of term(2) are the refinement's), two model groups and S4,
    and brackets of cyclic subgroups (most of them not normal) with each
    other and with G.  In S4 the seeds [h, y] of some of those brackets do not
    close to a subgroup normalized by every y, so there the conjugation rounds
    are needed."""
    groups_ = [preset(*spec) for spec in POOL_PRESETS]
    groups_ += [
        preset("direct_product", [("dihedral4",), ("cyclic", [2])]),
        preset("direct_product", [("quaternion8",), ("cyclic", [4])]),
        preset("direct_product", [("heisenberg", [3]), ("cyclic", [2])]),
        preset("elementary_abelian", [2, 6]),
        preset("cyclic", [64]),
        free_level3(2, 2).group,
        free_level3(2, 3).group,
        _symmetric4(),
    ]
    out = []
    for g in groups_:
        G = whole_group(g)
        q = min(int(o) for o in element_orders(g) if o > 1) if g.order > 1 else 2
        out.append((f"{g.name} [G,G]", g, G, G))
        for i, term in enumerate(q_central_series(g, q).terms[1:], start=2):
            out.append((f"{g.name} [term({i}),G]", g, term, G))
            out.append((f"{g.name} [G,term({i})]", g, G, term))
        d = commutator_subgroup(g, G, G)
        while not d.is_trivial():
            out.append((f"{g.name} [D,D] at order {d.order}", g, d, d))
            d = commutator_subgroup(g, d, d)
    for g in (preset("dihedral4"), preset("quaternion8"), preset("heisenberg", [3]), _symmetric4()):
        subs = {subgroup_closure(g, [x]).members: subgroup_closure(g, [x]) for x in g.elements()}
        subs[None] = whole_group(g)
        for (a, left), (b, right) in itertools.product(subs.items(), repeat=2):
            out.append((f"{g.name} [{a or 'G'},{b or 'G'}]", g, left, right))
    sharp = free_level3(2, 5).group
    G = whole_group(sharp)
    out.append(("sharp(2,5) [G,G]", sharp, G, G))
    out.append(("sharp(2,5) [term(2),G]", sharp, q_central_series(sharp, 5).term(2), G))
    return out


def test_commutator_subgroup_matches_all_pairs_oracle():
    """The generator route with its normal-closure certificate equals the
    all-pairs scan on every bracket of the corpus.  Explicit raises, so it
    also checks under ``python -O``."""
    corpus = _commutator_corpus()
    d4 = preset("dihedral4")
    s, rs = (subgroup_closure(d4, [x]) for x in (d4.generators[1], d4.mul(*d4.generators)))
    corpus.append(("D4 [<s>,<rs>]", d4, s, rs))
    if s.is_normal() or rs.is_normal():
        raise AssertionError("the D4 reflections must generate non-normal subgroups")
    for name, g, left, right in corpus:
        got = commutator_subgroup(g, left, right)
        want = oracles.commutator_subgroup_all_pairs(g, left, right)
        if got.members != want.members:
            raise AssertionError(f"{name}: order {got.order}, the all-pairs oracle gives {want.order}")
    if commutator_subgroup(d4, s, rs).order != 2:
        raise AssertionError("[<s>, <rs>] in D4 is the centre <r^2>")


@pytest.mark.parametrize("src", POOL_PRESETS + [("direct_product", [("dihedral4",), ("cyclic", [4])])], ids=_preset_id)
def test_center_matches_row_loop_oracle(src):
    g = preset(*src)
    if center(g).members != oracles.center_loop(g).members:
        raise AssertionError(f"centre of {g.name}: {center(g).members} != {oracles.center_loop(g).members}")


@pytest.mark.parametrize("src", POOL_PRESETS, ids=_preset_id)
def test_is_multiplicative_matches_all_pairs_oracle(src):
    g = preset(*src)
    tree_jumps = groups._generator_tree_jumps(g, g.generators)
    for tgt in SMALL_TARGETS:
        b = preset(*tgt)
        verdicts = set()
        for assignment in itertools.product(range(b.order), repeat=len(g.generators)):
            images = groups._extend_gen_images(g, tree_jumps, assignment, b)
            np.testing.assert_array_equal(
                images, oracles.extend_gen_images_edge_loop(g, tree_jumps[0], assignment, b)
            )
            fast = groups._is_multiplicative(g, b, images)
            if fast != oracles.is_multiplicative_all_pairs(g, b, images):
                raise AssertionError(f"{g.name} -> {b.name} at {assignment}: generator check says {fast}")
            verdicts.add(fast)
            if fast:
                np.testing.assert_array_equal(GroupHom(g, b, images).images, images)
            else:
                with pytest.raises(ValueError, match="not multiplicative"):
                    GroupHom(g, b, images)
        # the trivial map is always a homomorphism
        if True not in verdicts:
            raise AssertionError(f"no homomorphism {g.name} -> {b.name} was accepted")


@pytest.mark.parametrize("src", POOL_PRESETS, ids=_preset_id)
def test_is_normal_matches_all_conjugates_oracle(src):
    g = preset(*src)
    subs = list(normal_subgroups_within(g, whole_group(g)))
    subs += [subgroup_closure(g, [x]) for x in g.elements()]
    verdicts = set()
    for sub in subs:
        fast = sub.is_normal()
        if fast != oracles.is_normal_all_conjugates(sub):
            raise AssertionError(f"{sub.members} in {g.name}: generator check says {fast}")
        verdicts.add(fast)
    if src[0] in ("dihedral4", "heisenberg", "modular") and False not in verdicts:
        raise AssertionError(f"{g.name} has a non-normal cyclic subgroup that was not seen")


def test_fault_swapped_images_raise_in_grouphom(h27):
    """A map built correctly along the BFS tree, then with two images swapped."""
    data = quotient(h27, center(h27))
    gens = h27.generators
    tree_jumps = groups._generator_tree_jumps(h27, gens)
    images = groups._extend_gen_images(h27, tree_jumps, [data.projection(s) for s in gens], data.quotient)
    np.testing.assert_array_equal(images, data.projection.images)
    # the last two elements the tree reaches with different images
    last = tree_jumps[0][0].tolist()[::-1]
    x = last[0]
    y = next(z for z in last if images[z] != images[x])
    images[[x, y]] = images[[y, x]]
    if oracles.is_multiplicative_all_pairs(h27, data.quotient, images):
        raise AssertionError("the swapped map should not be a homomorphism")
    with pytest.raises(ValueError, match="not multiplicative"):
        GroupHom(h27, data.quotient, images)


# ---------------------------------------------------------------------------
# pc presentations


@pytest.mark.parametrize("relabel", [False, True], ids=["natural", "relabeled"])
@pytest.mark.parametrize("label,build,qs", oracles.SMALL_SOLVABLE, ids=[c[0] for c in oracles.SMALL_SOLVABLE])
def test_pc_presentation_order_bijection_and_relations(label, build, qs, relabel):
    g = oracles.relabeled(build(), seed=len(label)) if relabel else build()
    pc = pc_presentation(g)
    big_n = pc.length
    if int(np.prod(pc.rel_orders)) != g.order:
        raise AssertionError(f"{label}: relative orders {pc.rel_orders} do not multiply to {g.order}")
    if any(any(r % k == 0 for k in range(2, r)) for r in pc.rel_orders):
        raise AssertionError(f"{label}: relative orders {pc.rel_orders} must be prime")
    words = set()
    for x in g.elements():
        word = pc.exponents[x]
        if not all(0 <= e < r for e, r in zip(word, pc.rel_orders)):
            raise AssertionError(f"{label}: exponent vector {word} out of range")
        if oracles.pc_word_value(g, pc.gens, word) != x:
            raise AssertionError(f"{label}: the normal word of {x} evaluates elsewhere")
        words.add(tuple(word))
    if len(words) != g.order:
        raise AssertionError(f"{label}: two elements share an exponent vector")
    for i, (gi, r) in enumerate(zip(pc.gens, pc.rel_orders)):
        if pc.power_words[i, : i + 1].any() or oracles.pc_word_value(g, pc.gens, pc.power_words[i]) != g.power(gi, r):
            raise AssertionError(f"{label}: wrong power relation for g_{i + 1}")
        for j in range(big_n):
            word = pc.conj_words[i, j]
            if j <= i:
                if word.any():
                    raise AssertionError(f"{label}: conjugate word ({i}, {j}) must be empty")
            elif word[: i + 1].any() or oracles.pc_word_value(g, pc.gens, word) != g.conj(pc.gens[j], gi):
                raise AssertionError(f"{label}: wrong conjugate relation ({i + 1}, {j + 1})")


def _alternating5() -> FiniteGroup:
    def even(p):
        return sum(p[a] > p[b] for a in range(5) for b in range(a + 1, 5)) % 2 == 0

    return _permutation_group([p for p in itertools.permutations(range(5)) if even(p)], "A5")


def test_pc_presentation_rejects_a5():
    a5 = _alternating5()
    if a5.order != 60:
        raise AssertionError(f"A5 has order 60, not {a5.order}")
    with pytest.raises(ValueError, match="not solvable"):
        pc_presentation(a5)
    with pytest.raises(ValueError, match="not solvable"):
        h2(a5, 2)


def test_memo_pc_presentation_and_generator_tree_are_built_once(monkeypatch, q8):
    g = preset("dihedral4")
    if pc_presentation(g) is not pc_presentation(g):
        raise AssertionError("the pc presentation must be kept on the group")
    calls = []
    real = groups._bfs_tree
    monkeypatch.setattr(groups, "_bfs_tree", lambda *args: calls.append(args) or real(*args))
    enumerate_homs(g, q8)
    enumerate_homs(g, g)
    is_isomorphic(g, q8)
    if len(calls) != 1 or groups._generator_tree(g, g.generators) is not groups._generator_tree(g, g.generators):
        raise AssertionError(f"the generator tree of D4 was built {len(calls)} times")


# ---------------------------------------------------------------------------
# row-blocked all-pairs scans


@pytest.fixture(scope="module")
def z4x512():
    """Z/4 × Z/512, order 2048: element (a, b) has index 512·a + b."""
    return preset("direct_product", [("cyclic", [4]), ("cyclic", [512])])


def _first_block_rows(width: int) -> int:
    return groups._BLOCK_CELLS // width


def test_fault_corrupted_cell_in_later_block_rejected(z4x512):
    g = z4x512
    n = g.order
    step = _first_block_rows(n)
    x = n - 1
    # the rows where Light's test can see row x: x itself and x·s⁻¹ per generator s
    seen_at = [x] + [g.mul(x, g.inv(s)) for s in g.generators]
    if n * n <= groups._BLOCK_CELLS or min(seen_at) < step:
        raise AssertionError("the corrupted row must lie past the first row block")
    y1, y2 = [y for y in range(n) if y not in g.generators and g.mul(x, y) != g.identity][-2:]
    bad = g.table.copy()
    bad[x, [y1, y2]] = bad[x, [y2, y1]]
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup.from_table(bad, generators=g.generators)


def test_fault_unclosed_members_in_later_block_rejected(z4x512):
    g = z4x512
    # {0} × Z/512 is closed; the coset {1} × Z/512 after it is not: (1,a)(1,b) = (2,a+b)
    members = tuple(range(1024))
    if _first_block_rows(len(members)) > 512:
        raise AssertionError("the unclosed rows must lie past the first row block")
    with pytest.raises(ValueError, match="not closed under multiplication"):
        Subgroup(g, members)


def test_blocked_scans_over_several_blocks(z4x512):
    g = z4x512
    # ⟨(2,0), (0,1)⟩ = {0, 2} × Z/512: 1024 members, a closure of several row blocks
    sub = subgroup_closure(g, [1024, 1])
    if len(sub.members) ** 2 <= groups._BLOCK_CELLS:
        raise AssertionError("the closure must span several row blocks")
    if sub.members != tuple(range(512)) + tuple(range(1024, 1536)):
        raise AssertionError(f"wrong closure of order {sub.order}")
    # the first 1024 indices are {0, 1} × Z/512: the rows of {0} × Z/512 stay
    # inside it, and only the later rows reach (2, 0), which generates the rest
    if subgroup_closure(g, range(1024)).order != g.order:
        raise AssertionError("the closure must reach the whole group")
    # [G, G] of sharp(2,4), order 1024, is the central ⟨[σ₁, σ₂]⟩ of order 4
    model = free_level3(2, 4)
    G = whole_group(model.group)
    comm = commutator_subgroup(model.group, G, G)
    if comm.members != subgroup_closure(model.group, model.commutator_central).members or comm.order != 4:
        raise AssertionError(f"wrong commutator subgroup of order {comm.order}")


def test_quotient_table_over_several_blocks(z4x512):
    """Z/4 × Z/512 modulo ⟨(2, 0)⟩, order 1024: the table is filled in row blocks
    and equals the whole-table formula coset_index[table[reps × reps]]."""
    data = quotient(z4x512, subgroup_closure(z4x512, [1024]))
    m = data.quotient.order
    if m <= 512 or m * m <= groups._BLOCK_CELLS:
        raise AssertionError("the quotient table must span several row blocks")
    reps = data.coset_reps
    np.testing.assert_array_equal(
        data.quotient.table, data.projection.images[z4x512.table[np.ix_(reps, reps)]]
    )


def test_blocked_commutators_past_the_central_first_rows(d4):
    """D4 × Z/256: the first 256 indices are central, so the first row blocks give no commutator."""
    g = direct_product(d4, preset("cyclic", [256]))
    if not all(g.commutator(x, y) == g.identity for x in range(_first_block_rows(g.order)) for y in g.generators):
        raise AssertionError("the first row block must be central")
    comm = commutator_subgroup(g, whole_group(g), whole_group(g))
    expected = tuple(256 * x for x in commutator_subgroup(d4, whole_group(d4), whole_group(d4)).members)
    if comm.members != expected:
        raise AssertionError(f"wrong commutator subgroup {comm.members}")


# ---------------------------------------------------------------------------
# isomorphism testing


def test_h27_not_isomorphic_m27(h27, m27):
    assert not is_isomorphic(h27, m27)


def test_d4_not_isomorphic_q8(d4, q8):
    assert not is_isomorphic(d4, q8)


def test_isomorphic_relabelled(d4):
    perm = np.array([3, 0, 6, 1, 7, 2, 5, 4])
    inv_perm = np.argsort(perm)
    shuffled = perm[d4.table[np.ix_(inv_perm, inv_perm)]]
    other = FiniteGroup.from_table(shuffled, name="D4-shuffled")
    assert is_isomorphic(d4, other)
    assert is_isomorphic(other, d4)


def test_abelian_iso_by_profile():
    assert is_isomorphic(
        preset("direct_product", [["cyclic", [2]], ["cyclic", [4]]]),
        preset("direct_product", [["cyclic", [4]], ["cyclic", [2]]]),
    )
    assert not is_isomorphic(preset("cyclic", [8]), preset("direct_product", [["cyclic", [2]], ["cyclic", [4]]]))


# ---------------------------------------------------------------------------
# normal subgroups within a bound


def test_normal_subgroups_trivial_bound(d4):
    subs = normal_subgroups_within(d4, trivial_subgroup(d4))
    assert len(subs) == 1 and subs[0].is_trivial()


def test_normal_subgroups_in_center_of_d4(d4):
    r = d4.generators[0]
    h = subgroup_closure(d4, [d4.power(r, 2)])
    subs = normal_subgroups_within(d4, h)
    assert sorted(s.order for s in subs) == [1, 2]


def test_normal_subgroups_in_heisenberg_center(h27):
    subs = normal_subgroups_within(h27, center(h27))
    assert sorted(s.order for s in subs) == [1, 3]


def test_normal_subgroups_in_r_of_d4(d4):
    r = d4.generators[0]
    h = subgroup_closure(d4, [r])
    subs = normal_subgroups_within(d4, h)
    assert sorted(s.order for s in subs) == [1, 2, 4]


# ---------------------------------------------------------------------------
# per-group memo


def test_memo_returns_the_same_series_and_orders():
    g = preset("heisenberg", [3])
    assert q_central_series(g, 3) is q_central_series(g, 3)
    assert element_orders(g) is element_orders(g)
    assert whole_group(g) is whole_group(g)
    # a fresh group with the same table computes its own
    twin = FiniteGroup.from_table(g.table)
    assert q_central_series(twin, 3) is not q_central_series(g, 3)


def test_memo_keys_the_series_on_q_and_depth():
    g = preset("cyclic", [16])
    full, shallow = q_central_series(g, 2), q_central_series(g, 2, depth=3)
    assert full is not shallow
    assert [t.order for t in full.terms] == [16, 8, 4, 2, 1, 1]
    assert [t.order for t in shallow.terms] == [16, 8, 4]
    assert q_central_series(g, 2, depth=3) is shallow
    assert q_central_series(g, 4) is not full
    with pytest.raises(ValueError):
        q_central_series(g, 2, depth=2)


def test_memo_orders_are_read_only(d4):
    orders = element_orders(d4)
    with pytest.raises(ValueError):
        orders[0] = 5


def test_memo_is_freed_with_its_group():
    g = preset("dihedral4")
    q_central_series(g, 2)
    element_orders(g)
    g.power(1, 3)
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None
