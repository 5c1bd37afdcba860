"""Duality layer tests.

The six duality conditions are computed along genuinely independent routes
(kernel solving, exactness, pairing perfection, annihilators, lift
enumeration), so the strongest check here is simply running them: the module
raises if the routes ever disagree.  Expected values for the pairings,
kernels, extension lists and reconstructions were fixed from hand
derivations on the small standard groups before being frozen into the
assertions below.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import qcoh.duality as duality_mod
from qcoh.cohomology import (
    Cochain1,
    bockstein,
    cup11,
    extension_from_class,
    five_term_check,
    h1,
    h2,
    h2_dec,
    hat_ring,
    img_bockstein,
    invariants_h1,
    is_coboundary,
    span_of_classes,
    symbolic_h2_elementary,
    tensor_kill_rows,
    tensor_quotient,
)
from qcoh.duality import (
    central_subquotient,
    closed_pairing_value,
    decomposable_transgression_conditions,
    dual_basis_check,
    duality_conditions,
    extension_list,
    floor_by_intersection,
    galois_relation_type,
    inflation_isomorphism_table,
    inflation_kernel_symbolic,
    kernel_generating_pairs,
    level2_frame,
    local_global_check,
    lower3_intersection_check,
    lower3_subgroup,
    power_commutator_subgroup,
    projection_conditions,
    reconstruct_quotient,
    restriction_kernel,
    substitution_pairing,
    transgression_pairing,
    transgression_solver,
    triple_of,
    TRIPLE_KINDS,
)
from qcoh.errors import VerificationError
from qcoh.freemodel import free_level3
from qcoh.groups import (
    FiniteGroup,
    Subgroup,
    center,
    commutator_subgroup,
    direct_product,
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
from qcoh.zqlin import ZqMatrix, coset_reduce, factor_prime_power, howell_form


@pytest.fixture(scope="module")
def sharp23():
    return free_level3(2, 3, "sharp")


@pytest.fixture(scope="module")
def flat23():
    return free_level3(2, 3, "flat")


@pytest.fixture(scope="module")
def h27():
    return preset("heisenberg", [3])


@pytest.fixture(scope="module")
def m27():
    return preset("modular", [3])


def _group(name, params=None):
    return preset(name, params) if params is not None else preset(name)


def h2_full(space):
    """The whole of H² as a subspace (identity coefficient submodule)."""
    return span_of_classes(space, list(space.basis))


def alpha_tensor_quotient(group, q, triple, r, t):
    """The degree-r tensor power of H¹(G) modulo the α-killed t-spans."""
    h1s = h1(group, q)
    pred = duality_mod._alpha_zero_predicate(triple, t, h1s.basis, group, q)
    (kill,) = tensor_kill_rows(h1s.invariant_factors, q, (r,), t, pred)
    return tensor_quotient(h1s.invariant_factors, q, r, kill)


# (label, group builder args, q) — the shared small-group pool
POOL = [
    ("cyclic4", ("cyclic", [4]), 2),
    ("cyclic8", ("cyclic", [8]), 2),
    ("cyclic9", ("cyclic", [9]), 3),
    ("cyclic16-q4", ("cyclic", [16]), 4),
    ("dihedral4", ("dihedral4", None), 2),
    ("quaternion8", ("quaternion8", None), 2),
    ("heisenberg3", ("heisenberg", [3]), 3),
    ("modular3", ("modular", [3]), 3),
    ("klein", ("elementary_abelian", [2, 2]), 2),
    ("el33", ("elementary_abelian", [3, 2]), 3),
]


# ---------------------------------------------------------------------------
# series subgroups


def test_lower3_of_heisenberg_is_trivial(h27):
    assert lower3_subgroup(h27, 3).order == 1


def test_lower3_of_modular_is_the_center(m27):
    low = lower3_subgroup(m27, 3)
    assert low.members == q_central_series(m27, 3).term(2).members
    assert low.order == 3


def test_lower3_cyclic16_mod2_uses_delta_two():
    g = preset("cyclic", [16])
    # 2-central: T = G^2[G,G] = 2Z/16; lower-3 = G^4 because delta = 2
    assert lower3_subgroup(g, 2).members == (0, 4, 8, 12)


def test_lower3_cyclic16_mod4():
    g = preset("cyclic", [16])
    # q = 4, delta = 2: generated by 8th powers
    assert lower3_subgroup(g, 4).members == (0, 8)


@pytest.mark.parametrize("label,args,q", [c for c in POOL if c[2] == 2])
def test_lower3_equals_term3_when_q_is_2(label, args, q):
    g = _group(*args)
    assert lower3_subgroup(g, 2).members == q_central_series(g, 2).term(3).members


@pytest.mark.parametrize("label,args,q", POOL)
def test_term3_inside_lower3(label, args, q):
    g = _group(*args)
    low = lower3_subgroup(g, q)
    for m in q_central_series(g, q).term(3).members:
        assert low.contains(m)


def test_power_commutator_subgroup_quaternion():
    g = preset("quaternion8")
    # fourth powers vanish, so only the commutator part survives
    assert power_commutator_subgroup(g, 4).order == 2


# ---------------------------------------------------------------------------
# level-2 frames


def test_frame_heisenberg(h27):
    frame = level2_frame(h27, 3)
    assert frame.d == 2
    assert frame.quotient.order == 9
    # chars are dual to the chosen basis
    for i, chi in enumerate(frame.chars):
        for j, b in enumerate(frame.basis):
            assert chi(b) == (1 if i == j else 0)


def test_frame_coordinates_are_discrete_logs(sharp23):
    frame = level2_frame(sharp23.group, 3)
    Q = frame.quotient
    for x in range(Q.order):
        acc = Q.identity
        for j, b in enumerate(frame.basis):
            acc = Q.table[acc, Q.power(b, int(frame.coords[x, j]))]
        assert acc == x


def test_frame_rejects_non_free_quotient():
    g = preset("cyclic", [2])
    with pytest.raises(ValueError):
        level2_frame(g, 4)  # G/T = Z/2 is not free over Z/4


def test_frame_rejects_mixed_exponents():
    g = preset("direct_product", [("cyclic", [4]), ("cyclic", [2])])
    with pytest.raises(ValueError):
        level2_frame(g, 4)


def test_frame_rank_one_over_prime_square():
    # Z/9 with q = 9: the level-2 term is trivial and the quotient is free
    frame = level2_frame(preset("cyclic", [9]), 9)
    assert frame.d == 1
    assert frame.quotient.order == 9


# ---------------------------------------------------------------------------
# central subquotients and the restriction kernel


def test_central_subquotient_needs_floor_above_commutators(h27):
    top = q_central_series(h27, 3).term(2)
    with pytest.raises(ValueError):
        # floor below T^q[T,G] is rejected for non-central tops
        central_subquotient(h27, whole_group(h27), trivial_subgroup(h27), 3)


def test_central_subquotient_of_sharp(sharp23):
    g = sharp23.group
    top = q_central_series(g, 3).term(2)
    mod = central_subquotient(g, top, trivial_subgroup(g), 3)
    assert mod.presentation.order == 27
    assert mod.presentation.invariant_factors == (3, 3, 3)
    assert len(mod.reps) == 3


def test_restriction_kernel_ranks(sharp23):
    g = sharp23.group
    top = q_central_series(g, 3).term(2)
    K = restriction_kernel(g, top, trivial_subgroup(g), 3)
    assert K.invariant_factors == (3, 3, 3)
    low = lower3_subgroup(g, 3)
    K2 = restriction_kernel(g, top, low, 3)
    # lower-3 kills the two power coordinates, leaving the commutator one
    assert K2.invariant_factors == (3,)
    for psi in K2.basis:
        assert all(K2.invariants.value(psi, int(m)) == 0 for m in low.members)


def test_restriction_kernel_full_floor(h27):
    top = q_central_series(h27, 3).term(2)
    K = restriction_kernel(h27, top, top, 3)
    assert K.invariant_factors == ()
    assert K.order == 1


# ---------------------------------------------------------------------------
# the substitution pairing


def test_substitution_pairing_heisenberg(h27):
    sp = substitution_pairing(h27, 3, q_central_series(h27, 3).term(2))
    assert sp.perfect
    assert sp.report.left_order == 3
    assert sp.report.right_order == 3
    assert sp.report.matrix.entries.tolist() == [[1]]


def test_substitution_pairing_cyclic4():
    g = preset("cyclic", [4])
    sp = substitution_pairing(g, 2, q_central_series(g, 2).term(2))
    assert sp.perfect
    assert (sp.report.left_order, sp.report.right_order) == (2, 2)


def test_substitution_pairing_sharp_is_identity(sharp23):
    sp = substitution_pairing(sharp23.group, 3, q_central_series(sharp23.group, 3).term(2))
    assert sp.perfect
    assert sp.report.left_order == 27
    assert sp.report.matrix.entries.tolist() == np.eye(3, dtype=int).tolist()


@pytest.mark.parametrize("label,args,q", POOL)
@pytest.mark.optimized
def test_substitution_pairing_always_perfect_on_default_floor(label, args, q):
    """With floor = T^q[T,G] the substitution pairing is always perfect."""
    g = _group(*args)
    top = q_central_series(g, q).term(2)
    assert substitution_pairing(g, q, top).perfect


# ---------------------------------------------------------------------------
# the transgression pairing


def test_transgression_pairing_sharp(sharp23):
    g = sharp23.group
    top = q_central_series(g, 3).term(2)
    tp = transgression_pairing(g, 3, top, trivial_subgroup(g), h2_full)
    assert tp.well_defined
    assert tp.perfect
    assert len(tp.classes) == 3


def test_transgression_pairing_ill_defined_floor(flat23):
    # floor = T, but the kernel classes pair nontrivially with T itself:
    # quotient side is trivial while classes survive, so not perfect
    g = flat23.group
    top = q_central_series(g, 3).term(2)
    tp = transgression_pairing(g, 3, top, top, h2_full)
    assert not tp.perfect


@pytest.mark.optimized
def test_transgression_preimages_kill_default_floor(h27):
    g = h27
    top = q_central_series(g, 3).term(2)
    tp = transgression_pairing(g, 3, top, trivial_subgroup(g), h2_full)
    assert tp.well_defined and tp.perfect


# ---------------------------------------------------------------------------
# the six duality conditions


@pytest.mark.parametrize("label,args,q", POOL)
@pytest.mark.parametrize("kind", TRIPLE_KINDS)
def test_canonical_triples_are_dual(label, args, q, kind):
    """Each standard triple satisfies all six conditions on every pool group.

    duality_conditions raises internally if the six routes disagree, so this
    test also pins their equivalence.
    """
    g = _group(*args)
    tri = triple_of(kind)
    rep = duality_conditions(g, q, tri.top(g, q), tri.floor(g, q), tri.alpha_image)
    assert rep.as_tuple() == (True,) * 6


@pytest.mark.parametrize("kind", TRIPLE_KINDS)
def test_free_models_are_dual(sharp23, flat23, kind):
    for model in (sharp23, flat23):
        g = model.group
        tri = triple_of(kind)
        rep = duality_conditions(g, 3, tri.top(g, 3), tri.floor(g, 3), tri.alpha_image)
        assert rep.as_tuple() == (True,) * 6


def test_flip_full_h2_on_flat(flat23):
    """All six conditions flip together when the floor is moved off target."""
    g = flat23.group
    top = q_central_series(g, 3).term(2)
    good = duality_conditions(g, 3, top, trivial_subgroup(g), h2_full)
    bad = duality_conditions(g, 3, top, top, h2_full)
    assert good.as_tuple() == (True,) * 6
    assert bad.as_tuple() == (False,) * 6


def test_quaternion_full_h2_dual():
    g = preset("quaternion8")
    top = q_central_series(g, 2).term(2)
    rep = duality_conditions(g, 2, top, trivial_subgroup(g), h2_full)
    assert rep.as_tuple() == (True,) * 6
    assert rep.annihilator.order == 1


def test_degenerate_trivial_top():
    g = preset("elementary_abelian", [3, 2])
    top = q_central_series(g, 3).term(2)
    assert top.order == 1
    rep = duality_conditions(g, 3, top, trivial_subgroup(g), h2_full)
    assert rep.as_tuple() == (True,) * 6


def test_explicit_a0_classes_route(h27):
    """Condition (f) via explicitly chosen generators of A ∩ img(trg)."""
    tri = triple_of("dec-cup")
    top = tri.top(h27, 3)
    # the transgression image is all of H²(G/T) ∩ dec here; use its basis
    sub = tri.alpha_image(level2_frame(h27, 3).space)
    inter = [c for c in sub.coordinate_members() if any(c)]
    rep = duality_conditions(h27, 3, top, tri.floor(h27, 3), tri.alpha_image, a0=inter)
    assert rep.as_tuple() == (True,) * 6


@pytest.fixture(scope="module")
def sharp25():
    return free_level3(2, 5, "sharp").group


@pytest.mark.parametrize("kind,floor_order", [("dec-cup", 25), ("bock-cup", 1), ("bock", 5)])
def test_duality_exact_at_order_cap(sharp25, kind, floor_order):
    """sharp(2,5), |G| = 3125: every inflation kernel is solved on G itself."""
    tri = triple_of(kind)
    top, floor = tri.top(sharp25, 5), tri.floor(sharp25, 5)
    rep = duality_conditions(sharp25, 5, top, floor, tri.alpha_image)
    assert rep.as_tuple() == (True,) * 6
    assert rep.substituted is False
    assert top.order == 125
    assert (floor.order, rep.annihilator.order) == (floor_order, floor_order)


def test_trivial_floor_builds_no_copy_of_the_group(monkeypatch):
    """Condition (c) with T₀ = 1 reads G/T₀ as G: no group of order |G| is built."""
    import qcoh.groups as groups_mod

    g = free_level3(2, 4, "sharp").group
    tri = triple_of("bock-cup")
    top, floor = tri.top(g, 4), tri.floor(g, 4)
    assert floor.is_trivial()
    built = []
    original = groups_mod.FiniteGroup.__post_init__

    def recorded(self):
        original(self)
        built.append(self.order)

    monkeypatch.setattr(groups_mod.FiniteGroup, "__post_init__", recorded)
    rep = duality_conditions(g, 4, top, floor, tri.alpha_image)
    assert rep.as_tuple() == (True,) * 6
    assert built and g.order not in built


def test_wrong_space_coefficients_rejected(h27):
    tri = triple_of("dec-cup")
    top = tri.top(h27, 3)
    other = h2(preset("elementary_abelian", [3, 2]), 3)
    from qcoh.cohomology import h2_dec as dec

    with pytest.raises(ValueError):
        duality_conditions(h27, 3, top, tri.floor(h27, 3), dec(other))


# ---------------------------------------------------------------------------
# combination kernels: the generator-potential route against the lattice oracle


def _howell_rows(rows, q):
    return howell_form(ZqMatrix(np.asarray(rows, dtype=np.int64) % q, q)).matrix.entries


@pytest.mark.parametrize("label,args,q", POOL)
@pytest.mark.parametrize("kind", TRIPLE_KINDS)
@pytest.mark.optimized
def test_combo_kernel_matches_lattice_oracle(label, args, q, kind):
    """Same kernel span as the coboundary-lattice route, for identity and projection images.

    Checked with numpy's assertion so the comparison also runs under ``python -O``.
    """
    g = _group(*args)
    tri = triple_of(kind)
    level2 = quotient(g, tri.top(g, q))
    space = h2(level2.quotient, q)
    below = quotient(g, tri.floor(g, q))
    cases = [
        (level2.quotient, space.basis, None),
        (g, tri.alpha_generator_classes(g, q), None),
        (g, tri.alpha_image(space).gens, level2.projection.images),
        (below.quotient, space.basis, level2.projection.images[below.coset_reps]),
    ]
    for source, cochains, images in cases:
        fast = duality_mod._combo_kernel(source, q, list(cochains), images=images)
        slow = oracles.combo_kernel_lattice(source, q, list(cochains), images=images)
        np.testing.assert_array_equal(_howell_rows(fast, q), _howell_rows(slow, q))


# POOL plus the free models up to order 243
FLOOR_ORACLE_CASES = POOL + [
    ("sharp22", ("sharp", [2, 2]), 2),
    ("sharp23", ("sharp", [2, 3]), 3),
    ("flat23", ("flat", [2, 3]), 3),
]


def _case_group(name, params):
    if name in ("sharp", "flat"):
        return free_level3(*params, name).group
    if name == "redundant":
        # one more generator, the first times the last, so the set is not minimal
        g = _case_group(*params)
        gens = list(g.generators)
        return FiniteGroup.from_table(g.table, generators=gens + [int(g.table[gens[0], gens[-1]])])
    return _group(name, params)


@pytest.mark.parametrize("label,args,q", FLOOR_ORACLE_CASES)
@pytest.mark.parametrize("kind", TRIPLE_KINDS)
@pytest.mark.optimized
def test_inflation_kernel_matches_floor_quotient_oracle(label, args, q, kind):
    """Ker(inf: A(G/T) → H²(G)) solved on G spans the same classes as the G/T₀ route.

    The oracle solves on G/T₀ by the coboundary lattice.  Checked with numpy's
    assertion so the comparison also runs under ``python -O``.
    """
    g = _case_group(*args)
    tri = triple_of(kind)
    level2 = quotient(g, tri.top(g, q))
    space = h2(level2.quotient, q)
    gens = tri.alpha_image(space).gens
    images = level2.projection.images
    fast = duality_mod._inflation_kernel_classes(space, g, images, gens)
    slow = oracles.inflation_kernel_via_floor_quotient(space, g, tri.floor(g, q), images, gens)
    np.testing.assert_array_equal(
        span_of_classes(space, fast)._span.matrix.entries,
        span_of_classes(space, slow)._span.matrix.entries,
    )


LIFT_ORACLE_POOL = [case for case in POOL if case[0] in ("cyclic9", "dihedral4", "quaternion8", "heisenberg3", "modular3", "el33")]


@pytest.mark.parametrize("label,args,q", LIFT_ORACLE_POOL)
@pytest.mark.optimized
def test_lift_kernel_mask_matches_all_pairs_oracle(label, args, q):
    """The lift search of condition (f) against every fibre assignment, checked on all pairs.

    For the transgressed classes and for every H²(G/T) basis class: the same
    kernel mask, or, where no lift exists, the same refusal.  Checked with
    numpy's assertion and explicit raises so it also runs under ``python -O``.
    """
    g = _group(*args)
    solver = transgression_solver(g, q_central_series(g, q).term(2), q)
    for c in list(solver.images) + list(solver.space.basis):
        ext = extension_from_class(solver.space.group, c)
        slow = oracles.lift_kernel_mask_all_pairs(g, solver.data, ext)
        if slow is None:
            with pytest.raises(AssertionError, match="no lift exists"):
                duality_mod._lift_kernel_mask(g, solver.data, ext)
        else:
            np.testing.assert_array_equal(duality_mod._lift_kernel_mask(g, solver.data, ext), slow)


def _same_classes(fast, slow) -> bool:
    return len(fast) == len(slow) and all(np.array_equal(a.values, b.values) for a, b in zip(fast, slow))


@pytest.mark.parametrize("label,args,q", LIFT_ORACLE_POOL)
@pytest.mark.parametrize("kind", TRIPLE_KINDS)
@pytest.mark.optimized
def test_linear_dedupe_matches_per_row_oracle(label, args, q, kind):
    """Kernel classes read by linear coordinates equal the per-row solve route, in order.

    Checked with explicit raises so it also runs under ``python -O``.
    """
    g = _group(*args)
    tri = triple_of(kind)
    solver = transgression_solver(g, tri.top(g, q), q)
    space = solver.space
    gens = tri.alpha_image(space).gens
    images = solver.data.projection.images
    fast = duality_mod._inflation_kernel_classes(space, g, images, gens)
    slow = oracles.nonzero_classes_per_row(space, gens, duality_mod._combo_kernel(g, q, list(gens), images))
    if not _same_classes(fast, slow):
        raise AssertionError(f"{label} {kind}: inflation kernel classes differ from the per-row route")
    fast = duality_mod._intersection_class_reps(space, gens, solver.images)
    slow = oracles.intersection_class_reps_hand_stacked(space, gens, solver.images)
    if not _same_classes(fast, slow):
        raise AssertionError(f"{label} {kind}: intersection classes differ from the hand-stacked route")


@pytest.mark.parametrize("label,args,q", LIFT_ORACLE_POOL)
@pytest.mark.optimized
def test_express_and_relations_match_hand_stacked_oracle(label, args, q):
    """H2Space.express/relations and H2Subspace.relations against one solve or kernel of the v-space stack.

    The tails frame and the coboundary lattice give different generating
    rows, so relation modules are compared by their Howell forms, and two
    solutions of one express call must differ by a relation.  Checked with
    explicit raises so it also runs under ``python -O``.
    """
    g = _group(*args)
    solver = transgression_solver(g, q_central_series(g, q).term(2), q)
    space = solver.space
    families = [list(solver.images), list(space.basis)]
    families += [list(triple_of(kind).alpha_image(space).gens) for kind in TRIPLE_KINDS]
    targets = families[0] + families[1] + families[2]

    def span(rows):
        return howell_form(ZqMatrix(rows, q))

    for classes in families:
        fast, slow = space.relations(classes), oracles.relations_hand_stacked(space, classes)
        rel = span(slow)
        if not np.array_equal(span(fast).matrix.entries, rel.matrix.entries):
            raise AssertionError(f"{label}: H2Space.relations differs from the hand-stacked kernel")
        for c in targets:
            fast, slow = space.express(classes, c), oracles.express_hand_stacked(space, classes, c)
            if (fast is None) != (slow is None):
                raise AssertionError(f"{label}: express and the hand-stacked solve disagree on solvability")
            if fast is not None and coset_reduce(rel, fast - slow).any():
                raise AssertionError(f"{label}: express differs from the hand-stacked solve by a non-relation")
        sub = span_of_classes(space, classes)
        for others in families:
            fast, slow = sub.relations(others), oracles.relations_hand_stacked(space, others, classes)
            if not np.array_equal(span(fast).matrix.entries, span(slow).matrix.entries):
                raise AssertionError(f"{label}: H2Subspace.relations differs from the hand-stacked kernel")


@pytest.mark.parametrize("label,args,q", POOL)
@pytest.mark.optimized
def test_coordinate_members_match_per_representative_oracle(label, args, q):
    """H2Subspace.coordinate_members against building and testing each tuple's representative.

    On the decomposable part, the Bockstein image and every triple's α
    image.  Checked with explicit raises so it also runs under ``python -O``.
    """
    space = h2(_group(*args), q)
    subs = [h2_dec(space), img_bockstein(space)] + [triple_of(kind).alpha_image(space) for kind in TRIPLE_KINDS]
    for sub in subs:
        if sub.coordinate_members() != oracles.coordinate_members_per_representative(sub):
            raise AssertionError(f"{label}: coordinate members differ from the per-representative route")


@pytest.mark.parametrize("label,args,q", LIFT_ORACLE_POOL)
@pytest.mark.optimized
def test_five_term_image_matches_mix_loop_oracle(label, args, q):
    """Node 4 of the five-term check reads the same kernel and image sets as the mix loop.

    Checked with explicit raises so it also runs under ``python -O``.
    """
    g = _group(*args)
    top = q_central_series(g, q).term(2)
    name, ok, detail = five_term_check(g, top, q).nodes[3]
    killed, image = oracles.five_term_node4_sets(g, top, q)
    if name != "kernel-inf2-equals-image-trg" or not ok or killed != image:
        raise AssertionError(f"{label}: node 4 is not exact ({name}, {ok})")
    if detail != f"kernel size {len(killed)}, image size {len(image)}":
        raise AssertionError(f"{label}: node 4 reads {detail!r}")


@pytest.mark.optimized
def test_combo_kernel_rejects_a_tampered_kernel_row(h27, monkeypatch):
    """A kernel row that violates the pair system raises, also under ``python -O``."""
    real_kernel = duality_mod.kernel

    def tampered(matrix):
        rows = real_kernel(matrix).entries.copy()
        rows[0, -1] = (rows[0, -1] + 1) % matrix.modulus
        return ZqMatrix(rows, matrix.modulus)

    level2 = quotient(h27, q_central_series(h27, 3).term(2))
    space = h2(level2.quotient, 3)
    monkeypatch.setattr(duality_mod, "kernel", tampered)
    with pytest.raises(AssertionError, match="violates the pair system"):
        duality_mod._combo_kernel(level2.quotient, 3, list(space.basis))


@pytest.mark.optimized
def test_level2_frame_raises_on_a_failed_cocycle_check(monkeypatch):
    """A coordinate character that fails its cocycle check raises, also under ``python -O``."""
    g = preset("heisenberg", [3])
    monkeypatch.setattr(Cochain1, "is_cocycle", lambda self: False)
    with pytest.raises(AssertionError, match="not a homomorphism"):
        level2_frame(g, 3)


# ---------------------------------------------------------------------------
# α predicates and the inflation-iso check against the per-tuple solve route


@pytest.mark.parametrize("label,args,q", POOL)
@pytest.mark.parametrize("kind", TRIPLE_KINDS)
@pytest.mark.optimized
def test_alpha_kernel_matches_solve_oracle(label, args, q, kind):
    """Kernel-membership α predicates and ``_inflation_iso`` agree with the old routes.

    For every normal N ≤ T: the batched ``tensor_kill_rows`` of the down and up
    predicates has the row set of the per-tuple oracle driven by one solve per
    tuple, at each (r, t), and ``_inflation_iso`` gives the same (mono, surj) as the
    lattice oracle.
    Checked with numpy's assertions so the comparison also runs under ``python -O``.
    """
    g = _group(*args)
    tri = triple_of(kind)
    own_gens = tri.alpha_generator_classes(g, q)
    for N in normal_subgroups_within(g, tri.top(g, q)):
        qd = quotient(g, N)
        h1n = h1(qd.quotient, q)
        lifted = [Cochain1(g, q, chi.values[qd.projection.images]) for chi in h1n.basis]
        for t in tri.active_degrees:
            sides = [
                (
                    duality_mod._alpha_zero_predicate(tri, t, h1n.basis, qd.quotient, q),
                    oracles.alpha_zero_predicate_solve(tri, t, h1n.basis, qd.quotient, q),
                ),
                (
                    duality_mod._alpha_zero_predicate(tri, t, h1n.basis, g, q, images=qd.projection.images),
                    oracles.alpha_zero_predicate_solve(tri, t, lifted, g, q),
                ),
            ]
            rs = range(t, 4)
            for fast, slow in sides:
                for r, rows in zip(rs, tensor_kill_rows(h1n.invariant_factors, q, rs, t, fast)):
                    np.testing.assert_array_equal(
                        np.unique(rows, axis=0),
                        oracles.tensor_kill_rows_per_tuple(h1n.invariant_factors, q, r, t, slow),
                    )
        target_gens = tri.alpha_generator_classes(qd.quotient, q)
        np.testing.assert_equal(
            duality_mod._inflation_iso(g, q, qd.projection.images, target_gens, own_gens),
            oracles.inflation_iso_lattice(g, q, qd.projection.images, target_gens, own_gens),
        )


@pytest.mark.parametrize("label,args,q", POOL)
@pytest.mark.optimized
def test_kill_rows_batch_hat_ring_cup_matches_solve_oracle(label, args, q):
    """``hat_ring``'s batched cup predicate gives the relations of one solve per pair.

    At degrees 1–3 the ring's relations equal those built from the per-tuple
    oracle driven by one ``is_coboundary`` solve per pair of H¹ generators.
    Checked with numpy's assertions so the comparison also runs under ``python -O``.
    """
    g = _group(*args)
    h1s = h1(g, q)
    factors = h1s.invariant_factors
    ring = hat_ring(g, q, max_degree=3)
    cup_dies = oracles.alpha_zero_predicate_solve(triple_of("dec-cup"), 2, h1s.basis, g, q)
    for r in (1, 2, 3):
        rows = oracles.tensor_kill_rows_per_tuple(factors, q, r, 2, cup_dies)
        np.testing.assert_array_equal(
            ring.degrees[r].relations.entries, tensor_quotient(factors, q, r, rows).relations.entries
        )


@pytest.mark.optimized
def test_memo_twist_kernel_solves_each_system_once(monkeypatch):
    """One inflation table on sharp(2,2) builds fewer twist systems than it asks for,
    and every kept kernel is read-only."""
    g = free_level3(2, 2).group
    calls, builds = [0], [0]
    real_kernel, real_propagation = duality_mod._twist_kernel, duality_mod._affine_propagation

    def counted_kernel(*a, **kw):
        calls[0] += 1
        return real_kernel(*a, **kw)

    def counted_propagation(*a, **kw):
        builds[0] += 1
        return real_propagation(*a, **kw)

    monkeypatch.setattr(duality_mod, "_twist_kernel", counted_kernel)
    monkeypatch.setattr(duality_mod, "_affine_propagation", counted_propagation)
    inflation_isomorphism_table(g, 2, triple_of("dec-cup"))
    if not 0 < builds[0] < calls[0]:
        raise AssertionError(f"{builds[0]} twist-system builds for {calls[0]} calls")
    kept = [v for k, v in g._memo.items() if k[0] == "twist_kernel"]
    if not kept or any(arr.flags.writeable for arr in kept):
        raise AssertionError("kept twist kernels must exist and be read-only")


@pytest.mark.optimized
def test_memo_level2_frame_is_kept_and_owns_its_solver(h27):
    frame = level2_frame(h27, 3)
    if level2_frame(h27, 3) is not frame:
        raise AssertionError("the level-2 frame must be built once per (group, q)")
    solver = frame.solver
    if frame.space is not solver.space or frame.data is not solver.data:
        raise AssertionError("the frame's G/T and H² must be those of its own solver")
    if not solver.top.same_as(q_central_series(h27, 3).term(2)):
        raise AssertionError("the frame's solver must transgress from the level-2 term")


@pytest.mark.optimized
def test_memo_invariants_and_subgroup_groups_are_kept(h27):
    top = q_central_series(h27, 3).term(2)
    inv = invariants_h1(h27, top, 3)
    again = Subgroup(h27, top.members)  # an equal subgroup built anew
    if invariants_h1(h27, again, 3) is not inv:
        raise AssertionError("invariants_h1 must be kept per (T, q)")
    tgrp = subgroup_as_group(top)
    if subgroup_as_group(again) is not tgrp or inv.group is not tgrp:
        raise AssertionError("subgroup_as_group must be kept on the parent per member tuple")


@pytest.mark.optimized
def test_memo_level2_frame_is_freed_with_its_group():
    g = preset("heisenberg", [3])
    level2_frame(g, 3)
    ref = weakref.ref(g)
    del g
    gc.collect()
    if ref() is not None:
        raise AssertionError("the level-2 facts kept on a group must not keep it alive")


@pytest.mark.optimized
def test_memo_transgression_solver_is_kept_per_top_and_shared(monkeypatch):
    """One solver per (T, q): equal subgroups, the level-2 frame and the six
    duality conditions all read it.  Checked with explicit raises so it also
    runs under ``python -O``."""
    builds = [0]
    real = duality_mod._transgression_solver

    def counted(*a, **kw):
        builds[0] += 1
        return real(*a, **kw)

    monkeypatch.setattr(duality_mod, "_transgression_solver", counted)
    g = preset("heisenberg", [3])
    top = q_central_series(g, 3).term(2)
    solver = transgression_solver(g, top, 3)
    if transgression_solver(g, Subgroup(g, top.members), 3) is not solver:
        raise AssertionError("an equal subgroup built anew must return the kept solver")
    if level2_frame(g, 3).solver is not solver:
        raise AssertionError("the level-2 frame must read the kept solver")

    g = preset("heisenberg", [3])
    builds[0] = 0
    for kind in TRIPLE_KINDS:
        tri = triple_of(kind)
        duality_conditions(g, 3, tri.top(g, 3), tri.floor(g, 3), tri.alpha_image)
    if builds[0] != 1:
        raise AssertionError(f"three duality_conditions calls built {builds[0]} solvers")

    tri = triple_of("dec-cup")
    alpha = tri.alpha_image(level2_frame(g, 3).space)
    rep = duality_conditions(g, 3, tri.top(g, 3), tri.floor(g, 3), alpha)
    if rep.as_tuple() != (True,) * 6:
        raise AssertionError(f"conditions on the frame's own H² subspace: {rep.as_tuple()}")


@pytest.mark.parametrize("d,q", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2)])
@pytest.mark.optimized
def test_memo_dual_basis_from_the_frame_solver_is_identity(d, q):
    """Every sharp model up to the order cap: the frame's own basis and solver give the identity."""
    rep = dual_basis_check(d, q)
    if not (rep.identity and rep.formulas_match):
        raise AssertionError(f"dual basis on sharp({d},{q}) is not the identity: {rep.matrix}")


@pytest.mark.parametrize("kind", ["bock-cup", "bock"])
@pytest.mark.parametrize(
    "label,args", [("cyclic3", ("cyclic", [3])), ("el33", ("elementary_abelian", [3, 2]))]
)
@pytest.mark.optimized
def test_inflation_iso_matches_lattice_oracle_when_h1_shrinks(label, args, kind):
    """Killing a Frattini-free quotient shrinks H¹, so some own Bockstein is not inflated.

    Z/3 → 1 and (Z/3)² → Z/3: surj is False on both routes.
    """
    g = _group(*args)
    tri = triple_of(kind)
    N = subgroup_closure(g, [g.generators[-1]])
    qd = quotient(g, N)
    case = (
        g,
        3,
        qd.projection.images,
        tri.alpha_generator_classes(qd.quotient, 3),
        tri.alpha_generator_classes(g, 3),
    )
    got = duality_mod._inflation_iso(*case)
    np.testing.assert_equal(got, oracles.inflation_iso_lattice(*case))
    np.testing.assert_equal(got[1], False)


# ---------------------------------------------------------------------------
# inflation isomorphisms over normal subgroups of T


def test_inflation_table_cyclic16_mod4():
    g = preset("cyclic", [16])
    table = inflation_isomorphism_table(g, 4, triple_of("dec-cup"))
    got = {(r.sub.order, r.in_floor, r.alpha_iso) for r in table.rows}
    assert got == {(1, True, True), (2, True, True), (4, False, False)}
    for r in table.rows:
        if r.alpha_iso:
            assert all(r.tensor_iso.values())


def test_inflation_table_heisenberg(h27):
    table = inflation_isomorphism_table(h27, 3, triple_of("dec-cup"))
    got = {(r.sub.order, r.alpha_iso) for r in table.rows}
    assert got == {(1, True), (3, False)}


def test_inflation_table_modular_bock_cup(m27):
    table = inflation_isomorphism_table(m27, 3, triple_of("bock-cup"))
    by_order = {r.sub.order: r for r in table.rows}
    assert by_order[1].alpha_iso and by_order[1].in_floor
    assert not by_order[3].alpha_iso and not by_order[3].in_floor


@pytest.mark.parametrize("kind", TRIPLE_KINDS)
@pytest.mark.parametrize("label,args,q", POOL[:6])
def test_inflation_table_runs_consistently(label, args, q, kind):
    # internal assertions pin (a)<=>(b) and (b)=>(c); reaching here is the test
    inflation_isomorphism_table(_group(*args), q, triple_of(kind))


# ---------------------------------------------------------------------------
# epimorphism conditions


def _sharp_to_flat(sharp):
    """The projection sharp → flat: the quotient by the (δq)-th powers."""
    g = sharp.group
    return quotient(g, power_subgroup(g, whole_group(g), sharp.delta * sharp.q)).projection


def test_projection_tower_positive(sharp23, flat23):
    pi = _sharp_to_flat(sharp23)
    assert pi.target.order == flat23.group.order
    rep = projection_conditions(pi, 3, triple_of("dec-cup"))
    assert rep.all_equal and rep.quotient_iso


def test_projection_tower_negative(sharp23):
    pi = _sharp_to_flat(sharp23)
    rep = projection_conditions(pi, 3, triple_of("bock-cup"))
    assert rep.all_equal and not rep.quotient_iso


def test_projection_collapsing_level2_rejected(flat23):
    g = flat23.group
    top = q_central_series(g, 3).term(2)
    # quotient by more than T: level-2 quotients no longer match
    bigger = subgroup_closure(g, list(top.members) + [g.generators[0]])
    qd = quotient(g, bigger)
    with pytest.raises(ValueError):
        projection_conditions(qd.projection, 3, triple_of("dec-cup"))


def test_projection_quotient_to_level2_fails_all(flat23):
    g = flat23.group
    qd = quotient(g, q_central_series(g, 3).term(2))
    rep = projection_conditions(qd.projection, 3, triple_of("dec-cup"))
    assert rep.all_equal and not rep.quotient_iso


# ---------------------------------------------------------------------------
# relation types


def test_relation_type_klein_fails_twist():
    rep = galois_relation_type(preset("elementary_abelian", [2, 2]), 2)
    assert rep.free_level2
    assert not rep.bockstein_by_cup
    assert rep.kernel_cup_generated
    assert not rep.passes


def test_relation_type_z2_passes():
    rep = galois_relation_type(preset("cyclic", [2]), 2)
    assert rep.passes
    assert rep.twist is not None
    # for q=2 the twist is the generator character itself
    assert rep.twist.values.tolist() == [0, 1]


def test_relation_type_heisenberg_fails(h27):
    rep = galois_relation_type(h27, 3)
    assert rep.free_level2 and rep.kernel_cup_generated
    assert not rep.bockstein_by_cup


def test_relation_type_quaternion_fails_kernel_shape():
    rep = galois_relation_type(preset("quaternion8"), 2)
    assert rep.free_level2
    assert not rep.kernel_cup_generated


@pytest.mark.parametrize("label,args,q", [("cyclic4", ("cyclic", [4]), 2),
                                          ("dihedral4", ("dihedral4", None), 2),
                                          ("cyclic16-q4", ("cyclic", [16]), 4)])
def test_relation_type_passers(label, args, q):
    assert galois_relation_type(_group(*args), q).passes


# ---------------------------------------------------------------------------
# kernel pairs, extension lists, intersections


def test_kernel_pairs_heisenberg_dec_cup(h27):
    ks = kernel_generating_pairs(h27, 3, triple_of("dec-cup"))
    assert ks.kernel_order == 3
    assert ks.generates
    assert len(ks.entries) == 1
    entry = ks.entries[0]
    assert entry.quotient.order == 9
    assert entry.linear is None and entry.pair is not None


def test_kernel_pairs_modular_dec_cup_empty(m27):
    ks = kernel_generating_pairs(m27, 3, triple_of("dec-cup"))
    assert ks.kernel_order == 1
    assert ks.generates
    assert ks.entries == ()


def test_kernel_pairs_heisenberg_bock_cup_cannot_generate(h27):
    # the kernel is a pure cup class; mixed Bockstein-plus-cup tensors miss it
    ks = kernel_generating_pairs(h27, 3, triple_of("bock-cup"))
    assert ks.kernel_order == 3
    assert not ks.generates


def test_extension_list_sharp22():
    g = free_level3(2, 2, "sharp").group
    ext = extension_list(g, 2, triple_of("dec-cup"))
    names = sorted(e.name for e in ext.entries)
    assert names == ["cyclic(4)", "dihedral4"]


def test_extension_list_sharp23_all_kinds(sharp23):
    g = sharp23.group
    expected = {
        "dec-cup": ["heisenberg(3)"],
        "bock-cup": ["cyclic(9)", "modular(3)"],
        "bock": ["cyclic(9)"],
    }
    for kind, names in expected.items():
        ext = extension_list(g, 3, triple_of(kind))
        assert ext.generating.generates
        assert sorted(e.name for e in ext.entries) == sorted(names)


def test_extension_list_heisenberg(h27):
    ext = extension_list(h27, 3, triple_of("dec-cup"))
    assert [e.name for e in ext.entries] == ["heisenberg(3)"]


def test_floor_by_intersection_heisenberg(h27):
    fb = floor_by_intersection(h27, 3, triple_of("dec-cup"))
    assert fb.order == 1
    assert fb.same_as(triple_of("dec-cup").floor(h27, 3))


def test_floor_by_intersection_modular_empty_list(m27):
    # no extensions: the convention leaves the intersection at T, which here
    # coincides with the dec-cup floor
    fb = floor_by_intersection(m27, 3, triple_of("dec-cup"))
    assert fb.same_as(q_central_series(m27, 3).term(2))
    assert fb.same_as(triple_of("dec-cup").floor(m27, 3))


def test_floor_by_intersection_sharp22():
    g = free_level3(2, 2, "sharp").group
    fb = floor_by_intersection(g, 2, triple_of("dec-cup"))
    assert fb.same_as(triple_of("dec-cup").floor(g, 2))


# ---------------------------------------------------------------------------
# the lower-3 intersection formula


@pytest.mark.parametrize(
    "label,args,p,expect_equal,expect_grt",
    [
        ("cyclic16", ("cyclic", [16]), 2, True, True),
        ("dihedral4", ("dihedral4", None), 2, True, True),
        ("quaternion8", ("quaternion8", None), 2, False, False),
        ("heisenberg3", ("heisenberg", [3]), 3, True, False),
        ("modular3", ("modular", [3]), 3, True, False),
        ("el33", ("elementary_abelian", [3, 2]), 3, True, False),
        ("trivial", ("cyclic", [1]), 2, True, False),
    ],
)
def test_lower3_intersection_table(label, args, p, expect_equal, expect_grt):
    rep = lower3_intersection_check(_group(*args), p)
    assert rep.equal is expect_equal
    assert rep.relation_type.passes is expect_grt


def test_lower3_intersection_quaternion_detail():
    rep = lower3_intersection_check(preset("quaternion8"), 2)
    # intersection keeps the central involution but the lower-3 subgroup is trivial
    assert rep.lower3.order == 1
    assert rep.intersection.order == 2


def test_lower3_intersection_values_cyclic16():
    rep = lower3_intersection_check(preset("cyclic", [16]), 2)
    assert rep.lower3.members == (0, 4, 8, 12)
    assert rep.intersection.members == (0, 4, 8, 12)


def test_lower3_intersection_sharp_models():
    for d, q in [(2, 2), (2, 3)]:
        g = free_level3(d, q, "sharp").group
        rep = lower3_intersection_check(g, q)
        assert rep.equal


def test_lower3_intersection_rejects_prime_powers():
    with pytest.raises(ValueError):
        lower3_intersection_check(preset("cyclic", [4]), 4)


def test_lower3_intersection_sharp25():
    """sharp(2,5), |G| = 3125, meets the paper's structure theorem at the order cap's edge."""
    rep = lower3_intersection_check(free_level3(2, 5).group, 5)
    assert rep.relation_type.passes
    assert rep.equal and rep.lower3.order == 25


def _extraspecial81():
    """3^{1+4}: two heisenberg(3) with their centres identified, |G| = 243."""
    h = preset("heisenberg", [3])
    z = h.commutator(*h.generators[:2])
    hh = direct_product(h, h)
    return quotient(hh, subgroup_closure(hh, [z * h.order + int(h.inverses[z])])).quotient


def test_extraspecial81_meet_is_the_centre_above_a_trivial_lower3():
    """A negative control: 3^{1+4} has no epimorphism onto H_27, so the meet is Φ(G) = Z(G).

    Its lower-3 subgroup is trivial, so the equality fails, as it may: the
    relation type fails.  H2_CAP still stops that test on G/T = (Z/3)⁴, so the
    meet is checked on its own.
    """
    g = _extraspecial81()
    meet = duality_mod._named_quotient_meet(g, 3)
    assert meet.order == 3 and meet.same_as(center(g))
    assert lower3_subgroup(g, 3).order == 1
    with pytest.raises(ValueError, match="exceeds the H² solver cap 64"):
        lower3_intersection_check(g, 3)


# POOL at its primes and the free models up to order 512, for Theorem D
THEOREM_D_CASES = [(label, args, factor_prime_power(q)[0]) for label, args, q in POOL] + [
    ("sharp22", ("sharp", [2, 2]), 2),
    ("flat22", ("flat", [2, 2]), 2),
    ("sharp23", ("sharp", [2, 3]), 3),
    ("flat23", ("flat", [2, 3]), 3),
    ("sharp32", ("sharp", [3, 2]), 2),
    # with a redundant generator the potential's generator values matter
    ("cyclic16-redundant", ("redundant", ("cyclic", [16])), 2),
    ("dihedral4-redundant", ("redundant", ("dihedral4", None)), 2),
    ("sharp23-redundant", ("redundant", ("sharp", [2, 3])), 3),
]


@pytest.mark.parametrize("label,args,p", THEOREM_D_CASES + [("extraspecial81", None, 3)])
@pytest.mark.optimized
def test_named_quotient_meet_matches_epimorphism_search_oracle(label, args, p):
    """The meet by coboundary potentials is the meet over the epimorphisms a search finds.

    The search cut to Aut(target) orbits runs everywhere; the full search of
    ``_epimorphism_kernel_meet`` runs too, and must agree with it, except on
    3^{1+4}, where onto H_27 it takes about 25 s.  Checked with explicit
    raises so the comparison also runs under ``python -O``.
    """
    g = _extraspecial81() if args is None else _case_group(*args)
    targets = oracles.theorem_d_targets(p)
    everything = np.ones(g.order, dtype=bool)
    searched = oracles.epimorphism_kernel_meet_by_orbits(g, targets, everything)
    if args is not None and not duality_mod._epimorphism_kernel_meet(g, targets, everything).same_as(searched):
        raise AssertionError(f"{label}: the orbit cut changed the searched meet")
    meet = duality_mod._named_quotient_meet(g, p)
    if meet.members != searched.members:
        raise AssertionError(f"{label}: {meet.members} vs searched {searched.members}")


@pytest.mark.parametrize(
    "label,args,p",
    [c for c in THEOREM_D_CASES if c[0] in ("cyclic16-q4", "dihedral4", "sharp23", "sharp32", "sharp23-redundant")],
)
@pytest.mark.optimized
def test_named_quotient_meet_masks_only_proven_lifts(label, args, p, monkeypatch):
    """The meet is Φ(G) ∩ the kernels of lifts that ``_is_multiplicative`` proved, and no other."""
    g = _case_group(*args)
    real = duality_mod._is_multiplicative
    checked = []

    def recorded(source, target, images):
        ok = real(source, target, images)
        checked.append((ok, images == target.identity))
        return ok

    monkeypatch.setattr(duality_mod, "_is_multiplicative", recorded)
    meet = duality_mod._named_quotient_meet(g, p)
    frattini = ~np.array([chi.values for chi in h1(g, p).basis]).any(axis=0)
    expected = np.logical_and.reduce([frattini] + [kernel for _, kernel in checked])
    if not checked or not all(ok for ok, _ in checked):
        raise AssertionError(f"{label}: {len(checked)} lifts, proven: {[ok for ok, _ in checked]}")
    if not np.array_equal(meet.mask, expected):
        raise AssertionError(f"{label}: the mask holds more than the proven kernels")


@pytest.mark.optimized
def test_fault_unproven_lift_raises_verification_error(monkeypatch):
    """A lift that fails its multiplicativity proof raises, also under ``python -O``."""
    monkeypatch.setattr(duality_mod, "_is_multiplicative", lambda source, target, images: False)
    with pytest.raises(VerificationError) as info:
        duality_mod._named_quotient_meet(preset("dihedral4"), 2)
    if set(info.value.evidence) != {"alpha", "beta"}:
        raise AssertionError(f"evidence {info.value.evidence}")


@pytest.mark.optimized
def test_fault_meet_mismatch_raises_verification_error(monkeypatch):
    """A meet that misses the lower-3 subgroup under a passing relation type raises, with both member lists."""
    monkeypatch.setattr(duality_mod, "_named_quotient_meet", lambda group, p: whole_group(group))
    with pytest.raises(VerificationError) as info:
        lower3_intersection_check(preset("cyclic", [16]), 2)
    evidence = info.value.evidence
    if evidence["lower3_members"] != [0, 4, 8, 12] or evidence["intersection_members"] != list(range(16)):
        raise AssertionError(f"evidence {evidence}")


RELATION_CASES = POOL + [
    ("sharp22", ("sharp", [2, 2]), 2),
    ("flat22", ("flat", [2, 2]), 2),
    ("sharp23", ("sharp", [2, 3]), 3),
    ("flat23", ("flat", [2, 3]), 3),
    ("sharp32", ("sharp", [3, 2]), 2),
]


@pytest.mark.parametrize("label,args,q", RELATION_CASES)
@pytest.mark.optimized
def test_relation_type_matches_twist_and_pair_loop_oracle(label, args, q):
    """The twist and cup-kernel tests as linear systems agree with the loops over ξ and over pairs.

    A twist found is also checked the loop's way, one ``is_coboundary`` per
    basis class.  Checked with explicit raises so the comparison also runs
    under ``python -O``.
    """
    g = _case_group(*args)
    rep = galois_relation_type(g, q)
    searched = oracles.twist_search(g, q)
    if rep.bockstein_by_cup != (searched is not None):
        raise AssertionError(f"{label}: twist {rep.bockstein_by_cup}, search {searched is not None}")
    if rep.twist is not None and not all(
        is_coboundary(bockstein(chi) - cup11(chi, rep.twist)) is not None for chi in h1(g, q).basis
    ):
        raise AssertionError(f"{label}: the twist found does not twist every Bockstein into a cup")
    cup_generated = rep.free_level2 and oracles.kernel_cup_generated_pair_loop(g, q)
    if rep.kernel_cup_generated != cup_generated:
        raise AssertionError(f"{label}: kernel cup-generated {rep.kernel_cup_generated}, pair loop {cup_generated}")


@pytest.mark.optimized
def test_bockstein_cup_twist_of_extraspecial81_matches_twist_loop_oracle():
    """On 3^{1+4}, above H2_CAP for the rest of the relation type, no ξ twists β into cups, by both routes."""
    g = _extraspecial81()
    if duality_mod._bockstein_cup_twist(g, 3) is not None or oracles.twist_search(g, 3) is not None:
        raise AssertionError("3^{1+4} has a Bockstein-by-cup twist")


# ---------------------------------------------------------------------------
# decomposable transgressions


def _central_dual_chars(model):
    """Invariant characters dual to sigma_1^q and to [sigma_1, sigma_2]."""
    g = model.group
    top = q_central_series(g, model.q).term(2)
    tgrp = subgroup_as_group(top)
    members = np.array(top.members, dtype=np.int64)
    coords = model.coords[members]
    d = model.d
    assert not coords[:, :d].any()
    psi_pow = Cochain1(tgrp, model.q, coords[:, d].copy())
    psi_comm = Cochain1(tgrp, model.q, coords[:, 2 * d].copy())
    return psi_pow, psi_comm


def test_decomposable_conditions_sharp(sharp23):
    psi_pow, psi_comm = _central_dual_chars(sharp23)
    good = decomposable_transgression_conditions(sharp23.group, 3, psi_comm)
    assert good.all_equal and good.decomposable
    bad = decomposable_transgression_conditions(sharp23.group, 3, psi_pow)
    assert bad.all_equal and not bad.decomposable


def test_decomposable_conditions_sharp22():
    model = free_level3(2, 2, "sharp")
    psi_pow, psi_comm = _central_dual_chars(model)
    good = decomposable_transgression_conditions(model.group, 2, psi_comm)
    assert good.all_equal and good.decomposable
    # for q = 2 the power coordinate transgresses to a square, which is a cup
    also_good = decomposable_transgression_conditions(model.group, 2, psi_pow)
    assert also_good.all_equal and also_good.decomposable


def test_decomposable_conditions_whole_invariant_space(h27):
    top = q_central_series(h27, 3).term(2)
    from qcoh.cohomology import invariants_h1

    inv = invariants_h1(h27, top, 3)
    for psi in inv.enumerate_elements():
        rep = decomposable_transgression_conditions(h27, 3, psi)
        assert rep.all_equal


# ---------------------------------------------------------------------------
# local-global and dual bases


@pytest.mark.parametrize("d,q", [(1, 2), (2, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 2)])
def test_local_global(d, q):
    rep = local_global_check(d, q)
    assert rep.matches
    assert rep.coefficient_route
    assert rep.checked == h2(preset("elementary_abelian", [q, d]), q).order


@pytest.mark.parametrize("d,q", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 2)])
def test_dual_basis_identity(d, q):
    rep = dual_basis_check(d, q)
    assert rep.identity
    assert rep.formulas_match


# ---------------------------------------------------------------------------
# closed pairing formulas


def test_closed_pairing_commutator(sharp23):
    model = sharp23
    elt = model.commutator_central[0]  # [sigma_1, sigma_2]
    assert closed_pairing_value(model, elt, pair=([1, 0], [0, 1])) == 1
    assert closed_pairing_value(model, elt, pair=([0, 1], [1, 0])) == 2  # antisymmetry
    assert closed_pairing_value(model, elt, linear=[1, 0]) == 0


def test_closed_pairing_power(sharp23):
    model = sharp23
    elt = model.power_central[0]  # sigma_1^3
    assert closed_pairing_value(model, elt, linear=[1, 0]) == 1
    assert closed_pairing_value(model, elt, linear=[0, 1]) == 0
    # q/delta = 3 vanishes mod 3
    assert closed_pairing_value(model, elt, pair=([1, 0], [1, 0])) == 0


def test_closed_pairing_power_mod2():
    model = free_level3(2, 2, "sharp")
    elt = model.power_central[0]
    # q/delta = 1: the square pairs with the self-cup
    assert closed_pairing_value(model, elt, pair=([1, 0], [1, 0])) == 1
    assert closed_pairing_value(model, elt, pair=([0, 1], [0, 1])) == 0


def test_closed_pairing_rejects_flat(flat23):
    with pytest.raises(ValueError):
        closed_pairing_value(flat23, 0, linear=[1, 0])


def test_closed_pairing_rejects_level1(sharp23):
    with pytest.raises(ValueError):
        closed_pairing_value(sharp23, sharp23.sigma[0], linear=[1, 0])


# ---------------------------------------------------------------------------
# symbolic kernels and reconstruction


def test_symbolic_kernel_heisenberg(h27):
    rows = inflation_kernel_symbolic(h27, 3, triple_of("dec-cup"))
    assert rows.tolist() == [[0, 0, 1]]  # exactly the cup slot


def test_symbolic_kernel_modular_dec_cup(m27):
    rows = inflation_kernel_symbolic(m27, 3, triple_of("dec-cup"))
    assert rows.shape[0] == 0


def test_symbolic_kernel_cyclic4():
    rows = inflation_kernel_symbolic(preset("cyclic", [4]), 2, triple_of("bock"))
    assert rows.tolist() == [[1]]


RECON_POOL = [
    ("heisenberg3", ("heisenberg", [3]), 3),
    ("modular3", ("modular", [3]), 3),
    ("el33", ("elementary_abelian", [3, 2]), 3),
    ("dihedral4", ("dihedral4", None), 2),
    ("cyclic4", ("cyclic", [4]), 2),
    ("quaternion8", ("quaternion8", None), 2),
]


@pytest.mark.parametrize("label,args,q", RECON_POOL)
@pytest.mark.parametrize("kind", TRIPLE_KINDS)
def test_reconstruction_roundtrip(label, args, q, kind):
    """The symbolic kernel data rebuilds G/T₀ up to isomorphism."""
    g = _group(*args)
    tri = triple_of(kind)
    frame = level2_frame(g, q)
    rows = inflation_kernel_symbolic(g, q, tri)
    rec = reconstruct_quotient(frame.d, q, tri, rows)
    target = quotient(g, tri.floor(g, q)).quotient
    assert is_isomorphic(rec.group, target)


def test_reconstruction_full_dec_gives_flat(flat23):
    sym = symbolic_h2_elementary(2, 3)
    rec = reconstruct_quotient(2, 3, triple_of("dec-cup"), sym.dec_rows())
    assert is_isomorphic(rec.group, flat23.group)


def test_reconstruction_full_module_gives_sharp(sharp23):
    sym = symbolic_h2_elementary(2, 3)
    rows = np.concatenate(
        [sym.dec_rows(), np.eye(sym.rank, dtype=np.int64)[:2]], axis=0
    )
    rec = reconstruct_quotient(2, 3, triple_of("bock-cup"), rows)
    assert is_isomorphic(rec.group, sharp23.group)


def test_reconstruction_rejects_rows_outside_module():
    # a bare Bockstein slot is not decomposable when q is odd
    bad = [[1, 0, 0]]
    with pytest.raises(ValueError):
        reconstruct_quotient(2, 3, triple_of("dec-cup"), bad)


def test_reconstruction_empty_rows_collapse_center():
    rec = reconstruct_quotient(2, 3, triple_of("bock-cup"), np.zeros((0, 3)))
    assert rec.group.order == 9  # everything central is annihilated


# ---------------------------------------------------------------------------
# tensor functors and alpha surjectivity


@pytest.mark.parametrize("label,args,q", POOL + [("sharp22", None, 2)])
def test_class_zero_by_coboundary_matches_h2_oracle(label, args, q):
    """``is_coboundary`` decides class zero as the full H² does, the oracle here.

    Every Bockstein and cup of degree-1 classes is an α-tuple cochain of some
    triple; the old per-tuple α predicates in ``oracles`` ask exactly this.
    """
    g = free_level3(2, 2).group if args is None else _group(*args)
    space = h2(g, q)
    chars = list(h1(g, q).enumerate_elements())
    cochains = [bockstein(a) for a in chars] + [cup11(a, b) for a in chars for b in chars]
    for c in cochains:
        assert (is_coboundary(c) is None) == (not space.is_zero_class(c))


def test_tensor_quotient_heisenberg_cups_vanish(h27):
    pres = alpha_tensor_quotient(h27, 3, triple_of("dec-cup"), 2, 2)
    assert pres.invariant_factors == ()


def test_tensor_quotient_heisenberg_bocksteins_survive(h27):
    pres = alpha_tensor_quotient(h27, 3, triple_of("bock-cup"), 1, 1)
    assert pres.invariant_factors == (3, 3)
    pres2 = alpha_tensor_quotient(h27, 3, triple_of("bock-cup"), 2, 1)
    assert pres2.invariant_factors == (3, 3, 3, 3)


def test_tensor_quotient_inactive_degree(h27):
    # dec-cup has no degree-1 piece, so alpha kills every tensor there
    pres = alpha_tensor_quotient(h27, 3, triple_of("dec-cup"), 1, 1)
    assert pres.invariant_factors == ()


# ---------------------------------------------------------------------------
# property tests


@given(pick=st.sampled_from(POOL), kind=st.sampled_from(TRIPLE_KINDS))
@settings(max_examples=30, deadline=None)
def test_floor_contains_its_own_closure(pick, kind):
    label, args, q = pick
    g = _group(*args)
    tri = triple_of(kind)
    top = tri.top(g, q)
    floor = tri.floor(g, q)
    for m in floor.members:
        assert top.contains(int(m))
    lower = subgroup_closure(
        g,
        [g.power(int(t), q) for t in top.members]
        + list(commutator_subgroup(g, top, whole_group(g)).members),
    )
    for m in lower.members:
        assert floor.contains(int(m))


@given(pick=st.sampled_from(POOL), kind=st.sampled_from(TRIPLE_KINDS))
@settings(max_examples=20, deadline=None)
def test_pairing_orders_divide_top(pick, kind):
    label, args, q = pick
    g = _group(*args)
    tri = triple_of(kind)
    top = tri.top(g, q)
    sp = substitution_pairing(g, q, top, tri.floor(g, q))
    assert top.order % sp.report.left_order == 0
    assert sp.report.left_order == sp.report.right_order or not sp.perfect
