"""Independent brute-force reference implementations.

Everything here is deliberately naive — exhaustive enumeration and BFS
closures — so the fast library code can be checked against answers computed
a completely different way.
"""

from __future__ import annotations

import itertools

import numpy as np

from qcoh.cohomology import (
    Cochain1,
    Cochain2,
    _coboundary_rows,
    _solver_gens,
    _solver_tree,
    bockstein,
    class_from_extension,
    cup11,
    h1,
    h2,
    h2_dec,
    inflation2,
    invariants_h1,
    is_coboundary,
    span_of_classes,
    transgression,
)
from qcoh.duality import _inflation_kernel_classes, level2_frame
from qcoh.freemodel import free_level3
from qcoh.groups import (
    _BLOCK_CELLS,
    FiniteGroup,
    GroupHom,
    QuotientData,
    Subgroup,
    _hom_images,
    _row_blocks,
    element_orders,
    enumerate_homs,
    preset,
    q_central_series,
    quotient,
    subgroup_closure,
)
from qcoh.zqlin import AbGroupPresentation, ZqMatrix, factor_prime_power, howell_form, kernel, row_span_contains, solve


def all_vectors(q: int, n: int):
    """Every vector in (Z/q)^n, as int64 arrays."""
    for tup in itertools.product(range(q), repeat=n):
        yield np.array(tup, dtype=np.int64)


def span_closure(rows, q: int, cols: int) -> set[tuple[int, ...]]:
    """The additive closure of the given row vectors inside (Z/q)^cols."""
    zero = (0,) * cols
    span = {zero}
    frontier = [zero]
    gens = [tuple(int(x) % q for x in r) for r in rows]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple((a + b) % q for a, b in zip(x, g))
            if y not in span:
                span.add(y)
                frontier.append(y)
    return span


def brute_solutions(mat, rhs, q: int) -> list[tuple[int, ...]]:
    """All x with mat @ x == rhs (mod q), found by exhaustive search."""
    mat = np.asarray(mat, dtype=np.int64)
    rhs = np.mod(np.asarray(rhs, dtype=np.int64), q)
    out = []
    for x in itertools.product(range(q), repeat=mat.shape[1]):
        xv = np.array(x, dtype=np.int64)
        if np.array_equal((mat @ xv) % q, rhs):
            out.append(x)
    return out


def brute_kernel(mat, q: int) -> set[tuple[int, ...]]:
    """All x with mat @ x == 0 (mod q)."""
    mat = np.asarray(mat, dtype=np.int64)
    zero = np.zeros(mat.shape[0], dtype=np.int64)
    return set(brute_solutions(mat, zero, q))


def _valuation(a: int, p: int, s: int) -> int:
    """p-adic valuation of the residue ``a``; zero gets valuation ``s``."""
    if a == 0:
        return s
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


def _unit_to_pivot(a: int, v: int, p: int, q: int) -> int:
    pv = p**v
    cofactor = q // pv
    return pow((a // pv) % cofactor, -1, cofactor) % q if cofactor > 1 else 1


def howell_form_loop(matrix) -> tuple[np.ndarray, np.ndarray, tuple[tuple[int, int, int], ...]]:
    """The Howell form one Python row at a time, with its transform record.

    Returns ``(h, u, pivots)`` with ``u @ matrix == h`` (mod q).  The pool is
    a list of rows carrying the combination record in extra columns; each
    pivot is the first pool row of least valuation in its column.
    """
    q = matrix.modulus
    p, s = factor_prime_power(q)
    n, m = matrix.rows, matrix.cols
    pool = []
    for i in range(n):
        row = np.zeros(m + n, dtype=np.int64)
        row[:m] = matrix.entries[i]
        row[m + i] = 1
        pool.append(row)
    done, done_pivots = [], []
    for j in range(m):
        candidates = [(idx, _valuation(int(r[j]), p, s)) for idx, r in enumerate(pool) if r[j]]
        if not candidates:
            continue
        k, v = min(candidates, key=lambda t: t[1])
        piv = pool.pop(k)
        piv = (piv * _unit_to_pivot(int(piv[j]), v, p, q)) % q
        pv = p**v
        for r in pool:
            if r[j]:
                r -= (int(r[j]) // pv) * piv
                r %= q
        done.append(piv)
        done_pivots.append((j, pv))
        if v > 0:
            shifted = (piv * (q // pv)) % q
            if shifted[:m].any():
                pool.append(shifted)
    for k in range(len(done)):
        j, pv = done_pivots[k]
        for i in range(k):
            f = int(done[i][j]) // pv
            if f:
                done[i] = (done[i] - f * done[k]) % q
    stacked = np.vstack(done) if done else np.zeros((0, m + n), dtype=np.int64)
    pivots = tuple((i, j, pv) for i, (j, pv) in enumerate(done_pivots))
    return stacked[:, :m], stacked[:, m:], pivots


def solve_loop(matrix, rhs):
    """``solve`` on the loop Howell form of Aᵀ and its transform record."""
    q = matrix.modulus
    b = np.mod(np.asarray(rhs, dtype=np.int64), q)
    h, u, pivots = howell_form_loop(matrix.T)
    coeffs = np.zeros(h.shape[0], dtype=np.int64)
    r = b.copy()
    for i, j, pv in pivots:
        a = int(r[j])
        if a % pv:
            return None
        coeffs[i] = a // pv
        r = (r - coeffs[i] * h[i]) % q
    if r.any():
        return None
    return (coeffs @ u) % q


def kernel_loop(matrix) -> np.ndarray:
    """``kernel`` on the loop Howell form of [Mᵀ | I]."""
    q, nvars = matrix.modulus, matrix.cols
    aug = np.hstack([matrix.entries.T, np.eye(nvars, dtype=np.int64)])
    h, _, _ = howell_form_loop(ZqMatrix(aug, q))
    if h.shape[0] == 0:
        return np.eye(nvars, dtype=np.int64)
    return h[~h[:, : matrix.rows].any(axis=1), matrix.rows :].reshape(-1, nvars)


def smith_decomposition_loop(matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Smith diagonalization with a per-cell valuation scan for the pivot.

    Returns ``(diagonal, row_transform, col_transform, col_transform_inv)``.
    """
    q = matrix.modulus
    p, s = factor_prime_power(q)
    a = matrix.entries.copy()
    n, m = a.shape
    u = np.eye(n, dtype=np.int64)
    v = np.eye(m, dtype=np.int64)
    vi = np.eye(m, dtype=np.int64)
    for t in range(min(n, m)):
        sub = a[t:, t:]
        if not sub.any():
            break
        flat_vals = np.array([_valuation(int(x), p, s) for x in sub.ravel()], dtype=np.int64).reshape(sub.shape)
        bi, bj = np.unravel_index(int(np.argmin(flat_vals)), sub.shape)
        bi, bj = bi + t, bj + t
        if bi != t:
            a[[t, bi]] = a[[bi, t]]
            u[[t, bi]] = u[[bi, t]]
        if bj != t:
            a[:, [t, bj]] = a[:, [bj, t]]
            v[:, [t, bj]] = v[:, [bj, t]]
            vi[[t, bj]] = vi[[bj, t]]
        val = _valuation(int(a[t, t]), p, s)
        w = _unit_to_pivot(int(a[t, t]), val, p, q)
        if w != 1:
            a[t] = (a[t] * w) % q
            u[t] = (u[t] * w) % q
        pv = p**val
        for i in range(n):
            if i != t and a[i, t]:
                f = int(a[i, t]) // pv
                a[i] = (a[i] - f * a[t]) % q
                u[i] = (u[i] - f * u[t]) % q
        for j in range(m):
            if j != t and a[t, j]:
                f = int(a[t, j]) // pv
                a[:, j] = (a[:, j] - f * a[:, t]) % q
                v[:, j] = (v[:, j] - f * v[:, t]) % q
                vi[t] = (vi[t] + f * vi[j]) % q
    return a, u, v, vi


# ---------------------------------------------------------------------------
# group-theoretic oracles (plain python loops over full tables)


def table_is_associative(table) -> bool:
    """Full n³ triple check."""
    table = np.asarray(table)
    n = table.shape[0]
    for x in range(n):
        for y in range(n):
            xy = table[x, y]
            for z in range(n):
                if table[xy, z] != table[x, table[y, z]]:
                    return False
    return True


def closure_of(table, identity: int, seeds) -> frozenset[int]:
    """Subgroup closure by repeated pairwise products."""
    table = np.asarray(table)
    members = {int(identity), *(int(s) for s in seeds)}
    while True:
        fresh = {int(table[x, y]) for x in members for y in members} - members
        if not fresh:
            return frozenset(members)
        members |= fresh


def power_elements(table, identity: int, members, m: int) -> set[int]:
    """{x^m : x in members} by repeated multiplication."""
    table = np.asarray(table)
    out = set()
    for x in members:
        acc = int(identity)
        for _ in range(m):
            acc = int(table[acc, x])
        out.add(acc)
    return out


def commutator_elements(table, inverses, left, right) -> set[int]:
    """{x⁻¹y⁻¹xy : x in left, y in right}."""
    table = np.asarray(table)
    inverses = np.asarray(inverses)
    out = set()
    for x in left:
        for y in right:
            out.add(int(table[table[table[inverses[x], inverses[y]], x], y]))
    return out


def commutator_subgroup_all_pairs(group, left, right):
    """[left, right] from one commutator per pair h ∈ left, k ∈ right, scanned in
    row blocks and then closed: the all-pairs route ``commutator_subgroup`` took
    before it worked from generators."""
    t = group.table
    h = np.array(left.members, dtype=np.int64)
    k = np.array(right.members, dtype=np.int64)
    seen = np.zeros(group.order, dtype=bool)
    # [h,k] = (h⁻¹k⁻¹)(hk); row i, column j pairs h_i with k_j in both factors
    inv_part = _row_blocks(t, group.inverses[h], group.inverses[k])
    for hk, hk_inv in zip(_row_blocks(t, h, k), inv_part):
        seen[t[hk_inv, hk]] = True
    return subgroup_closure(group, np.flatnonzero(seen))


def center_loop(group):
    """Z(G) by comparing each row of the table with its column."""
    members = [x for x in group.elements() if np.array_equal(group.table[x], group.table[:, x])]
    return Subgroup(group, tuple(members))


def extend_gen_images_edge_loop(source, tree, assignment, target) -> np.ndarray:
    """Generator images extended one (element, parent, position) tree row at a time."""
    images = np.full(source.order, -1, dtype=np.int64)
    images[source.identity] = target.identity
    for elem, parent, pos in np.asarray(tree).T.tolist():
        images[elem] = target.table[images[parent], assignment[pos]]
    return images


def is_multiplicative_all_pairs(source, target, images) -> bool:
    """f(x·y) == f(x)·f(y) on every one of the n² pairs of ``source``."""
    images = np.asarray(images, dtype=np.int64)
    lhs = images[source.table]
    rhs = target.table[images[:, None], images[None, :]]
    return bool(np.array_equal(lhs, rhs))


def lift_kernel_mask_all_pairs(group, data, ext):
    """⋂ Ker(Ψ) over every lift Ψ: G → E of the projection G → G/T, or None.

    The reference route: each generator may go to any element of E over its
    image in G/T; every such assignment is extended along breadth-first
    words, kept when it is multiplicative on all n² pairs, and its kernel
    ANDed in.  None when no assignment is a homomorphism.
    """
    gens = [int(g) for g in group.generators]
    pi = np.asarray(data.projection.images)
    fibers = [np.flatnonzero(ext.projection.images == pi[g]).tolist() for g in gens]
    order = [int(group.identity)]
    parent: dict[int, tuple[int, int]] = {int(group.identity): (-1, -1)}
    for x in order:
        for pos, g in enumerate(gens):
            y = int(group.table[x, g])
            if y not in parent:
                parent[y] = (x, pos)
                order.append(y)
    acc = None
    for assignment in itertools.product(*fibers):
        images = np.zeros(group.order, dtype=np.int64)
        images[group.identity] = ext.total.identity
        for y in order[1:]:
            x, pos = parent[y]
            images[y] = ext.total.table[images[x], assignment[pos]]
        if not is_multiplicative_all_pairs(group, ext.total, images):
            continue
        mask = images == ext.total.identity
        acc = mask if acc is None else acc & mask
    return acc


def is_normal_all_conjugates(sub) -> bool:
    """g⁻¹xg ∈ N for every element g of the parent group and every x ∈ N."""
    parent = sub.parent
    g = np.arange(parent.order)
    conj = parent.table[parent.table[np.ix_(parent.inverses[g], sub.members)], g[:, None]]
    return bool(sub.mask[conj].all())


def labels_by_words(n: int, identity: int, tree, gen_names) -> tuple[str, ...]:
    """BFS labels by building every element's whole word along ``tree`` and
    run-length compressing it with ``itertools.groupby``."""
    words: list[list[str]] = [[] for _ in range(n)]
    for elem, parent, pos in tree:
        words[elem] = words[parent] + [gen_names[pos]]
    labels = []
    for word in words:
        runs = [(name, len(list(run))) for name, run in itertools.groupby(word)]
        labels.append("*".join(name if k == 1 else f"{name}^{k}" for name, k in runs) or "1")
    labels[identity] = "1"
    return tuple(labels)


def quotient_by_cosets(group, normal) -> QuotientData:
    """G/N built from its coset table, for every N including N = 1: cosets
    xN named by their smallest member, the table coset_index[reps × reps]
    verified by ``from_table``, and the projection's kernel and image checked."""
    if not normal.is_normal():
        raise ValueError("can only quotient by a normal subgroup")
    mem = list(normal.members)
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
    quot = FiniteGroup.from_table(qt, generators=gen_images, gen_names=gen_names, name=f"{group.name}/N")
    proj = GroupHom(group, quot, coset_index)
    if proj.kernel().members != normal.members:
        raise AssertionError("projection kernel must equal the quotienting subgroup")
    if not proj.is_surjective():
        raise AssertionError("projection must be surjective")
    return QuotientData(quot, proj, reps)


def brute_hom_count(src_table, src_identity, src_gens, tgt_table, tgt_identity,
                    surjective_only=False) -> int:
    """Count homomorphisms by exhaustive search over all generator images."""
    import itertools as it

    src_table = np.asarray(src_table)
    tgt_table = np.asarray(tgt_table)
    n, m = src_table.shape[0], tgt_table.shape[0]
    # breadth-first words for every source element
    word = {int(src_identity): ()}
    frontier = [int(src_identity)]
    while frontier:
        nxt = []
        for x in frontier:
            for pos, g in enumerate(src_gens):
                y = int(src_table[x, g])
                if y not in word:
                    word[y] = word[x] + (pos,)
                    nxt.append(y)
        frontier = nxt
    assert len(word) == n, "generators must generate"

    count = 0
    for assignment in it.product(range(m), repeat=len(src_gens)):
        phi = {}
        for x, w in word.items():
            acc = int(tgt_identity)
            for pos in w:
                acc = int(tgt_table[acc, assignment[pos]])
            phi[x] = acc
        ok = all(
            phi[int(src_table[x, y])] == int(tgt_table[phi[x], phi[y]])
            for x in range(n)
            for y in range(n)
        )
        if ok and (not surjective_only or len(set(phi.values())) == m):
            count += 1
    return count


def _h2_pair_slots(n: int, identity: int):
    """Variable layout for a normalized pair table: one slot per pair of
    non-identity elements, row-major."""
    others = [g for g in range(n) if g != identity]
    col = {g: i for i, g in enumerate(others)}
    return others, col


def brute_h2_spans(table, identity: int, q: int):
    """Cocycle and coboundary spans computed the slow, obvious way.

    One unknown per ordered pair of non-identity elements; every one of the
    n**3 associativity constraints

        c(y,z) - c(xy,z) + c(x,yz) - c(x,y) == 0   (mod q)

    is written down explicitly and the kernel taken.  Coboundaries come from
    the indicator functions of the non-identity elements.  The row reduction
    itself is delegated to ``qcoh.zqlin`` (which has its own exhaustive
    tests); everything specific to cohomology is built here from scratch.

    Returns ``(slots, cocycles, coboundaries)`` where ``slots`` maps a
    variable index back to its ``(g, h)`` pair and the other two are
    ``ZqMatrix`` row generators in variable coordinates.
    """
    from qcoh import zqlin

    table = np.asarray(table, dtype=np.int64)
    n = table.shape[0]
    e = int(identity)
    others, col = _h2_pair_slots(n, e)
    w = len(others)
    m = w * w

    def slot(a: int, b: int) -> int:
        return col[a] * w + col[b]

    rows = np.zeros((n * n * n, m), dtype=np.int64)
    r = 0
    for x in range(n):
        for y in range(n):
            xy = int(table[x, y])
            for z in range(n):
                for sign, a, b in (
                    (1, y, z),
                    (-1, xy, z),
                    (1, x, int(table[y, z])),
                    (-1, x, y),
                ):
                    if a != e and b != e:
                        rows[r, slot(a, b)] += sign
                r += 1
    rows = np.unique(rows % q, axis=0)
    rows = rows[rows.any(axis=1)]
    zmat = zqlin.kernel(zqlin.ZqMatrix(rows.reshape(-1, m), q))

    brows = np.zeros((w, m), dtype=np.int64)
    for i, g in enumerate(others):
        for a in others:
            for b in others:
                val = (a == g) + (b == g) - (int(table[a, b]) == g)
                brows[i, slot(a, b)] = val % q
    bmat = zqlin.ZqMatrix(brows, q)

    slots = [(g, h) for g in others for h in others]
    return slots, zmat, bmat


def brute_h2_invariant_factors(table, identity: int, q: int) -> tuple[int, ...]:
    """Invariant factors of the second cohomology group, from the full spans."""
    from qcoh import zqlin

    _, zmat, bmat = brute_h2_spans(table, identity, q)
    k = zmat.rows
    stacked = zqlin.ZqMatrix(np.vstack([zmat.entries, bmat.entries]), q)
    combos = zqlin.kernel(stacked.T)
    relations = combos.entries[:, :k].reshape(-1, k)
    pres = zqlin.AbGroupPresentation.from_relations(k, q, relations)
    quotient = zqlin.row_span_size(stacked) // zqlin.row_span_size(bmat)
    assert pres.order == quotient, "presentation disagrees with span counting"
    return pres.invariant_factors


def brute_h2_order_tiny(table, identity: int, q: int) -> int:
    """|H^2| by enumerating every normalized pair table.  No linear algebra
    at all, so only usable when q**((n-1)**2) is small."""
    table = np.asarray(table, dtype=np.int64)
    n = table.shape[0]
    e = int(identity)
    others, col = _h2_pair_slots(n, e)
    w = len(others)
    assert q ** (w * w) <= 1 << 21, "too many cochains to enumerate"

    def value(vec, a, b):
        if a == e or b == e:
            return 0
        return vec[col[a] * w + col[b]]

    cocycles = []
    for vec in all_vectors(q, w * w):
        ok = all(
            (
                value(vec, y, z)
                - value(vec, int(table[x, y]), z)
                + value(vec, x, int(table[y, z]))
                - value(vec, x, y)
            )
            % q
            == 0
            for x in range(n)
            for y in range(n)
            for z in range(n)
        )
        if ok:
            cocycles.append(tuple(int(v) for v in vec))

    coboundaries = set()
    for u in all_vectors(q, w):
        vals = {g: int(u[i]) for i, g in enumerate(others)}
        vals[e] = 0
        tab = tuple(
            (vals[a] + vals[b] - vals[int(table[a, b])]) % q
            for a in others
            for b in others
        )
        coboundaries.add(tab)
    assert coboundaries <= set(cocycles)
    return len(cocycles) // len(coboundaries)


# ---------------------------------------------------------------------------
# cohomological oracles


def class_of_spec(spec) -> Cochain2:
    """The factor-set class of a central extension, read back from its spec."""
    return class_from_extension(spec.total, spec.embed, spec.projection, spec.modulus, spec.section)


def combo_kernel_lattice(source, q: int, cochains, images=None) -> np.ndarray:
    """Coefficient rows y with Σ y_i·(pullback of cochains[i]) a coboundary.

    The reference route: fold in the whole coboundary lattice of ``source``
    (n−1 rows ∂δ_g of width n·|S|) and take the kernel of the stacked
    v-vectors, so a combination is zero exactly when its v-vector lies in
    the lattice.  ``images`` is a homomorphism from ``source`` into the
    carrier of the cochains (identity when omitted).
    """
    k = len(cochains)
    if k == 0:
        return np.zeros((0, 0), dtype=np.int64)
    gens = _solver_gens(source)
    cob = _coboundary_rows(source, q, gens)
    im = np.arange(source.order, dtype=np.int64) if images is None else np.asarray(images, dtype=np.int64)
    cols = im[list(gens)]
    rows = np.array([c.values[np.ix_(im, cols)].reshape(-1) for c in cochains], dtype=np.int64) % q
    stacked = np.concatenate([rows, cob], axis=0)
    combos = kernel(ZqMatrix(stacked.T, q)).entries
    return combos[:, :k] % q


def twist_search(group, q: int):
    """The first ξ in H¹, in coordinate order, with β(χ) − χ∪ξ ∈ B² for every basis χ; else None.

    The reference route for the Bockstein-by-cup part of the relation type:
    every ξ is tried, each with one full ``is_coboundary`` solve per basis
    class, on n × n cochains.
    """
    h1s = h1(group, q)
    for xi in h1s.enumerate_elements():
        if all(is_coboundary(bockstein(chi) - cup11(chi, xi)) is not None for chi in h1s.basis):
            return xi
    return None


def kernel_cup_generated_pair_loop(group, q: int) -> bool:
    """Whether Ker(inf: H²_dec(G/T) → H²(G)) is spanned by the cups it contains, pair by pair.

    The reference route for the last part of the relation type: a cup
    cochain on G/T and one span test for each of the q^{2d} pairs (a, b).
    """
    frame = level2_frame(group, q)
    ker_classes = _inflation_kernel_classes(
        frame.space, group, frame.data.projection.images, h2_dec(frame.space).gens
    )
    ker_sub = span_of_classes(frame.space, ker_classes)
    found = []
    vectors = list(itertools.product(range(q), repeat=frame.d))
    for a in vectors:
        if not any(a):
            continue
        for b in vectors:
            c = cup11(frame.char_of(a), frame.char_of(b))
            if ker_sub.contains(c):
                found.append(c)
    return span_of_classes(frame.space, found).same_span(ker_sub)


def theorem_d_targets(p: int):
    """Z/p and H_{p³} for p odd; Z/2, Z/4 and D4 for p = 2."""
    if p == 2:
        return [preset("cyclic", [2]), preset("cyclic", [4]), preset("dihedral4")]
    return [preset("cyclic", [p]), preset("heisenberg", [p])]


def epimorphism_kernel_meet_by_orbits(group, targets, mask):
    """``duality._epimorphism_kernel_meet`` with the first two generator images cut to orbits.

    π and α∘π have the same kernel for every automorphism α of the target.
    So the first generator need only try one image x per orbit of Aut(target),
    and the second one image per orbit of the stabilizer of x; the other
    generators try every target element of a dividing order, as in
    ``enumerate_homs``.  The same search, made shorter.
    """
    mask = mask.copy()
    src_orders = element_orders(group)

    def orbit_reps(autos):
        # autos holds the identity, so the orbits cover every element
        return {min(int(a[x]) for a in autos) for x in range(len(autos[0]))}

    for tgt in targets:
        autos = [hom.images for hom in enumerate_homs(tgt, tgt, surjective_only=True)]
        tgt_orders = element_orders(tgt)
        candidates = [np.flatnonzero(src_orders[g] % tgt_orders == 0).tolist() for g in group.generators]
        for first in sorted(orbit_reps(autos) & set(candidates[0])):
            rest = candidates[1:]
            if rest:
                fixing = orbit_reps([a for a in autos if a[first] == first])
                rest = [[x for x in rest[0] if x in fixing], *rest[1:]]
            for images in _hom_images(group, tgt, [[first], *rest], surjective=True):
                mask &= images == tgt.identity
    return Subgroup(group, tuple(int(x) for x in np.flatnonzero(mask)))


def zero2(group, q: int) -> Cochain2:
    return Cochain2(group, q, np.zeros((group.order, group.order), dtype=np.int64))


def _v_rows(space, classes) -> np.ndarray:
    """The classes' values c(x, s) on the solver generators, one flattened row each."""
    width = space._cob_v.shape[1]
    return np.array([c.values[:, list(space.gens)].reshape(-1) for c in classes], dtype=np.int64).reshape(len(classes), width)


def express_hand_stacked(space, classes, c):
    """Coefficients y with Σ yᵢ·classesᵢ ≡ c mod B², by one solve on the stack [classes; B²], or None."""
    stacked = np.concatenate([_v_rows(space, classes), space._cob_v], axis=0)
    sol = solve(ZqMatrix(stacked.T, space.modulus), _v_rows(space, [c])[0])
    return None if sol is None else sol[: len(classes)]


def relations_hand_stacked(space, classes, rows) -> np.ndarray:
    """Rows y with Σ yᵢ·classesᵢ in the span of ``rows``, by one kernel of the stack [classes; rows]."""
    stacked = np.concatenate([_v_rows(space, classes), rows], axis=0)
    return kernel(ZqMatrix(stacked.T, space.modulus)).entries[:, : len(classes)] % space.modulus


def nonzero_classes_per_row(space, parts, combos) -> tuple:
    """Canonical representatives of the distinct nonzero classes Σ row·parts, in row order.

    The reference route: build each row's combination as a cochain and solve
    its coordinates on its own.
    """
    seen = set()
    out = []
    for row in combos:
        acc = zero2(space.group, space.modulus)
        for x, c in zip(row, parts):
            acc = acc + c.scale(int(x))
        coords = space.coordinates_of(acc)
        if any(coords) and coords not in seen:
            seen.add(coords)
            out.append(space.representative(coords))
    return tuple(out)


def intersection_class_reps_hand_stacked(space, gens_a, gens_b) -> tuple:
    """Representatives generating span(gens_a) ∩ span(gens_b) mod B².

    The reference route: one kernel of the stack [gens_a; B²; gens_b; B²],
    deduplicated row by row.
    """
    if not gens_a or not gens_b:
        return ()
    b_rows = np.concatenate([_v_rows(space, gens_b), space._cob_v], axis=0)
    combos = relations_hand_stacked(space, gens_a, np.concatenate([space._cob_v, b_rows], axis=0))
    return nonzero_classes_per_row(space, gens_a, combos)


def five_term_node4_sets(group, sub, q: int):
    """(Ker(inf: H²(G/T) → H²(G)), img(trg)) as coordinate sets, by enumeration.

    The image side sums every mix of the transgressed basis homs as a cochain
    and solves its coordinates on its own.
    """
    data = quotient(group, sub)
    space = h2(data.quotient, q)
    killed = {
        coords for coords in space.enumerate_coordinates()
        if is_coboundary(inflation2(space.representative(coords), data)) is not None
    }
    trg = [transgression(group, sub, psi, q, data) for psi in invariants_h1(group, sub, q).basis]
    image = set()
    for mix in itertools.product(range(q), repeat=len(trg)):
        acc = zero2(data.quotient, q)
        for x, t in zip(mix, trg):
            acc = acc + t.scale(x)
        image.add(space.coordinates_of(acc))
    return killed, image


def alpha_zero_predicate_solve(triple, t: int, chars, carrier, q: int):
    """α-kills-this-tuple by building the Bockstein or cup cochain of each tuple.

    The reference route: combine the coordinate vector(s) into characters on
    ``carrier``, build β(χ) or χ∪χ′, and ask ``is_coboundary`` — one cochain
    and one full solve per tuple.
    """
    if t not in triple.active_degrees or t > 2:
        return lambda tup: True

    def chi(vec):
        acc = np.zeros(carrier.order, dtype=np.int64)
        for x, c in zip(vec, chars):
            acc += int(x) * c.values
        return Cochain1(carrier, q, acc)

    if t == 1:
        return lambda tup: is_coboundary(bockstein(chi(tup[0]))) is not None
    return lambda tup: is_coboundary(cup11(chi(tup[0]), chi(tup[1]))) is not None


def tensor_kill_rows_per_tuple(factors, q: int, r: int, t: int, alpha_is_zero) -> np.ndarray:
    """``tensor_kill_rows`` one tuple at a time, with a per-tuple predicate.

    The reference route: ``alpha_is_zero`` takes a t-tuple of coordinate
    vectors and returns one bool; every r-tuple of module elements is tested
    on each t-subsequence in a Python loop and its pure tensor built with one
    ``np.multiply.outer`` per factor.
    """
    m = len(factors)
    if r > 3:
        raise ValueError("tensor degree capped at 3")
    if r < 1:
        raise ValueError("tensor degree must be positive")
    if r < t:
        return np.zeros((0, m**r), dtype=np.int64)
    grids = np.meshgrid(*(np.arange(f) for f in factors), indexing="ij")
    elems = np.stack([g.reshape(-1) for g in grids], axis=1) if factors else np.zeros((1, 0), dtype=np.int64)
    ne = elems.shape[0]
    killed = np.zeros((ne,) * t, dtype=bool)
    for tup in itertools.product(range(ne), repeat=t):
        killed[tup] = alpha_is_zero(tuple(elems[i] for i in tup))
    rows = []
    for tup in itertools.product(range(ne), repeat=r):
        hit = any(
            killed[tuple(tup[j] for j in sub)]
            for sub in itertools.combinations(range(r), t)
        )
        if not hit:
            continue
        vec = elems[tup[0]]
        for j in tup[1:]:
            vec = np.multiply.outer(vec, elems[j]).reshape(-1)
        rows.append(vec % q)
    if not rows:
        return np.zeros((0, m**r), dtype=np.int64)
    return np.unique(np.array(rows, dtype=np.int64), axis=0)


def inflation_iso_lattice(source, q: int, images, target_gens, own_gens) -> tuple[bool, bool]:
    """(mono, surj) of the pullback A(target) → A(source) by the coboundary lattice.

    Mono compares the lattice combination kernels upstairs and downstairs.
    Surj asks whether every own generator's pair-sampled values lie in the
    span of the pulled-back generators plus the n−1 rows ∂δ_g of ``source``.
    """
    k = len(target_gens)
    mono = k == 0 or np.array_equal(
        howell_form(ZqMatrix(combo_kernel_lattice(source, q, target_gens, images=images), q)).matrix.entries,
        howell_form(ZqMatrix(combo_kernel_lattice(target_gens[0].group, q, target_gens), q)).matrix.entries,
    )
    gens = list(_solver_gens(source))
    im = np.asarray(images, dtype=np.int64)
    cob = _coboundary_rows(source, q, tuple(gens))
    pulled = np.array(
        [c.values[np.ix_(im, im[gens])].reshape(-1) for c in target_gens], dtype=np.int64
    ).reshape(k, cob.shape[1])
    span = howell_form(ZqMatrix(np.concatenate([pulled, cob], axis=0), q))
    surj = all(row_span_contains(span, c.values[:, gens].reshape(-1)) for c in own_gens)
    return bool(mono), surj


def inflation_kernel_via_floor_quotient(space, group, floor, images, gens):
    """Cocycles spanning, modulo B², the classes of span(gens) that die on G/T₀.

    The reference route: pull ``gens`` (cocycles on ``space.group`` = G/T)
    back along G/T₀ → G/T, with ``images`` the projection G → G/T, and find
    the vanishing combinations on the smaller group G/T₀ by the coboundary
    lattice, so no code is shared with ``_inflation_kernel_classes``.  When A
    is dual to (T, T₀) this is the inflation kernel on G itself (condition (c)).
    """
    qd0 = quotient(group, floor)
    hom = GroupHom(qd0.quotient, space.group, np.asarray(images, dtype=np.int64)[qd0.coset_reps])
    combos = combo_kernel_lattice(qd0.quotient, space.modulus, list(gens), images=hom.images)
    return [
        Cochain2(space.group, space.modulus, sum(int(y) * c.values for y, c in zip(row, gens)))
        for row in combos
    ]


def h2_linear_forms(group, q: int):
    """L[x, y, :] with c(x, y) = L[x,y]·v for the variables v = c(·, s∈gens)."""
    gens = _solver_gens(group)
    n = group.order
    d = len(gens)
    nv = n * d
    L = np.zeros((n, n, nv), dtype=np.int64)
    xs = np.arange(n)
    seen = np.zeros(n, dtype=bool)
    seen[group.identity] = True
    for k, s in enumerate(gens):
        if not seen[s]:
            L[xs, s, xs * d + k] = 1
            seen[s] = True
    for w, y, k in _solver_tree(group).T.tolist():
        if seen[w]:
            continue
        seen[w] = True
        xy = group.table[:, y]
        L[:, w, :] = L[:, y, :]
        L[xs, w, xy * d + k] += 1
        L[:, w, y * d + k] -= 1
        L[:, w, :] %= q
    return L, gens


def h2_constraint_rows(group, q: int, L, gens):
    """The generator-slice cocycle conditions on v, n²·|S| rows before deduplication."""
    n = group.order
    d = len(gens)
    nv = n * d
    xs = np.arange(n)
    blocks = [np.eye(nv, dtype=np.int64)[[group.identity * d + k for k in range(d)]]]
    for k, s in enumerate(gens):
        ws = group.table[:, s]
        for y in range(n):
            w = int(ws[y])
            rows = (L[:, w, :] - L[:, y, :]).copy()
            rows[:, y * d + k] += 1
            xy = group.table[:, y]
            rows[xs, xy * d + k] -= 1
            blocks.append(rows % q)
    stacked = np.unique(np.concatenate(blocks, axis=0), axis=0)
    return stacked[stacked.any(axis=1)]


def h2_cocycle_lattice(group, q: int):
    """H² by the reduced-variable cocycle lattice: (zrows, invariant factors, basis v-vectors, basis values).

    The reference route: Z² is the kernel of every generator-slice cocycle
    condition on the n·|S| values c(x, s), and each basis cochain is read
    off the n×n×(n·|S|) tensor of linear forms.
    """
    n = group.order
    L, gens = h2_linear_forms(group, q)
    constraints = h2_constraint_rows(group, q, L, gens)
    zrows = kernel(ZqMatrix(constraints, q)).entries if constraints.size else np.eye(n * len(gens), dtype=np.int64)
    cob = _coboundary_rows(group, q, gens)
    stacked = np.concatenate([zrows, cob], axis=0)
    mu = kernel(ZqMatrix(stacked.T, q)).entries[:, : zrows.shape[0]]
    pres = AbGroupPresentation.from_relations(zrows.shape[0], q, mu)
    basis_v = (pres.basis_images.entries @ zrows) % q
    values = [(L.reshape(n * n, -1) @ row).reshape(n, n) % q for row in basis_v]
    return zrows, pres.invariant_factors, basis_v, values


def pc_word_value(group, gens, word) -> int:
    """g_1^{e_1}·g_2^{e_2}···g_N^{e_N}, multiplied out left to right in the table."""
    acc = group.identity
    for g, e in zip(gens, word):
        for _ in range(int(e)):
            acc = int(group.table[acc, g])
    return acc


# ---------------------------------------------------------------------------
# the sharp model's table by collection


def sharp_table_by_collection(d: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The table and coordinates of sharp(d, q), collecting every digit of every cell.

    Each product adds the a-digits mod q, passes their carries into the
    σ_i^q digits and adds −a_j·a′_i to the [σ_i, σ_j] digit, then reads the
    index off all 2d + C(d,2) digits at once.
    """
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    k = 2 * d + len(pairs)
    n = q**k
    radix = q ** np.arange(k, dtype=np.int64)
    idx = np.arange(n, dtype=np.int64)
    coords = (idx[:, None] // radix[None, :]) % q
    a_blk = coords[:, :d]
    c_blk = coords[:, d : 2 * d]
    b_blk = coords[:, 2 * d :]

    table = np.empty((n, n), dtype=np.int64)
    chunk = max(1, _BLOCK_CELLS // n)
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        a1 = a_blk[lo:hi, None, :]
        a2 = a_blk[None, :, :]
        asum = a1 + a2
        carry = asum // q
        blocks = [asum % q, (c_blk[lo:hi, None, :] + c_blk[None, :, :] + carry) % q]
        if pairs:
            kap = np.empty((hi - lo, n, len(pairs)), dtype=np.int64)
            for t, (i, j) in enumerate(pairs):
                kap[:, :, t] = -a1[:, :, j] * a2[:, :, i]
            blocks.append((b_blk[lo:hi, None, :] + b_blk[None, :, :] + kap) % q)
        table[lo:hi] = np.concatenate(blocks, axis=2) @ radix
    return table, coords


# ---------------------------------------------------------------------------
# the small solvable groups that the pc-tails route is pinned on


def relabeled(group, seed: int):
    """A copy of ``group`` whose non-identity elements are renamed by a seeded permutation."""
    n = group.order
    perm = np.arange(n)
    others = np.delete(perm, group.identity)
    perm[others] = np.random.default_rng(seed).permutation(others)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(n)
    table = perm[group.table[np.ix_(inv, inv)]]
    gens = [int(perm[g]) for g in group.generators]
    return FiniteGroup.from_table(table, generators=gens, name=f"{group.name}~")


def _model(d: int, q: int, variant: str, term=None):
    def build():
        g = free_level3(d, q, variant).group
        if term is None:
            return g
        series = q_central_series(g, q)
        sub = series.lower3 if term == "lower3" else series.term(2)
        return quotient(g, sub).quotient

    return build


def _small_solvable():
    out = [("trivial", lambda: FiniteGroup.from_table([[0]], name="1"), (2, 3))]
    presets = [
        ("Z2", "cyclic", [2], (2,)),
        ("Z4", "cyclic", [4], (2, 4)),
        ("Z6", "cyclic", [6], (2, 3)),
        ("Z8", "cyclic", [8], (2, 4)),
        ("Z9", "cyclic", [9], (3,)),
        ("Z16", "cyclic", [16], (2,)),
        ("Z25", "cyclic", [25], (5,)),
        ("Z64", "cyclic", [64], (2,)),
        ("(Z2)^2", "elementary_abelian", [2, 2], (2, 4)),
        ("(Z2)^3", "elementary_abelian", [2, 3], (2,)),
        ("(Z3)^2", "elementary_abelian", [3, 2], (3,)),
        ("(Z4)^2", "elementary_abelian", [4, 2], (2, 4)),
        ("(Z5)^2", "elementary_abelian", [5, 2], (5,)),
        ("(Z2)^5", "elementary_abelian", [2, 5], (2,)),
        ("(Z2)^6", "elementary_abelian", [2, 6], (2,)),
        ("H27", "heisenberg", [3], (3, 9)),
        ("M27", "modular", [3], (3,)),
        ("D4", "dihedral4", [], (2, 4)),
        ("Q8", "quaternion8", [], (2, 4)),
        ("D4xZ2", "direct_product", [("dihedral4",), ("cyclic", [2])], (2,)),
        ("Q8xZ3", "direct_product", [("quaternion8",), ("cyclic", [3])], (2, 3)),
    ]
    for label, name, params, qs in presets:
        out.append((label, lambda name=name, params=params: preset(name, params), qs))
    # (variant, d, q, the nontrivial subgroups to divide out)
    models = [
        ("sharp", 1, 2, ("term2",)),
        ("sharp", 1, 3, ("term2",)),
        ("sharp", 1, 4, ("term2", "lower3")),
        ("sharp", 1, 5, ("term2",)),
        ("sharp", 1, 7, ("term2",)),
        ("sharp", 1, 8, ("term2", "lower3")),
        ("sharp", 2, 2, ("term2",)),
        ("flat", 1, 2, ("term2",)),
        ("flat", 1, 3, ()),
        ("flat", 1, 4, ("term2",)),
        ("flat", 1, 5, ()),
        ("flat", 1, 7, ()),
        ("flat", 1, 8, ("term2",)),
        ("flat", 2, 2, ("term2",)),
        ("flat", 2, 3, ("term2",)),
    ]
    for variant, d, q, terms in models:
        out.append((f"{variant}({d},{q})", _model(d, q, variant), (q,)))
        for term in terms:
            out.append((f"{variant}({d},{q})/{term}", _model(d, q, variant, term), (q,)))
    return tuple(out)


#: (label, builder, moduli): every preset kind of order ≤ 64 (Z/6 and Q8 × Z/3
#: are not p-groups), the sharp and flat models of order ≤ 64 and their
#: quotients by the nontrivial ones of term 2 and the level-3 refinement, and
#: the trivial group.
SMALL_SOLVABLE = _small_solvable()
