"""Exact linear algebra over Z/q where q = p**s is a prime power.

For s > 1 the ring Z/q has zero divisors, so ordinary Gaussian elimination
neither canonicalizes row spans nor finds full kernels.  The Howell form
repairs both defects: it is the unique echelon form that is closed under the
"annihilator shifts" (q / p**v) * row, which is exactly what makes greedy
membership tests, canonical coset representatives, and kernel extraction
complete over Z/p**s.

Everything is dense ``int64`` numpy underneath.  One private elimination,
``_howell_rows``, works column by column over a 2-D row pool with array
updates (after Howell 1986 and Storjohann–Mulders 1998).  ``howell_form``
records the span only; ``solve`` is the one caller that needs the row
operations, and it gets them by reducing [Aᵀ | I] through the same routine.
Values are immutable after construction and all operations are pure
functions, so the whole layer is safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

#: Largest permitted modulus.  Squares of residues must fit comfortably in
#: int64, and nothing in the workbench needs moduli beyond this.
MAX_MODULUS = 1 << 16

__all__ = [
    "MAX_MODULUS",
    "AbGroupPresentation",
    "HowellForm",
    "PairingReport",
    "SmithDecomposition",
    "ZqMatrix",
    "coset_reduce",
    "factor_prime_power",
    "howell_form",
    "kernel",
    "pairing_perfection",
    "row_span_contains",
    "row_span_size",
    "smith_decomposition",
    "solve",
]


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return ``(p, s)`` with ``q == p**s``, ``p`` prime and ``s >= 1``.

    Raises ``ValueError`` if ``q`` is not a prime power in ``[2, MAX_MODULUS]``.
    """
    q = int(q)
    if not 2 <= q <= MAX_MODULUS:
        raise ValueError(f"modulus must lie in [2, {MAX_MODULUS}], got {q}")
    p = 2
    while q % p:
        p += 1
    s, n = 0, q
    while n % p == 0:
        n //= p
        s += 1
    if n != 1:
        raise ValueError(f"modulus {q} is not a prime power")
    return p, s


def _unit_scale_to_pivot(a: int, pv: int, q: int) -> int:
    """Return a unit ``w`` with ``(w * a) % q == pv``, where ``pv = gcd(a, q) < q``."""
    cofactor = q // pv
    return pow((a // pv) % cofactor, -1, cofactor)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ZqMatrix:
    """Immutable dense matrix over Z/q, entries stored as int64 residues."""

    entries: np.ndarray
    modulus: int

    def __post_init__(self) -> None:
        factor_prime_power(self.modulus)
        arr = np.asarray(self.entries, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError(f"matrix entries must be 2-dimensional, got shape {arr.shape}")
        object.__setattr__(self, "entries", _freeze(np.mod(arr, self.modulus)))
        object.__setattr__(self, "modulus", int(self.modulus))

    # -- construction -----------------------------------------------------
    @classmethod
    def zeros(cls, rows: int, cols: int, q: int) -> "ZqMatrix":
        return cls(np.zeros((rows, cols), dtype=np.int64), q)

    @classmethod
    def identity(cls, n: int, q: int) -> "ZqMatrix":
        return cls(np.eye(n, dtype=np.int64), q)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], cols: int, q: int) -> "ZqMatrix":
        """Build from an iterable of row vectors; ``cols`` disambiguates the empty case."""
        rows = [np.asarray(r, dtype=np.int64) for r in rows]
        if not rows:
            return cls.zeros(0, cols, q)
        mat = np.vstack(rows)
        if mat.shape[1] != cols:
            raise ValueError(f"expected rows of length {cols}, got {mat.shape[1]}")
        return cls(mat, q)

    # -- shape ------------------------------------------------------------
    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    @property
    def T(self) -> "ZqMatrix":
        return ZqMatrix(self.entries.T, self.modulus)

    # -- arithmetic --------------------------------------------------------
    def _check(self, other: "ZqMatrix") -> None:
        if not isinstance(other, ZqMatrix) or other.modulus != self.modulus:
            raise ValueError("mixed moduli in matrix arithmetic")

    def __add__(self, other: "ZqMatrix") -> "ZqMatrix":
        self._check(other)
        return ZqMatrix(self.entries + other.entries, self.modulus)

    def __sub__(self, other: "ZqMatrix") -> "ZqMatrix":
        self._check(other)
        return ZqMatrix(self.entries - other.entries, self.modulus)

    def __matmul__(self, other: "ZqMatrix") -> "ZqMatrix":
        self._check(other)
        return ZqMatrix(self.entries @ other.entries, self.modulus)

    def scale(self, c: int) -> "ZqMatrix":
        return ZqMatrix(self.entries * (int(c) % self.modulus), self.modulus)

    def apply(self, vec: Sequence[int]) -> np.ndarray:
        """Matrix-vector product ``M @ vec`` reduced mod q."""
        v = np.asarray(vec, dtype=np.int64)
        if v.shape != (self.cols,):
            raise ValueError(f"expected vector of length {self.cols}, got shape {v.shape}")
        return (self.entries @ v) % self.modulus

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ZqMatrix)
            and other.modulus == self.modulus
            and other.entries.shape == self.entries.shape
            and bool(np.array_equal(other.entries, self.entries))
        )

    def __repr__(self) -> str:
        return f"ZqMatrix({self.entries.tolist()!r}, mod {self.modulus})"


@dataclass(frozen=True, eq=False)
class HowellForm:
    """Canonical row-reduced form ``matrix`` of a row span, with its pivots.

    Equality of row spans and canonicity (same span => same ``matrix``) are
    the defining guarantees.  ``pivots`` holds one ``(row, col, pivot_value)``
    per row of ``matrix``; pivot values are p-powers.
    """

    matrix: ZqMatrix
    pivots: tuple[tuple[int, int, int], ...]

    @property
    def modulus(self) -> int:
        return self.matrix.modulus


def _howell_rows(
    a: np.ndarray, q: int, ncols: int
) -> tuple[np.ndarray, tuple[tuple[int, int, int], ...]]:
    """Howell rows of the residues ``a``, pivoting only in its first ``ncols`` columns.

    Columns from ``ncols`` on ride along: on ``[A | I]`` they record the row
    operations, so each returned row is ``[h | u]`` with ``u @ A == h``.

    One 2-D array holds the pivot rows found so far, then the pool.  Rows
    popped as pivots are zeroed in place and annihilator-shifted rows are
    appended at the end, so pool order is list order.  Each pivot is the first
    pool row that minimizes gcd(entry, q) = p**v(entry).  One update then
    clears the pivot column below and reduces it above, touching only the rows
    with a nonzero entry there, which keeps sparse inputs (coboundary blocks)
    cheap.  A pivot row is final when found, so reducing the rows above it
    then gives the same rows as a separate back-substitution pass would.
    """
    n, width = a.shape
    if n == 0:
        return np.zeros((0, width), dtype=np.int64), ()
    # A pivot p**v adds s - v >= 1 to the length of the span, which n rows
    # bound by n*s; so there are at most `top` pivots, and as many shifted rows.
    top = min(ncols, n * factor_prime_power(q)[1])
    work = np.zeros((2 * top + n, width), dtype=np.int64)
    work[top : top + n] = a
    end = top + n
    pivots: list[tuple[int, int, int]] = []
    for j in range(ncols):
        # invariant: every pool row is zero in columns < j
        col = work[:end, j]
        gcds = np.gcd(col[top:], q)
        k = int(gcds.argmin())
        pv = int(gcds[k])
        if pv == q:  # the column is zero in the pool
            continue
        k += top
        piv = work[k, j:] * _unit_scale_to_pivot(int(col[k]), pv, q) % q
        work[k, j:] = 0
        hit = np.flatnonzero(col)
        if hit.size:
            work[hit, j:] = (work[hit, j:] - (col[hit] // pv)[:, None] * piv) % q
        work[len(pivots), j:] = piv
        pivots.append((len(pivots), j, pv))
        if pv > 1:
            shifted = piv * (q // pv) % q
            if shifted[: ncols - j].any():
                work[end, j:] = shifted
                end += 1
    return work[: len(pivots)], tuple(pivots)


def howell_form(matrix: ZqMatrix) -> HowellForm:
    """Canonical Howell form of the row span of ``matrix``.

    The form is echelon with p-power pivots, entries above each pivot reduced
    below it, and — the step beyond Hermite — for every pivot p**v with v > 0
    the shifted row (q / p**v) * row folded back into the span closure.  Two
    inputs with equal row span produce the identical form, and the form is a
    fixed point of this function.
    """
    h, pivots = _howell_rows(matrix.entries, matrix.modulus, matrix.cols)
    return HowellForm(ZqMatrix(h, matrix.modulus), pivots)


def _as_howell(mat: "ZqMatrix | HowellForm") -> HowellForm:
    return mat if isinstance(mat, HowellForm) else howell_form(mat)


def coset_reduce(mat: "ZqMatrix | HowellForm", vec: Sequence[int]) -> np.ndarray:
    """Canonical representative of ``vec`` modulo the row span of ``mat``.

    ``vec`` is one vector or a 2-D array of row vectors, each reduced on its
    own.  Two vectors reduce to the same output iff their difference lies in
    the span; in particular membership is ``coset_reduce(mat, v).any() == False``.
    """
    hf = _as_howell(mat)
    q = hf.modulus
    h = hf.matrix.entries
    r = np.mod(np.asarray(vec, dtype=np.int64), q)
    if r.ndim not in (1, 2) or r.shape[-1] != hf.matrix.cols:
        raise ValueError(f"expected vectors of length {hf.matrix.cols}, got shape {r.shape}")
    for i, j, pv in hf.pivots:
        f = r[..., j : j + 1] // pv
        if f.any():
            r = (r - f * h[i]) % q
    return r


def row_span_contains(mat: "ZqMatrix | HowellForm", vec: Sequence[int]) -> bool:
    return not coset_reduce(mat, vec).any()


def row_span_size(mat: "ZqMatrix | HowellForm") -> int:
    """Number of distinct vectors in the row span."""
    hf = _as_howell(mat)
    q = hf.modulus
    size = 1
    for _, _, pv in hf.pivots:
        size *= q // pv
    return size


def solve(matrix: ZqMatrix, rhs: Sequence[int]) -> Optional[np.ndarray]:
    """A solution ``x`` of ``matrix @ x == rhs`` (mod q), or None if none exists.

    The returned vector is verified by substitution before being handed back.
    """
    q = matrix.modulus
    b = np.mod(np.asarray(rhs, dtype=np.int64), q)
    if b.shape != (matrix.rows,):
        raise ValueError(f"expected right-hand side of length {matrix.rows}, got shape {b.shape}")
    # Howell rows of [Aᵀ | I] pivoted in Aᵀ's columns: each is [h | u] with u @ Aᵀ == h.
    m = matrix.rows
    aug = np.concatenate([matrix.entries.T, np.eye(matrix.cols, dtype=np.int64)], axis=1)
    rows, pivots = _howell_rows(aug, q, m)
    coeffs = np.zeros(rows.shape[0], dtype=np.int64)
    r = b.copy()
    for i, j, pv in pivots:
        a = int(r[j])
        if a % pv:
            return None
        coeffs[i] = a // pv
        r = (r - coeffs[i] * rows[i, :m]) % q
    if r.any():
        return None
    x = (coeffs @ rows[:, m:]) % q
    if not np.array_equal(matrix.apply(x), b):
        raise AssertionError("solver postcondition violated")
    return x


def kernel(matrix: ZqMatrix) -> ZqMatrix:
    """Rows generating ``{x : matrix @ x == 0 (mod q)}``, in Howell form.

    Works on the augmented block [Mᵀ | I]: in its Howell form, rows whose
    Mᵀ-block vanishes record exactly the combinations spanning the kernel
    (the annihilator-closure property is what makes this complete over Z/p**s),
    and they are the kernel's own Howell rows, so the output depends only on
    the row span of M.  A tall M is first replaced by its Howell rows, at most
    one per column, which span the same rows, so repeated rows add no
    columns to [Mᵀ | I].
    """
    q = matrix.modulus
    nvars = matrix.cols
    # The elimination takes one step per pivot column: m + n steps on [Mᵀ | I]
    # for an m × n matrix M, against n to reduce M first and at most 2n after.
    # A step costs more on a taller pool, so on the benchmark workloads' kernel
    # inputs reducing first paid off from about m > 4n.
    m = howell_form(matrix).matrix.entries if matrix.rows > 4 * nvars else matrix.entries
    aug = np.hstack([m.T, np.eye(nvars, dtype=np.int64)])
    h = howell_form(ZqMatrix(aug, q)).matrix.entries
    if h.shape[0] == 0:
        return ZqMatrix.identity(nvars, q)
    zero_block = ~h[:, : m.shape[0]].any(axis=1)
    gens = h[zero_block, m.shape[0] :]
    return ZqMatrix(gens.reshape(-1, nvars), q)


@dataclass(frozen=True, eq=False)
class SmithDecomposition:
    """Diagonalization ``row_transform @ M @ col_transform == diagonal`` over Z/q.

    Both transforms are invertible mod q; ``col_transform_inv`` is maintained
    alongside so basis vectors can be pulled back without a separate solve.
    Diagonal entries are p-powers (or 0) with non-decreasing valuation.
    """

    diagonal: ZqMatrix
    row_transform: ZqMatrix
    col_transform: ZqMatrix
    col_transform_inv: ZqMatrix

    @property
    def modulus(self) -> int:
        return self.diagonal.modulus


def smith_decomposition(matrix: ZqMatrix) -> SmithDecomposition:
    """Smith-style diagonalization over the chain ring Z/p**s."""
    q = matrix.modulus
    a = matrix.entries.copy()
    n, m = a.shape
    u = np.eye(n, dtype=np.int64)
    v = np.eye(m, dtype=np.int64)
    vi = np.eye(m, dtype=np.int64)

    for t in range(min(n, m)):
        sub = a[t:, t:]
        if not sub.any():
            break
        # Global minimum valuation in the remaining block makes every later
        # entry divisible by the pivot, so elimination is exact.
        gcds = np.gcd(sub, q)
        bi, bj = np.unravel_index(int(gcds.argmin()), sub.shape)
        pv = int(gcds[bi, bj])
        bi, bj = bi + t, bj + t
        if bi != t:
            a[[t, bi]] = a[[bi, t]]
            u[[t, bi]] = u[[bi, t]]
        if bj != t:
            a[:, [t, bj]] = a[:, [bj, t]]
            v[:, [t, bj]] = v[:, [bj, t]]
            vi[[t, bj]] = vi[[bj, t]]
        w = _unit_scale_to_pivot(int(a[t, t]), pv, q)
        if w != 1:
            a[t] = (a[t] * w) % q
            u[t] = (u[t] * w) % q
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

    dec = SmithDecomposition(
        ZqMatrix(a, q), ZqMatrix(u, q), ZqMatrix(v, q), ZqMatrix(vi, q)
    )
    if dec.row_transform @ matrix @ dec.col_transform != dec.diagonal:
        raise AssertionError("Smith transforms do not diagonalize the matrix")
    if dec.col_transform @ dec.col_transform_inv != ZqMatrix.identity(m, q):
        raise AssertionError("Smith column transform and its inverse disagree")
    return dec


@dataclass(frozen=True, eq=False)
class AbGroupPresentation:
    """Finite abelian group of exponent dividing q, given by generators and relations.

    The module is (Z/q)^ngens modulo the row span of ``relations``.  The
    invariant-factor decomposition (cyclic orders p**k, ascending, trivial
    factors dropped) is computed at construction; ``coordinates`` maps an
    ambient vector to its invariant-factor coordinates, with ``basis_images``
    giving the cyclic generators back in ambient coordinates.
    """

    ngens: int
    modulus: int
    relations: ZqMatrix
    invariant_factors: tuple[int, ...]
    basis_images: ZqMatrix
    _coordinate_map: ZqMatrix

    @classmethod
    def from_relations(
        cls, ngens: int, q: int, relation_rows: "Iterable[Sequence[int]] | ZqMatrix"
    ) -> "AbGroupPresentation":
        if isinstance(relation_rows, ZqMatrix):
            rel = relation_rows
        else:
            rel = ZqMatrix.from_rows(relation_rows, ngens, q)
        if rel.cols != ngens:
            raise ValueError(f"relations have {rel.cols} columns, expected {ngens}")
        dec = smith_decomposition(rel)
        diag = dec.diagonal.entries
        orders: list[int] = []
        slots: list[int] = []
        for j in range(ngens):
            d = int(diag[j, j]) if j < min(rel.rows, ngens) else 0
            order = math.gcd(d, q)  # the cyclic factor Z/q / (d)
            if order > 1:
                orders.append(order)
                slots.append(j)
        images = dec.col_transform_inv.entries[slots, :].reshape(len(slots), ngens)
        coord_cols = dec.col_transform.entries[:, slots].reshape(ngens, len(slots))
        return cls(
            ngens=ngens,
            modulus=q,
            relations=rel,
            invariant_factors=tuple(orders),
            basis_images=ZqMatrix(images, q),
            _coordinate_map=ZqMatrix(coord_cols, q),
        )

    @property
    def order(self) -> int:
        n = 1
        for f in self.invariant_factors:
            n *= f
        return n

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def coordinates(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Invariant-factor coordinates of an ambient vector; zero iff trivial image."""
        v = np.mod(np.asarray(vec, dtype=np.int64), self.modulus)
        if v.shape != (self.ngens,):
            raise ValueError(f"expected vector of length {self.ngens}, got shape {v.shape}")
        raw = (v @ self._coordinate_map.entries) % self.modulus
        return tuple(int(c) % f for c, f in zip(raw, self.invariant_factors))


@dataclass(frozen=True, eq=False)
class PairingReport:
    """Outcome of a bilinear-pairing perfection check.

    ``matrix`` tabulates the pairing on the chosen generators of the two
    sides; the annihilators list generator vectors (left side in A's ambient
    coordinates, right side in B's) for the elements pairing to zero with
    everything opposite.  ``perfect`` means the induced map A -> Hom(B, Z/q)
    is bijective.
    """

    matrix: ZqMatrix
    perfect: bool
    left_order: int
    right_order: int
    left_annihilator: tuple[tuple[int, ...], ...]
    right_annihilator: tuple[tuple[int, ...], ...]

    @property
    def modulus(self) -> int:
        return self.matrix.modulus


def _annihilator_generators(
    pairing_kernel: ZqMatrix, relations: ZqMatrix
) -> tuple[tuple[int, ...], ...]:
    """Nonzero canonical representatives of the kernel generators modulo relations."""
    reps = coset_reduce(relations, pairing_kernel.entries)
    return tuple(key for key in dict.fromkeys(map(tuple, reps.tolist())) if any(key))


def pairing_perfection(
    pairing: ZqMatrix, a: AbGroupPresentation, b: AbGroupPresentation
) -> PairingReport:
    """Check whether the bilinear map tabulated by ``pairing`` is perfect.

    ``pairing[i, j]`` is the value on (i-th generator of ``a``, j-th generator
    of ``b``).  The table must kill both relation spans (checked; ValueError
    otherwise).  Perfection holds iff both annihilators are trivial and the
    two sides have equal order.
    """
    if a.modulus != pairing.modulus or b.modulus != pairing.modulus:
        raise ValueError("pairing and presentations must share one modulus")
    if pairing.rows != a.ngens or pairing.cols != b.ngens:
        raise ValueError(
            f"pairing is {pairing.rows}x{pairing.cols}, expected {a.ngens}x{b.ngens}"
        )
    q = pairing.modulus
    left_compat = (a.relations.entries @ pairing.entries) % q
    if left_compat.any():
        raise ValueError("pairing does not respect the left-hand relations")
    right_compat = (pairing.entries @ b.relations.entries.T) % q
    if right_compat.any():
        raise ValueError("pairing does not respect the right-hand relations")

    left_ann = _annihilator_generators(kernel(pairing.T), a.relations)
    right_ann = _annihilator_generators(kernel(pairing), b.relations)
    perfect = not left_ann and not right_ann and a.order == b.order
    return PairingReport(
        matrix=pairing,
        perfect=perfect,
        left_order=a.order,
        right_order=b.order,
        left_annihilator=left_ann,
        right_annihilator=right_ann,
    )
