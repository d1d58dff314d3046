"""Exact diagonalisation, and the restarted Lanczos solver of DMRG's local problems.

The dense solvers work on the invariant blocks of the Pauli action
(`PauliSumOperator._actions`) and never form a dim x dim array: they find
the blocks by label propagation over the actions and fill each block's
matrix from them.  Every Gross-Neveu Hamiltonian commutes term by term with
two signed permutations, found by a GF(2) solve over the terms' masks:
the particle-hole flip U, a Pauli string that flips every bit
(`_flip_phases`), and the lattice mirror R, the qubit reversal followed by
Z on every other qubit (`_mirror_signs`).  With UR they form one abelian
group G, and one rule splits every block by it (`_split_blocks`): a block
that an element maps an earlier block onto is a twin, whose eigenvectors
are that element applied to the earlier block's; a block that elements map
onto itself splits by the characters of that stabiliser, each piece one
gather of the block matrix per element on the orbit representatives
(`_orbits`, `_gathered`; `_scattered` lifts back).  Symmetry-adapted bases
from orbit representatives are standard (Sandvik, AIP Conf. Proc. 1297, 135
(2010), arXiv:1101.3281, section 4).  At one flavour U twins fermion number
k with n - k, R splits every kept block of more than one state in two and
U and R the half-filled block in four (13 pieces at N = 5); at two flavours
R also twins the (a, b) sector with (b, a) (14 pieces at N = 2, 23 at
N = 3).  `ExactPropagator` diagonalises every piece with `eigh` and keeps
the eigenvectors per block, stacked by block size.  `ground_state_dense`
needs only the lowest two eigenvalues and one vector, so it diagonalises
one piece and rules most others out by a Cholesky test.  A Kronecker sum
A (x) 1 + 1 (x) B is not diagonalised at all: `KroneckerSumPropagator`
keeps the factors' propagators and changes basis one factor at a time.

All eigenvectors follow one phase convention (`fix_phase`): the largest
amplitude, the one of lowest index among those within 1e-8 relative of the
largest magnitude, is rotated to the positive real axis.  Its phase carries
rounding only at the level of its own relative error, so two solves that
agree to rounding give vectors that agree to rounding, phase included; the
margin keeps the choice between symmetry-equal magnitudes (the mirror R
maps i to rev(i)) from falling to rounding.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .pauli import _X_BITS, PauliSumOperator, _masks, _parities

DENSE_CAP_DEFAULT = 14


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance."""


@dataclass(frozen=True)
class SpectrumResult:
    """Lowest two eigenpairs of a Hermitian Pauli-sum operator."""

    ground_energy: float
    first_excited_energy: float
    gap: float
    ground_vector: np.ndarray


#: Per invariant-block size s, over its g blocks: (basis indices (g, s),
#: eigenvalue columns (g, s), eigenvectors (g, s, s)).
Groups = list[tuple[np.ndarray, np.ndarray, np.ndarray]]


def fix_phase(vector: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the largest amplitude is real > 0: the first whose magnitude is
    within 1e-8 relative of the maximum."""
    mags = np.abs(vector)
    top = mags.max()
    if top == 0.0:
        return vector
    idx = int(np.argmax(mags >= (1 - 1e-8) * top))
    return vector * np.exp(-1j * np.angle(vector[idx]))


def ground_state_dense(op: PauliSumOperator, dense_cap: int = DENSE_CAP_DEFAULT) -> SpectrumResult:
    """Lowest two eigenvalues and the ground vector (fixed phase convention), one piece diagonalised.

    The pieces of `_split_blocks` (twins never enter) are visited by their
    smallest diagonal entry, which bounds each piece's lowest eigenvalue
    from above, and the first is solved by `eigh`.  A later piece is skipped
    when a Cholesky factorisation of B - E1 1 succeeds: by Sylvester's law of
    inertia every eigenvalue of B then exceeds E1, the second lowest so far.
    Any other piece gives its lowest eigenvalue by `eigvalsh`, and only one
    that undercuts E0 is solved by `eigh` for its vector.  A level of a
    block with a twin occurs twice, so E1 = E0 when the ground block has one.
    E0 and the vector are those of `ExactPropagator(op).spectrum()` bit for
    bit, ties going to the piece of smaller index as there; E1 agrees to
    rounding.
    """
    blocks, pieces, twins = _split_blocks(op, dense_cap)
    twinned = {k for k, _phi in twins.values()}
    e0 = e1 = np.inf
    owner, vector = -1, None
    for c in sorted(range(len(pieces)), key=lambda c: pieces[c][1].diagonal().real.min()):
        k, mat = pieces[c][:2]
        if e1 < np.inf and _exceeds(mat, e1):
            continue
        if owner >= 0:
            low = float(np.linalg.eigvalsh(mat)[0])
            if (low, c) > (e0, owner):
                e1 = min(e1, low)
                continue
        w, v = np.linalg.eigh(mat)
        if (w[0], c) < (e0, owner):
            e1 = min(e0, float(w[1]) if len(w) > 1 else np.inf, float(w[0]) if k in twinned else np.inf)
            e0, owner, vector = float(w[0]), c, v[:, :1]
        else:
            e1 = min(e1, float(w[0]))
    k, _mat, piece = pieces[owner]
    lifted = np.zeros((len(blocks[k]), 1), dtype=complex)
    _scattered(vector, piece, lifted)
    ground = np.zeros(1 << op.n_qubits, dtype=complex)
    ground[blocks[k]] = lifted[:, 0]
    return SpectrumResult(ground_energy=e0, first_excited_energy=e1, gap=max(e1 - e0, 0.0),
                          ground_vector=fix_phase(ground))


def _exceeds(mat: np.ndarray, shift: float) -> bool:
    """Whether every eigenvalue of the Hermitian `mat` exceeds `shift`, by a Cholesky factorisation of mat - shift 1."""
    shifted = mat.copy()
    np.fill_diagonal(shifted, mat.diagonal() - shift)
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _lowest_pair(evals: np.ndarray, groups: Groups) -> SpectrumResult:
    lowest = np.zeros(len(evals), dtype=complex)
    lowest[0] = 1.0
    ground = fix_phase(_from_eigenbasis(groups, lowest))
    e0, e1 = float(evals[0]), float(evals[1])
    return SpectrumResult(
        ground_energy=e0,
        first_excited_energy=e1,
        gap=max(e1 - e0, 0.0),
        ground_vector=ground,
    )


def lanczos_lowest(
    matvec: Callable[[np.ndarray], np.ndarray],
    start: np.ndarray,
    tol: float,
    max_restarts: int = 400,
    krylov_dim: int = 30,
    strict: bool = True,
    rtol: float = 0.0,
) -> tuple[float, np.ndarray]:
    """Restarted Lanczos with full reorthogonalization for the lowest eigenpair.

    Deterministic given `start`.  Converged once the residual norm
    ||A v - theta v|| is at most max(tol, rtol * |theta|).  Raises
    ConvergenceError if it stays above that; with strict=False the best
    pair found is returned instead (inner-loop use).

    The basis stops growing at the first step j whose Ritz estimate
    beta_j |y_j| (Paige) meets that goal.  The estimate alone never
    certifies convergence, since it drops below the rounding floor at
    large |theta|: one explicit product A v of the Ritz vector confirms
    it, and a restart from that vector reuses the product as its first
    Krylov product.  Each step orthogonalises A q_j against the whole basis
    by classical Gram-Schmidt twice (CGS2); the first pass's coefficient on
    q_j is alpha_j, so no separate three-term recurrence is subtracted.
    The basis has the dtype numpy promotes `start` and the first product
    to: real when both are, as in DMRG's real sweeps.
    """
    dim = start.shape[0]
    m_cap = min(krylov_dim, dim)
    nrm = np.linalg.norm(start)
    if nrm < 1e-14:
        raise ValueError("start vector is zero")
    v = start / nrm
    product = matvec(v)   # A v of each restart vector, formed once
    dtype = np.result_type(v, product)   # real only when the start and the products are
    v, product = v.astype(dtype, copy=False), product.astype(dtype, copy=False)

    basis = np.empty((m_cap, dim), dtype=dtype)
    tri = np.zeros((m_cap, m_cap))   # the tridiagonal T; eigh reads its lower triangle
    theta = 0.0
    for _ in range(max_restarts):
        basis[0] = v
        for j in range(m_cap):
            w = product if j == 0 else matvec(basis[j])
            # CGS2; w.conj() keeps the temporaries vector-sized (no conjugated copy of the basis)
            q = basis[: j + 1]
            h = (q @ w.conj()).conj()
            w = w - h @ q
            w -= (q @ w.conj()).conj() @ q
            tri[j, j] = h[j].real
            beta = np.sqrt(np.vdot(w, w).real)
            tvals, tvecs = np.linalg.eigh(tri[: j + 1, : j + 1])
            theta = float(tvals[0])
            goal = max(tol, rtol * abs(theta))
            if beta * abs(tvecs[-1, 0]) <= goal or beta < 1e-14 or j == m_cap - 1:
                break
            tri[j + 1, j] = beta
            basis[j + 1] = w / beta
        v = tvecs[:, 0] @ basis[: j + 1]
        v = v / np.linalg.norm(v)
        product = matvec(v)
        if np.linalg.norm(product - theta * v) <= goal:
            return theta, v
    if not strict:
        return theta, v
    raise ConvergenceError(
        f"Lanczos did not reach residual max({tol:.2e}, {rtol:.2e}*|theta|) "
        f"after {max_restarts} restarts"
    )


# ---------------------------------------------------------------------------
# Dense eigensystems
# ---------------------------------------------------------------------------


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _require_memory(need: int, what: str) -> None:
    """Refuse, before allocating, `what` when it needs more than physical memory."""
    have = _physical_memory_bytes()
    if need > have:
        raise ValueError(f"{what} needs {need} bytes, more than the {have} bytes of physical memory")


def _invariant_blocks(actions: list[tuple[np.ndarray, np.ndarray]], n_qubits: int) -> list[np.ndarray]:
    """Basis indices of each connected component of the exact non-zeros of the `_actions()` tables.

    Each flip-mask action links i and perm[i] wherever either coefficient
    is non-zero, so every matrix entry between two components is exactly
    zero and each component spans an invariant subspace (fermion-number
    sectors, for instance).  Labels start as the indices themselves, take
    the minimum over the linked indices, then jump to their label's label,
    until nothing changes.  Each component's indices are ascending, and the
    components are ordered by their smallest index.
    """
    # perm is an involution, so the linked set is closed under it and one
    # gather covers both directions; a boolean mask per table is all that is kept
    dim = 1 << n_qubits
    perms = np.array([perm for perm, _diag in actions], dtype=np.intp).reshape(-1, dim)
    nonzero = np.array([diag != 0 for _perm, diag in actions], dtype=bool).reshape(-1, dim)
    linked = nonzero | np.take_along_axis(nonzero, perms, axis=1)
    labels = np.arange(dim)
    while True:
        new = np.where(linked, labels[perms], dim).min(axis=0, initial=dim)
        np.minimum(new, labels, out=new)
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    order = np.argsort(labels, kind="stable")
    counts = np.bincount(labels)
    return np.split(order, np.cumsum(counts[counts > 0])[:-1])


def _block_matrices(
    actions: list[tuple[np.ndarray, np.ndarray]], blocks: list[np.ndarray], n_qubits: int
) -> list[np.ndarray]:
    """The matrix of a Pauli action on `n_qubits`, given as its `_actions()` tables, on each listed block.

    Entry (perm[i], i) is the coefficient diag[i] of the one flip mask that
    maps i to perm[i], so each entry equals the full matrix's bit for bit.
    All blocks share one flat buffer of sum |block|^2 entries.
    """
    sizes = np.array([len(idx) for idx in blocks])
    offsets = np.cumsum(sizes**2) - sizes**2
    members, dim = np.concatenate(blocks), 1 << n_qubits
    pos = np.empty(dim, dtype=np.intp)
    pos[members] = np.arange(len(members)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    # entry (pos[j], pos[i]) of i's block sits at start[i] + pos[j] stride[i]; start is -1 outside the blocks
    start, stride = np.full(dim, -1), np.zeros(dim, dtype=np.intp)
    start[members] = np.repeat(offsets, sizes) + pos[members]
    stride[members] = np.repeat(sizes, sizes)
    inside = start >= 0
    flat = np.zeros(int(np.sum(sizes**2)), dtype=complex)
    for perm, diag in actions:
        cols = np.flatnonzero((diag != 0) & inside)
        flat[start[cols] + pos[perm[cols]] * stride[cols]] = diag[cols]
    return [flat[o:o + s * s].reshape(s, s) for o, s in zip(offsets, sizes)]


def _gf2_solution(equations: Iterable[tuple[int, int]]) -> int | None:
    """The mask z with |row & z| = rhs (mod 2) for every equation (row, rhs), or None if there is none.

    Eliminated with one row per leading bit and solved from the lowest
    leading bit up, free bits clear.
    """
    pivots: dict[int, tuple[int, int]] = {}
    for row, rhs in equations:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = (row, rhs)
                break
            row, rhs = row ^ pivots[top][0], rhs ^ pivots[top][1]
        else:
            if rhs:   # 0 = 1
                return None
    z = 0
    for top in sorted(pivots):   # a row's other bits lie below its leading bit
        row, rhs = pivots[top]
        z |= (rhs ^ ((row & z).bit_count() & 1)) << top
    return z


def _flip_phases(op: PauliSumOperator) -> np.ndarray | None:
    """The phases phi of a Pauli string U that flips every bit and commutes with each term of `op`, or None.

    U is Y on the qubits of a mask z and X on the others, so U|i> =
    phi_i |i ^ x> with x all ones and phi_i = i^|z| (-1)^|i & z|, and U^2 = 1.
    U commutes with a term (xt, zt) iff |zt| + |z & xt| is even: one linear
    equation over GF(2) per term (`_gf2_solution`).
    """
    masks = [_masks(string) for _coeff, string in op.terms]
    z = _gf2_solution((xt, zt.bit_count() & 1) for xt, zt in masks)
    if z is None:
        return None
    phase = 1j ** (z.bit_count() % 4)
    return np.where(_parities(op.n_qubits)[np.arange(1 << op.n_qubits) & z], -phase, phase)


def _reversal(n_qubits: int) -> np.ndarray:
    """rev(i) of every index below 2**n_qubits, qubit q moved to n_qubits - 1 - q.

    The indices as an array of one axis per qubit, the axes reversed.
    """
    return np.arange(1 << n_qubits).reshape((2,) * n_qubits).transpose().ravel()


def _mirror_signs(op: PauliSumOperator, rev: np.ndarray) -> np.ndarray | None:
    """The signs s of a mirror R with R|i> = s_i |rev(i)> that commutes with each term of `op`, or None.

    R reverses the qubit order (`rev`, the `_reversal` of op's qubits), then
    applies Z on the qubits of a mask z: s_i = (-1)^|rev(i) & z|, and R^2 is
    Z on z ^ rev(z).  It maps a term c P onto c (-1)^|x' & z| P', P' the
    reversed string and x' its X/Y mask, so R commutes with `op` iff each
    reversed string is a term of coefficient c' = +-c and |x' & z| is odd
    exactly when c' = -c: one linear equation over GF(2) per term, solved as
    in `_flip_phases`.  On a Gross-Neveu Hamiltonian z marks the first qubit
    of every mode pair, and R mirrors the lattice, x -> N - 1 - x, reversing
    the flavours and the two components of every site.
    """
    coeffs = {string: coeff for coeff, string in op.terms}
    equations = []
    for coeff, string in op.terms:
        image = coeffs.get(string[::-1])
        if image != coeff and image != -coeff:
            return None
        equations.append((int(string[::-1].translate(_X_BITS), 2), int(image != coeff)))
    z = _gf2_solution(equations)
    if z is None:
        return None
    return np.where(_parities(op.n_qubits)[rev & z], -1.0, 1.0)


#: One piece of a block (`_orbits`): per element g of the block's group,
#: identity first, the positions g maps the piece's orbit representatives j to
#: and the amplitudes chi(g) a_g(j), both (|G|, r); and sqrt(n_j / |G|), n_j
#: the elements that fix j.
Piece = tuple[np.ndarray, np.ndarray, np.ndarray]

#: A block's orbits under its group (`_orbits`), as `_gathered` reads them: the
#: positions p_g(j) of all representatives, the weights a_g(j) / sqrt(n_j) and
#: 1 / sqrt(n_j); and per piece its character e, `Piece` and kept representatives.
Orbits = tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple[int, Piece, np.ndarray | slice]]]


def _orbits(gens: list[tuple[np.ndarray, np.ndarray]], size: int) -> Orbits:
    """The orbits and pieces of a block of `size` states under the group that its symmetries `gens` generate.

    Each symmetry g|j> = a_j |p_j> commutes with the Hamiltonian, and p is
    an involution of the block's positions; the permutations commute (a
    complement and a reversal of bits do).  A diagonal symmetry is one
    number on a block, a connected component of the Hamiltonian's non-zeros,
    so g^2 and every commutator g h g^-1 h^-1 are read off the first
    position.  A symmetry joins the group unless its permutation is already
    an element's or it anticommutes with one, and it is taken as ig where
    g^2 = -1.  The group G is then abelian with g^2 = 1: element g is the
    product of the generators of the bits of g, and character e takes the
    value chi_e(g) = (-1)^|e & g|.  Each character gives a piece: the
    representatives j (the least positions of their orbits) with
    chi_e(h) a_h(j) = 1 for every h that fixes j, spanning it by the states
    |j, e> = sum_g chi_e(g) a_g(j) |p_g(j)> / sqrt(|G| n_j) (Sandvik,
    arXiv:1101.3281, section 4).  A character without such representatives
    gives no piece; the others come + before - on each generator, the first
    generator's sign varying slowest.  Without symmetries the block is one
    piece.
    """
    perms, amps = np.arange(size)[None], np.ones((1, size), dtype=complex)
    for p, a in gens:
        if any(q[0] == p[0] and np.array_equal(q, p) for q in perms):
            continue
        a = a if a[0] * a[p[0]] == 1 else 1j * a
        if (amps[:, 0] * a[perms[:, 0]] != a[0] * amps[:, p[0]]).any():   # gh = -hg for some h
            continue
        perms, amps = np.concatenate([perms, p[perms]]), np.concatenate([amps, amps * a[perms]])
    if len(perms) == 1:   # the block is its one piece
        ones = np.ones(size)
        return perms, amps, ones, [(0, (perms, amps, ones), slice(None))]
    chars = np.array([[(-1) ** (e & g).bit_count() for g in range(len(perms))] for e in range(len(perms))])
    reps = np.flatnonzero(perms.min(axis=0) == perms[0])
    perms, amps = perms[:, reps], amps[:, reps]
    fixed = perms == reps
    signed = chars[:, :, None] * amps
    keeps = ((signed == 1) | ~fixed).all(axis=1)
    fixed = fixed.sum(axis=0)
    spread = np.sqrt(fixed / len(perms))
    pieces, whole, some = [], keeps.all(axis=1).tolist(), keeps.any(axis=1).tolist()
    for e in sorted(range(len(perms)), key=lambda e: [e >> b & 1 for b in range(len(perms).bit_length())]):
        if some[e]:
            keep = slice(None) if whole[e] else np.flatnonzero(keeps[e])
            pieces.append((e, (perms[:, keep], signed[e][:, keep], spread[keep]), keep))
    scale = 1.0 / np.sqrt(fixed)
    return perms, amps * scale, scale, pieces


def _gathered(mat: np.ndarray, orbits: Orbits) -> list[tuple[np.ndarray, Piece]]:
    """The Hermitian block matrix `mat` on each piece of `orbits`, with the piece.

    Entry (j, j') is <j, e| mat |j', e> = sum_g chi_e(g) T_g[j, j'] /
    sqrt(n_j), where T_g[j, j'] = mat[j, p_g(j')] a_g(j') / sqrt(n_j') is
    one gather of the representatives' rows per element g.  The sums over g
    of all characters at once are a Walsh-Hadamard transform, one butterfly
    per generator.  The trivial group's one piece is the block itself.
    """
    cols, weights, scale, pieces = orbits
    if len(cols) == 1:
        return [(mat, pieces[0][1])]
    rows = mat.take(cols[0], axis=0)
    terms = []
    for col, weight in zip(cols, weights):
        terms.append(rows.take(col, axis=1))
        terms[-1] *= weight
    del rows
    step = 1
    while step < len(terms):
        for e in range(len(terms)):
            if not e & step:
                plus = terms[e] + terms[e | step]
                np.subtract(terms[e], terms[e | step], out=terms[e | step])
                terms[e] = plus
        step *= 2
    out = []
    for e, piece, keep in pieces:
        part = terms[e]
        part *= scale[:, None]
        out.append((part if isinstance(keep, slice) else part[np.ix_(keep, keep)], piece))
    return out


def _scattered(vecs: np.ndarray, piece: Piece, out: np.ndarray) -> None:
    """Write a piece's eigenvector columns into `out` in its block's basis, the inverse of `_gathered`.

    Amplitude v_j goes to position p_g(j) as chi_e(g) a_g(j) sqrt(n_j / |G|)
    v_j for every element g, the n_j that fix j writing the same value.  Rows
    outside the piece's orbits are left as they are.
    """
    cols, amps, spread = piece
    scaled = vecs * spread[:, None]
    for col, amp in zip(cols, amps):
        out[col] = amp[:, None] * scaled


def _split_blocks(op: PauliSumOperator, dense_cap: int) -> tuple[list[np.ndarray], list[tuple], dict]:
    """The invariant blocks of a Hermitian `op` within the dense cap, the pieces to diagonalise, and the twins.

    G is the group of the signed permutations g|i> = a_i |p(i)> that commute
    with every term: the flip U (`_flip_phases`), the mirror R
    (`_mirror_signs`) and UR, where `op` has them.  Each maps every block
    onto a block.  A block that an element maps an earlier block onto is
    that block's twin and is not built: its indices are p of that block's,
    row for row, and `twins` maps it to (that block, a on it).  Every other
    block is kept with ascending indices and split by `_orbits` under its
    stabiliser, the elements that map it onto itself.  A piece is (block,
    Hermitian matrix, `Piece`), in block order.

    No dim x dim array is formed.  The memory guard counts, before any
    allocation, the kept block matrices, for a split block its
    representatives' rows, one gather per element and two working copies
    at the size of the representatives (for a whole block the copy `eigh`
    takes of it), and every block's eigenvectors, 16 bytes an entry.
    """
    if op.n_qubits > dense_cap:
        raise ValueError(f"{op.n_qubits} qubits exceeds dense cap {dense_cap}")
    if not op.is_hermitian(1e-10):
        raise ValueError("operator must be Hermitian")
    actions = list(op._actions())
    blocks = _invariant_blocks(actions, op.n_qubits)
    top, rev = (1 << op.n_qubits) - 1, _reversal(op.n_qubits)
    phases, signs = _flip_phases(op), _mirror_signs(op, rev)
    elements = [] if phases is None else [(np.arange(top + 1) ^ top, phases)]
    if signs is not None:
        elements.append((rev, signs))
        if phases is not None:
            elements.append((rev ^ top, signs * phases[rev]))   # U R|i> = s_i phi_rev(i) |rev(i) ^ x>
    block_of = np.empty(top + 1, dtype=np.intp)
    block_of[np.concatenate(blocks)] = np.repeat(np.arange(len(blocks)), [len(idx) for idx in blocks])
    twins, plans = {}, {}
    for k, idx in enumerate(blocks):
        if k in twins:
            continue
        stabiliser = []
        for perm, amp in elements:
            m = int(block_of[perm[idx[0]]])
            if m == k and len(stabiliser) < 2:   # two elements generate the stabiliser
                stabiliser.append((np.searchsorted(idx, perm[idx]), amp[idx]))
            elif m != k and m not in twins:
                blocks[m], twins[m] = perm[idx], (k, amp[idx])
        plans[k] = _orbits(stabiliser, len(idx))
    _require_memory(
        16 * sum(len(blocks[k]) ** 2 + (len(blocks[k]) ** 2 if len(cols) == 1 else
                                        cols.shape[1] * (len(blocks[k]) + (len(cols) + 2) * cols.shape[1]))
                 for k, (cols, *_rest) in plans.items())
        + 16 * sum(len(idx) ** 2 for idx in blocks),
        f"the complex block matrices and eigenvectors of {op.n_qubits} qubits",
    )
    pieces = []
    for (k, orbits), mat in zip(plans.items(), _block_matrices(actions, [blocks[k] for k in plans], op.n_qubits)):
        pieces += [(k, part, piece) for part, piece in _gathered(mat, orbits)]
    return blocks, pieces, twins


def _eigensystem(op: PauliSumOperator, dense_cap: int) -> tuple[np.ndarray, Groups]:
    """All eigenvalues ascending, and the block eigensystems grouped by block size.

    Each piece of `_split_blocks` is solved by `eigh`, lifted into the
    next columns of its block and let go, so the block matrices are freed
    with the last whole block.  A twin takes its earlier block's
    eigenvalues, and its eigenvectors mapped by the element g that made it
    a twin, rows multiplied by a, which is exact.  The eigenvectors of all
    blocks of one size share one zeroed (count, size, size) array, allocated
    when the first of them is solved.
    Block eigenvalues are merged by a stable sort; each block records the
    columns its eigenvalues took.
    """
    blocks, pieces, twins = _split_blocks(op, dense_cap)
    members: dict[int, list[int]] = {}
    for k, idx in enumerate(blocks):
        members.setdefault(len(idx), []).append(k)
    slot = {k: i for ks in members.values() for i, k in enumerate(ks)}
    stacks: dict[int, np.ndarray] = {}

    def vecs(k: int) -> np.ndarray:
        size = len(blocks[k])
        if size not in stacks:
            stacks[size] = np.zeros((len(members[size]), size, size), dtype=complex)
        return stacks[size][slot[k]]

    evals: list[list[np.ndarray]] = [[] for _ in blocks]
    pieces.reverse()
    while pieces:
        k, mat, piece = pieces.pop()
        w, v = np.linalg.eigh(mat)
        done = sum(map(len, evals[k]))
        _scattered(v, piece, vecs(k)[:, done:done + len(w)])
        evals[k].append(w)
    for k, (j, phi) in twins.items():
        evals[k] = evals[j]
        np.multiply(phi[:, None], vecs(j), out=vecs(k))
    values = np.concatenate([w for ws in evals for w in ws])
    order = np.argsort(values, kind="stable")
    column = np.empty(len(values), dtype=np.intp)
    column[order] = np.arange(len(values))
    columns = np.split(column, np.cumsum([len(idx) for idx in blocks])[:-1])
    groups = [(np.array([blocks[k] for k in ks]), np.array([columns[k] for k in ks]), stacks[size])
              for size, ks in members.items()]
    return values[order], groups


def _from_eigenbasis(groups: Groups, amps: np.ndarray) -> np.ndarray:
    """Computational-basis vector(s) of eigenbasis amplitudes, shape (dim,) or (dim, k)."""
    flat = amps.reshape(len(amps), -1)
    out = np.empty(flat.shape, dtype=complex)
    for idx, cols, vecs in groups:
        out[idx] = vecs @ flat[cols]
    return out.reshape(amps.shape)


class ExactPropagator:
    """Eigendecomposition of one fixed operator `op`, with basis changes to and from it.

    `evals` holds every eigenvalue in ascending order; `groups` holds, per
    invariant-block size, the basis indices of those blocks, the columns of
    their eigenvalues in `evals` and their eigenvectors, square even where a
    symmetry split the block or made it a twin (`_eigensystem`).  Each basis
    change is one stacked matmul per block size.
    """

    def __init__(self, op: PauliSumOperator, dense_cap: int = DENSE_CAP_DEFAULT):
        self.op = op
        self.evals, self.groups = _eigensystem(op, dense_cap)

    def spectrum(self) -> SpectrumResult:
        """The lowest two eigenpairs as `ground_state_dense` reports them: E0 and the vector exactly, E1 to rounding."""
        return _lowest_pair(self.evals, self.groups)

    def to_eigenbasis(self, state: np.ndarray) -> np.ndarray:
        """Eigenbasis amplitudes of `state`, shape (dim,) or (dim, k)."""
        flat = state.reshape(len(state), -1)
        out = np.empty(flat.shape, dtype=complex)
        for idx, cols, vecs in self.groups:
            # V^H x as conj(V^T conj(x)): no conjugated copy of V
            out[cols] = (vecs.transpose(0, 2, 1) @ flat[idx].conj()).conj()
        return out.reshape(state.shape)

    def from_eigenbasis(self, amps: np.ndarray) -> np.ndarray:
        return _from_eigenbasis(self.groups, amps)


class KroneckerSumPropagator:
    """Eigensystem of left.op (x) 1 + 1 (x) right.op, kept as the two factors' propagators.

    No Kronecker product is formed: eigencomponent (k_l, k_r), at index
    k_l dim_r + k_r (not ascending), has eigenvalue left.evals[k_l] +
    right.evals[k_r], and a basis change applies the left factor's to the
    rows of the state as a (dim_l, dim_r) array, then the right factor's to
    its columns: (A (x) B) vec(X) = vec(A X B^T) for row-major vec.
    """

    def __init__(self, left: ExactPropagator, right: ExactPropagator):
        n_l, n_r = left.op.n_qubits, right.op.n_qubits
        self.op = PauliSumOperator.from_terms(n_l + n_r, [
            *((c, s + "I" * n_r) for c, s in left.op.terms),
            *((c, "I" * n_l + s) for c, s in right.op.terms),
        ])
        self.evals = (left.evals[:, None] + right.evals[None, :]).ravel()
        self._left, self._right = left, right

    def to_eigenbasis(self, state: np.ndarray) -> np.ndarray:
        """Eigenbasis amplitudes of `state`, shape (dim,) or (dim, k)."""
        return self._per_factor(state, self._left.to_eigenbasis, self._right.to_eigenbasis)

    def from_eigenbasis(self, amps: np.ndarray) -> np.ndarray:
        return self._per_factor(amps, self._left.from_eigenbasis, self._right.from_eigenbasis)

    def _per_factor(self, state: np.ndarray, change_left: Callable, change_right: Callable) -> np.ndarray:
        dim_l, dim_r = len(self._left.evals), len(self._right.evals)
        rows = change_left(state.reshape(dim_l, -1)).reshape(dim_l, dim_r, -1)
        cols = change_right(rows.transpose(1, 0, 2).reshape(dim_r, -1))
        return cols.reshape(dim_r, dim_l, -1).transpose(1, 0, 2).reshape(state.shape)
