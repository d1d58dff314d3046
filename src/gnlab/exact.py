"""Exact diagonalisation, and the restarted Lanczos solver of DMRG's local problems.

The dense solvers work on the invariant blocks of the Pauli action
(`PauliSumOperator._actions`) and never form a dim x dim array: they find
the blocks by label propagation over the actions and fill each block's
matrix from them.  Every Gross-Neveu Hamiltonian commutes term by term with
two signed permutations, found by a GF(2) solve over the terms' masks:
the particle-hole flip U, a Pauli string that flips every bit
(`_flip_phases`), and the lattice mirror R, the qubit reversal followed by
Z on every other qubit (`_mirror_signs`).  U maps each block onto a block:
a block mapped onto a later one, its twin, lends the twin its eigensystem.
A block that U or R maps onto itself splits into their joint eigenspaces
(`_split_blocks`): at one flavour the half-filled block gives four pieces
and every other kept block of more than one state two.  Exact
diagonalisation in symmetry-adapted blocks is standard (Sandvik, AIP Conf.
Proc. 1297, 135 (2010), arXiv:1101.3281).  `ExactPropagator` diagonalises
every piece with `eigh` and keeps the eigenvectors per block, stacked by
block size.  `ground_state_dense` needs only the lowest two eigenvalues and
one vector, so it diagonalises one piece and rules most others out by a
Cholesky test.  A Kronecker sum A (x) 1 + 1 (x) B is not diagonalised at
all: `KroneckerSumPropagator` keeps the factors' propagators and changes
basis one factor at a time.

All eigenvectors follow one phase convention so that overlap tables are
reproducible bit-for-bit: the first amplitude whose magnitude exceeds
1e-12 times the largest is rotated to the positive real axis.
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
    """Rotate the global phase so the first significant amplitude is real > 0."""
    mags = np.abs(vector)
    top = mags.max()
    if top == 0.0:
        return vector
    idx = int(np.argmax(mags > 1e-12 * top))
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
    k, _mat, lifts = pieces[owner]
    ground = np.zeros(1 << op.n_qubits, dtype=complex)
    ground[blocks[k]] = _lift(vector, lifts)[:, 0]
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
    """
    dim = start.shape[0]
    m_cap = min(krylov_dim, dim)
    v = start.astype(complex)
    nrm = np.linalg.norm(v)
    if nrm < 1e-14:
        raise ValueError("start vector is zero")
    v = v / nrm
    product = matvec(v)   # A v of each restart vector, formed once

    basis = np.empty((m_cap, dim), dtype=complex)
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
    links = [(perm, (diag != 0) | (diag[perm] != 0)) for perm, diag in actions]
    labels = np.arange(1 << n_qubits)
    while True:
        new = labels.copy()
        for perm, linked in links:
            np.minimum(new, labels[perm], out=new, where=linked)
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    order = np.argsort(labels, kind="stable")
    counts = np.unique(labels, return_counts=True)[1]
    return np.split(order, np.cumsum(counts)[:-1])


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
    block_of = np.full(dim, -1)   # -1 outside the listed blocks
    block_of[members] = np.repeat(np.arange(len(blocks)), sizes)
    pos = np.empty(dim, dtype=np.intp)
    pos[members] = np.arange(len(members)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    flat = np.zeros(int(np.sum(sizes**2)), dtype=complex)
    for perm, diag in actions:
        cols = np.flatnonzero((diag != 0) & (block_of >= 0))
        b = block_of[cols]
        flat[offsets[b] + pos[perm[cols]] * sizes[b] + pos[cols]] = diag[cols]
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

    Tabulated by doubling: a new leading bit b lands last, rev(b 2^n + j) = 2 rev(j) + b.
    """
    rev = np.zeros(1, dtype=np.intp)
    for _ in range(n_qubits):
        rev = np.concatenate([2 * rev, 2 * rev + 1])
    return rev


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


#: One eigenspace of an involution S e_j = s_j e_perm(j) whose basis is in
#: `_pairing` order: (r pairs, f fixed points, s on the pairs'
#: representatives, the fixed points it holds (of 0..f-1), its eigenvalue tau).
Space = tuple[int, int, np.ndarray, np.ndarray, int]


def _pairing(perm: np.ndarray) -> tuple[np.ndarray, int]:
    """The order [representatives j < perm(j), fixed points, partners perm(j) of the representatives] of an
    involution's basis, and the number of pairs."""
    at = np.arange(len(perm))
    ahead = perm > at
    reps = at[ahead]
    return np.concatenate([reps, at[perm == at], perm[ahead]]), len(reps)


def _eigenspaces(signs: np.ndarray, r: int) -> list[Space]:
    """The +1 and -1 eigenspaces of an involution S e_j = s_j e_perm(j), S^2 = 1, on a basis in `_pairing` order.

    `signs` holds s on the r representatives, then on the fixed points.  A
    pair gives (e_j + tau s_j e_perm(j)) / sqrt 2 to the tau space, and a
    fixed point goes whole to the s_j space.  [] when S is +-1.
    """
    held = signs[r:] == 1
    keeps = np.flatnonzero(held), np.flatnonzero(~held)
    if not (r or (len(keeps[0]) and len(keeps[1]))):
        return []
    return [(r, len(held), signs[:r], keep, tau) for keep, tau in zip(keeps, (1, -1))]


def _project(mat: np.ndarray, spaces: list[Space]) -> list[np.ndarray]:
    """The Hermitian `mat`, in `_pairing` order and commuting with an involution, on each of its `_eigenspaces`.

    With v_a the pair vectors: <v_a| mat |v_b> = mat_ab + tau s_b mat_(a, perm b),
    <v_a| mat |e_f> = sqrt 2 mat_af, and the fixed points keep mat_fg.
    """
    r, f, s, _keep, _tau = spaces[0]
    same, cross = mat[:r, :r], mat[:r, r + f:] * s
    out = []
    for _r, _f, _s, keep, tau in spaces:
        piece = np.empty((r + len(keep), r + len(keep)), dtype=complex)
        (np.add if tau > 0 else np.subtract)(same, cross, out=piece[:r, :r])
        if len(keep):
            rows = r + keep
            np.multiply(mat[rows, :r], np.sqrt(2.0), out=piece[r:, :r])
            piece[:r, r:] = piece[r:, :r].conj().T
            piece[r:, r:] = mat[rows[:, None], rows]
        out.append(piece)
    return out


def _arranged(idx: np.ndarray, phases: np.ndarray | None, rev: np.ndarray,
              signs: np.ndarray | None) -> tuple[np.ndarray, list]:
    """A kept block's indices in the order its splits read, and its plan [(space, subplan)]; [] keeps it whole.

    The splits are by the involutions that map the block onto itself: U
    when `phases` are given (its j-th index pairs with its j-th from last),
    then the mirror R (`rev`, `signs`) where it maps the block onto itself,
    squares to one sign there (taken as iR when that sign is -1) and
    commutes with U.  On U's pair vectors v_a, R acts as an involution:
    v_a goes to v_perm(a), or with the sign tau phi_a s_(partner of a) to
    the pair vector whose partner perm(a) is.  Each split's basis is in
    `_pairing` order, U's spaces' in the order of R's pairing, so
    `_project` reads slices of the block matrix built in this order.
    """
    n = len(idx)
    mirror = None
    if signs is not None:
        image = rev[idx]
        perm = np.searchsorted(idx, image)
        if (idx.take(perm, mode="clip") == image).all():
            s = signs[idx]
            square = s * s[perm]
            if (square == square[0]).all():
                mirror = perm, (s if square[0] > 0 else 1j * s)
    if phases is None:
        if mirror is None:
            return idx, []
        perm, s = mirror
        order, r = _pairing(perm)
        return idx[order], [(space, []) for space in _eigenspaces(s[order[:n - r]], r)]
    half, phi = n // 2, phases[idx]
    order, subplans = np.arange(half), {1: [], -1: []}
    # R U e_j = phi_j s_(n-1-j) e_(n-1-perm(j)) against U R e_j = s_j phi_perm(j) e_(n-1-perm(j))
    if mirror is not None and np.array_equal(mirror[1] * phi[mirror[0]], phi * mirror[1][::-1]):
        perm, s = mirror
        crossed = perm[:half] >= half
        order, r = _pairing(np.where(crossed, n - 1 - perm[:half], perm[:half]))
        for tau in (1, -1):
            on_half = np.where(crossed, tau * phi[:half] * s[::-1][:half], s[:half])
            subplans[tau] = [(space, []) for space in _eigenspaces(on_half[order[:half - r]], r)]
    plan = [(space, subplans[space[4]]) for space in _eigenspaces(phi[order], half)]
    return np.concatenate([idx[order], idx[::-1][order]]), plan


def _projected_entries(plan: list) -> int:
    """The entries of every matrix `_pieces` projects for `plan`."""
    return sum((space[0] + len(space[3])) ** 2 + _projected_entries(sub) for space, sub in plan)


def _pieces(mat: np.ndarray, plan: list, lifts: tuple[Space, ...] = ()) -> list[tuple[np.ndarray, tuple]]:
    """(matrix, lifts) of each leaf of `plan`, lifts innermost first."""
    if not plan:
        return [(mat, lifts)]
    parts = _project(mat, [space for space, _sub in plan])
    return [piece for (space, sub), part in zip(plan, parts) for piece in _pieces(part, sub, (space, *lifts))]


def _split_blocks(op: PauliSumOperator, dense_cap: int) -> tuple[list[np.ndarray], list[tuple], dict]:
    """The invariant blocks of a Hermitian `op` within the dense cap, the pieces to diagonalise, and the twins.

    A piece is (block, Hermitian matrix, lifts), in block order; `_lift`
    takes its eigenvectors through the lifts into the block's basis.  A
    kept block is split by the flip U (`_flip_phases`), then by the mirror
    R (`_mirror_signs`) on each of U's spaces (`_arranged`); each split is
    one `_project`.  So the half-filled block of a one-flavour Gross-Neveu
    Hamiltonian gives four pieces and every other kept block of more than
    one state two; without either symmetry a block is one piece.  A kept block's indices are returned in
    the order of its splits, not ascending.  U maps each block onto the
    block holding x - (its largest index), as every `_actions` table is the
    same at i ^ x up to one sign.  A block mapped onto a later one, its
    twin, is not built: its indices are x - those of that block, and
    `twins` maps it to (that block, phi on it).

    No dim x dim array is formed.  The memory guard counts, before any
    allocation, the kept block matrices, every projected matrix (or the
    copy `eigh` takes of a whole block) and every block's eigenvectors, 16
    bytes an entry.
    """
    if op.n_qubits > dense_cap:
        raise ValueError(f"{op.n_qubits} qubits exceeds dense cap {dense_cap}")
    if not op.is_hermitian(1e-10):
        raise ValueError("operator must be Hermitian")
    actions = list(op._actions())
    blocks = _invariant_blocks(actions, op.n_qubits)
    rev, top = _reversal(op.n_qubits), (1 << op.n_qubits) - 1
    phases, signs = _flip_phases(op), _mirror_signs(op, rev)
    first = {int(idx[0]): k for k, idx in enumerate(blocks)}
    # U maps block k onto block image[k]; without U onto none, and no block has a twin
    image = [len(blocks) if phases is None else first[top - int(idx[-1])] for idx in blocks]
    kept = [k for k, m in enumerate(image) if m >= k]
    plans = []
    for k in kept:
        blocks[k], plan = _arranged(blocks[k], phases if image[k] == k else None, rev, signs)
        plans.append(plan)
    twins = {}
    for k, m in enumerate(image):
        if k < m < len(blocks):
            blocks[m], twins[m] = top - blocks[k], (k, phases[blocks[k]])
    _require_memory(
        16 * sum(len(blocks[k]) ** 2 + (_projected_entries(plan) or len(blocks[k]) ** 2)
                 for k, plan in zip(kept, plans))
        + 16 * sum(len(idx) ** 2 for idx in blocks),
        f"the complex block matrices and eigenvectors of {op.n_qubits} qubits",
    )
    pieces = []
    for k, mat, plan in zip(kept, _block_matrices(actions, [blocks[k] for k in kept], op.n_qubits), plans):
        pieces += [(k, part, lifts) for part, lifts in _pieces(mat, plan)]
    return blocks, pieces, twins


def _lift(vecs: np.ndarray, lifts: tuple[Space, ...], out: np.ndarray | None = None) -> np.ndarray:
    """A piece's eigenvector columns in its block's basis, through each space of `lifts`, innermost first.

    A pair vector's amplitude a goes to its representative as a / sqrt 2
    and to its partner as tau s a / sqrt 2; a fixed point's is kept.  The
    result is written into `out` when one is given.
    """
    for level, (r, f, s, keep, tau) in enumerate(lifts, 1):
        last = level == len(lifts)
        lifted = out if last and out is not None else np.empty((2 * r + f, vecs.shape[1]), dtype=complex)
        np.multiply(vecs[:r], np.sqrt(0.5), out=lifted[:r])
        np.multiply(tau * s[:, None], lifted[:r], out=lifted[r + f:])
        if f:
            lifted[r:r + f] = 0.0
            lifted[r + keep] = vecs[r:]
        vecs = lifted
    if out is not None and not lifts:
        out[:] = vecs
    return vecs


def _eigensystem(op: PauliSumOperator, dense_cap: int) -> tuple[np.ndarray, Groups]:
    """All eigenvalues ascending, and the block eigensystems grouped by block size.

    Each piece of `_split_blocks` is solved by `eigh`, lifted into the
    next columns of its block and let go, so the block matrices are freed
    with the last whole block.  A twin takes its earlier block's
    eigenvalues, and its eigenvectors mapped by U, rows multiplied by phi,
    which is exact.  The eigenvectors of all blocks of one size share one
    (count, size, size) array, allocated when the first of them is solved.
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
            stacks[size] = np.empty((len(members[size]), size, size), dtype=complex)
        return stacks[size][slot[k]]

    evals: list[list[np.ndarray]] = [[] for _ in blocks]
    pieces.reverse()
    while pieces:
        k, mat, lifts = pieces.pop()
        w, v = np.linalg.eigh(mat)
        done = sum(map(len, evals[k]))
        _lift(v, lifts, out=vecs(k)[:, done:done + len(w)])
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
