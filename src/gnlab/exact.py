"""Exact diagonalisation, and the restarted Lanczos solver of DMRG's local problems.

The dense solvers work on the invariant blocks of the Pauli action
(`PauliSumOperator._actions`) and never form a dim x dim array: they find
the blocks by label propagation over the actions and fill each block's
matrix from them.  When a Pauli string U that flips every bit commutes with
every term (`_flip_phases`; every Gross-Neveu Hamiltonian has one), U maps
each block onto a block: a block mapped onto itself (the half-filled
sector) splits into its U = +1 and U = -1 halves, and a block mapped onto
a later one, its twin, lends the twin its eigensystem.  `ExactPropagator`
diagonalises every half and untwinned block with `eigh` and keeps the
eigenvectors per block.  `ground_state_dense` needs only the lowest two
eigenvalues and one vector, so it diagonalises one half and rules most
others out by a Cholesky test.  A Kronecker sum A (x) 1 + 1 (x) B is not
diagonalised at all: `KroneckerSumPropagator` keeps the factors'
propagators and changes basis one factor at a time.

All eigenvectors follow one phase convention so that overlap tables are
reproducible bit-for-bit: the first amplitude whose magnitude exceeds
1e-12 times the largest is rotated to the positive real axis.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .pauli import PauliSumOperator, _masks, _parities

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


#: Per invariant block: (basis indices, eigenvalue columns, eigenvectors).
Blocks = list[tuple[np.ndarray, np.ndarray, np.ndarray]]


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
    k, _mat, phi, sign = pieces[owner]
    ground = np.zeros(1 << op.n_qubits, dtype=complex)
    ground[blocks[k]] = _lift(vector, phi, sign)[:, 0]
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


def _lowest_pair(evals: np.ndarray, blocks: Blocks) -> SpectrumResult:
    lowest = np.zeros(len(evals), dtype=complex)
    lowest[0] = 1.0
    ground = fix_phase(_from_eigenbasis(blocks, lowest))
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


def _flip_phases(op: PauliSumOperator) -> np.ndarray | None:
    """The phases phi of a Pauli string U that flips every bit and commutes with each term of `op`, or None.

    U is Y on the qubits of a mask z and X on the others, so U|i> =
    phi_i |i ^ x> with x all ones and phi_i = i^|z| (-1)^|i & z|, and U^2 = 1.
    U commutes with a term (xt, zt) iff |zt| + |z & xt| is even: one linear
    equation over GF(2) per term, eliminated with one row per leading bit
    and solved from the lowest leading bit up, free bits clear.
    """
    pivots: dict[int, tuple[int, int]] = {}
    for _coeff, string in op.terms:
        row, zt = _masks(string)
        rhs = zt.bit_count() & 1
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = (row, rhs)
                break
            row, rhs = row ^ pivots[top][0], rhs ^ pivots[top][1]
        else:
            if rhs:   # 0 = 1: no such U
                return None
    z = 0
    for top in sorted(pivots):   # a row's other bits lie below its leading bit
        row, rhs = pivots[top]
        z |= (rhs ^ ((row & z).bit_count() & 1)) << top
    phase = 1j ** (z.bit_count() % 4)
    return np.where(_parities(op.n_qubits)[np.arange(1 << op.n_qubits) & z], -phase, phase)


def _split_blocks(op: PauliSumOperator, dense_cap: int) -> tuple[list[np.ndarray], list[tuple], dict]:
    """The invariant blocks of a Hermitian `op` within the dense cap, the pieces to diagonalise, and the twins.

    No dim x dim array is formed: the memory guard counts the block
    matrices and their eigenvectors, 2 x 16 x sum |block|^2 bytes.  A piece
    is (block, Hermitian matrix, phi or None, sign), in block order; without
    a flip symmetry (`_flip_phases`) each block is one.  With one, U maps
    each block onto the block holding x - (its largest index), as every
    `_actions` table is the same at i ^ x up to one sign.  A block mapped
    onto itself lists R, its indices with the top bit clear, first and their
    partners T = x - R last in reverse order; its pieces are the U = +-1
    halves B+- = B_RR +- B_RT diag(phi_R).  A block mapped onto a later one,
    its twin, is one piece; `twins` maps the twin to (that block, phi on
    it), and no twin's matrix is built.
    """
    if op.n_qubits > dense_cap:
        raise ValueError(f"{op.n_qubits} qubits exceeds dense cap {dense_cap}")
    if not op.is_hermitian(1e-10):
        raise ValueError("operator must be Hermitian")
    actions = list(op._actions())
    blocks = _invariant_blocks(actions, op.n_qubits)
    _require_memory(
        2 * 16 * sum(len(idx) ** 2 for idx in blocks),
        f"the complex block matrices and eigenvectors of {op.n_qubits} qubits",
    )
    phases, top = _flip_phases(op), (1 << op.n_qubits) - 1
    first = {int(idx[0]): k for k, idx in enumerate(blocks)}
    # U maps block k onto block mirror[k]; without U onto none, and every block is kept whole
    mirror = [len(blocks) if phases is None else first[top - int(idx[-1])] for idx in blocks]
    kept = [k for k, m in enumerate(mirror) if m >= k]
    twins = {m: (k, phases[blocks[k]]) for k, m in enumerate(mirror) if k < m < len(blocks)}
    pieces = []
    for k, mat in zip(kept, _block_matrices(actions, [blocks[k] for k in kept], op.n_qubits)):
        idx = blocks[k]
        if mirror[k] > k:
            pieces.append((k, mat, None, 1))
        else:
            half = len(idx) // 2
            phi = phases[idx[:half]]
            cross = mat[:half, ::-1][:, :half] * phi
            pieces += [(k, mat[:half, :half] + sign * cross, phi, sign) for sign in (1, -1)]
    return blocks, pieces, twins


def _lift(vecs: np.ndarray, phi: np.ndarray | None, sign: int) -> np.ndarray:
    """A piece's eigenvector columns in its block's basis: a half's rows R
    take vecs / sqrt 2, and their partners sign phi vecs / sqrt 2 (U v = sign v)."""
    if phi is None:
        return vecs
    scaled = vecs * np.sqrt(0.5)
    return np.concatenate([scaled, (sign * phi[:, None] * scaled)[::-1]])


def _eigensystem(op: PauliSumOperator, dense_cap: int) -> tuple[np.ndarray, Blocks]:
    """All eigenvalues ascending, and one eigensystem per invariant block.

    Each piece of `_split_blocks` is solved by `eigh`; a split block takes
    its + half's eigenpairs, then its - half's.  A twin takes its earlier
    block's eigenvalues, and its eigenvectors mapped by U: rows multiplied
    by phi and reversed, which is exact.  Block eigenvalues are merged by a
    stable sort; each block records the columns its eigenvalues took.
    """
    blocks, pieces, twins = _split_blocks(op, dense_cap)
    solved: list = [None] * len(blocks)
    for k, mat, phi, sign in pieces:
        w, v = np.linalg.eigh(mat)
        v = _lift(v, phi, sign)
        if solved[k] is not None:
            w, v = np.concatenate([solved[k][0], w]), np.hstack([solved[k][1], v])
        solved[k] = (w, v)
    for k, (j, phi) in twins.items():
        w, v = solved[j]
        solved[k] = (w, (phi[:, None] * v)[::-1])
    evals = np.concatenate([w for w, _ in solved])
    order = np.argsort(evals, kind="stable")
    column = np.empty(len(evals), dtype=np.intp)
    column[order] = np.arange(len(evals))
    columns = np.split(column, np.cumsum([len(idx) for idx in blocks])[:-1])
    return evals[order], [(idx, cols, v) for idx, cols, (_, v) in zip(blocks, columns, solved)]


def _from_eigenbasis(blocks: Blocks, amps: np.ndarray) -> np.ndarray:
    """Computational-basis vector(s) of eigenbasis amplitudes, shape (dim,) or (dim, k)."""
    out = np.empty(amps.shape, dtype=complex)
    for idx, cols, vecs in blocks:
        out[idx] = vecs @ amps[cols]
    return out


class ExactPropagator:
    """Eigendecomposition of one fixed operator `op`, with basis changes to and from it.

    `evals` holds every eigenvalue in ascending order; `blocks` holds, per
    invariant block, its basis indices, the columns of its eigenvalues in
    `evals` and its eigenvectors, square even where a flip symmetry split
    the block or made it a twin (`_eigensystem`).  Each basis change is one
    small matmul per block.
    """

    def __init__(self, op: PauliSumOperator, dense_cap: int = DENSE_CAP_DEFAULT):
        self.op = op
        self.evals, self.blocks = _eigensystem(op, dense_cap)

    def spectrum(self) -> SpectrumResult:
        """The lowest two eigenpairs as `ground_state_dense` reports them: E0 and the vector exactly, E1 to rounding."""
        return _lowest_pair(self.evals, self.blocks)

    def to_eigenbasis(self, state: np.ndarray) -> np.ndarray:
        """Eigenbasis amplitudes of `state`, shape (dim,) or (dim, k)."""
        out = np.empty(state.shape, dtype=complex)
        for idx, cols, vecs in self.blocks:
            # V^H x as conj(V^T conj(x)): no conjugated copy of V
            out[cols] = (vecs.T @ state[idx].conj()).conj()
        return out

    def from_eigenbasis(self, amps: np.ndarray) -> np.ndarray:
        return _from_eigenbasis(self.blocks, amps)


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
