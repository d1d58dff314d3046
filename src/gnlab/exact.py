"""Ground-truth engines: dense and matrix-free eigensolvers.

All eigenvectors follow one phase convention so that overlap tables are
reproducible bit-for-bit: the first amplitude whose magnitude exceeds
1e-12 times the largest is rotated to the positive real axis.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .pauli import PauliSumOperator

DENSE_CAP_DEFAULT = 14
LANCZOS_CAP_DEFAULT = 24
KRYLOV_DIM_DEFAULT = 30


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance."""


@dataclass(frozen=True)
class SpectrumResult:
    """Lowest two eigenpairs of a Hermitian Pauli-sum operator."""

    ground_energy: float
    first_excited_energy: float
    gap: float
    ground_vector: np.ndarray


def fix_phase(vector: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the first significant amplitude is real > 0."""
    mags = np.abs(vector)
    top = mags.max()
    if top == 0.0:
        return vector
    idx = int(np.argmax(mags > 1e-12 * top))
    return vector * np.exp(-1j * np.angle(vector[idx]))


def ground_state_dense(op: PauliSumOperator, dense_cap: int = DENSE_CAP_DEFAULT) -> SpectrumResult:
    """Full diagonalization; lowest two eigenpairs with the fixed phase convention."""
    return _lowest_pair(*_eigensystem(op, dense_cap))


def _lowest_pair(evals: np.ndarray, evecs: np.ndarray) -> SpectrumResult:
    ground = fix_phase(evecs[:, 0])
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
    krylov_dim: int = KRYLOV_DIM_DEFAULT,
    locked: list[np.ndarray] | None = None,
    strict: bool = True,
    rtol: float = 0.0,
) -> tuple[float, np.ndarray]:
    """Restarted Lanczos with full reorthogonalization for the lowest eigenpair.

    `locked` vectors are projected out of the Krylov space, which targets the
    lowest eigenpair orthogonal to them.  Deterministic given `start`.
    Converged once the residual norm ||A v - theta v|| is at most
    max(tol, rtol * |theta|).  Raises ConvergenceError if it stays above
    that; with strict=False the best pair found is returned instead
    (inner-loop use).

    The basis stops growing at the first step j whose Ritz estimate
    beta_j |y_j| (Paige) meets that goal.  The estimate alone never
    certifies convergence, since it drops below the rounding floor at
    large |theta|: one explicit product A v of the Ritz vector confirms
    it, and a restart from that vector reuses the product as its first
    Krylov product.
    """
    locked = locked or []
    dim = start.shape[0]
    m_cap = min(krylov_dim, dim - len(locked))
    if m_cap < 1:
        raise ValueError("Krylov space is empty after deflation")

    def project_out(w: np.ndarray) -> np.ndarray:
        for u in locked:
            w = w - np.vdot(u, w) * u
        return w

    v = project_out(start.astype(complex))
    nrm = np.linalg.norm(v)
    if nrm < 1e-14:
        raise ValueError("start vector lies in the locked subspace")
    v = v / nrm
    product = project_out(matvec(v))   # A v of each restart vector, formed once

    basis = np.empty((m_cap, dim), dtype=complex)
    theta = 0.0
    for _ in range(max_restarts):
        basis[0] = v
        alphas: list[float] = []
        betas: list[float] = []
        for j in range(m_cap):
            w = product if j == 0 else project_out(matvec(basis[j]))
            alpha = float(np.real(np.vdot(basis[j], w)))
            alphas.append(alpha)
            w = w - alpha * basis[j]
            if j > 0:
                w -= betas[-1] * basis[j - 1]
            # full reorthogonalization, twice for stability; w.conj() keeps
            # the temporaries vector-sized (no conjugated copy of the basis)
            q = basis[: j + 1]
            for _pass in range(2):
                w -= (q @ w.conj()).conj() @ q
            beta = float(np.linalg.norm(w))
            tvals, tvecs = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
            theta = float(tvals[0])
            goal = max(tol, rtol * abs(theta))
            if beta * abs(tvecs[-1, 0]) <= goal or beta < 1e-14 or j == m_cap - 1:
                break
            betas.append(beta)
            basis[j + 1] = w / beta
        v = project_out(tvecs[:, 0] @ basis[: len(alphas)])
        v = v / np.linalg.norm(v)
        product = project_out(matvec(v))
        if np.linalg.norm(product - theta * v) <= goal:
            return theta, v
    if not strict:
        return theta, v
    raise ConvergenceError(
        f"Lanczos did not reach residual max({tol:.2e}, {rtol:.2e}*|theta|) "
        f"after {max_restarts} restarts"
    )


def ground_state_lanczos(
    op: PauliSumOperator,
    tol: float = 1e-10,
    seed: int = 0,
    lanczos_cap: int = LANCZOS_CAP_DEFAULT,
    max_restarts: int = 400,
) -> SpectrumResult:
    """Matrix-free Krylov solver for the lowest two eigenpairs."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if op.n_qubits > lanczos_cap:
        raise ValueError(f"{op.n_qubits} qubits exceeds Lanczos cap {lanczos_cap}")
    dim = 1 << op.n_qubits
    _require_memory(16 * min(KRYLOV_DIM_DEFAULT, dim) * dim, f"a Lanczos basis of {op.n_qubits} qubits")
    rng = np.random.default_rng(seed)
    start = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    e0, v0 = lanczos_lowest(op.apply, start, tol, max_restarts=max_restarts)
    start2 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    e1, _v1 = lanczos_lowest(op.apply, start2, tol, max_restarts=max_restarts, locked=[v0])
    return SpectrumResult(
        ground_energy=e0,
        first_excited_energy=e1,
        gap=max(e1 - e0, 0.0),
        ground_vector=fix_phase(v0),
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


def _invariant_blocks(mat: np.ndarray) -> list[np.ndarray]:
    """Basis indices of each connected component of the exact non-zero pattern.

    Every entry between two components is exactly zero, so each component
    spans an invariant subspace (fermion-number sectors, for instance).
    Labels start as the indices themselves, take the minimum over the
    neighbours in both directions, then jump to their label's label, until
    nothing changes.
    """
    rows, cols = np.nonzero(mat)
    labels = np.arange(mat.shape[0])
    while True:
        new = labels.copy()
        np.minimum.at(new, rows, labels[cols])
        np.minimum.at(new, cols, labels[rows])
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    order = np.argsort(labels, kind="stable")
    counts = np.unique(labels, return_counts=True)[1]
    return np.split(order, np.cumsum(counts)[:-1])


def _eigensystem(op: PauliSumOperator, dense_cap: int) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs, eigenvalues ascending, one `eigh` per invariant block.

    Block eigenvalues are merged by a stable sort and each block's
    eigenvectors are written straight into their columns of the full
    eigenvector matrix.  An operator with no invariant split is one block,
    which is a plain full `eigh`.
    """
    if op.n_qubits > dense_cap:
        raise ValueError(f"{op.n_qubits} qubits exceeds dense cap {dense_cap}")
    if not op.is_hermitian(1e-10):
        raise ValueError("operator must be Hermitian")
    dim = 1 << op.n_qubits
    _require_memory(2 * 16 * dim * dim, f"the complex matrix and eigenvectors of {op.n_qubits} qubits")
    mat = op.to_matrix()
    solved = [(idx, *np.linalg.eigh(mat[np.ix_(idx, idx)])) for idx in _invariant_blocks(mat)]
    del mat
    evals = np.concatenate([w for _, w, _ in solved])
    order = np.argsort(evals, kind="stable")
    column = np.empty(dim, dtype=np.intp)
    column[order] = np.arange(dim)
    evecs = np.zeros((dim, dim), dtype=complex)
    start = 0
    for idx, w, v in solved:
        evecs[np.ix_(idx, column[start:start + len(w)])] = v
        start += len(w)
    return evals[order], evecs


class ExactPropagator:
    """Eigendecomposition of one fixed operator `op`, with basis changes to and from it."""

    def __init__(self, op: PauliSumOperator, dense_cap: int = DENSE_CAP_DEFAULT):
        self.op = op
        self.evals, self.evecs = _eigensystem(op, dense_cap)

    def spectrum(self) -> SpectrumResult:
        """The lowest two eigenpairs, exactly as `ground_state_dense` reports them."""
        return _lowest_pair(self.evals, self.evecs)

    def to_eigenbasis(self, state: np.ndarray) -> np.ndarray:
        return self.evecs.conj().T @ state

    def from_eigenbasis(self, state: np.ndarray) -> np.ndarray:
        return self.evecs @ state
