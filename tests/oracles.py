"""Independent reference implementations used only to check the package.

Everything here is built directly from dense matrices and textbook
formulas, bypassing the package's Pauli/MPS machinery, so agreement is a
genuine cross-check rather than a tautology.  The exception is
`arpack_lowest`, which runs scipy's ARPACK, an eigensolver independent of
the package's, on the package's matrix-free Pauli action.
"""

from __future__ import annotations

import numpy as np

from gnlab.bessel import bessel_k
from gnlab.model import Boundary, ModelSpec
from gnlab.pauli import PauliSumOperator

SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def block_eigh(matrix: np.ndarray, blocks: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """`eigh` of each diagonal block matrix[idx, idx] of an assembled dense matrix.

    The plain route to block eigensystems: slice the full matrix, then
    diagonalise each slice.
    """
    return [np.linalg.eigh(matrix[np.ix_(idx, idx)]) for idx in blocks]


def arpack_lowest(op: PauliSumOperator, k: int) -> np.ndarray:
    """The k lowest eigenvalues of `op`, ascending, from ARPACK on the matrix-free `op.apply`."""
    import scipy.sparse.linalg as spla

    dim = 1 << op.n_qubits
    lin = spla.LinearOperator((dim, dim), matvec=op.apply, dtype=complex)
    return np.sort(spla.eigsh(lin, k=k, which="SA", v0=np.ones(dim), tol=1e-12)[0])


def continuum_free_correlator(m0: float, separation: float) -> float:
    """Noninteracting continuum value (m0 / 2 pi) K0(m0 |dx|)."""
    return m0 / (2.0 * np.pi) * bessel_k(0, m0 * separation)


def ladder_operators(n_modes: int) -> list[np.ndarray]:
    """Dense annihilation operators with Jordan-Wigner parity strings."""
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    ops = []
    for k in range(n_modes):
        mats = [z] * k + [lower] + [eye] * (n_modes - k - 1)
        full = mats[0]
        for m in mats[1:]:
            full = np.kron(full, m)
        ops.append(full)
    return ops


def dense_hamiltonian(spec: ModelSpec) -> np.ndarray:
    """The model Hamiltonian assembled from dense ladder operators."""
    n = spec.n_qubits
    ann = ladder_operators(n)
    cre = [m.conj().T for m in ann]
    a = spec.spacing
    onsite = (spec.bare_mass + spec.wilson_r / a) * SIGMA_Y
    grad = (1j / (2 * a)) * SIGMA_Z
    wilson = (-spec.wilson_r / (2 * a)) * SIGMA_Y

    def mode(x: int, j: int, alpha: int) -> int:
        return 2 * (spec.flavors * x + j) + alpha

    dim = 1 << n
    ham = np.zeros((dim, dim), dtype=complex)

    def bilinear(x: int, y: int, j: int, mat: np.ndarray) -> np.ndarray:
        out = np.zeros_like(ham)
        for alpha in range(2):
            for beta in range(2):
                if mat[alpha, beta] != 0:
                    out += mat[alpha, beta] * cre[mode(x, j, alpha)] @ ann[mode(y, j, beta)]
        return out

    for x in range(spec.n_sites):
        density = np.zeros_like(ham)
        for j in range(spec.flavors):
            ham += bilinear(x, x, j, onsite)
            for step, mat in ((1, grad + wilson), (-1, -grad + wilson)):
                y = x + step
                if 0 <= y < spec.n_sites:
                    ham += bilinear(x, y, j, mat)
                elif spec.boundary is Boundary.PERIODIC:
                    ham += bilinear(x, y % spec.n_sites, j, mat)
            density += bilinear(x, x, j, SIGMA_Y)
        ham += (-spec.coupling_sq / (2 * a)) * (density @ density)
    return ham


def fermionic_permutation_unitary(n_modes: int, perm: dict[int, int]) -> np.ndarray:
    """U with U c_k U+ = c_perm[k], including fermionic reordering signs."""
    dim = 1 << n_modes
    unitary = np.zeros((dim, dim))
    for i in range(dim):
        occupied = [q for q in range(n_modes) if (i >> (n_modes - 1 - q)) & 1]
        moved = [perm[q] for q in occupied]
        sign = 1
        for a in range(len(moved)):
            for b in range(a + 1, len(moved)):
                if moved[a] > moved[b]:
                    sign = -sign
        j = 0
        for q in moved:
            j |= 1 << (n_modes - 1 - q)
        unitary[j, i] = sign
    return unitary


def free_fermion_correlations(one_body: np.ndarray) -> np.ndarray:
    """<c_mu c+_nu> in the filled-negative-mode ground state of a quadratic H."""
    evals, evecs = np.linalg.eigh(one_body)
    filled = evals < 0
    cdag_c = (evecs[:, filled] @ evecs[:, filled].conj().T).T   # <c+_mu c_nu>
    return np.eye(len(evals), dtype=complex) - cdag_c.T


def taylor_evolve(matrix: np.ndarray, time: float, state: np.ndarray, terms: int = 60) -> np.ndarray:
    """exp(-iHt)|state> by the truncated power series."""
    out = state.astype(complex).copy()
    term = state.astype(complex).copy()
    for k in range(1, terms):
        term = (-1j * time / k) * (matrix @ term)
        out = out + term
    return out


def phase_estimation_probabilities(phases: np.ndarray, m_dim: int) -> np.ndarray:
    """Outcome probabilities of textbook phase estimation from the explicit register.

    kick[a, k] = exp(i a phases[k]) is the phase ancilla value a picks up on
    eigencomponent k (controlled powers of the unitary), and the inverse QFT
    over the M = m_dim ancilla values is an FFT.  Returns the (M, len(phases))
    table |fft(kick) / M|^2 of outcome y's probability on eigencomponent k.
    """
    kick = np.exp(1j * np.outer(np.arange(m_dim), phases))
    return np.abs(np.fft.fft(kick, axis=0) / m_dim) ** 2
