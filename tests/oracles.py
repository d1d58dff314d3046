"""Independent reference implementations used only to check the package.

Everything here is built directly from dense matrices and textbook
formulas, bypassing the package's Pauli/MPS machinery, so agreement is a
genuine cross-check rather than a tautology.  Two helpers run on the
package's Pauli layer: `arpack_lowest`, which runs scipy's ARPACK, an
eigensolver independent of the package's, on the matrix-free Pauli action;
and `statevector_correlator_blocks`, which evaluates the two-point
correlator as Pauli-sum expectations of Jordan-Wigner images on a state
vector, independent of the MPS contraction the package measures with.
"""

from __future__ import annotations

import math

import numpy as np

from gnlab.bessel import bessel_k
from gnlab.model import Boundary, ModelSpec, free_quadratic_form, majorana_gammas
from gnlab.mps import MatrixProductOperator, MatrixProductState
from gnlab.observables import centered_pairs
from gnlab.pauli import PauliSumOperator, jordan_wigner

SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)

_DENSE_GUARD = 1 << 22


def mps_to_dense(state: MatrixProductState) -> np.ndarray:
    """The state vector of an MPS, contracted bond by bond (site 0 most significant)."""
    total = int(np.prod(state.phys_dims))
    if total > _DENSE_GUARD:
        raise ValueError(f"dense conversion of dimension {total} refused")
    acc = state.tensors[0]
    for t in state.tensors[1:]:
        acc = np.tensordot(acc, t, axes=([2], [0]))
        acc = acc.reshape(1, -1, t.shape[2])
    return acc.reshape(-1)


def mpo_to_matrix(mpo: MatrixProductOperator) -> np.ndarray:
    """The dense matrix of an MPO, contracted bond by bond (site 0 most significant)."""
    total = int(np.prod(mpo.phys_dims))
    if total > 1 << 12:
        raise ValueError("dense MPO conversion refused at this size")
    acc = mpo.tensors[0]
    for t in mpo.tensors[1:]:
        acc = np.tensordot(acc, t, axes=([3], [0]))
        bl, po, pi, qo, qi, br = acc.shape
        acc = acc.transpose(0, 1, 3, 2, 4, 5).reshape(bl, po * qo, pi * qi, br)
    return acc[0, :, :, 0]


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


def statevector_correlator_blocks(vec: np.ndarray, spec: ModelSpec, flavor: int = 0) -> np.ndarray:
    """`two_point_correlator(...).blocks` of the state vector `vec`, by Pauli-sum expectations.

    blocks[k] = raw @ gamma0 / a over `centered_pairs`, with raw[alpha, c] =
    <c_{i,alpha} c+_{j,c}> from the Jordan-Wigner images of the two ladder
    operators; `vec` is used as given, not normalised.
    """
    nq = spec.n_qubits
    vec = np.asarray(vec, dtype=complex)
    gamma0 = majorana_gammas().gamma0

    def raw(i: int, j: int) -> np.ndarray:
        return np.array([[
            (jordan_wigner(spec.mode_index(i, flavor, alpha), "annihilate", nq)
             * jordan_wigner(spec.mode_index(j, flavor, c), "create", nq)).expectation(vec)
            for c in range(2)] for alpha in range(2)])

    return np.array([raw(i, j) @ gamma0 / spec.spacing for _k, i, j in centered_pairs(spec.n_sites)])


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


def fixed_point_success(eta: float, eps: float, length: int) -> float:
    """Target fidelity after fixed-point amplification with ideal oracles, in closed form.

    Yoder, Low and Chuang (PRL 113, 210501; arXiv:1409.3305): from start
    overlap eta, the L-query schedule with delta^2 = eps succeeds with
    P_L = 1 - delta^2 T_L(T_{1/L}(1/delta) sqrt(1 - eta^2))^2, where T is the
    Chebyshev polynomial, cos(n arccos x) on [-1, 1] and cosh(n arccosh x) above.
    """
    def chebyshev(order: float, x: float) -> float:
        return math.cos(order * math.acos(x)) if x <= 1 else math.cosh(order * math.acosh(x))

    x = chebyshev(1 / length, 1 / math.sqrt(eps)) * math.sqrt(1 - eta**2)
    return 1 - eps * chebyshev(length, x) ** 2


def effective_two_site_matrix(lenv: np.ndarray, w1: np.ndarray, w2: np.ndarray, renv: np.ndarray) -> np.ndarray:
    """The two-site effective Hamiltonian as a dense matrix over (bra, p, q, rbra) x (ket, t, u, rket).

    H[(a, p, q, x), (c, t, u, y)] = sum_{b, m, n} lenv[a, b, c] w1[b, p, t, m] w2[m, q, u, n] renv[x, n, y].
    """
    full = np.einsum("abc,bptm,mqun,xny->apqxctuy", lenv, w1, w2, renv)
    dim = lenv.shape[0] * w1.shape[1] * w2.shape[1] * renv.shape[0]
    return full.reshape(dim, -1)


def transfer_reference(env: np.ndarray, bra: np.ndarray, w: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """env[a, b, c] conj(bra[a, s, x]) w[b, s, t, d] ket[c, t, y] summed into the (x, d, y) environment."""
    return np.einsum("abc,asx,bstd,cty->xdy", env, bra.conj(), w, ket)


def free_padded_overlap(spec: ModelSpec, kind: str) -> float:
    """|<g_N (x) pad | g_{N+1}>| of the g0^2 = 0 vacua, with N = spec.n_sites.

    Each free vacuum is the Slater determinant of the negative-energy
    orbitals of `free_quadratic_form`.  The symmetry-adapted pad puts one
    particle per flavor in the orbital (e_r + e_{r+1}) / sqrt(2) of the new
    site's two modes, so g_N (x) pad is the determinant of Phi_N, zero-padded,
    next to those orbitals, and the overlap is |det(Phi^+ Psi)| with Psi the
    negative-energy orbitals of N + 1 sites.  Only the one-particle-per-flavor
    part of the uniform pad has the right particle number: its overlap is
    smaller by sqrt(2) per flavor.
    """
    if spec.coupling_sq != 0.0:
        raise ValueError("the determinant formula holds for the free theory only")
    big = spec.with_sites(spec.n_sites + 1)

    def filled(s: ModelSpec) -> np.ndarray:
        evals, evecs = np.linalg.eigh(free_quadratic_form(s))
        return evecs[:, evals < 0]

    small = filled(spec)
    pad = np.zeros((big.n_qubits, spec.flavors), dtype=complex)
    for j in range(spec.flavors):
        r = big.mode_index(spec.n_sites, j, 0)
        pad[r:r + 2, j] = 1 / math.sqrt(2)
    phi = np.hstack([np.vstack([small, np.zeros((big.n_qubits - spec.n_qubits, small.shape[1]))]), pad])
    sym = abs(np.linalg.det(phi.conj().T @ filled(big)))
    return sym if kind == "symmetry-adapted" else sym / math.sqrt(2) ** spec.flavors


# Single-qubit products: (a, b) -> (phase, c) with a*b = phase*c.
_PAULI_TABLE = {
    ("I", "I"): (1, "I"), ("I", "X"): (1, "X"), ("I", "Y"): (1, "Y"), ("I", "Z"): (1, "Z"),
    ("X", "I"): (1, "X"), ("Y", "I"): (1, "Y"), ("Z", "I"): (1, "Z"),
    ("X", "X"): (1, "I"), ("Y", "Y"): (1, "I"), ("Z", "Z"): (1, "I"),
    ("X", "Y"): (1j, "Z"), ("Y", "X"): (-1j, "Z"),
    ("Y", "Z"): (1j, "X"), ("Z", "Y"): (-1j, "X"),
    ("Z", "X"): (1j, "Y"), ("X", "Z"): (-1j, "Y"),
}


def pauli_product_reference(a: str, b: str) -> tuple[complex, str]:
    """(phase, c) with a*b = phase*c, multiplied letter by letter from the single-qubit table."""
    phase: complex = 1
    out = []
    for ca, cb in zip(a, b):
        p, c = _PAULI_TABLE[(ca, cb)]
        phase *= p
        out.append(c)
    return phase, "".join(out)
