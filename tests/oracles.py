"""Independent reference implementations used only to check the package.

Everything here is built directly from dense matrices and textbook
formulas, bypassing the package's Pauli/MPS machinery, so agreement is a
genuine cross-check rather than a tautology.  `flip_symmetric_block_eigh`
slices a bit-flip symmetry's halves from the assembled matrix, with the
symmetry given as the dense matrix of a Pauli string (`pauli_matrix`);
`symmetry_sector_eigh` projects each block on the joint eigenspaces of
several symmetries given letter by letter (`pauli_mirror_action`).
Some helpers run on the package's Pauli layer: `arpack_lowest`, which runs
scipy's ARPACK, an eigensolver independent of the package's, on the
matrix-free Pauli action; `statevector_correlator_blocks`, which
evaluates the two-point correlator as Pauli-sum expectations of
Jordan-Wigner images on a state vector, independent of the MPS contraction
the package measures with; and the product assembly, `jordan_wigner` and
`operator_product` (products letter by letter from `pauli_product_reference`)
with `hamiltonian_by_products`, which multiplies out every term the package
writes in closed form, and `projector_by_expectations`, which reads each
Pauli coefficient of |v><v| as an expectation.  The `*_reference` helpers,
`epsilon_uncompressed` and `lanczos_reference` are the plain forms of
faster package kernels (letter loops, pairwise scans, the three-term
recurrence), kept to pin the fast forms to the same results.
`gnmps001_bytes` writes a checkpoint in the previous format by hand, for
the tests that the reader refuses it.
"""

from __future__ import annotations

import itertools
import math
import struct

import numpy as np

from gnlab.bessel import bessel_k
from gnlab.model import Boundary, ModelSpec, free_quadratic_form, majorana_gammas
from gnlab.mps import MatrixProductOperator, MatrixProductState, expectation_value
from gnlab.observables import centered_pairs
from gnlab.pauli import PAULI_CHARS, PauliSumOperator

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


def pauli_matrix(string: str) -> np.ndarray:
    """The dense matrix of one Pauli string, a Kronecker product of 2 x 2 matrices (qubit 0 leftmost)."""
    letters = {"I": np.eye(2), "X": np.array([[0.0, 1.0], [1.0, 0.0]]), "Y": SIGMA_Y, "Z": SIGMA_Z}
    out = np.ones((1, 1), dtype=complex)
    for letter in string:
        out = np.kron(out, letters[letter])
    return out


def flip_symmetric_block_eigh(
    matrix: np.ndarray, blocks: list[np.ndarray], flip: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Block eigensystems of an assembled dense matrix that commutes with `flip`, a
    unitary that maps each basis state |i> to phi_i |i ^ x>, x all ones.

    A block that `flip` maps onto itself is diagonalised in its two
    eigenspaces: with R its indices i < i ^ x and T = R ^ x, the Hermitian
    halves B+- = B_RR +- B_RT diag(phi_R) are sliced from the matrix, and
    each half eigenvector a becomes (a on R, +-phi_R a on T) / sqrt 2, the
    + half's eigenpairs first.  A block that it maps onto an earlier block
    takes that block's eigenvalues, and its eigenvectors with row i moved to
    i ^ x and multiplied by phi_i.  Any other block is sliced and diagonalised
    as in `block_eigh`.
    """
    flipped = np.arange(len(matrix)) ^ (len(matrix) - 1)
    phi = flip[flipped, np.arange(len(matrix))]
    out: list[tuple[np.ndarray, np.ndarray]] = []
    for k, idx in enumerate(blocks):
        image = np.sort(flipped[idx])
        j = next(j for j, other in enumerate(blocks) if np.array_equal(other, image))
        if j < k:
            evals, evecs = out[j]
            moved = np.empty_like(evecs)
            moved[np.searchsorted(idx, flipped[blocks[j]])] = phi[blocks[j]][:, None] * evecs
            out.append((evals, moved))
        elif j == k:
            rows = idx[idx < flipped[idx]]
            partners = flipped[rows]
            rr, rt = matrix[np.ix_(rows, rows)], matrix[np.ix_(rows, partners)]
            halves = []
            for sign in (1, -1):
                evals, evecs = np.linalg.eigh(rr + sign * (rt * phi[rows]))
                scaled = evecs * np.sqrt(0.5)
                vecs = np.empty((len(idx), len(evals)), dtype=complex)
                vecs[np.searchsorted(idx, rows)] = scaled
                vecs[np.searchsorted(idx, partners)] = sign * phi[rows][:, None] * scaled
                halves.append((evals, vecs))
            out.append((np.concatenate([w for w, _ in halves]), np.hstack([v for _, v in halves])))
        else:
            out.append(np.linalg.eigh(matrix[np.ix_(idx, idx)]))
    return out


def pauli_mirror_action(string: str, reverse: bool, index: int) -> tuple[int, complex]:
    """(j, amp) with S|index> = amp |j>, S the Pauli string `string` after, if `reverse`, the qubit reversal.

    Letter by letter from the 2 x 2 matrices of `pauli_matrix` (qubit 0 the
    most significant bit); the reversal reads the index's binary digits
    backwards.
    """
    n = len(string)
    bits = format(index, f"0{n}b")
    if reverse:
        bits = bits[::-1]
    j, amp = 0, 1.0 + 0j
    letters = {letter: pauli_matrix(letter) for letter in set(string)}
    for letter, bit in zip(string, bits):
        column = letters[letter][:, int(bit)]
        out = int(np.flatnonzero(column)[0])
        j, amp = 2 * j + out, amp * column[out]
    return j, amp


def symmetry_sector_eigh(
    matrix: np.ndarray, blocks: list[np.ndarray], symmetries: list
) -> list[list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Per block of an assembled dense matrix, its eigensystem in each joint eigenspace of `symmetries`.

    A symmetry is a function i -> (j, amp) of a unitary S|i> = amp |j> that
    commutes with `matrix`.  On a block that S maps onto itself, S or iS
    (where S^2 = -1) is a Hermitian involution with projectors (1 +- S) / 2;
    the product of one projector per such symmetry, P, has its range read
    from `eigh(P)`, and one `eigh` of the matrix on that range gives the
    sector's eigenvalues and eigenvectors in the block's basis.  Each block
    yields [(P, evals, evecs)] over its non-empty sectors.
    """
    out = []
    for idx in blocks:
        where = {int(i): a for a, i in enumerate(idx)}
        involutions = []
        for symmetry in symmetries:
            sym = np.zeros((len(idx), len(idx)), dtype=complex)
            for a, i in enumerate(idx):
                j, amp = symmetry(int(i))
                if j not in where:
                    break
                sym[where[j], a] = amp
            else:
                square = sym @ sym
                involutions.append(sym if np.allclose(square, np.eye(len(idx))) else 1j * sym)
        projectors = [np.eye(len(idx), dtype=complex)]
        for sym in involutions:
            projectors = [p @ (np.eye(len(idx)) + sign * sym) / 2 for p in projectors for sign in (1, -1)]
        sectors = []
        for proj in projectors:
            weights, basis = np.linalg.eigh(proj)
            basis = basis[:, weights > 0.5]
            if basis.shape[1]:
                evals, evecs = np.linalg.eigh(basis.conj().T @ matrix[np.ix_(idx, idx)] @ basis)
                sectors.append((proj, evals, basis @ evecs))
        out.append(sectors)
    return out


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
            operator_product(jordan_wigner(spec.mode_index(i, flavor, alpha), "annihilate", nq),
                             jordan_wigner(spec.mode_index(j, flavor, c), "create", nq)).expectation(vec)
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


def operator_product(a: PauliSumOperator, b: PauliSumOperator) -> PauliSumOperator:
    """The operator product a b, term by term with `pauli_product_reference`."""
    raw = []
    for ca, sa in a.terms:
        for cb, sb in b.terms:
            phase, string = pauli_product_reference(sa, sb)
            raw.append((ca * cb * phase, string))
    return PauliSumOperator.from_terms(a.n_qubits, raw)


def jordan_wigner(mode: int, kind: str, n_modes: int) -> PauliSumOperator:
    """Jordan-Wigner image of one ladder operator: Z on every mode below `mode`, and
    (X - iY)/2 on it for `create`, (X + iY)/2 for `annihilate`."""
    head, tail = "Z" * mode, "I" * (n_modes - mode - 1)
    sign = -1j if kind == "create" else 1j
    return PauliSumOperator.from_terms(n_modes, [(0.5, head + "X" + tail), (0.5 * sign, head + "Y" + tail)])


def hamiltonian_by_products(spec: ModelSpec) -> PauliSumOperator:
    """`build_hamiltonian(spec)` with every term multiplied out: each h[i, j] c+_i c_j of
    `free_quadratic_form` as a product of two `jordan_wigner` images, then each site's
    S_x^2 as the product of S_x with itself on all qubits, in the package's emit order."""
    n = spec.n_qubits

    def one_body(h: np.ndarray, modes: range) -> list[tuple[complex, str]]:
        rows, cols = np.nonzero(h)
        raw = []
        for i, j, m in zip(rows.tolist(), cols.tolist(), h[rows, cols].tolist()):
            op = operator_product(jordan_wigner(modes[i], "create", n), jordan_wigner(modes[j], "annihilate", n))
            raw += [(m * c, s) for c, s in op.terms]
        return raw

    raw = one_body(free_quadratic_form(spec), range(n))
    if spec.coupling_sq != 0.0:
        width = 2 * spec.flavors
        density = np.kron(np.eye(spec.flavors), majorana_gammas().gamma0)
        for x in range(spec.n_sites):
            s_x = PauliSumOperator.from_terms(n, one_body(density, range(width * x, width * (x + 1))))
            raw += [(-spec.coupling_sq / (2 * spec.spacing) * c, s) for c, s in operator_product(s_x, s_x).terms]
    return PauliSumOperator.from_terms(n, raw).hermitized()


def projector_by_expectations(vector: np.ndarray) -> PauliSumOperator:
    """|v><v| over k qubits as a Pauli sum, one string at a time: coefficient <v|P|v> / 2^k."""
    vec = np.asarray(vector, dtype=complex)
    k = len(vec).bit_length() - 1
    terms = []
    for letters in itertools.product(PAULI_CHARS, repeat=k):
        string = "".join(letters)
        terms.append((PauliSumOperator.from_terms(k, [(1.0, string)]).expectation(vec) / (1 << k), string))
    return PauliSumOperator.from_terms(k, terms).hermitized()


def truncated_rank_reference(s: np.ndarray, max_bond: int | None, discarded_weight: float) -> int:
    """The rank `truncated_svd` keeps for singular values `s`: a Python loop adding the tail from the end."""
    total = float(np.sum(s**2))
    if total == 0.0:
        return 1
    keep = len(s)
    tail = 0.0
    for i in range(len(s) - 1, 0, -1):
        tail += float(s[i] ** 2)
        if tail > discarded_weight * total:
            break
        keep = i
    if max_bond is not None:
        keep = min(keep, max_bond)
    return max(keep, 1)


def merge_columns_reference(m: np.ndarray, tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """(kept, transfer) of `mps._merge_columns` by the unscreened scan: every column against every kept one."""
    rows, cols = m.shape
    kept: list[np.ndarray] = []
    transfer = np.zeros((cols, cols), dtype=complex)
    scale = np.max(np.abs(m)) or 1.0
    for j in range(cols):
        col = m[:, j]
        nrm = np.linalg.norm(col)
        if nrm <= tol * scale:
            continue
        merged = False
        for i, ref in enumerate(kept):
            lam = np.vdot(ref, col) / np.vdot(ref, ref)
            if np.linalg.norm(col - lam * ref) <= tol * nrm:
                transfer[i, j] = lam
                merged = True
                break
        if not merged:
            kept.append(col)
            transfer[len(kept) - 1, j] = 1.0
    if not kept:
        kept.append(np.zeros(rows, dtype=complex))
    k = len(kept)
    return np.stack(kept, axis=1), transfer[:k]


def epsilon_uncompressed(state: MatrixProductState, mpo: MatrixProductOperator) -> float:
    """<(H - E)^2> / E^2 through the squared MPO of H - E with no channel merged: bond (D + 1)^2."""
    energy = expectation_value(state, mpo).real
    shifted = []
    for w in mpo.tensors:
        dl, d, _, dr = w.shape
        block = np.zeros((dl + 1, d, d, dr + 1), dtype=complex)   # H (+) 1
        block[:dl, :, :, :dr] = w
        block[dl, :, :, dr] = np.eye(d)
        shifted.append(block)
    shifted[0] = np.tensordot([1.0, -energy], shifted[0], axes=(0, 0))[None]   # H - E 1
    shifted[-1] = np.tensordot(shifted[-1], [1.0, 1.0], axes=(3, 0))[..., None]
    squared = [np.einsum("asub,cutd->acstbd", w, w).reshape(w.shape[0] ** 2, *w.shape[1:3], -1)
               for w in shifted]
    return expectation_value(state, MatrixProductOperator(squared)).real / energy**2


def lanczos_reference(matvec, start: np.ndarray, tol: float, max_restarts: int = 400,
                      krylov_dim: int = 30, rtol: float = 0.0) -> tuple[float, np.ndarray]:
    """`exact.lanczos_lowest` with strict=False, by the three-term recurrence.

    Each step subtracts alpha_j q_j and beta_{j-1} q_{j-1}, then projects out
    the whole basis twice more, and rebuilds T from its diagonals; the stopping
    tests, the confirming product and the restarts are those of the package.
    """
    m_cap = min(krylov_dim, start.shape[0])
    v = start.astype(complex) / np.linalg.norm(start)
    product = matvec(v)
    basis = np.empty((m_cap, start.shape[0]), dtype=complex)
    theta = 0.0
    for _ in range(max_restarts):
        basis[0] = v
        alphas: list[float] = []
        betas: list[float] = []
        for j in range(m_cap):
            w = product if j == 0 else matvec(basis[j])
            alpha = float(np.real(np.vdot(basis[j], w)))
            alphas.append(alpha)
            w = w - alpha * basis[j]
            if j > 0:
                w -= betas[-1] * basis[j - 1]
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
        v = tvecs[:, 0] @ basis[: len(alphas)]
        v = v / np.linalg.norm(v)
        product = matvec(v)
        if np.linalg.norm(product - theta * v) <= goal:
            break
    return theta, v


def gnmps001_bytes(state: MatrixProductState) -> bytes:
    """`state` in the previous checkpoint format: magic, uint32 n_sites and center,
    per-site uint32 dims, complex128 payloads, and no report."""
    head = b"GNMPS001" + struct.pack("<II", state.n_sites, state.center)
    shapes = b"".join(struct.pack("<III", *t.shape) for t in state.tensors)
    return head + shapes + b"".join(t.astype("<c16").tobytes() for t in state.tensors)
