"""Discretized massive Gross-Neveu model on a 1D lattice of Wilson fermions.

Conventions
-----------
Lattice fermion modes are dimensionless, psi(x) = c_x / sqrt(a).  Modes are
ordered site-major: mode(site, flavor, component) = 2*(flavors*site + flavor)
+ component, so the 2*flavors qubits of one lattice site are adjacent, the
MPS layer holds them in one tensor of dimension 4**flavors, and every Pauli
term stays within two neighboring sites.

With gamma0 = sigma_y and gamma1 = -i sigma_x (Majorana form), the lattice
Hamiltonian is

    H  =  sum_x  c+_x [ (m0 + r/a) sigma_y ] c_x                (mass + Wilson onsite)
        + sum_x  c+_x [  i sigma_z / 2a ] c_{x+1}  + h.c.       (gradient)
        + sum_x  c+_x [ -r sigma_y / 2a ] c_{x+1}  + h.c.       (Wilson hopping)
        - g0^2/(2a) * sum_x S_x^2,   S_x = sum_j c+_{x,j} sigma_y c_{x,j}

The first three lines are the one-body matrix h of `free_quadratic_form`,
written once and read both by the free-theory checks and by
`build_hamiltonian`.  That maps h and the interaction to qubits by the
Jordan-Wigner transformation, c_p = Z_0 ... Z_{p-1} (X_p + i Y_p)/2, written
in closed form term by term (Somma, Ortiz, Gubernatis, Knill and Laflamme,
PRA 65, 042323 (2002)): a bilinear c+_p c_q is four strings on modes p and q
with Z on every mode strictly between them.

The spinor frame.  In the Majorana form h is imaginary, so H carries strings
with an odd number of Y and its matrix is complex.  Rotating every spinor
pair by u = exp(-i pi/4 sigma_x) maps the gammas to u+ gamma u (gamma0 ->
-sigma_z, gamma1 unchanged, `spinor_frame_gammas`), under which h is real
and every string has an even number of Y: the frame Hamiltonian
V+ H V, V the product over spinor pairs of the Jordan-Wigner image v of u
(`SPINOR_FRAME_PAIR`), is a real symmetric matrix.  H commutes with the
antiunitary S K, S swapping each pair's components and K complex
conjugation, and (S K)^2 = 1, so a real form exists (Wigner; Haake,
Quantum Signatures of Chaos, ch. 2); V picks one that keeps every term
local.  `build_hamiltonian(spec, spinor_frame=True)` assembles it by the
same closed-form code, and DMRG runs on it in real arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from math import sin, sqrt

import numpy as np

from .pauli import PauliSumOperator

class Boundary(str, Enum):
    DIRICHLET = "dirichlet"
    PERIODIC = "periodic"


@dataclass(frozen=True)
class GammaRep:
    """Majorana representation of the two gamma matrices (fixed constants)."""

    gamma0: np.ndarray
    gamma1: np.ndarray


def majorana_gammas() -> GammaRep:
    g0 = 1j * np.array([[0.0, -1.0], [1.0, 0.0]])
    g1 = -1j * np.array([[0.0, 1.0], [1.0, 0.0]])
    return GammaRep(gamma0=g0, gamma1=g1)


def spinor_frame_gammas() -> GammaRep:
    """u+ gamma u of the Majorana gammas, u = exp(-i pi/4 sigma_x): gamma0 = -sigma_z, gamma1 = -i sigma_x."""
    g0 = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
    return GammaRep(gamma0=g0, gamma1=majorana_gammas().gamma1)


#: u = exp(-i pi/4 sigma_x) on one spinor pair, in its Jordan-Wigner image on the
#: pair's two qubits (basis |00>, |01>, |10>, |11>): it fixes the empty and the
#: full pair and mixes the two singly occupied states.
SPINOR_FRAME_PAIR = np.array([
    [1, 0, 0, 0],
    [0, sqrt(0.5), -1j * sqrt(0.5), 0],
    [0, -1j * sqrt(0.5), sqrt(0.5), 0],
    [0, 0, 0, 1],
])


def spinor_frame_site(flavors: int) -> np.ndarray:
    """V on one lattice site: `SPINOR_FRAME_PAIR` on each flavour's pair, 4**flavors square."""
    site = np.ones((1, 1))
    for _ in range(flavors):
        site = np.kron(site, SPINOR_FRAME_PAIR)
    return site


@dataclass(frozen=True)
class ModelSpec:
    """Lattice and physics parameters of one discretized Hamiltonian instance."""

    n_sites: int
    spacing: float
    bare_mass: float
    coupling_sq: float
    wilson_r: float = 1.0
    flavors: int = 1
    boundary: Boundary = Boundary.DIRICHLET

    def __post_init__(self) -> None:
        if int(self.n_sites) != self.n_sites or self.n_sites < 2:
            raise ValueError(f"n_sites must be an integer >= 2, got {self.n_sites}")
        if not self.spacing > 0:
            raise ValueError(f"spacing must be positive, got {self.spacing}")
        if self.coupling_sq < 0:
            raise ValueError(f"coupling_sq must be nonnegative, got {self.coupling_sq}")
        if not 0 < self.wilson_r <= 1:
            raise ValueError(f"wilson_r must lie in (0, 1], got {self.wilson_r}")
        if int(self.flavors) != self.flavors or self.flavors < 1:
            raise ValueError(f"flavors must be a positive integer, got {self.flavors}")
        if not isinstance(self.boundary, Boundary):
            object.__setattr__(self, "boundary", Boundary(self.boundary))

    @property
    def n_qubits(self) -> int:
        return 2 * self.flavors * self.n_sites

    def with_sites(self, n_sites: int) -> "ModelSpec":
        return replace(self, n_sites=n_sites)

    def mode_index(self, site: int, flavor: int, component: int) -> int:
        if not 0 <= site < self.n_sites:
            raise ValueError(f"site {site} out of range")
        if not 0 <= flavor < self.flavors:
            raise ValueError(f"flavor {flavor} out of range")
        if component not in (0, 1):
            raise ValueError(f"component must be 0 or 1, got {component}")
        return 2 * (self.flavors * site + flavor) + component


# ---------------------------------------------------------------------------
# Hamiltonian assembly
# ---------------------------------------------------------------------------


def _one_body(h: np.ndarray) -> list[tuple[complex, str]]:
    """Uncanonicalised terms of sum_ij h[i,j] c+_i c_j, entry by entry in `np.nonzero` order.

    c+_p c_p = (I - Z_p)/2, and for p < q, c+_p c_q = (XX + iXY - iYX + YY)/4
    on modes p and q with Z on every mode strictly between them; c+_q c_p
    takes the conjugate coefficients.
    """
    n = len(h)
    rows, cols = np.nonzero(h)
    raw = []
    for i, j, m in zip(rows.tolist(), cols.tolist(), h[rows, cols].tolist()):
        if i == j:
            raw += [(0.5 * m, "I" * n), (-0.5 * m, "I" * i + "Z" + "I" * (n - i - 1))]
            continue
        p, q = min(i, j), max(i, j)
        head, between, tail = "I" * p, "Z" * (q - p - 1), "I" * (n - q - 1)
        xy = 0.25j if i < j else -0.25j
        raw += [(m * c, head + a + between + b + tail)
                for c, a, b in ((0.25, "X", "X"), (xy, "X", "Y"), (-xy, "Y", "X"), (0.25, "Y", "Y"))]
    return raw


def build_hamiltonian(spec: ModelSpec, spinor_frame: bool = False) -> PauliSumOperator:
    """Qubit Hamiltonian for `spec`; Hermitian, real coefficients.

    The Jordan-Wigner image of `free_quadratic_form`, the very matrix the
    free-theory checks diagonalise, written in closed form by `_one_body`
    (Somma et al., PRA 65, 042323), plus -g0^2/(2a) sum_x S_x^2.  S_x, the one-body form of gamma0 on one
    site's modes, is the same operator at every site up to placement, so
    S_x^2 is expanded once on 2*flavors qubits (`PauliSumOperator.from_matrix`)
    and its strings are placed at each site.  With `spinor_frame` the gammas
    are `spinor_frame_gammas`, which gives V+ H V: no string has an odd
    number of Y, so the matrix is real.
    """
    n = spec.n_qubits
    gammas = spinor_frame_gammas() if spinor_frame else majorana_gammas()
    raw = _one_body(free_quadratic_form(spec, gammas))
    if spec.coupling_sq != 0.0:
        width = 2 * spec.flavors  # modes per site
        density = np.kron(np.eye(spec.flavors), gammas.gamma0)
        s_x = PauliSumOperator.from_terms(width, _one_body(density)).to_matrix()
        square = PauliSumOperator.from_matrix(s_x @ s_x)
        scale = -spec.coupling_sq / (2 * spec.spacing)
        for x in range(spec.n_sites):
            head, tail = "I" * (width * x), "I" * (n - width * (x + 1))
            raw += [(scale * c, head + s + tail) for c, s in square.terms]
    return PauliSumOperator.from_terms(n, raw).hermitized()


def free_quadratic_form(spec: ModelSpec, gammas: GammaRep | None = None) -> np.ndarray:
    """One-body matrix h of the g0^2 = 0 theory: H_free = sum_ij h[i,j] c+_i c_j.

    Indices follow `ModelSpec.mode_index`.  The many-body free Hamiltonian is
    recovered by filling the negative-energy eigenmodes of h.  Dirichlet
    boundaries drop the hopping across the edge; periodic boundaries wrap it.
    The Wilson term is kept under both, and surviving doubler modes act as
    extra flavors.  The gradient reads -gamma0 gamma1 (sigma_z in the default
    Majorana form); `spinor_frame_gammas` give the real h of the spinor frame.
    """
    a = spec.spacing
    gammas = gammas or majorana_gammas()
    gamma0 = gammas.gamma0
    sz = -(gamma0 @ gammas.gamma1)
    onsite = (spec.bare_mass + spec.wilson_r / a) * gamma0
    fwd = (1j / (2 * a)) * sz + (-spec.wilson_r / (2 * a)) * gamma0

    n = spec.n_sites
    wraps = spec.boundary is Boundary.PERIODIC
    h = np.zeros((spec.n_qubits, spec.n_qubits), dtype=complex)
    for x in range(n):
        for j in range(spec.flavors):
            r = spec.mode_index(x, j, 0)  # the two components are modes r and r + 1
            h[r:r + 2, r:r + 2] += onsite
            if x + 1 < n or wraps:
                c = spec.mode_index((x + 1) % n, j, 0)
                h[r:r + 2, c:c + 2] += fwd
                h[c:c + 2, r:r + 2] += fwd.conj().T
    return h


def free_dispersion(spec: ModelSpec, momentum: float) -> float:
    """Single-particle energy of the noninteracting lattice theory at `momentum`.

    E(p) = sqrt( (m0 + (2r/a) sin^2(|p| a / 2))^2 + sin^2(|p| a) / a^2 ).
    Total function of real p; the interaction strength plays no role here.
    """
    a = spec.spacing
    p = abs(momentum)
    mass_term = spec.bare_mass + (2 * spec.wilson_r / a) * sin(p * a / 2) ** 2
    return sqrt(mass_term**2 + sin(p * a) ** 2 / a**2)


def lattice_momenta(spec: ModelSpec) -> np.ndarray:
    """Allowed momenta 2*pi*k/(N*a), k = 0..N-1, of the periodic lattice."""
    n, a = spec.n_sites, spec.spacing
    return 2.0 * np.pi * np.arange(n) / (n * a)
