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
`build_hamiltonian`, which maps h and the interaction through the
Jordan-Wigner transformation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from math import sin, sqrt

import numpy as np

from .pauli import PauliSumOperator, jordan_wigner

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


def _one_body(h: np.ndarray, modes: range, n_qubits: int) -> list[tuple[complex, str]]:
    """Uncanonicalised terms of sum_ij h[i,j] c+_{modes[i]} c_{modes[j]}."""
    rows, cols = np.nonzero(h)
    raw = []
    for i, j, m in zip(rows.tolist(), cols.tolist(), h[rows, cols].tolist()):
        op = jordan_wigner(modes[i], "create", n_qubits) * jordan_wigner(modes[j], "annihilate", n_qubits)
        raw.extend((m * c, s) for c, s in op.terms)
    return raw


def build_hamiltonian(spec: ModelSpec) -> PauliSumOperator:
    """Qubit Hamiltonian for `spec`; Hermitian, real coefficients.

    The Jordan-Wigner image of `free_quadratic_form`, the very matrix the
    free-theory checks diagonalise, plus -g0^2/(2a) sum_x S_x^2, where S_x
    is the one-body form of gamma0 on site x's modes.
    """
    n = spec.n_qubits
    raw = _one_body(free_quadratic_form(spec), range(n), n)
    if spec.coupling_sq != 0.0:
        width = 2 * spec.flavors  # modes per site
        density = np.kron(np.eye(spec.flavors), majorana_gammas().gamma0)
        for x in range(spec.n_sites):
            s_x = PauliSumOperator.from_terms(n, _one_body(density, range(width * x, width * (x + 1)), n))
            raw += [(-spec.coupling_sq / (2 * spec.spacing) * c, s) for c, s in (s_x * s_x).terms]
    return PauliSumOperator.from_terms(n, raw).hermitized()


def free_quadratic_form(spec: ModelSpec) -> np.ndarray:
    """One-body matrix h of the g0^2 = 0 theory: H_free = sum_ij h[i,j] c+_i c_j.

    Indices follow `ModelSpec.mode_index`.  The many-body free Hamiltonian is
    recovered by filling the negative-energy eigenmodes of h.  Dirichlet
    boundaries drop the hopping across the edge; periodic boundaries wrap it.
    The Wilson term is kept under both, and surviving doubler modes act as
    extra flavors.
    """
    a = spec.spacing
    gamma0 = majorana_gammas().gamma0
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
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
