"""Discretized massive Gross-Neveu model on a 1D lattice of Wilson fermions.

Conventions
-----------
Lattice fermion modes are dimensionless, psi(x) = c_x / sqrt(a).  Modes are
ordered site-major: mode(site, flavor, component) = 2*(flavors*site + flavor)
+ component, so the two spinor components of one flavor sit on adjacent
qubits and every Pauli term stays within two neighboring sites.

With gamma0 = sigma_y and gamma1 = -i sigma_x (Majorana form), the qubit
Hamiltonian assembled here is

    H  =  sum_x  c+_x [ (m0 + r/a) sigma_y ] c_x                (mass + Wilson onsite)
        + sum_x  c+_x [  i sigma_z / 2a ] c_{x+1}  + h.c.       (gradient)
        + sum_x  c+_x [ -r sigma_y / 2a ] c_{x+1}  + h.c.       (Wilson hopping)
        - g0^2/(2a) * sum_x S_x^2,   S_x = sum_j c+_{x,j} sigma_y c_{x,j}

mapped through the Jordan-Wigner transformation.
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


def _bilinear(spec: ModelSpec, site_a: int, site_b: int, flavor: int,
              matrix: np.ndarray) -> list[tuple[complex, str]]:
    """Uncanonicalised terms of sum_ab matrix[a,b] c+_{site_a,flavor,a} c_{site_b,flavor,b}."""
    n = spec.n_qubits
    raw = []
    for alpha in range(2):
        for beta in range(2):
            m = complex(matrix[alpha, beta])
            if m == 0:
                continue
            op = jordan_wigner(spec.mode_index(site_a, flavor, alpha), "create", n) \
                * jordan_wigner(spec.mode_index(site_b, flavor, beta), "annihilate", n)
            raw.extend((m * c, s) for c, s in op.terms)
    return raw


def _neighbor(spec: ModelSpec, site: int, step: int) -> int | None:
    nxt = site + step
    if 0 <= nxt < spec.n_sites:
        return nxt
    if spec.boundary is Boundary.PERIODIC:
        return nxt % spec.n_sites
    return None


def build_hamiltonian(spec: ModelSpec) -> PauliSumOperator:
    """Qubit Hamiltonian H0 + Hg + HW for `spec`; Hermitian, real coefficients.

    Dirichlet boundaries drop hopping terms that would cross the edge;
    periodic boundaries wrap them.  The Wilson term is kept under both
    boundary types, and surviving doubler modes act as extra flavors.
    """
    a = spec.spacing
    sy = np.array([[0.0, -1j], [1j, 0.0]])       # gamma0 in the Majorana form
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    onsite = (spec.bare_mass + spec.wilson_r / a) * sy
    grad = (1j / (2 * a)) * sz
    wilson_hop = (-spec.wilson_r / (2 * a)) * sy

    n = spec.n_qubits
    raw: list[tuple[complex, str]] = []
    for x in range(spec.n_sites):
        density: list[tuple[complex, str]] = []
        for j in range(spec.flavors):
            raw += _bilinear(spec, x, x, j, onsite)
            for step, mat in ((+1, grad + wilson_hop), (-1, -grad + wilson_hop)):
                y = _neighbor(spec, x, step)
                if y is not None:
                    raw += _bilinear(spec, x, y, j, mat)
            if spec.coupling_sq != 0.0:
                density += _bilinear(spec, x, x, j, sy)
        if density:
            s_x = PauliSumOperator.from_terms(n, density)
            raw += [(-spec.coupling_sq / (2 * a) * c, s) for c, s in (s_x * s_x).terms]
    return PauliSumOperator.from_terms(n, raw).hermitized()


def free_quadratic_form(spec: ModelSpec) -> np.ndarray:
    """One-body matrix h of the g0^2 = 0 theory: H_free = sum_ij h[i,j] c+_i c_j.

    Indices follow `ModelSpec.mode_index`.  The many-body free Hamiltonian is
    recovered by filling the negative-energy eigenmodes of h.
    """
    a = spec.spacing
    sy = np.array([[0.0, -1j], [1j, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    onsite = (spec.bare_mass + spec.wilson_r / a) * sy
    fwd = (1j / (2 * a)) * sz + (-spec.wilson_r / (2 * a)) * sy

    dim = spec.n_qubits
    h = np.zeros((dim, dim), dtype=complex)
    for x in range(spec.n_sites):
        for j in range(spec.flavors):
            rows = [spec.mode_index(x, j, c) for c in (0, 1)]
            h[np.ix_(rows, rows)] += onsite
            y = _neighbor(spec, x, +1)
            if y is not None:
                cols = [spec.mode_index(y, j, c) for c in (0, 1)]
                h[np.ix_(rows, cols)] += fwd
                h[np.ix_(cols, rows)] += fwd.conj().T
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
