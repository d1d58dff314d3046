"""Two-site DMRG ground-state search with a variance-based stopping rule.

A run starts from a seeded random bond-2 state or from a given state, such
as the previous size's vacuum with a pad appended; every sweep runs at the
bond cap and is followed by the convergence measure

    epsilon = (|<H^2>| - |<H>|^2) / |<H>|^2

The run is converged once epsilon drops below the configured goal; it ends
unconverged once a sweep no longer lowers the energy, or at `max_sweeps`.  The
variance <H^2> - <H>^2 is contracted exactly as <(H - E)^2> through the
squared MPO of H - E, in one transfer sweep with no truncation (Hubig,
McCulloch and Schollwoeck, PRB 97, 045125 (2018)); its parallel channels
are merged first, which cuts its bond from 16 to 8 for the Gross-Neveu
chain and drops nothing.

Everything runs in the dtype numpy promotes the MPO and the start to: a
float64 MPO, such as that of the spinor-frame Hamiltonian
(`build_hamiltonian(spec, spinor_frame=True)`), with no start or a real one
sweeps in real arithmetic from a real random start, about half the time of
the complex sweep; a complex MPO runs in complex128 exactly as it always has.
"""

from __future__ import annotations

import numpy as np

from .exact import lanczos_lowest
from .mps import (
    DmrgReport,
    MatrixProductOperator,
    MatrixProductState,
    _deparallelize,
    expectation_value,
    transfer,
    truncated_svd,
)


DISCARDED_WEIGHT = 1e-12   # sweep truncation, relative to the squared norm
KRYLOV_DIM = 16            # local Lanczos basis size


class DegenerateEnergyError(ValueError):
    """|<H>| is too small for the relative variance measure."""


def epsilon_measure(state: MatrixProductState, mpo: MatrixProductOperator) -> float:
    """Relative energy variance of the normalised `state` with respect to `mpo`.

    Returns <(H - E)^2> / E^2 with E = <H>, which equals
    (|<H^2>| - |<H>|^2) / |<H>|^2, with nothing truncated.  The MPO of H - E
    is the direct sum of `mpo` and -E times the identity, with its parallel
    channels merged (bond D + 1 -> D for a compiled Hamiltonian); its square,
    built site by site with bond D^2 and merged the same way (16 -> 8 at
    D = 4), is contracted with the state in one transfer sweep.
    Raises DegenerateEnergyError when |<H>| falls below 1e-12; shift the
    operator by a constant in that case.
    """
    energy = expectation_value(state, mpo).real
    if abs(energy) < 1e-12:
        raise DegenerateEnergyError(
            "|<H>| < 1e-12: shift the operator by a constant before measuring epsilon"
        )
    shifted = []
    for w in mpo.tensors:
        dl, d, _, dr = w.shape
        block = np.zeros((dl + 1, d, d, dr + 1), dtype=w.dtype)   # H (+) 1
        block[:dl, :, :, :dr] = w
        block[dl, :, :, dr] = np.eye(d)
        shifted.append(block)
    shifted[0] = np.tensordot([1.0, -energy], shifted[0], axes=(0, 0))[None]   # H - E 1
    shifted[-1] = np.tensordot(shifted[-1], [1.0, 1.0], axes=(3, 0))[..., None]
    _deparallelize(shifted)
    squared = [np.einsum("asub,cutd->acstbd", w, w).reshape(w.shape[0] ** 2, *w.shape[1:3], -1)
               for w in shifted]
    _deparallelize(squared)
    eps = expectation_value(state, MatrixProductOperator(squared)).real / energy**2
    if eps < -1e-9:
        raise RuntimeError(f"variance came out significantly negative: {eps}")
    return max(eps, np.finfo(float).eps)


# -- environments -------------------------------------------------------------


def _grow_right(env: np.ndarray, a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Right environment (lbra, wl, lket): the transfer on mirrored tensors."""
    a = a.transpose(2, 1, 0)
    return transfer(env, a, w.transpose(3, 1, 2, 0), a)


def _two_site_matvec(lenv, w1, w2, renv):
    """H_eff on a (bra, p, q, rbra) vector: four matmuls on reshaped views, each MPO tensor permuted once."""
    bra, wl, ket = lenv.shape
    (_, p, pi, wm), (_, q, qi, wr) = w1.shape, w2.shape
    left = lenv.reshape(bra * wl, ket)
    m1 = w1.transpose(1, 3, 0, 2).reshape(p * wm, wl * pi)    # (p_out w_right, w_left p_in)
    m2 = w2.transpose(1, 3, 0, 2).reshape(q * wr, wm * qi)
    right = renv.reshape(len(renv), -1).T                    # (wr rk, rbra), a transposed view

    def matvec(vec: np.ndarray) -> np.ndarray:
        x = left @ vec.reshape(ket, -1)                      # (bra, wl, p_in, q_in, rk)
        x = m1 @ x.reshape(bra, wl * pi, -1)                 # (bra, p, wm, q_in, rk)
        x = m2 @ x.reshape(bra * p, wm * qi, -1)             # (bra, p, q, wr, rk)
        return (x.reshape(-1, len(right)) @ right).reshape(-1)   # (bra, p, q, rbra)

    return matvec


def dmrg_ground_state(
    mpo: MatrixProductOperator,
    epsilon_goal: float,
    max_bond: int,
    seed: int,
    max_sweeps: int = 40,
    start: MatrixProductState | None = None,
) -> tuple[MatrixProductState, DmrgReport]:
    """Two-site sweeps from `start`, or else a seeded random bond-2 state, until epsilon converges.

    Every sweep runs at `max_bond`, and epsilon and the stop checks follow
    each one: epsilon < `epsilon_goal` ends the run converged, and a sweep
    that lowers the energy by no more than 1e-13 (1 + |E|), or raises it, as
    a bond-capped sweep may, ends it unconverged.  A given `start` is copied
    (never mutated) and must match the MPO's physical dimensions.  The sweep
    runs in the dtype of the MPO and `start` together: float64 for a real
    MPO and a real or no start.  Deterministic given `seed` and `start`.
    """
    if epsilon_goal <= 0:
        raise ValueError("epsilon_goal must be positive")
    if max_bond < 2:
        raise ValueError("max_bond must be at least 2")
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be at least 1")
    n = mpo.n_sites
    if n < 2:
        raise ValueError("two-site sweeps need at least two sites")
    dtype = np.result_type(*mpo.tensors, *(start.tensors if start is not None else ()))
    if start is None:
        psi = MatrixProductState.random(mpo.phys_dims, bond_dim=2, seed=seed, dtype=dtype)
    else:
        if start.phys_dims != mpo.phys_dims:
            raise ValueError(f"start state dims {start.phys_dims} do not match the MPO's {mpo.phys_dims}")
        psi = MatrixProductState([t.astype(dtype) for t in start.tensors], start.center)
    psi.canonicalize(0)
    psi.normalize()

    right_envs: list[np.ndarray | None] = [None] * (n + 1)
    right_envs[n] = np.ones((1, 1, 1), dtype=dtype)
    for k in range(n - 1, 1, -1):
        right_envs[k] = _grow_right(right_envs[k + 1], psi.tensors[k], mpo.tensors[k])
    left_envs: list[np.ndarray | None] = [None] * (n + 1)
    left_envs[0] = np.ones((1, 1, 1), dtype=dtype)

    energy = float("inf")
    eps = float("inf")
    sweeps_done = 0

    # A local eigen-residual r adds about r^2 / E^2 to epsilon; stopping at
    # r <= 1e-3 sqrt(epsilon_goal) |E| keeps that share below 1e-6 of the goal.
    local_rtol = 1e-3 * np.sqrt(epsilon_goal)

    def optimize_bond(k: int):
        (dl, d1, _), (_, d2, dr) = psi.tensors[k].shape, psi.tensors[k + 1].shape
        theta = psi.tensors[k].reshape(dl * d1, -1) @ psi.tensors[k + 1].reshape(-1, d2 * dr)
        matvec = _two_site_matvec(left_envs[k], mpo.tensors[k], mpo.tensors[k + 1], right_envs[k + 2])
        e_loc, vec = lanczos_lowest(
            matvec,
            theta.reshape(-1),
            tol=1e-12,
            rtol=local_rtol,
            max_restarts=4,
            krylov_dim=KRYLOV_DIM,
            strict=False,
        )
        u, s, vh = truncated_svd(vec.reshape(dl * d1, d2 * dr), max_bond, DISCARDED_WEIGHT)
        s = s / np.linalg.norm(s)
        return e_loc, u, s, vh, (dl, d1, d2, dr)

    for sweep in range(1, max_sweeps + 1):
        e_last = energy
        # left-to-right
        for k in range(n - 1):
            e_loc, u, s, vh, (dl, d1, d2, dr) = optimize_bond(k)
            chi = len(s)
            psi.tensors[k] = u.reshape(dl, d1, chi)
            psi.tensors[k + 1] = (s[:, None] * vh).reshape(chi, d2, dr)
            psi.center = k + 1
            left_envs[k + 1] = transfer(left_envs[k], psi.tensors[k], mpo.tensors[k], psi.tensors[k])
        # right-to-left
        for k in range(n - 2, -1, -1):
            e_loc, u, s, vh, (dl, d1, d2, dr) = optimize_bond(k)
            chi = len(s)
            psi.tensors[k + 1] = vh.reshape(chi, d2, dr)
            psi.tensors[k] = (u * s[None, :]).reshape(dl, d1, chi)
            psi.center = k
            right_envs[k + 1] = _grow_right(right_envs[k + 2], psi.tensors[k + 1], mpo.tensors[k + 1])
        energy = float(e_loc)
        sweeps_done = sweep
        psi.normalize()
        eps = epsilon_measure(psi, mpo)
        if eps < epsilon_goal or energy >= e_last - 1e-13 * (1.0 + abs(energy)):
            break

    report = DmrgReport(
        energy=energy,
        epsilon=eps,
        sweeps=sweeps_done,
        max_bond=max(psi.bond_dims),
        converged=eps < epsilon_goal,
    )
    return psi, report
