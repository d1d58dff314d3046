"""Padded inner products between ground states of consecutive system sizes.

The pad is an unentangled per-site state appended at the growing (right)
edge so that consecutive Hilbert spaces become comparable.  Overlaps are
reported as absolute values, which makes them insensitive to eigensolver
phase conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dmrg import dmrg_ground_state
from .exact import ConvergenceError, ground_state_dense
from .model import ModelSpec, build_hamiltonian
from .mps import MatrixProductState, append_site, compile_mpo, mps_overlap


class PadKind(str, Enum):
    UNIFORM = "uniform"
    SYMMETRY_ADAPTED = "symmetry-adapted"
    CUSTOM = "custom"


class Engine(str, Enum):
    DENSE = "dense"
    DMRG = "dmrg"


def pad_state(kind: PadKind | str, flavors: int = 1, custom: np.ndarray | None = None) -> np.ndarray:
    """Unit-norm pad over one lattice site (two qubits per flavor).

    UNIFORM is the equal superposition of the 4^flavors basis states;
    SYMMETRY_ADAPTED puts (|01> + |10>)/sqrt(2) on each flavor pair, which
    matches the single-particle-per-site selection rule of the model and
    gains a factor sqrt(2) per flavor over UNIFORM.
    """
    kind = PadKind(kind)
    if flavors < 1:
        raise ValueError("flavors must be at least 1")
    if kind is PadKind.UNIFORM:
        dim = 4**flavors
        return np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    if kind is PadKind.SYMMETRY_ADAPTED:
        single = np.zeros(4, dtype=complex)
        single[1] = single[2] = 1.0 / math.sqrt(2.0)
        out = single
        for _ in range(flavors - 1):
            out = np.kron(out, single)
        return out
    if custom is None:
        raise ValueError("custom pad kind requires an explicit vector")
    vec = np.asarray(custom, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(vec) - 1.0) > 1e-10:
        raise ValueError("custom pad vector must be normalized")
    return vec


@dataclass(frozen=True)
class OverlapSeries:
    """|<g_j (x) pad | g_{j+1}>| for consecutive sizes, with plateau estimate.

    `eta_estimate` is the mean over the final quarter of the series (at
    least one point) and `eta_spread` its max-min spread.  `complete` is
    False when a solver failure truncated the series.
    """

    sizes: tuple[int, ...]
    overlaps: tuple[float, ...]
    pad_label: PadKind
    eta_estimate: float
    eta_spread: float
    complete: bool = True


def plateau_estimate(overlaps: list[float]) -> tuple[float, float]:
    """Mean and max-min spread over the final ceil(25%) of the series."""
    if not overlaps:
        return float("nan"), float("nan")
    tail = overlaps[len(overlaps) - max(1, math.ceil(len(overlaps) / 4)):]
    return float(np.mean(tail)), float(max(tail) - min(tail))


def consecutive_overlaps(
    spec_family: ModelSpec,
    sizes: list[int] | range,
    pad: np.ndarray,
    engine: Engine | str = Engine.DENSE,
    epsilon_goal: float = 1e-10,
    max_bond: int = 64,
    seed: int = 3,
    dense_cap: int = 14,
    pad_label: PadKind = PadKind.CUSTOM,
) -> OverlapSeries:
    """Solve ground states at each size and form padded consecutive overlaps.

    Sizes must increase by one.  On a solver failure the partial series is
    returned with complete=False.
    """
    engine = Engine(engine)
    sizes = list(sizes)
    if len(sizes) < 2:
        raise ValueError("need at least two sizes")
    if any(b - a != 1 for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must increase by exactly 1")

    states: dict[int, MatrixProductState | np.ndarray] = {}
    complete = True
    solved: list[int] = []
    for n in sizes:
        spec = spec_family.with_sites(n)
        try:
            op = build_hamiltonian(spec)
            if engine is Engine.DENSE:
                states[n] = ground_state_dense(op, dense_cap=dense_cap).ground_vector
            else:
                mpo = compile_mpo(op)
                state, report = dmrg_ground_state(
                    mpo, epsilon_goal=epsilon_goal, max_bond=max_bond, seed=seed
                )
                if not report.converged:
                    raise ConvergenceError(f"DMRG did not converge at size {n}")
                states[n] = state
        except (ConvergenceError, ValueError):
            complete = False
            break
        solved.append(n)

    pair_sizes: list[int] = []
    overlaps: list[float] = []
    for a, b in zip(solved, solved[1:]):
        if engine is Engine.DENSE:
            padded = np.kron(states[a], pad)
            value = abs(np.vdot(padded, states[b]))
        else:
            value = abs(mps_overlap(append_site(states[a], pad), states[b]))
        pair_sizes.append(a)
        overlaps.append(float(value))
    eta, spread = plateau_estimate(overlaps)
    return OverlapSeries(
        sizes=tuple(pair_sizes),
        overlaps=tuple(overlaps),
        pad_label=pad_label,
        eta_estimate=eta,
        eta_spread=spread,
        complete=complete,
    )
