"""Padded inner products between ground states of consecutive system sizes.

The pad is an unentangled per-site state appended at the growing (right)
edge so that consecutive Hilbert spaces become comparable.  Every ground
state arrives as an MPS, however it was solved, and each overlap is one
exact MPS contraction.  Overlaps are reported as absolute values, which
makes them insensitive to eigensolver phase conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dmrg import dmrg_ground_state  # noqa: F401  (bench/tests/test_bench.py checks tracing rebinds it here)
from .mps import MatrixProductState, append_site, mps_overlap


class PadKind(str, Enum):
    UNIFORM = "uniform"
    SYMMETRY_ADAPTED = "symmetry-adapted"


def pad_state(kind: PadKind | str, flavors: int = 1) -> np.ndarray:
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
    single = np.zeros(4, dtype=complex)
    single[1] = single[2] = 1.0 / math.sqrt(2.0)
    out = single
    for _ in range(flavors - 1):
        out = np.kron(out, single)
    return out


@dataclass(frozen=True)
class OverlapSeries:
    """|<g_j (x) pad | g_{j+1}>| for consecutive sizes, with plateau estimate.

    `eta_estimate` is the mean over the final quarter of the series (at
    least one point) and `eta_spread` its max-min spread.
    """

    sizes: tuple[int, ...]
    overlaps: tuple[float, ...]
    eta_estimate: float
    eta_spread: float


def plateau_estimate(overlaps: list[float]) -> tuple[float, float]:
    """Mean and max-min spread over the final ceil(25%) of the series."""
    if not overlaps:
        return float("nan"), float("nan")
    tail = overlaps[len(overlaps) - max(1, math.ceil(len(overlaps) / 4)):]
    return float(np.mean(tail)), float(max(tail) - min(tail))


def consecutive_overlaps(states: dict[int, MatrixProductState], pad: np.ndarray) -> OverlapSeries:
    """|<g_n (x) pad | g_{n+1}>| for each pair of consecutive sizes.

    `states` maps each size to its solved ground state as an MPS (a dense
    vector converts exactly with `MatrixProductState.from_dense`); the sizes
    must increase by one.
    """
    sizes = sorted(states)
    if len(sizes) < 2:
        raise ValueError("need at least two sizes")
    if any(b - a != 1 for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must increase by exactly 1")
    overlaps = [abs(mps_overlap(append_site(states[a], pad), states[b])) for a, b in zip(sizes, sizes[1:])]
    eta, spread = plateau_estimate(overlaps)
    return OverlapSeries(
        sizes=tuple(sizes[:-1]),
        overlaps=tuple(overlaps),
        eta_estimate=eta,
        eta_spread=spread,
    )
