"""Fits by variable projection: correlation length and finite-size energy models.

Each model is linear in all but at most one parameter (Golub and Pereyra,
SIAM J. Numer. Anal. 10, 413 (1973)).  The linear coefficients are solved
by least squares inside the residual, and one deterministic damped
Gauss-Newton engine minimises over the remaining parameter -- chi for
b K0(dx / chi), C3 for the Casimir model -- from a fixed, documented start,
so identical inputs reproduce identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .bessel import bessel_k


class FitConvergenceError(RuntimeError):
    """The Gauss-Newton iteration did not meet its step tolerance."""


_MAX_ITER = 200
_STEP_TOL = 1e-12


def damped_gauss_newton(
    residual: Callable[[float], np.ndarray],
    theta0: float,
    feasible: Callable[[float], bool],
) -> tuple[float, float]:
    """Minimize ||residual(theta)|| over one scalar theta; returns (theta, residual 2-norm).

    The slope j is a forward difference and the step -(j.r)/(j.j).  A step
    that leaves the feasible region or fails to lower the cost is halved;
    once it falls below _STEP_TOL relative to |theta| the iteration stops
    there.  Raises FitConvergenceError after _MAX_ITER iterations.
    """
    theta = float(theta0)
    r = residual(theta)
    cost = float(r @ r)
    for _ in range(_MAX_ITER):
        h = 1e-7 * max(abs(theta), 1e-3)
        j = (residual(theta + h) - r) / h
        jj = float(j @ j)
        step = -float(j @ r) / jj if jj > 0 else 0.0
        while abs(step) > _STEP_TOL * (1.0 + abs(theta)):
            trial = theta + step
            if feasible(trial):
                r_trial = residual(trial)
                cost_trial = float(r_trial @ r_trial)
                if cost_trial < cost:
                    theta, r, cost = trial, r_trial, cost_trial
                    break
            step *= 0.5
        else:
            return theta, math.sqrt(cost)
    raise FitConvergenceError(f"no convergence after {_MAX_ITER} Gauss-Newton iterations")


# ---------------------------------------------------------------------------
# Correlation-length fit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorrelationFit:
    """Best-fit b * K0(dx / chi) over a separation window.

    `residual_norm` is the unweighted relative misfit ||model - y|| / ||y||
    over the window.
    """

    amplitude_b: float
    corr_length_chi: float
    fit_window: tuple[float, float]
    residual_norm: float

    def __post_init__(self) -> None:
        if self.corr_length_chi <= 0:
            raise ValueError("corr_length_chi must be positive")

    @property
    def half_gap(self) -> float:
        return 0.5 / self.corr_length_chi


def default_fit_window(separations: Sequence[float]) -> tuple[float, float]:
    """[3a, L/4] with a the first separation and L twice the largest one."""
    a = float(separations[0])
    length = 2.0 * float(separations[-1])
    return (3.0 * a, length / 4.0)


def window_mask(separations: Sequence[float], window: tuple[float, float] | None = None) -> np.ndarray:
    """Separations inside `window` (default_fit_window when None), at least four of them.

    Raises ValueError when the window leaves the data range or holds fewer
    than four points.
    """
    seps = np.asarray(separations, dtype=float)
    lo, hi = default_fit_window(seps) if window is None else window
    if lo < seps[0] - 1e-12 or hi > seps[-1] + 1e-12:
        raise ValueError(f"window {(lo, hi)} extends beyond the data range")
    mask = (seps >= lo - 1e-12) & (seps <= hi + 1e-12)
    if int(mask.sum()) < 4:
        raise ValueError(f"window {(lo, hi)} contains {int(mask.sum())} points, need at least 4")
    return mask


def fit_correlation_length(series, window: tuple[float, float] | None = None) -> CorrelationFit:
    """Weighted least squares of b * K0(dx / chi) on the windowed series.

    b enters linearly, so for each chi it is solved in closed form,
    b = <wK, wy> / <wK, wK>, and Gauss-Newton runs over chi alone from the
    fixed start chi0 = L / 10 (a tenth of the chain length).  Points with
    zero error bars get unit weight.
    """
    seps = np.asarray(series.separations, dtype=float)
    vals = np.asarray(series.values, dtype=float)
    errs = np.asarray(series.error_bars, dtype=float)
    lo, hi = default_fit_window(seps) if window is None else window
    mask = window_mask(seps, (lo, hi))
    x, y, e = seps[mask], vals[mask], errs[mask]
    weights = np.where(e > 0, 1.0 / np.where(e > 0, e, 1.0), 1.0)
    wy = weights * y

    def solve_linear(chi: float) -> tuple[float, np.ndarray]:
        kx = bessel_k(0, x / chi)
        wk = weights * kx
        b = float(wk @ wy) / float(wk @ wk)
        return b, b * kx - y

    chi, _ = damped_gauss_newton(
        lambda c: weights * solve_linear(c)[1], 2.0 * seps[-1] / 10.0, feasible=lambda c: c > 0
    )
    b, misfit = solve_linear(chi)
    rel = float(np.linalg.norm(misfit) / np.linalg.norm(y))
    return CorrelationFit(
        amplitude_b=b,
        corr_length_chi=chi,
        fit_window=(float(lo), float(hi)),
        residual_norm=rel,
    )


# ---------------------------------------------------------------------------
# Finite-size energy models
# ---------------------------------------------------------------------------


class EnergyModel(str, Enum):
    LINEAR = "linear"
    INVERSE_SERIES = "inverse-series"
    CASIMIR = "casimir"


CASIMIR_HARMONICS = 10
_HARMONICS = np.arange(1.0, CASIMIR_HARMONICS + 1)


def _casimir_sum(c3: float, sizes: np.ndarray | float) -> np.ndarray:
    """sum_h h^-2 K2(c3 h L) over h = 1..CASIMIR_HARMONICS, for each size L."""
    return bessel_k(2, c3 * np.asarray(sizes, dtype=float)[..., None] * _HARMONICS) @ _HARMONICS**-2


def _design(model: EnergyModel, sizes, c3: float | None = None) -> np.ndarray:
    """The model's linear columns at `sizes`, one row per size: E = design @ (C0, C1, ...).

    The Casimir column is sum_h h^-2 K2(c3 h L); the other models ignore c3.
    """
    sizes = np.asarray(sizes, dtype=float)
    columns = [np.ones_like(sizes), sizes]
    if model is EnergyModel.INVERSE_SERIES:
        columns += [1.0 / sizes, sizes**-2.0, sizes**-3.0]
    elif model is EnergyModel.CASIMIR:
        columns.append(_casimir_sum(c3, sizes))
    return np.column_stack(columns)


def _fit_coefficients(model: EnergyModel, sizes: np.ndarray, energies: np.ndarray) -> tuple[float, ...]:
    def solve_linear(c3: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        basis = _design(model, sizes, c3)
        lin, *_ = np.linalg.lstsq(basis, energies, rcond=None)
        return lin, basis @ lin - energies

    if model is not EnergyModel.CASIMIR:
        return tuple(float(c) for c in solve_linear()[0])
    # Only C3 enters nonlinearly: C0..C2 are solved for each C3 (variable
    # projection), so Gauss-Newton refines C3 alone from the best point of a
    # fixed logarithmic grid over the median size (by index, as np.median imports numpy.ma).
    grid = np.geomspace(0.05, 50.0, 60) / float((sizes[(len(sizes) - 1) // 2] + sizes[len(sizes) // 2]) / 2)
    costs = [float(r @ r) for _, r in map(solve_linear, grid)]
    c3, _ = damped_gauss_newton(
        lambda c: solve_linear(c)[1], float(grid[np.argmin(costs)]), feasible=lambda c: c > 0
    )
    return (*(float(c) for c in solve_linear(c3)[0]), c3)


def _evaluate(model: EnergyModel, coeffs: Sequence[float], size: float) -> float:
    lin, c3 = (coeffs[:3], coeffs[3]) if model is EnergyModel.CASIMIR else (coeffs, None)
    return float((_design(model, [size], c3) @ lin)[0])


@dataclass(frozen=True)
class EnergyFit:
    """Finite-size energy model with strictly causal predictions.

    `predictions[k]` is the model fitted to sizes < sizes[k], evaluated at
    sizes[k], and NaN where fewer prior points exist than the model has
    coefficients.  `coefficients` come from the fit to the full data set.
    """

    model: EnergyModel
    coefficients: tuple[float, ...]
    sizes: tuple[float, ...]
    energies: tuple[float, ...]
    predictions: tuple[float, ...]
    half_gap: float

    @property
    def prediction_errors(self) -> tuple[float, ...]:
        """|predictions[k] - energies[k]|, NaN where no causal prediction exists."""
        return tuple(abs(p - e) for p, e in zip(self.predictions, self.energies))

    def predict(self, size: float) -> float:
        return _evaluate(self.model, self.coefficients, size)

    def threshold_size(self, bound: float | None = None) -> float | None:
        """Smallest size from which every later causal error stays below `bound`."""
        bound = self.half_gap if bound is None else bound
        ok_from = None
        for size, err in zip(self.sizes, self.prediction_errors):
            if math.isnan(err):
                continue
            if err < bound:
                if ok_from is None:
                    ok_from = size
            else:
                ok_from = None
        return ok_from


def fit_energy_extrapolation(
    energies: Sequence[tuple[float, float]],
    model: EnergyModel | str,
    gap: float,
) -> EnergyFit:
    """Fit the chosen finite-size model and record causal predictions.

    For each recorded size the model is refit to all strictly smaller sizes
    and evaluated there; the global coefficients come from the full data.
    """
    model = EnergyModel(model)
    if gap <= 0:
        raise ValueError("gap must be positive")
    pairs = sorted((float(n), float(e)) for n, e in energies)
    if len({n for n, _e in pairs}) != len(pairs):   # a set: np.unique of floats imports numpy.ma
        raise ValueError("duplicate sizes in energy data")
    sizes = np.array([p[0] for p in pairs])
    vals = np.array([p[1] for p in pairs])
    need = _design(model, sizes[:1], 1.0).shape[1] + (model is EnergyModel.CASIMIR)   # C0.. and C3
    if len(sizes) < need + 1:
        raise ValueError(f"{model.value} model needs at least {need + 1} points, got {len(sizes)}")

    predictions = [
        _evaluate(model, _fit_coefficients(model, sizes[:k], vals[:k]), sizes[k]) if k >= need else math.nan
        for k in range(len(sizes))
    ]

    global_coeffs = _fit_coefficients(model, sizes, vals)
    return EnergyFit(
        model=model,
        coefficients=global_coeffs,
        sizes=tuple(float(s) for s in sizes),
        energies=tuple(float(v) for v in vals),
        predictions=tuple(float(p) for p in predictions),
        half_gap=gap / 2.0,
    )
