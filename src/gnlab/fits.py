"""Nonlinear fits: correlation length and finite-size energy models.

All fits use one deterministic damped Gauss-Newton engine with fixed,
documented initialization, so identical inputs reproduce identical outputs.
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


def _finite_difference_jacobian(
    residual: Callable[[np.ndarray], np.ndarray],
    theta: np.ndarray,
    r0: np.ndarray,
) -> np.ndarray:
    jac = np.empty((len(r0), len(theta)))
    for i in range(len(theta)):
        h = 1e-7 * max(abs(theta[i]), 1e-3)
        probe = theta.copy()
        probe[i] += h
        jac[:, i] = (residual(probe) - r0) / h
    return jac


def damped_gauss_newton(
    residual: Callable[[np.ndarray], np.ndarray],
    theta0: Sequence[float],
    feasible: Callable[[np.ndarray], bool] | None = None,
    max_iter: int = 200,
    step_tol: float = 1e-12,
) -> tuple[np.ndarray, float]:
    """Minimize ||residual(theta)||; returns (theta, residual 2-norm).

    Steps that leave the feasible region or fail to reduce the cost are
    halved; the iteration stops once the accepted step is below `step_tol`
    relative to |theta|.  Raises FitConvergenceError after `max_iter`
    iterations without meeting the tolerance.
    """
    theta = np.asarray(theta0, dtype=float)
    r = residual(theta)
    cost = float(r @ r)
    for _ in range(max_iter):
        jac = _finite_difference_jacobian(residual, theta, r)
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        lam = 1.0
        accepted = False
        while lam > 1e-14:
            trial = theta + lam * step
            if feasible is not None and not feasible(trial):
                lam *= 0.5
                continue
            r_trial = residual(trial)
            cost_trial = float(r_trial @ r_trial)
            if cost_trial < cost:
                theta, r, cost = trial, r_trial, cost_trial
                accepted = True
                break
            lam *= 0.5
        if not accepted or np.linalg.norm(lam * step) <= step_tol * (1.0 + np.linalg.norm(theta)):
            return theta, math.sqrt(cost)
    raise FitConvergenceError(f"no convergence after {max_iter} Gauss-Newton iterations")


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

    Initialization is fixed: chi0 = L / 10 (a tenth of the chain length)
    and b0 matching the first windowed point.  Points with zero error bars
    get unit weight.
    """
    seps = np.asarray(series.separations, dtype=float)
    vals = np.asarray(series.values, dtype=float)
    errs = np.asarray(series.error_bars, dtype=float)
    lo, hi = default_fit_window(seps) if window is None else window
    mask = window_mask(seps, (lo, hi))
    x, y, e = seps[mask], vals[mask], errs[mask]
    weights = np.where(e > 0, 1.0 / np.where(e > 0, e, 1.0), 1.0)

    chi0 = 2.0 * seps[-1] / 10.0
    b0 = y[0] / bessel_k(0, x[0] / chi0)

    def residual(theta: np.ndarray) -> np.ndarray:
        b, chi = theta
        return weights * (b * bessel_k(0, x / chi) - y)

    theta, _ = damped_gauss_newton(
        residual,
        (b0, chi0),
        feasible=lambda th: th[1] > 0,
    )
    b, chi = float(theta[0]), float(theta[1])
    rel = float(np.linalg.norm(b * bessel_k(0, x / chi) - y) / np.linalg.norm(y))
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


_N_COEFFS = {
    EnergyModel.LINEAR: 2,
    EnergyModel.INVERSE_SERIES: 5,
    EnergyModel.CASIMIR: 4,
}

CASIMIR_HARMONICS = 10
_HARMONICS = np.arange(1.0, CASIMIR_HARMONICS + 1)


def _casimir_sum(c3: float, sizes: np.ndarray | float) -> np.ndarray:
    """sum_h h^-2 K2(c3 h L) over h = 1..CASIMIR_HARMONICS, for each size L."""
    return bessel_k(2, c3 * np.asarray(sizes, dtype=float)[..., None] * _HARMONICS) @ _HARMONICS**-2


def _linear_design(model: EnergyModel, sizes: np.ndarray) -> np.ndarray:
    if model is EnergyModel.LINEAR:
        return np.column_stack([np.ones_like(sizes), sizes])
    if model is EnergyModel.INVERSE_SERIES:
        return np.column_stack(
            [np.ones_like(sizes), sizes, 1.0 / sizes, sizes**-2.0, sizes**-3.0]
        )
    raise ValueError(model)


def _fit_coefficients(model: EnergyModel, sizes: np.ndarray, energies: np.ndarray) -> tuple[float, ...]:
    if model in (EnergyModel.LINEAR, EnergyModel.INVERSE_SERIES):
        coeffs, *_ = np.linalg.lstsq(_linear_design(model, sizes), energies, rcond=None)
        return tuple(float(c) for c in coeffs)
    # Casimir: C0 + C1 L + C2 sum_h h^-2 K2(C3 h L); C2 linear for fixed C3,
    # so scan C3 on a fixed logarithmic grid, then refine all four together.
    median = float(np.median(sizes))
    grid = np.geomspace(0.05, 50.0, 60) / median

    def solve_linear(c3: float) -> tuple[np.ndarray, float]:
        basis = np.column_stack([np.ones_like(sizes), sizes, _casimir_sum(c3, sizes)])
        lin, *_ = np.linalg.lstsq(basis, energies, rcond=None)
        resid = basis @ lin - energies
        return lin, float(resid @ resid)

    best_c3, best_cost, best_lin = None, np.inf, None
    for c3 in grid:
        lin, cost = solve_linear(float(c3))
        if cost < best_cost:
            best_c3, best_cost, best_lin = float(c3), cost, lin

    def residual(theta: np.ndarray) -> np.ndarray:
        c0, c1, c2, c3 = theta
        return c0 + c1 * sizes + c2 * _casimir_sum(c3, sizes) - energies

    theta, _ = damped_gauss_newton(
        residual,
        (best_lin[0], best_lin[1], best_lin[2], best_c3),
        feasible=lambda th: th[3] > 0,
    )
    if theta[3] <= 0:
        raise ValueError("Casimir fit diverged: C3 <= 0")
    return tuple(float(c) for c in theta)


def _evaluate(model: EnergyModel, coeffs: Sequence[float], size: float) -> float:
    if model is EnergyModel.LINEAR:
        c0, c1 = coeffs
        return c0 + c1 * size
    if model is EnergyModel.INVERSE_SERIES:
        c0, c1, c2, c3, c4 = coeffs
        return c0 + c1 * size + c2 / size + c3 / size**2 + c4 / size**3
    c0, c1, c2, c3 = coeffs
    return c0 + c1 * size + c2 * float(_casimir_sum(c3, size))


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
    sizes = np.array([p[0] for p in pairs])
    if len(np.unique(sizes)) != len(sizes):
        raise ValueError("duplicate sizes in energy data")
    vals = np.array([p[1] for p in pairs])
    need = _N_COEFFS[model]
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
