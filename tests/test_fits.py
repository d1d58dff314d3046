import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gnlab import fits
from gnlab.bessel import bessel_k
from gnlab.fits import (
    CASIMIR_HARMONICS,
    CorrelationFit,
    EnergyModel,
    _casimir_sum,
    _design,
    default_fit_window,
    fit_correlation_length,
    fit_energy_extrapolation,
    window_mask,
)
from gnlab.observables import CorrelatorSeries

from oracles import continuum_free_correlator


def synthetic_series(b, chi, n_sites=50, spacing=0.02, noise=0.0, rng=None):
    seps = np.arange(1, n_sites // 2 + 1) * spacing
    vals = b * np.array([bessel_k(0, x / chi) for x in seps])
    if noise:
        vals = vals + noise * rng.standard_normal(len(vals))
    return CorrelatorSeries(
        separations=tuple(seps),
        values=tuple(vals),
        error_bars=tuple([0.0] * len(seps)),
    )


def noisy_casimir_ladder():
    """N = 2..13 with E = 0.6 - 7.78 N - 0.03 / N^2 plus seeded 1e-6 noise."""
    sizes = np.arange(2.0, 14.0)
    noise = np.random.default_rng(0).normal(0.0, 1e-6, len(sizes))
    return sizes, 0.6 - 7.78 * sizes - 0.03 / sizes**2 + noise


#: Seven DMRG-like energies whose four-point causal refit is exactly determined.
ROUNDING_FLOOR_DATA = [
    (2, -14.952065824101567), (3, -22.730155642367034),
    (4, -30.512273747565157), (5, -38.295227853202945),
    (6, -46.078381339465814), (7, -53.86158637198549),
    (8, -61.64480544650826),
]


def within_ulps(got, want, ulps):
    return all(abs(g - w) <= ulps * np.spacing(abs(w)) for g, w in zip(got, want, strict=True))


class TestCorrelationFit:
    def test_noiseless_roundtrip(self):
        fit = fit_correlation_length(synthetic_series(0.5, 0.14))
        assert fit.amplitude_b == pytest.approx(0.5, abs=1e-6)
        assert fit.corr_length_chi == pytest.approx(0.14, abs=1e-6)
        assert fit.residual_norm < 1e-8

    def test_free_theory_reference_recovers_inverse_mass(self):
        for m0 in (0.5, 1.0, 2.0):
            seps = np.arange(1, 26) * (4.0 / m0 / 25)
            vals = [continuum_free_correlator(m0, x) for x in seps]
            series = CorrelatorSeries(
                separations=tuple(seps), values=tuple(vals),
                error_bars=tuple([0.0] * len(seps)),
            )
            fit = fit_correlation_length(series)
            assert abs(fit.corr_length_chi - 1.0 / m0) / (1.0 / m0) < 0.01
            assert fit.amplitude_b == pytest.approx(m0 / (2 * np.pi), rel=1e-6)

    def test_chi_decreases_with_mass(self):
        chis = []
        for m0 in (0.5, 1.0, 2.0):
            seps = np.arange(1, 26) * 0.16
            vals = [continuum_free_correlator(m0, x) for x in seps]
            series = CorrelatorSeries(
                separations=tuple(seps), values=tuple(vals),
                error_bars=tuple([0.0] * len(seps)),
            )
            chis.append(fit_correlation_length(series).corr_length_chi)
        assert chis[0] > chis[1] > chis[2]

    def test_window_validation(self):
        series = synthetic_series(0.5, 0.14)
        with pytest.raises(ValueError, match="points"):
            fit_correlation_length(series, window=(0.02, 0.06))
        with pytest.raises(ValueError, match="beyond"):
            fit_correlation_length(series, window=(0.0, 100.0))

    def test_default_window_and_mask(self):
        seps = np.arange(1, 13) / 24.0
        window = default_fit_window(seps)
        assert all(type(x) is float for x in window)
        assert window == pytest.approx((0.125, 0.25))
        assert int(window_mask(seps).sum()) == 4
        with pytest.raises(ValueError, match="contains 1 points, need at least 4"):
            window_mask(seps[:6])

    def test_weighting_uses_error_bars(self):
        series = synthetic_series(0.5, 0.14)
        noisy = CorrelatorSeries(
            separations=series.separations,
            values=series.values,
            error_bars=tuple([0.01] * len(series.separations)),
        )
        fit = fit_correlation_length(noisy)
        assert fit.corr_length_chi == pytest.approx(0.14, abs=1e-6)

    def test_weighted_noisy_fit_pinned(self):
        """(b, chi) of the full two-parameter Gauss-Newton fit on weighted, noisy data."""
        series = synthetic_series(0.5, 0.14, noise=1e-3, rng=np.random.default_rng(0))
        weighted = CorrelatorSeries(
            separations=series.separations,
            values=series.values,
            error_bars=tuple(1e-3 * (1.0 + np.arange(len(series.separations)) / 5.0)),
        )
        fit = fit_correlation_length(weighted)
        assert fit.amplitude_b == pytest.approx(0.5010481344813117, rel=1e-8)
        assert fit.corr_length_chi == pytest.approx(0.1398056977455638, rel=1e-8)

    def test_fit_object_validation(self):
        with pytest.raises(ValueError):
            CorrelationFit(amplitude_b=1.0, corr_length_chi=-0.1, fit_window=(0, 1), residual_norm=0.0)


class TestEnergyExtrapolation:
    def test_exactly_linear_data_predicts_perfectly(self):
        data = [(n, 2.0 + 3.0 * n) for n in range(2, 12)]
        fit = fit_energy_extrapolation(data, EnergyModel.LINEAR, gap=1.0)
        defined = [e for e in fit.prediction_errors if not math.isnan(e)]
        assert max(defined) < 1e-9
        assert fit.predict(20) == pytest.approx(62.0)

    def test_casimir_roundtrip(self):
        for coeffs, top in (((1.0, 0.5, 0.1, 2.0), 13), ((-1.5, -7.8, 0.3, 0.4), 20)):
            c0, c1, c2, c3 = coeffs
            sizes = np.arange(2.0, top + 1)
            energies = c0 + c1 * sizes + c2 * _casimir_sum(c3, sizes)
            fit = fit_energy_extrapolation(list(zip(sizes, energies)), EnergyModel.CASIMIR, gap=1.0)
            assert np.allclose(fit.coefficients, coeffs, rtol=0.0, atol=1e-4), top

    def test_casimir_sum_matches_scalar_bessel_calls(self):
        sizes = np.array([2.0, 3.0, 5.0, 8.0, 13.0, 20.0])
        for c3 in (0.01, 0.4, 2.0):
            explicit = [
                sum(bessel_k(2, c3 * h * n) / h**2 for h in range(1, CASIMIR_HARMONICS + 1))
                for n in sizes
            ]
            assert np.allclose(_casimir_sum(c3, sizes), explicit, rtol=1e-13, atol=0.0)

    def test_inverse_series_roundtrip(self):
        coeffs = (1.0, 2.0, -0.5, 0.3, -0.1)
        data = [
            (n, coeffs[0] + coeffs[1] * n + coeffs[2] / n + coeffs[3] / n**2 + coeffs[4] / n**3)
            for n in range(2, 12)
        ]
        fit = fit_energy_extrapolation(data, EnergyModel.INVERSE_SERIES, gap=1.0)
        assert np.allclose(fit.coefficients, coeffs, atol=1e-6)
        pinned = (14.934402332361508, 16.941992187500002, 18.948010973936878,
                  20.952900000000007, 22.956949661908332)
        assert within_ulps(fit.predictions[5:], pinned, 2)

    def test_prediction_errors_are_causal(self):
        """Corrupting the data at the largest size leaves earlier errors alone."""
        data = [(n, 2.0 + 3.0 * n + 0.1 / n) for n in range(2, 10)]
        fit_a = fit_energy_extrapolation(data, EnergyModel.LINEAR, gap=1.0)
        corrupted = data[:-1] + [(data[-1][0], data[-1][1] + 100.0)]
        fit_b = fit_energy_extrapolation(corrupted, EnergyModel.LINEAR, gap=1.0)
        assert np.allclose(
            fit_a.prediction_errors[:-1], fit_b.prediction_errors[:-1],
            atol=0.0, rtol=0.0, equal_nan=True,
        )
        assert fit_a.prediction_errors[-1] != fit_b.prediction_errors[-1]
        pinned = (14.016666666666659, 17.011111111111106, 20.0075, 23.004999999999995,
                  26.003190476190486, 29.00183673469387)
        assert within_ulps(fit_a.predictions[2:], pinned, 2)

    def test_casimir_refit_at_rounding_floor(self):
        """Four points for four coefficients fit to the rounding floor; the
        Gauss-Newton iteration must stop there instead of taking tied steps."""
        fit = fit_energy_extrapolation(ROUNDING_FLOOR_DATA, "casimir", gap=22.0)
        defined = [e for e in fit.prediction_errors if not math.isnan(e)]
        assert len(defined) == 3
        assert all(math.isfinite(e) for e in defined)
        # the full four-parameter Gauss-Newton fit's predictions
        pinned = (-46.07839516631161, -53.861597808451634, -61.644814937450185)
        assert fit.predictions[4:] == pytest.approx(pinned, rel=1e-10, abs=0.0)

    def test_gauss_newton_work_guard(self, monkeypatch):
        """The line search stops at the step tolerance instead of halving on
        at the rounding floor: few residual evaluations over five fits."""
        evals = []
        engine = fits.damped_gauss_newton

        def counting(residual, *args, **kwargs):
            def counted(theta):
                evals.append(theta)
                return residual(theta)
            return engine(counted, *args, **kwargs)

        monkeypatch.setattr(fits, "damped_gauss_newton", counting)
        fit_energy_extrapolation(ROUNDING_FLOOR_DATA, "casimir", gap=22.0)   # four Casimir fits
        fit_correlation_length(synthetic_series(0.5, 0.14))
        assert len(evals) <= 200

    def test_casimir_fit_reaches_the_projected_minimum(self):
        """A ladder where the Casimir term sits just above 1e-6 noise: the fit
        returns, at a C3 whose projected cost matches a fine grid's best."""
        sizes, energies = noisy_casimir_ladder()
        fit = fit_energy_extrapolation(list(zip(sizes, energies)), EnergyModel.CASIMIR, gap=1.0)

        def cost(c3):
            basis = _design(EnergyModel.CASIMIR, sizes, c3)
            lin, *_ = np.linalg.lstsq(basis, energies, rcond=None)
            resid = basis @ lin - energies
            return float(resid @ resid)

        best = min(map(cost, np.geomspace(0.05, 50.0, 20_000) / np.median(sizes)))
        assert cost(fit.coefficients[3]) <= best * (1.0 + 1e-5)

    def test_insufficient_points_rejected(self):
        with pytest.raises(ValueError):
            fit_energy_extrapolation([(2, 1.0), (3, 2.0)], EnergyModel.LINEAR, gap=1.0)
        with pytest.raises(ValueError):
            fit_energy_extrapolation(
                [(n, float(n)) for n in range(2, 6)], EnergyModel.INVERSE_SERIES, gap=1.0
            )

    def test_fits_do_not_import_numpy_ma(self):
        # np.unique of floats and np.median import numpy.ma (10-14 ms) on first use
        script = (
            "import sys\n"
            "from gnlab.fits import fit_energy_extrapolation\n"
            "data = [(n, -2.0 * n + 0.1 / n**2 + 0.01 / n**3) for n in range(2, 9)]\n"
            "for model in ('linear', 'casimir'):\n"
            "    fit_energy_extrapolation(data, model, 1.0)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(fits.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]

    def test_gap_must_be_positive(self):
        data = [(n, float(n)) for n in range(2, 8)]
        with pytest.raises(ValueError):
            fit_energy_extrapolation(data, EnergyModel.LINEAR, gap=0.0)

    def test_threshold_size(self):
        data = [(n, 2.0 + 3.0 * n) for n in range(2, 8)]
        fit = fit_energy_extrapolation(data, EnergyModel.LINEAR, gap=1.0)
        assert fit.threshold_size() is not None

    def test_half_gap_recorded(self):
        data = [(n, float(n)) for n in range(2, 8)]
        fit = fit_energy_extrapolation(data, EnergyModel.LINEAR, gap=3.0)
        assert fit.half_gap == pytest.approx(1.5)


class TestErrorBudget:
    def test_constructed_state_consistency(self):
        """Recovered delta consistent with measured eps within |kappa^2 - 2 kappa|."""
        from gnlab.model import ModelSpec, build_hamiltonian

        spec = ModelSpec(n_sites=4, spacing=0.25, bare_mass=0.2, coupling_sq=1.5)
        op = build_hamiltonian(spec)
        evals, evecs = np.linalg.eigh(op.to_matrix())
        delta = 1e-3
        mixed = evecs[:, 0] + delta * evecs[:, -1]
        mixed /= np.linalg.norm(mixed)
        h_vec = op.to_matrix() @ mixed
        e_val = np.vdot(mixed, h_vec).real
        eps = (abs(np.vdot(h_vec, h_vec)) - e_val**2) / e_val**2
        kappa_signed = evals[-1] / evals[0]
        factor = abs(kappa_signed**2 - 2 * kappa_signed)
        recovered = math.sqrt(eps)
        # for this construction sqrt(eps)/delta = |kappa - 1| = sqrt(factor + 1)
        assert delta <= recovered <= delta * (1.0 + factor)
        assert recovered / delta == pytest.approx(abs(kappa_signed - 1.0), rel=1e-3)
