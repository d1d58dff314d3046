import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gnlab.exact
import gnlab.stateprep
from gnlab.exact import ExactPropagator, ground_state_dense
from gnlab.fits import EnergyModel, fit_energy_extrapolation
from gnlab.model import ModelSpec, build_hamiltonian
from gnlab.overlaps import PadKind, pad_state
from gnlab.stateprep import (
    Decision,
    FixedPointConfig,
    OracleMode,
    PhaseEstimationConfig,
    PhaseEstimationReflection,
    PreparationError,
    ancilla_bits_for,
    fixed_point_amplify,
    fixed_point_schedule_length,
    ground_oracle_reflection,
    phase_estimate,
    prepare_vacuum,
    projector_pauli_expansion,
    repetitions_for,
    state_reflection,
)
from gnlab.stateprep import _WINDOW_CELLS, _estimation_kernel, _estimation_register
from oracles import fixed_point_success, phase_estimation_probabilities


@pytest.fixture(scope="module")
def four_qubit_instance():
    spec = ModelSpec(n_sites=2, spacing=0.5, bare_mass=0.2, coupling_sq=1.5)
    op = build_hamiltonian(spec)
    result = ground_state_dense(op)
    evals, evecs = np.linalg.eigh(op.to_matrix())
    return op, result, evals, evecs


@pytest.fixture(scope="module")
def four_qubit_prop(four_qubit_instance):
    return ExactPropagator(four_qubit_instance[0])


#: Decision error that five repetitions at the default register must meet.
FAILURE_PROB = 0.01


def pe_config(op, result, repetitions=5, extra_bits=0):
    bits = ancilla_bits_for(op, result.gap) + extra_bits
    return PhaseEstimationConfig(
        ancilla_bits=bits,
        energy_estimate=result.ground_energy + 0.1 * result.gap,
        gap_bound=result.gap,
        repetitions=repetitions,
    )


class TestPhaseEstimate:
    def test_ground_state_accepted(self, four_qubit_instance, four_qubit_prop):
        op, result, *_ = four_qubit_instance
        cfg = pe_config(op, result)
        wrong = 0
        for seed in range(200):
            decision, _post, _e = phase_estimate(four_qubit_prop, result.ground_vector, cfg, seed=seed)
            wrong += decision is Decision.NOT_GROUND
        assert wrong / 200 <= FAILURE_PROB

    def test_excited_state_rejected(self, four_qubit_instance, four_qubit_prop):
        op, result, evals, evecs = four_qubit_instance
        cfg = pe_config(op, result)
        wrong = 0
        for seed in range(200):
            decision, _post, _e = phase_estimate(four_qubit_prop, evecs[:, 1], cfg, seed=seed)
            wrong += decision is Decision.GROUND
        assert wrong / 200 <= FAILURE_PROB

    def test_superposition_collapses_by_born_rule(self, four_qubit_instance, four_qubit_prop):
        op, result, evals, evecs = four_qubit_instance
        cfg = pe_config(op, result)
        mix = (result.ground_vector + evecs[:, 1]) / np.sqrt(2)
        trials = 600
        ground_count = 0
        for seed in range(trials):
            decision, post, _e = phase_estimate(four_qubit_prop, mix, cfg, seed=seed)
            if decision is Decision.GROUND:
                ground_count += 1
                assert abs(np.vdot(result.ground_vector, post)) ** 2 >= 1 - FAILURE_PROB
        freq = ground_count / trials
        # Born probability 1/2 with a 4-sigma (binomial) sampling allowance
        assert abs(freq - 0.5) <= 4 * 0.5 / np.sqrt(trials)

    def test_eigenstate_input_unchanged(self, four_qubit_instance, four_qubit_prop):
        op, result, *_ = four_qubit_instance
        cfg = pe_config(op, result)
        _d, post, _e = phase_estimate(four_qubit_prop, result.ground_vector, cfg, seed=0)
        assert abs(abs(np.vdot(result.ground_vector, post)) - 1) < 1e-10

    def test_energy_sample_near_truth(self, four_qubit_instance, four_qubit_prop):
        op, result, *_ = four_qubit_instance
        cfg = pe_config(op, result)
        _d, _post, sample = phase_estimate(four_qubit_prop, result.ground_vector, cfg, seed=3)
        assert abs(sample - result.ground_energy) <= result.gap / 2

    def test_does_not_import_numpy_ma(self):
        # np.median imports numpy.ma (10-14 ms) on first use
        script = (
            "import sys\n"
            "from gnlab.exact import ExactPropagator\n"
            "from gnlab.model import ModelSpec, build_hamiltonian\n"
            "from gnlab.stateprep import PhaseEstimationConfig, ancilla_bits_for, phase_estimate\n"
            "prop = ExactPropagator(build_hamiltonian(ModelSpec(n_sites=2, spacing=0.5, bare_mass=0.2, coupling_sq=1.5)))\n"
            "gap = float(prop.evals[1] - prop.evals[0])\n"
            "cfg = PhaseEstimationConfig(ancilla_bits_for(prop.op, gap), float(prop.evals[0]), gap, repetitions=5)\n"
            "phase_estimate(prop, prop.spectrum().ground_vector, cfg, seed=0)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(gnlab.stateprep.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]

    def test_resolution_validation(self, four_qubit_instance, four_qubit_prop):
        op, result, *_ = four_qubit_instance
        cfg = PhaseEstimationConfig(
            ancilla_bits=2, energy_estimate=result.ground_energy,
            gap_bound=result.gap, repetitions=3,
        )
        with pytest.raises(ValueError, match="resolution"):
            phase_estimate(four_qubit_prop, result.ground_vector, cfg, seed=0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PhaseEstimationConfig(ancilla_bits=4, energy_estimate=0.0, gap_bound=1.0, repetitions=2)
        with pytest.raises(ValueError):
            PhaseEstimationConfig(ancilla_bits=4, energy_estimate=0.0, gap_bound=-1.0)

    def test_repetitions_helper_is_odd_and_monotone(self):
        r1 = repetitions_for(0.1)
        r2 = repetitions_for(0.01)
        assert r1 % 2 == 1 and r2 % 2 == 1
        assert r2 >= r1


def in_window(grid, cfg):
    return np.flatnonzero(np.abs(grid - cfg.energy_estimate) <= cfg.gap_bound / 2.0)


def no_table(*_args, **_kwargs):
    raise AssertionError("kernel table evaluated despite the memory guard")


class TestEstimationKernel:
    @pytest.fixture(scope="class")
    def five_site_instance(self):
        # the largest register prepare_vacuum sizes in the statevector workload: M = 2048, 1024 dims
        op = build_hamiltonian(ModelSpec(n_sites=5, spacing=0.25, bare_mass=0.2, coupling_sq=1.5))
        prop = ExactPropagator(op)
        result = prop.spectrum()
        cfg = PhaseEstimationConfig(
            ancilla_bits=ancilla_bits_for(op, result.gap, _WINDOW_CELLS),
            energy_estimate=result.ground_energy + 0.1 * result.gap,
            gap_bound=result.gap,
        )
        assert cfg.ancilla_bits == 11
        return prop, cfg

    @pytest.mark.parametrize("instance", ["own bits", "4 more bits", "five sites"])
    def test_fejer_weights_match_fft_reference(self, four_qubit_instance, five_site_instance, instance):
        if instance == "five sites":
            prop, cfg = five_site_instance
        else:
            op, result, *_ = four_qubit_instance
            prop, cfg = ExactPropagator(op), pe_config(op, result, extra_bits=4 * (instance == "4 more bits"))
        phases, grid = _estimation_register(prop, cfg)
        m_dim = len(grid)
        # eigenphases on grid points: at y = 0 delta is exactly 0 (the limit), at M/4 within rounding
        phases = np.concatenate([phases, [0.0, 2 * np.pi * (m_dim // 4) / m_dim]])
        reference = phase_estimation_probabilities(phases, m_dim)
        fejer = _estimation_kernel(phases, np.arange(m_dim), m_dim)[1] ** 2
        assert np.max(np.abs(fejer - reference)) <= 1e-12
        assert fejer[0, -2] == 1.0 and fejer[m_dim // 4, -1] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(fejer.sum(axis=0) - 1.0)) <= 1e-12
        # the in-window sums are as exact as the FFT's only with 2 pi split into
        # high and low parts: with float(2 pi) alone they differ by 5e-15 to 2.2e-14
        window = in_window(grid, cfg)
        weight = PhaseEstimationReflection(prop, cfg)._weight
        assert np.max(np.abs(weight - reference[window, :-2].sum(axis=0))) <= 4e-15

    def test_outcome_probabilities_sum_to_one(self, four_qubit_instance, four_qubit_prop, monkeypatch):
        op, result, *_ = four_qubit_instance
        cfg = pe_config(op, result, extra_bits=4)
        default_rng = np.random.default_rng
        state = default_rng(5).standard_normal(16) + 1j * default_rng(6).standard_normal(16)
        sums = []

        class SpyRng:
            def __init__(self, seed):
                self._rng = default_rng(seed)

            def choice(self, n, p):
                sums.append(p.sum())
                return self._rng.choice(n, p=p)

        monkeypatch.setattr(gnlab.stateprep.np.random, "default_rng", SpyRng)
        phase_estimate(four_qubit_prop, state, cfg, seed=0)
        assert len(sums) == cfg.repetitions
        assert max(abs(total - 1.0) for total in sums) <= 1e-12

    def test_memory_guard_before_the_outcome_table(self, four_qubit_instance, four_qubit_prop, monkeypatch):
        op, result, *_ = four_qubit_instance
        cfg = pe_config(op, result)
        need = 4 * 8 * (1 << cfg.ancilla_bits) * 16  # four float tables of M outcomes by 16 eigenstates
        monkeypatch.setattr(gnlab.exact, "_physical_memory_bytes", lambda: need)
        phase_estimate(four_qubit_prop, result.ground_vector, cfg, seed=0)
        monkeypatch.setattr(gnlab.exact, "_physical_memory_bytes", lambda: need - 1)
        monkeypatch.setattr(gnlab.stateprep.np, "sin", no_table)
        with pytest.raises(ValueError, match="phase-estimation table .* physical memory"):
            phase_estimate(four_qubit_prop, result.ground_vector, cfg, seed=0)

    def test_memory_guard_before_the_window_table(self, four_qubit_instance, monkeypatch):
        op, result, *_ = four_qubit_instance
        cfg = pe_config(op, result)
        prop = ExactPropagator(op)
        need = 4 * 8 * len(in_window(_estimation_register(prop, cfg)[1], cfg)) * 16
        monkeypatch.setattr(gnlab.exact, "_physical_memory_bytes", lambda: need)
        PhaseEstimationReflection(prop, cfg)
        monkeypatch.setattr(gnlab.exact, "_physical_memory_bytes", lambda: need - 1)
        monkeypatch.setattr(gnlab.stateprep.np, "sin", no_table)
        with pytest.raises(ValueError, match="phase-estimation table .* physical memory"):
            PhaseEstimationReflection(prop, cfg)


class TestReflections:
    def test_ideal_reflection_phases_ground_only(self, four_qubit_instance):
        _op, result, _evals, evecs = four_qubit_instance
        oracle = state_reflection(result.ground_vector)
        flipped = oracle.apply(result.ground_vector, np.pi)
        assert np.allclose(flipped, -result.ground_vector, atol=1e-10)
        untouched = oracle.apply(evecs[:, 3], np.pi)
        assert np.allclose(untouched, evecs[:, 3], atol=1e-10)
        assert oracle.calls == 2

    def test_opposite_phases_cancel(self, four_qubit_instance):
        _op, result, *_ = four_qubit_instance
        oracle = state_reflection(result.ground_vector)
        rng = np.random.default_rng(0)
        state = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        state /= np.linalg.norm(state)
        roundtrip = oracle.apply(oracle.apply(state, 0.7), -0.7)
        assert np.max(np.abs(roundtrip - state)) < 1e-10

    def test_estimation_based_close_to_ideal_channel(self, four_qubit_instance):
        """Max output trace distance over 50 random inputs stays within 2 eps."""
        op, result, *_ = four_qubit_instance
        eps = 0.01
        cfg = pe_config(op, result, extra_bits=4)
        ideal = state_reflection(result.ground_vector)
        estimated = ground_oracle_reflection(ExactPropagator(op), cfg)
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(50):
            state = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            state /= np.linalg.norm(state)
            a = ideal.apply(state, np.pi / 3)
            b = estimated.apply(state, np.pi / 3)
            distance = np.sqrt(max(0.0, 1.0 - abs(np.vdot(a, b)) ** 2))
            worst = max(worst, float(distance))
        assert worst <= 2 * eps

    def test_state_reflection_counts_calls(self, rng):
        vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        oracle = state_reflection(vec)
        state = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        state /= np.linalg.norm(state)
        oracle.apply(state, 0.3)
        oracle.apply(state, -0.3)
        assert oracle.calls == 2


class TestFixedPointAmplify:
    @staticmethod
    def toy_pair(overlap, dim, rng):
        target = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        target /= np.linalg.norm(target)
        orth = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        orth -= np.vdot(target, orth) * target
        orth /= np.linalg.norm(orth)
        start = overlap * target + np.sqrt(1 - overlap**2) * orth
        return target, start

    def test_unit_overlap_is_fixed_point(self, rng):
        target, _ = self.toy_pair(0.5, 4, rng)
        cfg = FixedPointConfig(overlap_lower_bound=0.4, target_infidelity=1e-3,
                               derived_query_count=21)
        out, calls = fixed_point_amplify(target, state_reflection(target), state_reflection(target), cfg)
        assert abs(np.vdot(target, out)) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert calls == 20

    def test_half_overlap_reaches_target_infidelity(self, rng):
        target, start = self.toy_pair(0.5, 4, rng)
        cfg = FixedPointConfig.from_targets(0.5, 1e-3)
        out, calls = fixed_point_amplify(start, state_reflection(target), state_reflection(start), cfg)
        assert abs(np.vdot(target, out)) ** 2 >= 1 - 1e-3
        assert calls == cfg.derived_query_count - 1

    @pytest.mark.parametrize("eta", [0.2, 0.3, 0.5, 0.8])
    @pytest.mark.parametrize("eps", [1e-2, 1e-3])
    def test_guarantee_grid(self, eta, eps, rng):
        target, start = self.toy_pair(eta, 8, rng)
        cfg = FixedPointConfig.from_targets(eta, eps)
        out, _calls = fixed_point_amplify(start, state_reflection(target), state_reflection(start), cfg)
        assert abs(np.vdot(target, out)) ** 2 >= 1 - eps

    def test_overlap_above_floor_also_guaranteed(self, rng):
        target, start = self.toy_pair(0.7, 8, rng)
        cfg = FixedPointConfig.from_targets(0.4, 1e-3)
        out, _ = fixed_point_amplify(start, state_reflection(target), state_reflection(start), cfg)
        assert abs(np.vdot(target, out)) ** 2 >= 1 - 1e-3

    def test_call_count_grows_additively_per_epsilon_decade(self):
        for eta in (0.2, 0.3, 0.5):
            lengths = [fixed_point_schedule_length(eta, eps) for eps in (1e-2, 1e-3, 1e-4)]
            increments = [b - a for a, b in zip(lengths, lengths[1:])]
            assert all(inc >= 0 for inc in increments)
            mean = np.mean(increments)
            assert all(abs(inc - mean) <= 0.2 * mean for inc in increments)

    def test_monotone_calls_in_epsilon(self):
        assert fixed_point_schedule_length(0.5, 1e-2) <= fixed_point_schedule_length(0.5, 1e-4)

    def test_schedule_minimum_enforced(self):
        with pytest.raises(ValueError, match="schedule minimum"):
            FixedPointConfig(overlap_lower_bound=0.3, target_infidelity=1e-4, derived_query_count=3)
        with pytest.raises(ValueError, match="odd"):
            FixedPointConfig(overlap_lower_bound=0.9, target_infidelity=0.5, derived_query_count=2)


class TestProjectorExpansion:
    def test_projector_roundtrip(self, rng):
        vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        vec /= np.linalg.norm(vec)
        op = projector_pauli_expansion(vec)
        assert np.allclose(op.to_matrix(), np.outer(vec, vec.conj()), atol=1e-12)


@pytest.fixture(scope="module")
def prep_setup():
    spec = ModelSpec(n_sites=2, spacing=0.25, bare_mass=0.2, coupling_sq=1.5)
    energies = [
        (n, ground_state_dense(build_hamiltonian(spec.with_sites(n))).ground_energy)
        for n in range(2, 6)
    ]
    fit = fit_energy_extrapolation(energies, EnergyModel.LINEAR, gap=1.0)
    return spec, fit, pad_state(PadKind.UNIFORM, 1)


class TestPrepareVacuum:
    def test_zero_steps_returns_initial_ground_state(self, prep_setup):
        spec, fit, pad = prep_setup
        state, trace = prepare_vacuum(spec, 2, 2, pad, fit, eps=1e-3)
        ground = ground_state_dense(build_hamiltonian(spec)).ground_vector
        assert abs(np.vdot(ground, state)) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert trace.oracle_calls_total == 0
        assert trace.final_fidelity == 1.0

    def test_ideal_mode_meets_budget(self, prep_setup):
        spec, fit, pad = prep_setup
        state, trace = prepare_vacuum(spec, 2, 4, pad, fit, eps=1e-3, mode=OracleMode.IDEAL)
        assert trace.final_fidelity >= 1 - 1e-3
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-10)
        assert trace.oracle_calls_total == sum(s.oracle_calls for s in trace.steps)

    def test_estimation_mode_meets_relaxed_budget(self, prep_setup):
        spec, fit, pad = prep_setup
        state, trace = prepare_vacuum(
            spec, 2, 4, pad, fit, eps=1e-3, mode=OracleMode.PHASE_ESTIMATION
        )
        assert trace.final_fidelity >= 1 - 5e-3

    def test_call_counts_match_schedule(self, prep_setup):
        spec, fit, pad = prep_setup
        eta_floor = 0.4
        steps = 2
        state, trace = prepare_vacuum(
            spec, 2, 4, pad, fit, eps=1e-3, eta_floor=eta_floor, mode=OracleMode.IDEAL
        )
        per_step = fixed_point_schedule_length(eta_floor, 1e-3 / steps) - 1
        assert trace.oracle_calls_total == steps * per_step

    def test_eta_floor_violation_carries_partial_trace(self, prep_setup):
        spec, fit, pad = prep_setup
        with pytest.raises(PreparationError) as excinfo:
            prepare_vacuum(spec, 2, 4, pad, fit, eps=1e-3, eta_floor=0.99)
        assert excinfo.value.trace.steps == ()

    def test_energy_promise_validated(self, prep_setup):
        spec, _fit, pad = prep_setup
        bad = fit_energy_extrapolation(
            [(n, 100.0 + n) for n in range(2, 6)], EnergyModel.LINEAR, gap=1.0
        )
        with pytest.raises(ValueError, match="half-gap"):
            prepare_vacuum(spec, 2, 4, pad, bad, eps=1e-3)

    @pytest.mark.parametrize(("mode", "eigensystems", "lowest_pairs"),
                             [("ideal", [], [4, 6, 8]), ("phase-estimation", [4, 6, 8, 2, 2], [])],
                             ids=["ideal-3", "phase-estimation-5"])
    def test_each_hamiltonian_diagonalised_once(self, prep_setup, monkeypatch, mode, eigensystems, lowest_pairs):
        # one solve per size 2..4: a lowest-pair solve in ideal mode, a full
        # eigensystem in phase-estimation mode; each phase-estimation step adds
        # its 2-qubit pad penalty, and no 6- or 8-qubit start operator is diagonalised
        spec, fit, pad = prep_setup
        solved = {"eigensystem": [], "lowest pair": []}

        def counted(kind, solve):
            def spy(op, dense_cap):
                solved[kind].append(op.n_qubits)
                return solve(op, dense_cap)
            return spy

        monkeypatch.setattr(gnlab.exact, "_eigensystem", counted("eigensystem", gnlab.exact._eigensystem))
        monkeypatch.setattr(gnlab.stateprep, "ground_state_dense", counted("lowest pair", ground_state_dense))
        prepare_vacuum(spec, 2, 4, pad, fit, eps=1e-3, mode=mode)
        assert solved == {"eigensystem": eigensystems, "lowest pair": lowest_pairs}

    @pytest.mark.parametrize("spacing", [0.25, 0.5])
    @pytest.mark.parametrize("point", [(0.2, 1.5), (0.4, 1.0)])
    def test_ideal_steps_follow_closed_form(self, point, spacing):
        # ideal oracles keep each step in span{start, target}: its fidelity is
        # a closed function of the start overlap and the schedule (L, delta)
        spec = ModelSpec(n_sites=2, spacing=spacing, bare_mass=point[0], coupling_sq=point[1])
        energies = [(n, ground_state_dense(build_hamiltonian(spec.with_sites(n))).ground_energy)
                    for n in range(2, 7)]
        fit = fit_energy_extrapolation(energies, EnergyModel.LINEAR, gap=1.0)
        for kind in (PadKind.UNIFORM, PadKind.SYMMETRY_ADAPTED):
            _state, trace = prepare_vacuum(spec, 2, 5, pad_state(kind, 1), fit, eps=1e-3, mode=OracleMode.IDEAL)
            assert len(trace.steps) == 3
            for step in trace.steps:
                expected = fixed_point_success(step.overlap_before, 1e-3 / 3, step.oracle_calls + 1)
                assert abs(step.fidelity_after - expected) <= 1e-12

    def test_trace_csv(self, prep_setup):
        spec, fit, pad = prep_setup
        _state, trace = prepare_vacuum(spec, 2, 3, pad, fit, eps=1e-2)
        assert [s.target_size for s in trace.steps] == [3]
