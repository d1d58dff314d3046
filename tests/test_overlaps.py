import numpy as np
import pytest

from gnlab.dmrg import dmrg_ground_state
from gnlab.exact import ground_state_dense
from gnlab.model import ModelSpec, build_hamiltonian, free_quadratic_form
from gnlab.mps import MatrixProductState, append_site, compile_mpo, grouped_dims, mps_overlap
from gnlab.overlaps import PadKind, consecutive_overlaps, pad_state, plateau_estimate

from oracles import free_padded_overlap


def dense_states(spec, sizes):
    """Exact ground states of `spec` at each size, as exact MPSs of the dense vectors."""
    states = {}
    for n in sizes:
        op = build_hamiltonian(spec.with_sites(n))
        dims = grouped_dims(op.n_qubits, spec.flavors)
        states[n] = MatrixProductState.from_dense(ground_state_dense(op).ground_vector, dims)
    return states


def dmrg_states(spec, sizes, epsilon_goal):
    states = {}
    for n in sizes:
        mpo = compile_mpo(build_hamiltonian(spec.with_sites(n)), spec.flavors)
        states[n], report = dmrg_ground_state(mpo, epsilon_goal=epsilon_goal, max_bond=64, seed=3)
        assert report.converged
    return states


class TestPadState:
    def test_uniform_single_flavor(self):
        pad = pad_state(PadKind.UNIFORM, flavors=1)
        assert np.allclose(pad, np.full(4, 0.5))

    def test_symmetry_adapted_single_flavor(self):
        pad = pad_state(PadKind.SYMMETRY_ADAPTED, flavors=1)
        assert np.allclose(pad, [0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0])

    @pytest.mark.parametrize("kind", [PadKind.UNIFORM, PadKind.SYMMETRY_ADAPTED])
    @pytest.mark.parametrize("flavors", [1, 2])
    def test_unit_norm(self, kind, flavors):
        assert np.linalg.norm(pad_state(kind, flavors)) == pytest.approx(1.0)


class TestConsecutiveOverlaps:
    def test_dense_engine_matches_brute_force(self, reference_points):
        """Deep product-like regime, dense solves vs direct statevector math."""
        spec = ModelSpec(n_sites=2, spacing=0.5, bare_mass=5.0, coupling_sq=0.0)
        pad = pad_state(PadKind.UNIFORM, 1)
        series = consecutive_overlaps(dense_states(spec, range(2, 6)), pad)
        for j, value in zip(series.sizes, series.overlaps):
            g_small = ground_state_dense(build_hamiltonian(spec.with_sites(j))).ground_vector
            g_large = ground_state_dense(build_hamiltonian(spec.with_sites(j + 1))).ground_vector
            brute = abs(np.vdot(np.kron(g_small, pad), g_large))
            assert value == pytest.approx(brute, abs=1e-10)

    def test_dmrg_and_dense_engines_agree(self):
        spec = ModelSpec(n_sites=2, spacing=0.25, bare_mass=0.2, coupling_sq=1.5)
        pad = pad_state(PadKind.UNIFORM, 1)
        eps_goal = 1e-10
        dense = consecutive_overlaps(dense_states(spec, range(2, 6)), pad)
        dmrg = consecutive_overlaps(dmrg_states(spec, range(2, 6), eps_goal), pad)
        for a, b in zip(dense.overlaps, dmrg.overlaps):
            assert abs(a - b) <= 10 * np.sqrt(eps_goal)

    def test_symmetry_adapted_gains_sqrt_two(self):
        spec = ModelSpec(n_sites=2, spacing=0.25, bare_mass=0.2, coupling_sq=1.5)
        states = dense_states(spec, range(2, 5))
        uniform = consecutive_overlaps(states, pad_state(PadKind.UNIFORM, 1))
        adapted = consecutive_overlaps(states, pad_state(PadKind.SYMMETRY_ADAPTED, 1))
        for u, s in zip(uniform.overlaps, adapted.overlaps):
            assert s / u == pytest.approx(np.sqrt(2), abs=1e-6)

    def test_phase_invariance_of_pad(self):
        spec = ModelSpec(n_sites=2, spacing=0.5, bare_mass=0.3, coupling_sq=1.0)
        pad = pad_state(PadKind.UNIFORM, 1)
        rotated = np.exp(1j * 0.83) * pad
        states = dense_states(spec, range(2, 5))
        a = consecutive_overlaps(states, pad)
        b = consecutive_overlaps(states, rotated)
        assert np.allclose(a.overlaps, b.overlaps, atol=1e-12)

    def test_overlaps_lie_in_unit_interval(self):
        spec = ModelSpec(n_sites=2, spacing=0.25, bare_mass=0.4, coupling_sq=1.0)
        series = consecutive_overlaps(dense_states(spec, range(2, 6)), pad_state(PadKind.UNIFORM, 1))
        assert all(0.0 <= o <= 1.0 for o in series.overlaps)

    def test_decoupled_sites_give_constant_overlap(self):
        """With hopping suppressed (huge mass), overlap = |<site ground|pad>|."""
        spec = ModelSpec(n_sites=2, spacing=0.5, bare_mass=400.0, coupling_sq=0.0)
        pad = pad_state(PadKind.UNIFORM, 1)
        series = consecutive_overlaps(dense_states(spec, range(2, 6)), pad)
        spread = max(series.overlaps) - min(series.overlaps)
        assert spread < 1e-3
        site_spec = spec.with_sites(2)
        # per-site ground state of the decoupled mass term, from the 2-site solve
        ground = ground_state_dense(build_hamiltonian(site_spec)).ground_vector
        site_ground = ground.reshape(4, 4)
        u, s, vh = np.linalg.svd(site_ground)
        single = u[:, 0]
        expected = abs(np.vdot(single, pad))
        assert series.overlaps[-1] == pytest.approx(expected, abs=1e-3)

    def test_sizes_must_be_consecutive(self):
        pad = pad_state(PadKind.UNIFORM, 1)
        with pytest.raises(ValueError):
            consecutive_overlaps(dict.fromkeys([2, 4, 6], pad), pad)


class TestFreeDeterminantYardstick:
    """At g0^2 = 0 every vacuum is a Slater determinant, so padded overlaps are determinants."""

    def test_determinant_matches_dense(self):
        spec = ModelSpec(n_sites=2, spacing=0.25, bare_mass=1.0, coupling_sq=0.0)
        states = {n: ground_state_dense(build_hamiltonian(spec.with_sites(n))).ground_vector for n in range(2, 7)}
        for n in range(2, 6):
            for kind in PadKind:
                dense = abs(np.vdot(np.kron(states[n], pad_state(kind)), states[n + 1]))
                assert abs(dense - free_padded_overlap(spec.with_sites(n), kind.value)) <= 1e-13

    def test_dmrg_pair_at_thirty_sites(self):
        """29 -> 30 sites, beyond any dense check (about 2.6 s on one core).

        Each state's distance from its vacuum is at most delta_N = sqrt(eps_N) |E_N| / (E1 - E0),
        the free gap E1 - E0 being the smallest |orbital energy| of `free_quadratic_form`: a DMRG
        state need not lie in one particle-number sector, so the number-conserving gap, twice as
        large, would not bound it.  The padded overlap then moves by at most 2 (delta_29 + delta_30).
        """
        spec = ModelSpec(n_sites=29, spacing=0.25, bare_mass=1.0, coupling_sq=0.0)
        states, bound = {}, 0.0
        for n in (29, 30):
            mpo = compile_mpo(build_hamiltonian(spec.with_sites(n)), spec.flavors)
            states[n], report = dmrg_ground_state(mpo, epsilon_goal=1e-10, max_bond=64, seed=3)
            assert report.converged
            gap = float(np.min(np.abs(np.linalg.eigvalsh(free_quadratic_form(spec.with_sites(n))))))
            bound += 2 * np.sqrt(report.epsilon) * abs(report.energy) / gap
        for kind in PadKind:
            overlap = abs(mps_overlap(append_site(states[29], pad_state(kind)), states[30]))
            assert abs(overlap - free_padded_overlap(spec, kind.value)) <= bound


class TestPlateauAndTable:
    def test_plateau_estimator_on_synthetic_series(self):
        overlaps = [0.5, 0.7, 0.79, 0.8, 0.8, 0.8, 0.8, 0.8]
        eta, spread = plateau_estimate(overlaps)
        assert eta == pytest.approx(0.8)
        assert spread == pytest.approx(0.0)
