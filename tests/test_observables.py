import numpy as np
import pytest

from gnlab.exact import ground_state_dense
from gnlab.model import ModelSpec, build_hamiltonian, free_quadratic_form, majorana_gammas
from gnlab.mps import MatrixProductState, compile_mpo, grouped_dims
from gnlab.observables import CorrelatorSeries, centered_pairs, two_point_correlator

from oracles import free_fermion_correlations, mps_to_dense, statevector_correlator_blocks


def dense_ground_mps(spec):
    """The exactly diagonalised ground vector of `spec`, as an exact MPS."""
    vec = ground_state_dense(build_hamiltonian(spec)).ground_vector
    return MatrixProductState.from_dense(vec, grouped_dims(spec.n_qubits, spec.flavors))


class TestSeriesStructure:
    def test_zero_separation_excluded(self):
        assert all(k >= 1 for k, _i, _j in centered_pairs(10))

    def test_pairs_are_centered(self):
        n = 50
        for k, i, j in centered_pairs(n):
            assert j - i == k
            assert abs((i + j) / 2 - (n - 1) / 2) <= 1.0

    def test_series_validation(self):
        with pytest.raises(ValueError):
            CorrelatorSeries(separations=(0.2, 0.1), values=(1.0, 2.0), error_bars=(0.0, 0.0))
        with pytest.raises(ValueError):
            CorrelatorSeries(separations=(0.1,), values=(1.0, 2.0), error_bars=(0.0, 0.0))


class TestFreeTheory:
    def test_dense_ground_state_matches_determinant_oracle(self):
        """Interacting machinery at g0^2 = 0 against the quadratic-H oracle."""
        spec = ModelSpec(n_sites=5, spacing=0.4, bare_mass=1.0, coupling_sq=0.0)
        series = two_point_correlator(dense_ground_mps(spec), spec)
        correl = free_fermion_correlations(free_quadratic_form(spec))
        gamma0 = majorana_gammas().gamma0
        for idx, (k, i, j) in enumerate(centered_pairs(spec.n_sites)):
            block = np.zeros((2, 2), dtype=complex)
            for alpha in range(2):
                for c in range(2):
                    block[alpha, c] = correl[spec.mode_index(i, 0, alpha), spec.mode_index(j, 0, c)]
            expected = (block @ gamma0 / spec.spacing)[0, 0]
            assert series.values[idx] == pytest.approx(expected.real, abs=1e-8)
            assert abs(series.blocks[idx][0, 0] - expected) < 1e-8

    def test_larger_free_lattice_against_oracle(self):
        spec = ModelSpec(n_sites=5, spacing=0.25, bare_mass=1.0, coupling_sq=0.0)
        series = two_point_correlator(dense_ground_mps(spec), spec)
        correl = free_fermion_correlations(free_quadratic_form(spec))
        gamma0 = majorana_gammas().gamma0
        i, j = centered_pairs(spec.n_sites)[0][1:]
        expected = (
            np.array([[correl[spec.mode_index(i, 0, a), spec.mode_index(j, 0, c)]
                       for c in range(2)] for a in range(2)]) @ gamma0 / spec.spacing
        )[0, 0]
        assert series.values[0] == pytest.approx(expected.real, abs=1e-8)

    def test_ten_site_statevector_against_oracle(self):
        """Full 20-qubit statevector correlator vs the determinant oracle.

        The state comes from a short DMRG warm-up densified and refined by
        warm-started Lanczos iterations, which certifies the residual; the
        correlator under test then runs on that vector as an exact MPS.
        About 20 s on a 2-CPU machine with BLAS on one thread, most of it in
        the Lanczos refinement; this is the largest statevector check.
        """
        from gnlab.dmrg import dmrg_ground_state
        from gnlab.exact import lanczos_lowest
        from gnlab.mps import compile_mpo

        spec = ModelSpec(n_sites=10, spacing=0.25, bare_mass=1.0, coupling_sq=0.0)
        op = build_hamiltonian(spec)
        warm, _report = dmrg_ground_state(
            compile_mpo(op, spec.flavors), epsilon_goal=1e-11, max_bond=64, seed=3, max_sweeps=6
        )
        energy, vec = lanczos_lowest(
            op.apply, mps_to_dense(warm), tol=1e-9,
            max_restarts=40, krylov_dim=30,
        )
        assert np.linalg.norm(op.apply(vec) - energy * vec) <= 1e-9
        series = two_point_correlator(
            MatrixProductState.from_dense(vec, grouped_dims(spec.n_qubits, spec.flavors)), spec)
        correl = free_fermion_correlations(free_quadratic_form(spec))
        gamma0 = majorana_gammas().gamma0
        for idx, (_k, i, j) in enumerate(centered_pairs(spec.n_sites)):
            block = np.array(
                [[correl[spec.mode_index(i, 0, a), spec.mode_index(j, 0, c)]
                  for c in range(2)] for a in range(2)]
            )
            expected = (block @ gamma0 / spec.spacing)[0, 0]
            assert series.values[idx] == pytest.approx(expected.real, abs=1e-8)


class TestPaths:
    def test_mps_and_dense_paths_agree(self, small_spec):
        ground = ground_state_dense(build_hamiltonian(small_spec)).ground_vector
        mps = MatrixProductState.from_dense(ground, grouped_dims(small_spec.n_qubits, small_spec.flavors))
        dense_values = statevector_correlator_blocks(ground, small_spec)[:, 0, 0].real
        mps_series = two_point_correlator(mps, small_spec)
        assert np.allclose(dense_values, mps_series.values, atol=1e-10)

    def test_values_real_on_exact_states(self):
        spec = ModelSpec(n_sites=4, spacing=0.25, bare_mass=0.2, coupling_sq=1.5)
        series = two_point_correlator(dense_ground_mps(spec), spec)
        assert np.max(np.abs(series.blocks[:, 0, 0].imag)) < 1e-10

    def test_error_bars_follow_epsilon(self, small_spec):
        series = two_point_correlator(dense_ground_mps(small_spec), small_spec, epsilon=1e-8)
        expected = 2 * np.sqrt(1e-8) / small_spec.spacing
        assert all(bar == pytest.approx(expected) for bar in series.error_bars)


class TestMpsContraction:
    """The parity-string contraction against the Pauli-sum statevector reference.

    Both evaluate <psi|O|psi> without normalising, so they agree on
    any MPS, whatever its gauge and norm.
    """

    @staticmethod
    def assert_paths_agree(mps, spec, flavor=0):
        by_mps = two_point_correlator(mps, spec, flavor=flavor).blocks
        by_vector = statevector_correlator_blocks(mps_to_dense(mps), spec, flavor)
        assert by_mps.shape == (spec.n_sites // 2, 2, 2)
        assert np.max(np.abs(by_mps - by_vector)) <= 1e-12

    def test_random_unnormalised_mps_off_centre(self):
        spec = ModelSpec(n_sites=5, spacing=0.5, bare_mass=0.2, coupling_sq=1.5)
        rng = np.random.default_rng(11)
        bonds = (1, 4, 4, 4, 4, 1)
        mps = MatrixProductState(   # Gaussian tensors: no gauge, no unit norm
            [rng.standard_normal((bonds[k], 4, bonds[k + 1]))
             + 1j * rng.standard_normal((bonds[k], 4, bonds[k + 1])) for k in range(5)],
            center=2,
        )
        mps.tensors[0] *= 1.7 / np.linalg.norm(mps_to_dense(mps))   # |psi| = 1.7
        self.assert_paths_agree(mps, spec)

    @pytest.mark.parametrize("flavor", [0, 1])
    def test_two_flavors_skip_the_other_flavor(self, flavor):
        spec = ModelSpec(n_sites=3, spacing=0.5, bare_mass=0.2, coupling_sq=1.5, flavors=2)
        mps = MatrixProductState.random(grouped_dims(spec.n_qubits, spec.flavors), bond_dim=8, seed=5 + flavor)
        self.assert_paths_agree(mps, spec, flavor)

    def test_dmrg_vacuum_at_chain50_parameters(self):
        from gnlab.dmrg import dmrg_ground_state

        spec = ModelSpec(n_sites=6, spacing=1 / 50, bare_mass=0.2, coupling_sq=1.5)
        mps, _report = dmrg_ground_state(
            compile_mpo(build_hamiltonian(spec), spec.flavors), epsilon_goal=1e-8, max_bond=32, seed=3
        )
        self.assert_paths_agree(mps, spec)

    def test_rejects_mismatched_state_and_flavor(self, small_spec):
        mps = MatrixProductState.random((4,) * 4, bond_dim=2, seed=1)
        with pytest.raises(ValueError, match="lattice"):
            two_point_correlator(mps, small_spec)
        with pytest.raises(ValueError, match="flavor"):
            two_point_correlator(mps, small_spec.with_sites(4), flavor=1)
