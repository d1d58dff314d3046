from dataclasses import replace

import numpy as np
import pytest

from gnlab import dmrg
from gnlab.dmrg import DegenerateEnergyError, dmrg_ground_state, epsilon_measure
from gnlab.exact import ground_state_dense
from gnlab.model import ModelSpec, build_hamiltonian, free_quadratic_form, majorana_gammas
from gnlab.mps import MatrixProductState, append_site, compile_mpo, grouped_dims, transfer
from gnlab.observables import centered_pairs, two_point_correlator
from gnlab.overlaps import PadKind, pad_state
from gnlab.pauli import PauliSumOperator

from oracles import arpack_lowest, effective_two_site_matrix, epsilon_uncompressed, free_fermion_correlations


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def matvec_matrix(matvec, dim):
    """The matrix a matvec applies, one basis vector at a time."""
    return np.stack([matvec(e) for e in np.eye(dim, dtype=complex)], axis=1)


def solve(spec, epsilon_goal=1e-10, max_bond=64, seed=3, start=None):
    mpo = compile_mpo(build_hamiltonian(spec), spec.flavors)
    return dmrg_ground_state(mpo, epsilon_goal=epsilon_goal, max_bond=max_bond, seed=seed, start=start)


class TestDmrgGroundState:
    def test_reference_point_matches_dense(self):
        spec = ModelSpec(n_sites=4, spacing=0.25, bare_mass=0.2, coupling_sq=1.5)
        state, report = solve(spec)
        dense = ground_state_dense(build_hamiltonian(spec))
        rel = abs(report.energy - dense.ground_energy) / abs(dense.ground_energy)
        assert rel < 1e-8
        assert report.converged

    def test_product_hamiltonian_converges_in_one_sweep(self):
        n = 8
        terms = [(1.0 + 0.1 * q, "I" * q + "Z" + "I" * (n - q - 1)) for q in range(n)]
        mpo = compile_mpo(PauliSumOperator.from_terms(n, terms), 1)
        state, report = dmrg_ground_state(mpo, epsilon_goal=1e-8, max_bond=16, seed=1)
        assert report.sweeps == 1
        assert max(state.bond_dims) == 1
        assert report.converged

    def test_energy_monotone_across_sweeps(self):
        spec = ModelSpec(n_sites=5, spacing=0.5, bare_mass=0.2, coupling_sq=1.5)
        mpo = compile_mpo(build_hamiltonian(spec), spec.flavors)
        _state, report = solve(spec, epsilon_goal=1e-12)
        # runs are deterministic given the seed: the k-sweep run's energy is the full run's after sweep k
        hist = [dmrg_ground_state(mpo, epsilon_goal=1e-12, max_bond=64, seed=3, max_sweeps=k)[1].energy
                for k in range(1, report.sweeps + 1)]
        assert hist[-1] == report.energy
        for earlier, later in zip(hist, hist[1:]):
            assert later <= earlier + 1e-12 * (1 + abs(earlier))

    def test_deterministic_given_seed(self):
        spec = ModelSpec(n_sites=4, spacing=0.5, bare_mass=0.4, coupling_sq=1.0)
        a_state, a_report = solve(spec, seed=12)
        b_state, b_report = solve(spec, seed=12)
        assert a_report == b_report
        for ta, tb in zip(a_state.tensors, b_state.tensors):
            assert np.array_equal(ta, tb)

    def test_consistency_with_delta_bound(self):
        """|E - E_exact| <= sqrt(eps) |E| for converged runs at N <= 6.

        The exact reference is full diagonalization up to N = 5 and a
        matrix-free ARPACK solve at N = 6 (same spectrum, far cheaper).
        """
        for n in (4, 5, 6):
            spec = ModelSpec(n_sites=n, spacing=0.5, bare_mass=0.2, coupling_sq=1.5)
            state, report = solve(spec, epsilon_goal=1e-9)
            op = build_hamiltonian(spec)
            if n <= 5:
                e_exact = ground_state_dense(op).ground_energy
            else:
                e_exact = float(arpack_lowest(op, 1)[0])
            assert abs(report.energy - e_exact) <= max(
                np.sqrt(report.epsilon), 1e-12
            ) * abs(report.energy)

    def test_local_solves_stop_early_at_large_energy(self, local_solve_counts):
        """At |E| ~ 560 an absolute residual of 1e-12 is out of reach; the
        relative local tolerance lets each solve stop well inside its budget."""
        counts = local_solve_counts
        spec = ModelSpec(n_sites=6, spacing=1 / 50, bare_mass=0.2, coupling_sq=1.5)
        _state, report = solve(spec, epsilon_goal=1e-10)
        # matrix-free reference: a dense 4096-dim eigensolve takes minutes on one core
        exact = float(arpack_lowest(build_hamiltonian(spec), 1)[0])
        assert abs(report.energy - exact) <= 1e-10 * abs(exact)
        assert report.converged
        assert counts["matvecs"] / counts["solves"] < 40

    def test_local_solves_stop_at_ritz_estimate(self, local_solve_counts):
        """Same run as above, one sweep of 10 local solves: each local Lanczos
        stops growing its basis at the step whose Ritz estimate meets the
        goal, 229 products in all; filling the whole KRYLOV_DIM = 16 basis on
        every restart takes 314."""
        counts = local_solve_counts
        spec = ModelSpec(n_sites=6, spacing=1 / 50, bare_mass=0.2, coupling_sq=1.5)
        _state, report = solve(spec, epsilon_goal=1e-10)
        assert report.converged
        assert report.epsilon < 1e-10
        assert counts["matvecs"] < 260

    def test_sixteen_sites_converge_at_tight_goal(self):
        """A truncated H|psi> inflated epsilon above 1e-12 here, so the run
        never met its goal; the exact variance meets it within two sweeps."""
        spec = ModelSpec(n_sites=16, spacing=1 / 50, bare_mass=0.2, coupling_sq=1.5)
        mpo = compile_mpo(build_hamiltonian(spec), spec.flavors)
        _state, report = dmrg_ground_state(mpo, epsilon_goal=1e-12, max_bond=64, seed=3, max_sweeps=8)
        assert report.converged
        assert report.epsilon < 1e-12
        assert report.sweeps <= 5

    def test_validates_arguments(self, small_spec):
        mpo = compile_mpo(build_hamiltonian(small_spec), small_spec.flavors)
        with pytest.raises(ValueError):
            dmrg_ground_state(mpo, epsilon_goal=0.0, max_bond=16, seed=0)
        with pytest.raises(ValueError):
            dmrg_ground_state(mpo, epsilon_goal=1e-8, max_bond=1, seed=0)
        with pytest.raises(ValueError, match="max_sweeps"):
            dmrg_ground_state(mpo, epsilon_goal=1e-8, max_bond=16, seed=0, max_sweeps=0)

    def test_start_of_another_size_is_refused(self, small_spec):
        mpo = compile_mpo(build_hamiltonian(small_spec), small_spec.flavors)
        wrong = MatrixProductState.random((4,) * (mpo.n_sites + 1), bond_dim=2, seed=0)
        with pytest.raises(ValueError, match="start state dims"):
            dmrg_ground_state(mpo, epsilon_goal=1e-8, max_bond=16, seed=0, start=wrong)

    def test_grown_start_converges_faster_and_stays_untouched(self, local_solve_counts):
        """The 3-site vacuum with the symmetry-adapted pad appended starts the
        4-site solve: it needs fewer local products than the random start
        (37 against 106, one sweep each), ignores the seed, and the caller's
        MPS keeps its tensors."""
        spec = ModelSpec(n_sites=3, spacing=0.25, bare_mass=0.2, coupling_sq=1.5)
        small, _report = solve(spec)
        start = append_site(small, pad_state(PadKind.SYMMETRY_ADAPTED))
        before = [t.copy() for t in start.tensors]
        mpo = compile_mpo(build_hamiltonian(spec.with_sites(4)), spec.flavors)
        local_solve_counts["matvecs"] = 0
        grown, report = dmrg_ground_state(mpo, epsilon_goal=1e-10, max_bond=64, seed=3, start=start)
        grown_products = local_solve_counts["matvecs"]
        assert len(start.tensors) == len(before)
        assert all(np.array_equal(t, b) for t, b in zip(start.tensors, before))
        other, other_report = dmrg_ground_state(mpo, epsilon_goal=1e-10, max_bond=64, seed=99, start=start)
        assert other_report == report
        assert all(np.array_equal(t, b) for t, b in zip(other.tensors, grown.tensors))
        local_solve_counts["matvecs"] = 0
        _cold, cold = dmrg_ground_state(mpo, epsilon_goal=1e-10, max_bond=64, seed=3)
        assert report.converged and 2 * grown_products < local_solve_counts["matvecs"]
        assert report.energy == pytest.approx(cold.energy, rel=1e-10)


class TestRealArithmetic:
    """A real MPO runs in float64 end to end; a complex one or a complex start promotes to complex128."""

    SPEC = ModelSpec(n_sites=5, spacing=0.25, bare_mass=0.2, coupling_sq=1.5)

    def test_frame_solve_is_real_and_meets_the_majorana_energy(self):
        mpo = compile_mpo(build_hamiltonian(self.SPEC, spinor_frame=True), self.SPEC.flavors)
        state, report = dmrg_ground_state(mpo, epsilon_goal=1e-10, max_bond=64, seed=3)
        assert all(t.dtype == np.float64 for t in state.tensors)
        assert report.converged
        _state, reference = solve(self.SPEC)
        assert report.energy == pytest.approx(reference.energy, rel=1e-10)
        assert epsilon_measure(state, mpo) == report.epsilon

    def test_complex_start_promotes_a_real_mpo(self):
        mpo = compile_mpo(build_hamiltonian(self.SPEC, spinor_frame=True), self.SPEC.flavors)
        start = MatrixProductState.random(mpo.phys_dims, bond_dim=2, seed=1)
        state, report = dmrg_ground_state(mpo, epsilon_goal=1e-10, max_bond=64, seed=3, start=start)
        assert all(t.dtype == np.complex128 for t in state.tensors) and report.converged

    def test_random_start_dtype(self):
        real = MatrixProductState.random((4, 4, 4), bond_dim=2, seed=1, dtype=float)
        assert all(t.dtype == np.float64 for t in real.tensors)
        assert MatrixProductState(real.tensors).tensors[0].dtype == np.float64
        assert MatrixProductState([real.tensors[0].astype(complex), *real.tensors[1:]]).tensors[2].dtype == np.complex128


class TestStopRule:
    """epsilon < goal ends a run converged; a sweep that fails to lower the energy ends it unconverged."""

    @pytest.mark.parametrize("n_sites, max_bond, goal, converged", [
        (16, 8, 1e-12, False),   # stalls at the bond cap far above the goal
        (6, 4, 1e-10, False),    # the capped second sweep raises the energy
        (6, 64, 1e-10, True),
    ])
    def test_converged_means_the_goal_was_met(self, n_sites, max_bond, goal, converged):
        spec = ModelSpec(n_sites=n_sites, spacing=1 / 50, bare_mass=0.2, coupling_sq=1.5)
        _state, report = solve(spec, epsilon_goal=goal, max_bond=max_bond)
        assert report.converged is converged
        assert report.converged == (report.epsilon < goal)
        if not converged:
            assert report.sweeps == 2 and report.max_bond == max_bond

    def test_a_capped_sweep_that_raises_the_energy_ends_the_run(self):
        spec = ModelSpec(n_sites=6, spacing=1 / 50, bare_mass=0.2, coupling_sq=1.5)
        mpo = compile_mpo(build_hamiltonian(spec), spec.flavors)
        first = dmrg_ground_state(mpo, epsilon_goal=1e-10, max_bond=4, seed=3, max_sweeps=1)[1]
        _state, report = dmrg_ground_state(mpo, epsilon_goal=1e-10, max_bond=4, seed=3)
        assert report.energy > first.energy
        assert report.sweeps == 2 and not report.converged


@pytest.fixture
def measured_bonds(monkeypatch):
    """The largest bond of every state whose epsilon `dmrg_ground_state` measures."""
    bonds = []
    measure = dmrg.epsilon_measure

    def counted(state, mpo):
        bonds.append(max(state.bond_dims))
        return measure(state, mpo)

    monkeypatch.setattr(dmrg, "epsilon_measure", counted)
    return bonds


class TestEpsilonEverySweep:
    """Every sweep of a random start runs at the bond cap, and epsilon follows each one."""

    SPEC = ModelSpec(n_sites=24, spacing=0.25, bare_mass=0.2, coupling_sq=1.5)

    def test_epsilon_follows_every_sweep(self, measured_bonds):
        # two sites hold at most bond 4: one sweep meets the goal, with the energy pinned bit for bit
        _state, report = solve(self.SPEC.with_sites(2))
        assert report.converged and report.sweeps == 1
        assert measured_bonds == [4] and len(measured_bonds) == report.sweeps
        assert report.energy == float.fromhex("-0x1.de7752bf44fa3p+3")
        measured_bonds.clear()
        _state, report = solve(self.SPEC, max_bond=32)
        assert report.converged and report.sweeps == 1
        assert measured_bonds == [24] and len(measured_bonds) == report.sweeps


def relative_error(energy, reference):
    return abs(energy - reference) / abs(reference)


class TestTwoFlavours:
    """Two-flavour vacua (a = 0.25, m0 = 0.2, cap 64, goal 1e-10), one MPS tensor of dimension 16 per lattice site.

    Every case below meets its goal in one sweep.  When each flavour had its
    own tensor, a same-flavour hop skipped an MPS site: cold N = 2 at
    g0^2 = 0 stalled at epsilon = 9.4e-3, and no grown size entangled its new
    lattice site with the old ones (White, PRB 72, 180403(R) (2005)).
    """

    SPEC = ModelSpec(n_sites=2, spacing=0.25, bare_mass=0.2, coupling_sq=1.5, flavors=2)
    PAD = pad_state(PadKind.SYMMETRY_ADAPTED, 2)

    @pytest.fixture(scope="class")
    def four_sites(self):
        return solve(self.SPEC.with_sites(4))

    @staticmethod
    def dense_energy(spec):
        return ground_state_dense(build_hamiltonian(spec)).ground_energy

    @pytest.mark.parametrize("seed", [1, 3, 5])
    def test_interacting_cold_vacuum_matches_dense(self, seed):
        _state, report = solve(self.SPEC, seed=seed)
        assert relative_error(report.energy, self.dense_energy(self.SPEC)) <= 1e-8

    def test_free_cold_vacuum_matches_dense(self):
        spec = replace(self.SPEC, coupling_sq=0.0)
        _state, report = solve(spec)
        assert relative_error(report.energy, self.dense_energy(spec)) <= 1e-8

    @pytest.mark.parametrize("g0_sq", [0.0, 1.5])
    def test_cold_and_grown_three_sites_match_dense(self, g0_sq):
        spec = replace(self.SPEC, coupling_sq=g0_sq)
        small, _report = solve(spec)
        _state, cold = solve(spec.with_sites(3))
        _state, grown = solve(spec.with_sites(3), start=append_site(small, self.PAD))
        dense = self.dense_energy(spec.with_sites(3))
        for report in (cold, grown):
            assert report.converged and report.sweeps == 1
            assert relative_error(report.energy, dense) <= 1e-8

    def test_free_three_sites_match_the_one_body_spectrum(self):
        """At g0^2 = 0 the flavours decouple: the vacuum fills every negative one-body level."""
        spec = replace(self.SPEC, n_sites=3, coupling_sq=0.0)
        levels = np.linalg.eigvalsh(free_quadratic_form(spec))
        _state, report = solve(spec)
        assert relative_error(report.energy, np.sum(levels[levels < 0])) <= 1e-8

    def test_four_sites_match_arpack(self, four_sites):
        _state, report = four_sites
        assert report.converged
        reference = arpack_lowest(build_hamiltonian(self.SPEC.with_sites(4)), 1)[0]
        assert relative_error(report.energy, reference) <= 1e-8

    def test_five_sites_grown_match_cold(self, four_sites):
        spec = self.SPEC.with_sites(5)
        _state, cold = solve(spec)
        _state, grown = solve(spec, start=append_site(four_sites[0], self.PAD))
        assert cold.converged and grown.converged
        assert relative_error(grown.energy, cold.energy) <= 1e-8


class TestTwoSiteMatvec:
    """`_two_site_matvec` applies the einsum effective Hamiltonian, whatever its memory layout."""

    @pytest.mark.parametrize("left, wl, wr, right", [
        (1, 1, 5, 6),    # first bond: MPS and MPO edges of 1 on the left
        (6, 5, 1, 1),    # last bond: MPS and MPO edges of 1 on the right
        (3, 4, 5, 7),    # interior, unequal left and right MPS bonds
    ])
    def test_matches_einsum_reference(self, rng, left, wl, wr, right):
        lenv, renv = random_complex(rng, left, wl, left), random_complex(rng, right, wr, right)
        w1, w2 = random_complex(rng, wl, 4, 4, 6), random_complex(rng, 6, 4, 4, wr)
        expected = effective_two_site_matrix(lenv, w1, w2, renv)
        got = matvec_matrix(dmrg._two_site_matvec(lenv, w1, w2, renv), left * 16 * right)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_hamiltonian_environments_give_a_hermitian_matrix(self, small_spec):
        """Environments of a compiled Hamiltonian around the middle bond of a random 4-site state."""
        mpo = compile_mpo(build_hamiltonian(small_spec.with_sites(4)), small_spec.flavors)
        psi = MatrixProductState.random(mpo.phys_dims, bond_dim=3, seed=5)
        edge = np.ones((1, 1, 1), dtype=complex)
        lenv = transfer(edge, psi.tensors[0], mpo.tensors[0], psi.tensors[0])
        renv = dmrg._grow_right(edge, psi.tensors[3], mpo.tensors[3])
        args = (lenv, mpo.tensors[1], mpo.tensors[2], renv)
        got = matvec_matrix(dmrg._two_site_matvec(*args), lenv.shape[0] * 16 * renv.shape[0])
        expected = effective_two_site_matrix(*args)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
        assert np.linalg.norm(got - got.conj().T) <= 1e-12 * np.linalg.norm(got)


class TestEpsilonMeasure:
    def test_exact_eigenstate_has_tiny_epsilon(self, small_spec):
        op = build_hamiltonian(small_spec)
        dense = ground_state_dense(op)
        mps = MatrixProductState.from_dense(dense.ground_vector, grouped_dims(op.n_qubits, small_spec.flavors))
        eps = epsilon_measure(mps, compile_mpo(op, small_spec.flavors))
        assert eps <= 1e-10

    def test_epsilon_never_reads_zero(self):
        """An exact product eigenstate has no variance to round: epsilon reads the float64 floor, not 0."""
        n = 4
        terms = [(1.0 + 0.1 * q, "I" * q + "Z" + "I" * (n - q - 1)) for q in range(n)]
        mpo = compile_mpo(PauliSumOperator.from_terms(n, terms), 1)
        vacuum = np.zeros(2**n, dtype=complex)
        vacuum[0] = 1.0
        state = MatrixProductState.from_dense(vacuum, mpo.phys_dims)
        assert epsilon_measure(state, mpo) == np.finfo(float).eps

    @pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4])
    def test_delta_bound_for_perturbed_states(self, delta):
        """delta <= sqrt(eps) when the orthogonal piece points at the top state."""
        spec = ModelSpec(n_sites=4, spacing=0.25, bare_mass=0.2, coupling_sq=1.5)
        op = build_hamiltonian(spec)
        evals, evecs = np.linalg.eigh(op.to_matrix())
        mixed = evecs[:, 0] + delta * evecs[:, -1]
        mixed /= np.linalg.norm(mixed)
        mps = MatrixProductState.from_dense(mixed, grouped_dims(op.n_qubits, spec.flavors))
        eps = epsilon_measure(mps, compile_mpo(op, spec.flavors))
        assert delta <= np.sqrt(eps)

    def test_epsilon_scales_as_delta_squared(self):
        spec = ModelSpec(n_sites=4, spacing=0.25, bare_mass=0.2, coupling_sq=1.5)
        op = build_hamiltonian(spec)
        mpo = compile_mpo(op, spec.flavors)
        evals, evecs = np.linalg.eigh(op.to_matrix())
        ratios = []
        for delta in (1e-2, 1e-4):
            mixed = evecs[:, 0] + delta * evecs[:, -1]
            mixed /= np.linalg.norm(mixed)
            mps = MatrixProductState.from_dense(mixed, grouped_dims(op.n_qubits, spec.flavors))
            ratios.append(epsilon_measure(mps, mpo) / delta**2)
        assert max(ratios) / min(ratios) < 2.0

    def test_dense_cross_check(self, small_spec):
        op = build_hamiltonian(small_spec)
        rng = np.random.default_rng(5)
        vec = rng.standard_normal(1 << op.n_qubits) + 1j * rng.standard_normal(1 << op.n_qubits)
        vec /= np.linalg.norm(vec)
        mps = MatrixProductState.from_dense(vec, grouped_dims(op.n_qubits, small_spec.flavors))
        eps = epsilon_measure(mps, compile_mpo(op, small_spec.flavors))
        dense = op.to_matrix()
        h_val = np.vdot(vec, dense @ vec)
        h2_val = np.vdot(dense @ vec, dense @ vec)
        expected = (abs(h2_val) - abs(h_val) ** 2) / abs(h_val) ** 2
        assert eps == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("n_sites", [4, 5])
    @pytest.mark.parametrize("spacing", [0.25, 1 / 50])
    def test_matches_statevector_oracle(self, n_sites, spacing):
        """Ground state plus delta (first excited + top state): epsilon within
        5 % of ||(H - E) v||^2 / E^2 wherever that is at least 1e-13."""
        spec = ModelSpec(n_sites=n_sites, spacing=spacing, bare_mass=0.2, coupling_sq=1.5)
        op = build_hamiltonian(spec)
        mpo = compile_mpo(op, spec.flavors)
        dense = op.to_matrix()
        _evals, evecs = np.linalg.eigh(dense)
        for delta in (1e-5, 1e-6):
            vec = evecs[:, 0] + delta * (evecs[:, 1] + evecs[:, -1])
            vec /= np.linalg.norm(vec)
            energy = np.vdot(vec, dense @ vec).real
            oracle = np.linalg.norm(dense @ vec - energy * vec) ** 2 / energy**2
            assert oracle >= 1e-13
            mps = MatrixProductState.from_dense(vec, grouped_dims(op.n_qubits, spec.flavors))
            assert epsilon_measure(mps, mpo) == pytest.approx(oracle, rel=0.05, abs=0.0)

    @pytest.mark.parametrize("n_sites", [4, 5])
    @pytest.mark.parametrize("spacing", [0.25, 1 / 50])
    def test_merged_square_matches_the_uncompressed_one(self, n_sites, spacing):
        """Merging the squared MPO's channels changes epsilon by rounding only."""
        spec = ModelSpec(n_sites=n_sites, spacing=spacing, bare_mass=0.2, coupling_sq=1.5)
        op = build_hamiltonian(spec)
        mpo = compile_mpo(op, spec.flavors)
        _evals, evecs = np.linalg.eigh(op.to_matrix())
        for delta in (1e-2, 1e-5, 1e-6):
            vec = evecs[:, 0] + delta * (evecs[:, 1] + evecs[:, -1])
            mps = MatrixProductState.from_dense(vec / np.linalg.norm(vec), grouped_dims(op.n_qubits, spec.flavors))
            assert abs(epsilon_measure(mps, mpo) - epsilon_uncompressed(mps, mpo)) <= 1e-14

    def test_merged_square_on_a_dmrg_state(self):
        spec = ModelSpec(n_sites=8, spacing=0.25, bare_mass=0.2, coupling_sq=1.5)
        mpo = compile_mpo(build_hamiltonian(spec), spec.flavors)
        psi, _report = dmrg_ground_state(mpo, epsilon_goal=1e-6, max_bond=8, seed=3)
        eps = epsilon_measure(psi, mpo)
        assert eps > 1e-12   # the bond cap leaves a variance well above rounding
        assert abs(eps - epsilon_uncompressed(psi, mpo)) <= 1e-14

    def test_fifty_site_variance_mpo_has_bond_eight(self, monkeypatch):
        """Work guard: the squared MPO contracted at 50 sites has bond at most 8, not 16."""
        mpo = compile_mpo(build_hamiltonian(ModelSpec(50, 1 / 50, 0.2, 1.5)), 1)
        bonds = []
        contract = dmrg.expectation_value

        def recording(state, op):
            bonds.append(op.max_bond)
            return contract(state, op)

        monkeypatch.setattr(dmrg, "expectation_value", recording)
        epsilon_measure(MatrixProductState.random(mpo.phys_dims, bond_dim=4, seed=2), mpo)
        assert len(bonds) == 2 and bonds[1] <= 8

    def test_zero_energy_rejected(self):
        op = PauliSumOperator.from_terms(4, [(1.0, "XXII"), (1.0, "IIXX")])
        mpo = compile_mpo(op, 1)
        zero = np.array([1, 0, 0, 0], dtype=complex)
        state = MatrixProductState([zero.reshape(1, -1, 1)] * 2, center=0)
        with pytest.raises(DegenerateEnergyError):
            epsilon_measure(state, mpo)


class TestFreeTheoryYardstick:
    """g0^2 = 0 is quadratic, so the 50-site vacuum is known exactly: E0 is the
    sum of the negative one-body eigenvalues (no identity term at g0^2 = 0) and
    every correlator block comes from the determinant oracle."""

    def test_fifty_sites_against_exact_free_solution(self):
        spec = ModelSpec(n_sites=50, spacing=0.25, bare_mass=1.0, coupling_sq=0.0)
        goal = 1e-10
        state, report = solve(spec, epsilon_goal=goal, max_bond=64, seed=3)
        assert report.converged
        assert report.epsilon <= goal

        one_body = np.linalg.eigvalsh(free_quadratic_form(spec))
        e0 = float(np.sum(one_body[one_body < 0]))
        gap = float(np.min(np.abs(one_body)))         # E1 - E0
        e = report.energy
        # Temple: E - E0 <= sigma^2 / (E1 - E), with sigma^2 = epsilon E^2
        assert 0.0 <= e - e0 <= report.epsilon * e**2 / (e0 + gap - e)

        series = two_point_correlator(state, spec, epsilon=report.epsilon)
        correl = free_fermion_correlations(free_quadratic_form(spec))
        gamma0 = majorana_gammas().gamma0
        for idx, (_k, i, j) in enumerate(centered_pairs(spec.n_sites)):
            block = np.array([[correl[spec.mode_index(i, 0, a), spec.mode_index(j, 0, c)]
                               for c in range(2)] for a in range(2)])
            expected = (block @ gamma0 / spec.spacing)[0, 0].real
            assert abs(series.values[idx] - expected) <= series.error_bars[idx]

    @pytest.mark.parametrize("n_sites", [2, 3, 4])
    def test_free_energy_formula_matches_dense(self, n_sites):
        spec = ModelSpec(n_sites=n_sites, spacing=0.25, bare_mass=1.0, coupling_sq=0.0)
        one_body = np.linalg.eigvalsh(free_quadratic_form(spec))
        dense = ground_state_dense(build_hamiltonian(spec))
        assert float(np.sum(one_body[one_body < 0])) == pytest.approx(dense.ground_energy, abs=1e-10)
        assert float(np.min(np.abs(one_body))) == pytest.approx(dense.gap, abs=1e-10)
