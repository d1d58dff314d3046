import math

import numpy as np
import pytest

from gnlab.model import (
    Boundary,
    ModelSpec,
    build_hamiltonian,
    free_dispersion,
    free_quadratic_form,
    lattice_momenta,
    majorana_gammas,
)
from gnlab.mps import compile_mpo
from gnlab.pauli import PauliSumOperator

from oracles import dense_hamiltonian, fermionic_permutation_unitary, pauli_product_reference


class TestModelSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelSpec(n_sites=1, spacing=0.5, bare_mass=0.1, coupling_sq=1.0)
        with pytest.raises(ValueError):
            ModelSpec(n_sites=4, spacing=0.0, bare_mass=0.1, coupling_sq=1.0)
        with pytest.raises(ValueError):
            ModelSpec(n_sites=4, spacing=0.5, bare_mass=0.1, coupling_sq=-1.0)
        with pytest.raises(ValueError):
            ModelSpec(n_sites=4, spacing=0.5, bare_mass=0.1, coupling_sq=1.0, wilson_r=0.0)
        with pytest.raises(ValueError):
            ModelSpec(n_sites=4, spacing=0.5, bare_mass=0.1, coupling_sq=1.0, wilson_r=1.5)

    def test_qubit_count(self):
        spec = ModelSpec(n_sites=5, spacing=0.5, bare_mass=0.1, coupling_sq=0.5, flavors=2)
        assert spec.n_qubits == 2 * 2 * 5

    def test_reference_points_accepted(self, reference_points):
        for m0, g0_sq in reference_points:
            spec = ModelSpec(n_sites=4, spacing=0.25, bare_mass=m0, coupling_sq=g0_sq)
            assert spec.coupling_sq == g0_sq


class TestGammaMatrices:
    def test_exact_constants(self):
        rep = majorana_gammas()
        assert np.array_equal(rep.gamma0, 1j * np.array([[0, -1], [1, 0]]))
        assert np.array_equal(rep.gamma1, -1j * np.array([[0, 1], [1, 0]]))

    def test_anticommutation(self):
        rep = majorana_gammas()
        anti = rep.gamma0 @ rep.gamma1 + rep.gamma1 @ rep.gamma0
        assert np.allclose(anti, 0)
        assert np.allclose(rep.gamma0 @ rep.gamma0, np.eye(2))
        assert np.allclose(rep.gamma1 @ rep.gamma1, -np.eye(2))


class TestBuildHamiltonian:
    def test_two_sites_hermitian_and_local(self):
        spec = ModelSpec(n_sites=2, spacing=0.7, bare_mass=0.3, coupling_sq=0.8)
        ham = build_hamiltonian(spec)
        assert ham.n_qubits == 4
        assert ham.is_hermitian()
        assert max(sum(ch != "I" for ch in s) for _c, s in ham.terms) <= 4

    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.PERIODIC])
    @pytest.mark.parametrize(("flavors", "wilson_r", "coupling_sq"), [
        pytest.param(flavors, r, g_sq, id=f"{flavors}{tag}")
        for r, g_sq, tag in ((1.0, 1.5, ""), (0.7, 1.5, "-r0.7"), (1.0, 0.0, "-free"), (0.7, 0.0, "-r0.7-free"))
        for flavors in (1, 2)
    ])
    def test_matches_dense_ladder_oracle(self, boundary, flavors, wilson_r, coupling_sq):
        spec = ModelSpec(
            n_sites=3 if flavors == 1 else 2, spacing=0.25, bare_mass=0.2,
            coupling_sq=coupling_sq, wilson_r=wilson_r, flavors=flavors, boundary=boundary,
        )
        assert np.allclose(build_hamiltonian(spec).to_matrix(), dense_hamiltonian(spec), atol=1e-12)

    def test_ground_energy_against_independent_diagonalization(self):
        spec = ModelSpec(n_sites=4, spacing=0.25, bare_mass=0.2, coupling_sq=1.5, wilson_r=1.0)
        import scipy.linalg

        ours = np.linalg.eigvalsh(build_hamiltonian(spec).to_matrix())[0]
        oracle = scipy.linalg.eigh(dense_hamiltonian(spec), eigvals_only=True)[0]
        assert ours == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("spec", [
        pytest.param(ModelSpec(50, 1 / 50, 0.2, 1.5), id="50-sites"),
        pytest.param(ModelSpec(6, 0.25, 0.2, 1.5, flavors=2, boundary=Boundary.PERIODIC), id="6-sites-2-flavors-periodic"),
        pytest.param(ModelSpec(5, 0.25, 0.2, 0.0), id="5-sites-free"),
        pytest.param(ModelSpec(7, 1 / 3, 0.2, 1.5, wilson_r=0.7), id="7-sites-r0.7"),
    ])
    def test_identical_to_letter_table_products(self, spec, monkeypatch):
        """The Hamiltonian and its MPO are the same bits whichever way the Pauli products are taken."""
        ham = build_hamiltonian(spec)
        monkeypatch.setattr("gnlab.pauli._mul_strings", pauli_product_reference)
        ref = build_hamiltonian(spec)
        assert ham.terms == ref.terms
        assert repr(ham.terms) == repr(ref.terms)  # signed zeros count
        span = ham.n_qubits  # covers the periodic wrap
        mpos = [compile_mpo(op, spec.flavors, span) for op in (ham, ref)]
        for got, want in zip(mpos[0].tensors, mpos[1].tensors, strict=True):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_rejects_invalid_specs(self):
        with pytest.raises(ValueError):
            ModelSpec(n_sites=1, spacing=0.5, bare_mass=0.2, coupling_sq=1.5)
        with pytest.raises(ValueError):
            ModelSpec(n_sites=4, spacing=-0.5, bare_mass=0.2, coupling_sq=1.5)

    def test_geometric_locality(self):
        """Every Pauli string touches qubits of at most two adjacent sites."""
        spec = ModelSpec(n_sites=5, spacing=0.5, bare_mass=0.2, coupling_sq=1.5)
        ham = build_hamiltonian(spec)
        for _c, s in ham.terms:
            qubits = [q for q, ch in enumerate(s) if ch != "I"] or [0]
            assert qubits[-1] // 2 - qubits[0] // 2 <= 1

    def test_free_spectrum_matches_dispersion_periodic(self):
        spec = ModelSpec(
            n_sites=12, spacing=1.0 / 12, bare_mass=1.0, coupling_sq=0.0,
            wilson_r=0.5, boundary=Boundary.PERIODIC,
        )
        single_particle = np.sort(np.linalg.eigvalsh(free_quadratic_form(spec)))
        expected = np.sort(
            np.concatenate(
                [(free_dispersion(spec, p), -free_dispersion(spec, p)) for p in lattice_momenta(spec)]
            )
        )
        assert np.max(np.abs(single_particle - expected)) < 1e-10

    def test_flavor_swap_symmetry(self):
        spec = ModelSpec(n_sites=2, spacing=0.5, bare_mass=0.3, coupling_sq=1.0, flavors=2)
        ham = build_hamiltonian(spec).to_matrix()
        perm = {}
        for x in range(2):
            for j in range(2):
                for c in range(2):
                    perm[2 * (2 * x + j) + c] = 2 * (2 * x + (1 - j)) + c
        swap = fermionic_permutation_unitary(spec.n_qubits, perm)
        assert np.max(np.abs(swap @ ham - ham @ swap)) < 1e-12

    @pytest.mark.parametrize("n_sites", [2, 3, 4])
    def test_parity_symmetry(self, n_sites):
        spec = ModelSpec(n_sites=n_sites, spacing=0.5, bare_mass=0.2, coupling_sq=1.5)
        ham = build_hamiltonian(spec)
        parity = PauliSumOperator.from_terms(spec.n_qubits, [(1.0, "Z" * spec.n_qubits)])
        assert len(ham * parity - parity * ham) == 0

    def test_reflection_preserves_spectrum(self):
        spec = ModelSpec(n_sites=4, spacing=0.5, bare_mass=0.2, coupling_sq=1.5)
        ham = build_hamiltonian(spec)
        mapping = [0] * spec.n_qubits
        for x in range(spec.n_sites):
            for c in range(2):
                mapping[2 * x + c] = 2 * (spec.n_sites - 1 - x) + c
        # the mapping is its own inverse: qubit q takes the letter of qubit mapping[q]
        reflected = PauliSumOperator.from_terms(
            spec.n_qubits, [(c, "".join(s[m] for m in mapping)) for c, s in ham.terms]
        )
        assert np.allclose(
            np.linalg.eigvalsh(ham.to_matrix()),
            np.linalg.eigvalsh(reflected.to_matrix()),
            atol=1e-10,
        )


class TestFreeDispersion:
    def test_rest_mass_value(self):
        spec = ModelSpec(n_sites=50, spacing=1.0 / 50, bare_mass=1.0, coupling_sq=0.0)
        assert free_dispersion(spec, 0.0) == pytest.approx(1.0)

    def test_zero_momentum_is_bare_mass(self):
        spec = ModelSpec(n_sites=8, spacing=0.3, bare_mass=0.37, coupling_sq=2.0)
        assert free_dispersion(spec, 0.0) == pytest.approx(0.37)

    def test_doubler_lifting(self):
        a = 0.5
        low_r = ModelSpec(n_sites=8, spacing=a, bare_mass=1.0, coupling_sq=0.0, wilson_r=1e-9)
        assert free_dispersion(low_r, math.pi / a) == pytest.approx(1.0, abs=1e-6)
        full_r = ModelSpec(n_sites=8, spacing=a, bare_mass=1.0, coupling_sq=0.0, wilson_r=1.0)
        assert free_dispersion(full_r, math.pi / a) == pytest.approx(1.0 + 2.0 / a)

    def test_even_in_momentum(self):
        spec = ModelSpec(n_sites=8, spacing=0.3, bare_mass=0.5, coupling_sq=0.0)
        for p in (0.1, 0.7, 2.0):
            assert free_dispersion(spec, p) == free_dispersion(spec, -p)
