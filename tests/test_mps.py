import numpy as np
import pytest

from gnlab.dmrg import _grow_right
from gnlab.model import ModelSpec, build_hamiltonian
from gnlab.mps import (
    MatrixProductState,
    MpoRangeError,
    append_site,
    apply_mpo,
    compile_mpo,
    expectation_value,
    grouped_dims,
    mps_overlap,
    pauli_sum_expectation,
    transfer,
)
from gnlab.pauli import PauliSumOperator, jordan_wigner

from oracles import mpo_to_matrix, mps_to_dense, transfer_reference


def random_state_vector(dim, rng):
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def product_state(vectors):
    """Bond-dimension-one MPS of one local vector per site."""
    return MatrixProductState([np.asarray(v, dtype=complex).reshape(1, -1, 1) for v in vectors], center=0)


def transverse_field_ising(n_qubits, coupling=1.0, field=0.7):
    terms = []
    for q in range(n_qubits - 1):
        terms.append((-coupling, "I" * q + "XX" + "I" * (n_qubits - q - 2)))
    for q in range(n_qubits):
        terms.append((-field, "I" * q + "Z" + "I" * (n_qubits - q - 1)))
    return PauliSumOperator.from_terms(n_qubits, terms)


class TestMatrixProductState:
    def test_dense_roundtrip(self, rng):
        vec = random_state_vector(64, rng)
        mps = MatrixProductState.from_dense(vec, grouped_dims(6))
        assert np.max(np.abs(mps_to_dense(mps) - vec)) < 1e-12

    def test_canonicalize_idempotent(self, rng):
        mps = MatrixProductState.random(grouped_dims(8), bond_dim=5, seed=1)
        mps.canonicalize(2)
        once = [t.copy() for t in mps.tensors]
        mps.canonicalize(2)
        for a, b in zip(once, mps.tensors):
            assert np.max(np.abs(a - b)) < 1e-12

    def test_norm_after_canonicalization(self):
        mps = MatrixProductState.random(grouped_dims(6), bond_dim=4, seed=7)
        assert mps.norm() == pytest.approx(1.0, abs=1e-10)
        mps.canonicalize(2)
        assert mps.norm() == pytest.approx(1.0, abs=1e-10)

    def test_save_load_roundtrip(self, tmp_path, rng):
        vec = random_state_vector(256, rng)
        mps = MatrixProductState.from_dense(vec, grouped_dims(8))
        path = tmp_path / "state.mps"
        mps.save(path)
        back = MatrixProductState.load(path)
        assert back.center == mps.center
        assert np.max(np.abs(mps_to_dense(back) - vec)) < 1e-12

    def test_load_rejects_other_files(self, tmp_path):
        path = tmp_path / "junk.mps"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            MatrixProductState.load(path)


class TestOverlap:
    def test_self_overlap_is_one(self):
        mps = MatrixProductState.random(grouped_dims(6), bond_dim=6, seed=3)
        assert mps_overlap(mps, mps) == pytest.approx(1.0, abs=1e-10)

    def test_product_states_factorize(self, rng):
        vecs_a = [random_state_vector(4, rng) for _ in range(4)]
        vecs_b = [random_state_vector(4, rng) for _ in range(4)]
        a = product_state(vecs_a)
        b = product_state(vecs_b)
        expected = np.prod([np.vdot(x, y) for x, y in zip(vecs_a, vecs_b)])
        assert mps_overlap(a, b) == pytest.approx(expected, abs=1e-12)

    def test_conjugate_symmetry(self, rng):
        a = MatrixProductState.random(grouped_dims(6), bond_dim=4, seed=5)
        b = MatrixProductState.random(grouped_dims(6), bond_dim=4, seed=6)
        assert mps_overlap(a, b) == pytest.approx(np.conj(mps_overlap(b, a)), abs=1e-14)

    def test_dense_ground_vector_embedding(self, small_spec):
        from gnlab.exact import ground_state_dense

        result = ground_state_dense(build_hamiltonian(small_spec))
        mps = MatrixProductState.from_dense(result.ground_vector, grouped_dims(small_spec.n_qubits))
        assert abs(mps_overlap(mps, mps)) >= 1 - 1e-10
        dense_again = mps_to_dense(mps)
        assert abs(np.vdot(dense_again, result.ground_vector)) >= 1 - 1e-8

    def test_size_mismatch_rejected(self):
        a = MatrixProductState.random((4, 4), bond_dim=2, seed=0)
        b = MatrixProductState.random((4, 4, 4), bond_dim=2, seed=0)
        with pytest.raises(ValueError):
            mps_overlap(a, b)


class TestAppendSite:
    def test_uniform_pad_has_zero_entanglement(self, rng):
        state = MatrixProductState.random(grouped_dims(8), bond_dim=6, seed=2)
        pad = np.full(4, 0.5, dtype=complex)
        grown = append_site(state, pad)
        svals = np.linalg.svd(mps_to_dense(grown).reshape(-1, 4), compute_uv=False)
        entropy = -np.sum((svals**2) * np.log(np.maximum(svals**2, 1e-300)))
        assert entropy < 1e-10

    def test_projecting_pad_back_recovers_state(self, rng):
        vec = random_state_vector(64, rng)
        state = MatrixProductState.from_dense(vec, grouped_dims(6))
        pad = random_state_vector(4, rng)
        grown_dense = mps_to_dense(append_site(state, pad))
        recovered = grown_dense.reshape(64, 4) @ pad.conj()
        assert np.max(np.abs(recovered - vec)) < 1e-10

    def test_norm_preserved(self):
        state = MatrixProductState.random(grouped_dims(6), bond_dim=3, seed=9)
        pad = np.zeros(4, dtype=complex)
        pad[1] = pad[2] = 1 / np.sqrt(2)
        grown = append_site(state, pad)
        grown.canonicalize(0)
        assert grown.norm() == pytest.approx(1.0, abs=1e-10)

    def test_unnormalized_pad_rejected(self):
        state = MatrixProductState.random(grouped_dims(4), bond_dim=2, seed=0)
        with pytest.raises(ValueError):
            append_site(state, np.ones(4))

    def test_multi_site_pad(self, rng):
        state = MatrixProductState.random(grouped_dims(4), bond_dim=2, seed=1)
        pad = random_state_vector(16, rng)
        grown = append_site(state, pad)
        assert grown.n_sites == state.n_sites + 2
        expected = np.kron(mps_to_dense(state), pad)
        assert np.max(np.abs(mps_to_dense(grown) - expected)) < 1e-10


class TestCompileMpo:
    def test_identity_has_bond_dimension_one(self):
        mpo = compile_mpo(PauliSumOperator.identity(8, 2.5))
        assert mpo.max_bond == 1
        mpo_small = compile_mpo(PauliSumOperator.identity(4, 2.5))
        assert np.allclose(mpo_to_matrix(mpo_small), 2.5 * np.eye(16))

    def test_ising_expectations_match_dense(self, rng):
        op = transverse_field_ising(4)
        mpo = compile_mpo(op)
        dense = op.to_matrix()
        for _ in range(20):
            vecs = [random_state_vector(4, rng) for _ in range(2)]
            mps = product_state(vecs)
            full = mps_to_dense(mps)
            assert expectation_value(mps, mpo) == pytest.approx(np.vdot(full, dense @ full), abs=1e-12)

    def test_gross_neveu_expectations_match_dense(self, rng):
        spec = ModelSpec(n_sites=4, spacing=0.25, bare_mass=0.2, coupling_sq=1.5)
        op = build_hamiltonian(spec)
        mpo = compile_mpo(op)
        dense = op.to_matrix()
        for _ in range(20):
            vecs = [random_state_vector(4, rng) for _ in range(4)]
            mps = product_state(vecs)
            full = mps_to_dense(mps)
            assert expectation_value(mps, mpo) == pytest.approx(np.vdot(full, dense @ full), abs=1e-10)

    def test_exact_dense_equality_small(self, small_spec):
        op = build_hamiltonian(small_spec)
        assert np.max(np.abs(mpo_to_matrix(compile_mpo(op)) - op.to_matrix())) < 1e-12

    def test_long_range_rejected(self):
        op = PauliSumOperator.from_terms(8, [(1.0, "X" + "I" * 6 + "X")])
        with pytest.raises(MpoRangeError):
            compile_mpo(op, max_span=2)

    def test_support_runs_from_first_to_last_letter(self):
        # first letter on the second qubit of site 0, last on the second qubit of site 2
        op = PauliSumOperator.from_terms(8, [(3.0, "IXIIIZII"), (0.5, "IIIIIIYI")])
        with pytest.raises(MpoRangeError):
            compile_mpo(op, max_span=2)
        for _ in range(2):   # the shared site operators survive the coefficient scaling
            assert np.max(np.abs(mpo_to_matrix(compile_mpo(op, max_span=3)) - op.to_matrix())) < 1e-12

    def test_mirrored_transfer_right_to_left(self, small_spec):
        op = build_hamiltonian(small_spec)
        mpo = compile_mpo(op)
        mps = MatrixProductState.random(grouped_dims(small_spec.n_qubits), bond_dim=4, seed=7)
        env = np.ones((1, 1, 1), dtype=complex)
        for t, w in zip(reversed(mps.tensors), reversed(mpo.tensors)):
            a = t.transpose(2, 1, 0)
            env = transfer(env, a, w.transpose(3, 1, 2, 0), a)
        full = mps_to_dense(mps)
        assert env[0, 0, 0] == pytest.approx(expectation_value(mps, mpo), abs=1e-12)
        assert env[0, 0, 0] == pytest.approx(np.vdot(full, op.to_matrix() @ full), abs=1e-12)

    def test_transfer_matches_einsum_with_unequal_bra_and_ket(self, rng):
        """`mps_overlap` grows environments whose bra and ket bonds differ."""
        def rand(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        env, bra, w, ket = rand(2, 3, 5), rand(2, 4, 6), rand(3, 4, 4, 7), rand(5, 4, 1)
        expected = transfer_reference(env, bra, w, ket)
        got = transfer(env, bra, w, ket)
        assert got.shape == (6, 7, 1)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_grow_right_is_the_mirrored_einsum(self, rng, small_spec):
        """The right environment `_grow_right` builds: the same sum over mirrored tensors."""
        mpo = compile_mpo(build_hamiltonian(small_spec))
        a = MatrixProductState.random(mpo.phys_dims, bond_dim=4, seed=3).tensors[1]
        w = mpo.tensors[1]
        env = rng.standard_normal((a.shape[2], w.shape[3], a.shape[2])) + 0.5j
        mirrored = a.transpose(2, 1, 0)
        expected = transfer_reference(env, mirrored, w.transpose(3, 1, 2, 0), mirrored)
        got = _grow_right(env, a, w)
        assert got.shape == (a.shape[0], w.shape[0], a.shape[0])
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_bond_dimension_tracks_coupling_channels(self, small_spec):
        mpo = compile_mpo(build_hamiltonian(small_spec))
        assert mpo.max_bond <= 12


class TestApplyMpo:
    def test_matches_dense_application(self, rng, small_spec):
        op = build_hamiltonian(small_spec)
        mpo = compile_mpo(op)
        vec = random_state_vector(1 << small_spec.n_qubits, rng)
        mps = MatrixProductState.from_dense(vec, grouped_dims(small_spec.n_qubits))
        result = apply_mpo(mpo, mps)
        assert np.max(np.abs(mps_to_dense(result) - op.to_matrix() @ vec)) < 1e-10

    def test_pauli_sum_expectation_matches_dense(self, rng, small_spec):
        op = build_hamiltonian(small_spec)
        vec = random_state_vector(1 << small_spec.n_qubits, rng)
        mps = MatrixProductState.from_dense(vec, grouped_dims(small_spec.n_qubits))
        assert pauli_sum_expectation(mps, op) == pytest.approx(
            np.vdot(vec, op.to_matrix() @ vec), abs=1e-10
        )
        # a Jordan-Wigner bilinear from site 0 to site 9, beyond compile_mpo's default range
        mps = MatrixProductState.random(grouped_dims(20), bond_dim=4, seed=5)
        op = jordan_wigner(0, "annihilate", 20) * jordan_wigner(19, "create", 20)
        assert pauli_sum_expectation(mps, op) == pytest.approx(
            op.expectation(mps_to_dense(mps)), abs=1e-12
        )
