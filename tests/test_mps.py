import numpy as np
import pytest

from gnlab.dmrg import _grow_right
from gnlab import mps
from gnlab.model import Boundary, ModelSpec, build_hamiltonian
from gnlab.mps import (
    DmrgReport,
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
    truncated_svd,
)
from gnlab.pauli import PauliSumOperator

from oracles import (
    gnmps001_bytes,
    jordan_wigner,
    merge_columns_reference,
    mpo_to_matrix,
    mps_to_dense,
    operator_product,
    transfer_reference,
    truncated_rank_reference,
)


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
        mps = MatrixProductState.from_dense(vec, grouped_dims(6, 1))
        assert np.max(np.abs(mps_to_dense(mps) - vec)) < 1e-12

    def test_canonicalize_idempotent(self, rng):
        mps = MatrixProductState.random(grouped_dims(8, 1), bond_dim=5, seed=1)
        mps.canonicalize(2)
        once = [t.copy() for t in mps.tensors]
        mps.canonicalize(2)
        for a, b in zip(once, mps.tensors):
            assert np.max(np.abs(a - b)) < 1e-12

    def test_norm_after_canonicalization(self):
        mps = MatrixProductState.random(grouped_dims(6, 1), bond_dim=4, seed=7)
        assert mps.norm() == pytest.approx(1.0, abs=1e-10)
        mps.canonicalize(2)
        assert mps.norm() == pytest.approx(1.0, abs=1e-10)

    def test_save_load_roundtrip(self, tmp_path, rng):
        vec = random_state_vector(256, rng)
        mps = MatrixProductState.from_dense(vec, grouped_dims(8, 1))
        report = DmrgReport(energy=float(-rng.exponential(20)), epsilon=float(rng.exponential(1e-11)),
                            sweeps=7, max_bond=max(mps.bond_dims), converged=True)
        path = tmp_path / "state.mps"
        mps.save(path, report)
        back, back_report = MatrixProductState.load(path)
        assert back.center == mps.center
        assert len(back.tensors) == len(mps.tensors)
        for got, want in zip(back.tensors, mps.tensors):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert back_report == report
        assert [type(v) for v in vars(back_report).values()] == [float, float, int, int, bool]
        assert back_report.energy.hex() == report.energy.hex()
        assert back_report.epsilon.hex() == report.epsilon.hex()
        assert np.max(np.abs(mps_to_dense(back) - vec)) < 1e-12

    def test_load_rejects_other_files(self, tmp_path):
        path = tmp_path / "junk.mps"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            MatrixProductState.load(path)

    @pytest.mark.parametrize("damage", ["previous format", "truncated", "trailing byte"])
    def test_load_rejects_other_checkpoints_naming_them(self, tmp_path, damage):
        mps = MatrixProductState.random(grouped_dims(6, 1), bond_dim=4, seed=2)
        path = tmp_path / "state.mps"
        mps.save(path, DmrgReport(energy=-3.5, epsilon=1e-12, sweeps=2, max_bond=4, converged=True))
        path.write_bytes({"previous format": gnmps001_bytes(mps),
                          "truncated": path.read_bytes()[:-1],
                          "trailing byte": path.read_bytes() + b"\0"}[damage])
        with pytest.raises(ValueError, match="state.mps: not a GNMPS002 checkpoint"):
            MatrixProductState.load(path)


class TestOverlap:
    def test_self_overlap_is_one(self):
        mps = MatrixProductState.random(grouped_dims(6, 1), bond_dim=6, seed=3)
        assert mps_overlap(mps, mps) == pytest.approx(1.0, abs=1e-10)

    def test_product_states_factorize(self, rng):
        vecs_a = [random_state_vector(4, rng) for _ in range(4)]
        vecs_b = [random_state_vector(4, rng) for _ in range(4)]
        a = product_state(vecs_a)
        b = product_state(vecs_b)
        expected = np.prod([np.vdot(x, y) for x, y in zip(vecs_a, vecs_b)])
        assert mps_overlap(a, b) == pytest.approx(expected, abs=1e-12)

    def test_conjugate_symmetry(self, rng):
        a = MatrixProductState.random(grouped_dims(6, 1), bond_dim=4, seed=5)
        b = MatrixProductState.random(grouped_dims(6, 1), bond_dim=4, seed=6)
        assert mps_overlap(a, b) == pytest.approx(np.conj(mps_overlap(b, a)), abs=1e-14)

    def test_dense_ground_vector_embedding(self, small_spec):
        from gnlab.exact import ground_state_dense

        result = ground_state_dense(build_hamiltonian(small_spec))
        dims = grouped_dims(small_spec.n_qubits, small_spec.flavors)
        mps = MatrixProductState.from_dense(result.ground_vector, dims)
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
        state = MatrixProductState.random(grouped_dims(8, 1), bond_dim=6, seed=2)
        pad = np.full(4, 0.5, dtype=complex)
        grown = append_site(state, pad)
        svals = np.linalg.svd(mps_to_dense(grown).reshape(-1, 4), compute_uv=False)
        entropy = -np.sum((svals**2) * np.log(np.maximum(svals**2, 1e-300)))
        assert entropy < 1e-10

    def test_projecting_pad_back_recovers_state(self, rng):
        vec = random_state_vector(64, rng)
        state = MatrixProductState.from_dense(vec, grouped_dims(6, 1))
        pad = random_state_vector(4, rng)
        grown_dense = mps_to_dense(append_site(state, pad))
        recovered = grown_dense.reshape(64, 4) @ pad.conj()
        assert np.max(np.abs(recovered - vec)) < 1e-10

    def test_norm_preserved(self):
        state = MatrixProductState.random(grouped_dims(6, 1), bond_dim=3, seed=9)
        pad = np.zeros(4, dtype=complex)
        pad[1] = pad[2] = 1 / np.sqrt(2)
        grown = append_site(state, pad)
        grown.canonicalize(0)
        assert grown.norm() == pytest.approx(1.0, abs=1e-10)

    def test_unnormalized_pad_rejected(self):
        state = MatrixProductState.random(grouped_dims(4, 1), bond_dim=2, seed=0)
        with pytest.raises(ValueError):
            append_site(state, np.ones(4))

    @pytest.mark.parametrize("flavors, length", [(1, 16), (1, 2), (2, 4), (2, 64)])
    def test_pad_of_another_site_dimension_rejected(self, rng, flavors, length):
        state = MatrixProductState.random(grouped_dims(4 * flavors, flavors), bond_dim=2, seed=1)
        with pytest.raises(ValueError, match=f"pad length {length} is not the site dimension {4**flavors}"):
            append_site(state, random_state_vector(length, rng))


class TestCompileMpo:
    def test_identity_has_bond_dimension_one(self):
        mpo = compile_mpo(PauliSumOperator.identity(8, 2.5), 1)
        assert mpo.max_bond == 1
        mpo_small = compile_mpo(PauliSumOperator.identity(4, 2.5), 1)
        assert np.allclose(mpo_to_matrix(mpo_small), 2.5 * np.eye(16))

    def test_ising_expectations_match_dense(self, rng):
        op = transverse_field_ising(4)
        mpo = compile_mpo(op, 1)
        dense = op.to_matrix()
        for _ in range(20):
            vecs = [random_state_vector(4, rng) for _ in range(2)]
            mps = product_state(vecs)
            full = mps_to_dense(mps)
            assert expectation_value(mps, mpo) == pytest.approx(np.vdot(full, dense @ full), abs=1e-12)

    def test_gross_neveu_expectations_match_dense(self, rng):
        spec = ModelSpec(n_sites=4, spacing=0.25, bare_mass=0.2, coupling_sq=1.5)
        op = build_hamiltonian(spec)
        mpo = compile_mpo(op, spec.flavors)
        dense = op.to_matrix()
        for _ in range(20):
            vecs = [random_state_vector(4, rng) for _ in range(4)]
            mps = product_state(vecs)
            full = mps_to_dense(mps)
            assert expectation_value(mps, mpo) == pytest.approx(np.vdot(full, dense @ full), abs=1e-10)

    @pytest.mark.parametrize("spec", [
        pytest.param(ModelSpec(3, 0.25, 0.2, 1.5), id="3-sites"),
        pytest.param(ModelSpec(3, 0.25, 0.2, 0.0, wilson_r=0.7, boundary=Boundary.PERIODIC), id="3-sites-free-periodic"),
        pytest.param(ModelSpec(2, 0.25, 0.2, 1.5, flavors=2), id="2-sites-2-flavors"),
    ])
    def test_frame_hamiltonian_compiles_real(self, spec):
        """The spinor-frame operator gives a float64 MPO of the same matrix; the Majorana one stays complex."""
        span = spec.n_sites   # covers the periodic wrap
        for frame, dtype in ((True, np.float64), (False, np.complex128)):
            op = build_hamiltonian(spec, spinor_frame=frame)
            mpo = compile_mpo(op, spec.flavors, span)
            assert all(w.dtype == dtype for w in mpo.tensors)
            assert np.max(np.abs(mpo_to_matrix(mpo) - op.to_matrix())) < 1e-12

    def test_fifty_site_frame_mpo_keeps_bond_four(self):
        mpo = compile_mpo(build_hamiltonian(ModelSpec(50, 1 / 50, 0.2, 1.5), spinor_frame=True), 1)
        assert mpo.max_bond == 4 and mpo.tensors[0].dtype == np.float64

    def test_exact_dense_equality_small(self, small_spec):
        op = build_hamiltonian(small_spec)
        assert np.max(np.abs(mpo_to_matrix(compile_mpo(op, small_spec.flavors)) - op.to_matrix())) < 1e-12

    def test_two_flavour_sites_are_lattice_sites(self, rng):
        spec = ModelSpec(n_sites=3, spacing=0.25, bare_mass=0.2, coupling_sq=1.5, flavors=2)
        op = build_hamiltonian(spec)
        mpo = compile_mpo(op, spec.flavors)
        assert mpo.phys_dims == (16, 16, 16)
        assert np.max(np.abs(mpo_to_matrix(mpo) - op.to_matrix())) < 1e-12
        vec = random_state_vector(1 << op.n_qubits, rng)
        mps = MatrixProductState.from_dense(vec, grouped_dims(op.n_qubits, spec.flavors))
        assert pauli_sum_expectation(mps, op) == pytest.approx(np.vdot(vec, op.apply(vec)), abs=1e-10)
        with pytest.raises(ValueError, match="cannot be grouped in blocks of 4"):
            compile_mpo(PauliSumOperator.identity(6, 1.0), 2)

    def test_long_range_rejected(self):
        op = PauliSumOperator.from_terms(8, [(1.0, "X" + "I" * 6 + "X")])
        with pytest.raises(MpoRangeError):
            compile_mpo(op, 1, max_span=2)

    def test_support_runs_from_first_to_last_letter(self):
        # first letter on the second qubit of site 0, last on the second qubit of site 2
        op = PauliSumOperator.from_terms(8, [(3.0, "IXIIIZII"), (0.5, "IIIIIIYI")])
        with pytest.raises(MpoRangeError):
            compile_mpo(op, 1, max_span=2)
        for _ in range(2):   # the shared site operators survive the coefficient scaling
            assert np.max(np.abs(mpo_to_matrix(compile_mpo(op, 1, max_span=3)) - op.to_matrix())) < 1e-12

    def test_mirrored_transfer_right_to_left(self, small_spec):
        op = build_hamiltonian(small_spec)
        mpo = compile_mpo(op, small_spec.flavors)
        mps = MatrixProductState.random(grouped_dims(small_spec.n_qubits, small_spec.flavors), bond_dim=4, seed=7)
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
        mpo = compile_mpo(build_hamiltonian(small_spec), small_spec.flavors)
        a = MatrixProductState.random(mpo.phys_dims, bond_dim=4, seed=3).tensors[1]
        w = mpo.tensors[1]
        env = rng.standard_normal((a.shape[2], w.shape[3], a.shape[2])) + 0.5j
        mirrored = a.transpose(2, 1, 0)
        expected = transfer_reference(env, mirrored, w.transpose(3, 1, 2, 0), mirrored)
        got = _grow_right(env, a, w)
        assert got.shape == (a.shape[0], w.shape[0], a.shape[0])
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_bond_dimension_tracks_coupling_channels(self, small_spec):
        mpo = compile_mpo(build_hamiltonian(small_spec), small_spec.flavors)
        assert mpo.max_bond <= 12


class TestApplyMpo:
    def test_matches_dense_application(self, rng, small_spec):
        op = build_hamiltonian(small_spec)
        mpo = compile_mpo(op, small_spec.flavors)
        vec = random_state_vector(1 << small_spec.n_qubits, rng)
        mps = MatrixProductState.from_dense(vec, grouped_dims(small_spec.n_qubits, small_spec.flavors))
        result = apply_mpo(mpo, mps)
        assert np.max(np.abs(mps_to_dense(result) - op.to_matrix() @ vec)) < 1e-10

    def test_pauli_sum_expectation_matches_dense(self, rng, small_spec):
        op = build_hamiltonian(small_spec)
        vec = random_state_vector(1 << small_spec.n_qubits, rng)
        mps = MatrixProductState.from_dense(vec, grouped_dims(small_spec.n_qubits, small_spec.flavors))
        assert pauli_sum_expectation(mps, op) == pytest.approx(
            np.vdot(vec, op.to_matrix() @ vec), abs=1e-10
        )
        # a Jordan-Wigner bilinear from site 0 to site 9, beyond compile_mpo's default range
        mps = MatrixProductState.random(grouped_dims(20, 1), bond_dim=4, seed=5)
        op = operator_product(jordan_wigner(0, "annihilate", 20), jordan_wigner(19, "create", 20))
        assert pauli_sum_expectation(mps, op) == pytest.approx(
            op.expectation(mps_to_dense(mps)), abs=1e-12
        )


class TestTruncatedSvd:
    """The cumulative-sum rank rule keeps exactly the rank of the tail loop."""

    @staticmethod
    def check(matrix, max_bond, weight):
        u, s, vh = truncated_svd(matrix, max_bond, weight)
        full = np.linalg.svd(matrix, full_matrices=False)[1]
        keep = truncated_rank_reference(full, max_bond, weight)
        assert len(s) == keep
        assert u.shape[1] == keep and vh.shape[0] == keep
        return keep

    def test_random_spectra(self, rng):
        for shape in ((8, 8), (16, 5), (5, 16), (64, 64), (1, 7)):
            for weight in (1e-14, 1e-12, 1e-6, 1e-2, 0.3):
                for max_bond in (None, 2, 100):
                    self.check(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), max_bond, weight)

    def test_decaying_and_zero_tails(self, rng):
        for decay in (0.5, 0.1, 1e-3):
            s = decay ** np.arange(24)
            q1, _ = np.linalg.qr(rng.standard_normal((24, 24)))
            q2, _ = np.linalg.qr(rng.standard_normal((24, 24)))
            for weight in (1e-16, 1e-12, 1e-8):
                self.check((q1 * s) @ q2, None, weight)
        low_rank = rng.standard_normal((20, 3)) @ rng.standard_normal((3, 20))   # tail at rounding level
        assert self.check(low_rank, None, 1e-12) == 3
        exact_zeros = np.diag([3.0, 2.0, 1.0, 0.0, 0.0, 0.0])
        assert self.check(exact_zeros, None, 0.0) == 3
        assert self.check(np.zeros((4, 6)), None, 1e-12) == 1
        assert self.check(np.zeros((4, 6)), 3, 0.0) == 1

    def test_cap_below_the_weight_rank(self, rng):
        matrix = rng.standard_normal((32, 32))
        assert self.check(matrix, None, 1e-12) == 32
        assert self.check(matrix, 5, 1e-12) == 5

    def test_tail_exactly_at_the_threshold_is_discarded(self):
        # powers of two: s^2 = 1, 1/4 x 4, total 2, every sum exact
        matrix = np.diag([1.0, 0.5, 0.5, 0.5, 0.5])
        assert np.array_equal(np.linalg.svd(matrix, full_matrices=False)[1], np.diag(matrix))
        assert self.check(matrix, None, 0.25) == 3    # tail 1/2 == 0.25 * 2 is discarded
        assert self.check(matrix, None, 0.125) == 4   # tail 1/4 == 0.125 * 2, the next one is not
        assert self.check(matrix, None, np.nextafter(0.125, 0.0)) == 5


MERGE_SPECS = [
    pytest.param([ModelSpec(50, 1 / 50, 0.2, 1.5)], id="chain50"),
    pytest.param([ModelSpec(4, 0.25, 0.2, 1.5, flavors=2)], id="two-flavors"),
    pytest.param([ModelSpec(6, 0.25, 0.2, 1.5, boundary=Boundary.PERIODIC)], id="periodic"),
    pytest.param([ModelSpec(n, 0.25, 0.2, 1.5) for n in range(2, 9)], id="ladder-2-8"),
]


class TestMergeColumns:
    @pytest.mark.parametrize("specs", MERGE_SPECS)
    def test_compile_mpo_identical_to_the_pairwise_scan(self, specs, monkeypatch):
        """The Gram screen changes no merge: the same tensors, bit for bit."""
        ops = [build_hamiltonian(spec) for spec in specs]
        spans = [op.n_qubits if spec.boundary is Boundary.PERIODIC else mps.MPO_MAX_SPAN
                 for op, spec in zip(ops, specs)]
        got = [compile_mpo(op, spec.flavors, span) for op, spec, span in zip(ops, specs, spans)]
        monkeypatch.setattr(mps, "_merge_columns", merge_columns_reference)
        for mpo, op, spec, span in zip(got, ops, specs, spans):
            want = compile_mpo(op, spec.flavors, span)
            for a, b in zip(mpo.tensors, want.tensors, strict=True):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)

    @staticmethod
    def merge(m):
        kept, transfer = mps._merge_columns(m)
        ref_kept, ref_transfer = merge_columns_reference(m)
        assert np.array_equal(kept, ref_kept) and np.array_equal(transfer, ref_transfer)
        assert np.linalg.norm(kept @ transfer - m) <= 1e-12 * np.linalg.norm(m)
        return kept, transfer

    def test_complex_and_negative_multiples_merge(self, rng):
        a, b = (rng.standard_normal(12) + 1j * rng.standard_normal(12) for _ in range(2))
        m = np.stack([a, (0.3 - 2j) * a, b, -4.0 * b, -a, 1j * b], axis=1)
        kept, transfer = self.merge(m)
        assert kept.shape == (12, 2)
        assert np.array_equal(np.flatnonzero(transfer[0]), [0, 1, 4])
        assert transfer[0, 1] == pytest.approx(0.3 - 2j, abs=1e-14)
        assert transfer[1, 3] == pytest.approx(-4.0, abs=1e-14)

    def test_column_off_by_1e_10_stays_apart(self, rng):
        """Past the Gram screen (squared cosine 1 - 1e-20), the residual test keeps them apart."""
        a, nudge = (rng.standard_normal(12) + 1j * rng.standard_normal(12) for _ in range(2))
        nudge -= np.vdot(a, nudge) / np.vdot(a, a) * a   # orthogonal to a
        nudge *= np.linalg.norm(2.0 * a) / np.linalg.norm(nudge)
        kept, _ = self.merge(np.stack([a, 2.0 * a + 1e-10 * nudge], axis=1))
        assert kept.shape == (12, 2)
        kept, _ = self.merge(np.stack([a, 2.0 * a + 1e-13 * nudge], axis=1))
        assert kept.shape == (12, 1)

    def test_zero_columns_are_dropped(self, rng):
        a = rng.standard_normal(6) + 0j
        zero = np.zeros(6, dtype=complex)
        kept, transfer = self.merge(np.stack([zero, a, zero, 3 * a], axis=1))
        assert kept.shape == (6, 1)
        assert np.array_equal(transfer, [[0, 1, 0, 3]])
        kept, transfer = self.merge(np.zeros((6, 3), dtype=complex))
        assert kept.shape == (6, 1) and not kept.any() and not transfer.any()
