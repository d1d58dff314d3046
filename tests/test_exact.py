import tracemalloc
from functools import partial
from math import comb

import numpy as np
import pytest

import gnlab.exact
from gnlab.exact import (
    DENSE_CAP_DEFAULT,
    ConvergenceError,
    ExactPropagator,
    KroneckerSumPropagator,
    _eigensystem,
    _flip_phases,
    _invariant_blocks,
    _lowest_pair,
    _mirror_signs,
    _reversal,
    _split_blocks,
    fix_phase,
    ground_state_dense,
    lanczos_lowest,
)
from gnlab.model import Boundary, ModelSpec, build_hamiltonian
from gnlab.overlaps import PadKind, pad_state
from gnlab.pauli import PauliSumOperator
from gnlab.stateprep import (
    _WINDOW_CELLS,
    PhaseEstimationConfig,
    PhaseEstimationReflection,
    _start_propagator,
    ancilla_bits_for,
)

from oracles import (
    arpack_lowest,
    block_eigh,
    dense_hamiltonian,
    flip_symmetric_block_eigh,
    lanczos_reference,
    pauli_matrix,
    pauli_mirror_action,
    symmetry_sector_eigh,
)


def no_matrix(_self):
    raise AssertionError("to_matrix called by the dense solver")


def per_block(prop):
    """(basis indices, eigenvalue columns, eigenvectors) of each invariant block of `prop`, by smallest
    index, with the indices ascending and the eigenvector rows in their order."""
    blocks = []
    for idx, cols, vecs in prop.groups:
        order = np.argsort(idx, axis=1)
        blocks += [(idx[i, order[i]], cols[i], vecs[i][order[i]]) for i in range(len(idx))]
    return sorted(blocks, key=lambda block: block[0][0])


def random_hermitian_pauli_sum(n, n_terms, rng):
    terms = []
    for _ in range(n_terms):
        string = "".join(rng.choice(list("IXYZ"), size=n))
        terms.append((float(rng.standard_normal()), string))
    return PauliSumOperator.from_terms(n, terms)


class TestDense:
    def test_single_qubit_z(self):
        result = ground_state_dense(PauliSumOperator.from_terms(1, [(1.0, "Z")]))
        assert result.ground_energy == pytest.approx(-1.0)
        assert result.gap == pytest.approx(2.0)
        assert np.allclose(result.ground_vector, [0, 1])

    def test_gross_neveu_against_independent_solver(self):
        import scipy.linalg

        spec = ModelSpec(n_sites=2, spacing=0.5, bare_mass=0.2, coupling_sq=1.5)
        result = ground_state_dense(build_hamiltonian(spec))
        oracle = scipy.linalg.eigh(dense_hamiltonian(spec), eigvals_only=True)
        assert result.ground_energy == pytest.approx(oracle[0], abs=1e-10)
        assert result.first_excited_energy == pytest.approx(oracle[1], abs=1e-10)

    def test_degenerate_ground_space_reports_zero_gap(self):
        result = ground_state_dense(PauliSumOperator.from_terms(2, []))
        assert result.gap == 0.0

    def test_cap_enforced(self):
        op = PauliSumOperator.identity(6)
        with pytest.raises(ValueError):
            ground_state_dense(op, dense_cap=5)

    def test_phase_convention_deterministic(self):
        spec = ModelSpec(n_sites=2, spacing=0.5, bare_mass=0.2, coupling_sq=1.5)
        a = ground_state_dense(build_hamiltonian(spec)).ground_vector
        b = ground_state_dense(build_hamiltonian(spec)).ground_vector
        assert np.array_equal(a, b)
        lead = a[np.argmax(np.abs(a) > 1e-12 * np.abs(a).max())]
        assert lead.real > 0 and abs(lead.imag) < 1e-12

    def test_six_sites_matches_arpack(self):
        ham = build_hamiltonian(ModelSpec(n_sites=6, spacing=0.25, bare_mass=0.2, coupling_sq=1.5))
        dense = ground_state_dense(ham)
        reference = arpack_lowest(ham, 2)
        assert dense.ground_energy == pytest.approx(reference[0], rel=1e-9)
        assert dense.first_excited_energy == pytest.approx(reference[1], rel=1e-9)

    def test_tiny_coupling_between_blocks_is_kept(self):
        # 1e-13 X on the second qubit splits the degenerate ground pair of Z on
        # the first; dropping it as "numerically zero" would give gap 0 and a
        # basis state instead of |1>|->
        op = PauliSumOperator.from_terms(2, [(1.0, "ZI"), (1e-13, "IX")])
        assert _flip_phases(op) is None
        assert _mirror_signs(op, _reversal(op.n_qubits)) is None
        result = ground_state_dense(op)
        assert result.gap == pytest.approx(2e-13, rel=1e-3, abs=0.0)
        expected = np.kron([0.0, 1.0], [1.0, -1.0]) / np.sqrt(2.0)
        assert abs(np.vdot(expected, result.ground_vector)) == pytest.approx(1.0, abs=1e-12)

    def test_memory_guard_raises_before_building_the_matrix(self, monkeypatch):
        op = PauliSumOperator.from_terms(3, [(1.0, "XZY")])
        need = 2 * 16 * 4 * 2**2  # four blocks {i, i ^ 0b101}: their matrices and eigenvectors
        monkeypatch.setattr(PauliSumOperator, "to_matrix", no_matrix)
        monkeypatch.setattr(gnlab.exact, "_physical_memory_bytes", lambda: need)
        assert ground_state_dense(op).gap == 0.0
        monkeypatch.setattr(gnlab.exact, "_physical_memory_bytes", lambda: need - 1)

        def no_blocks(*_args, **_kwargs):
            raise AssertionError("block matrix or eigh despite the memory guard")

        monkeypatch.setattr(gnlab.exact, "_block_matrices", no_blocks)
        monkeypatch.setattr(gnlab.exact.np.linalg, "eigh", no_blocks)
        with pytest.raises(ValueError, match="physical memory"):
            ground_state_dense(op)
        with pytest.raises(ValueError, match="physical memory"):
            ExactPropagator(op)

    def test_fourteen_qubits_in_seven_gigabytes(self, monkeypatch):
        # the full matrix and eigenvectors, 2 x 16 x 4^14 bytes = 8.6 GB, exceed
        # 7 GB; the XX pair splits the basis into 8192 blocks of two states
        fields = 0.1 * np.arange(1, 15)
        coupling = 0.3
        terms = [(h, "I" * q + "Z" + "I" * (13 - q)) for q, h in enumerate(fields)]
        op = PauliSumOperator.from_terms(14, terms + [(coupling, "XX" + "I" * 12)])
        assert _flip_phases(op) is None
        monkeypatch.setattr(gnlab.exact, "_physical_memory_bytes", lambda: 7 * 2**30)
        monkeypatch.setattr(PauliSumOperator, "to_matrix", no_matrix)
        prop = ExactPropagator(op)
        # one stacked eigensystem of the 8192 blocks
        assert [vecs.shape for _idx, _cols, vecs in prop.groups] == [(8192, 2, 2)]
        # the XX pair mixes |00> with |11> and |01> with |10>; Z_q adds +-h_q
        pair = np.array([1.0, -1.0])[:, None] * np.hypot(
            [fields[0] + fields[1], fields[0] - fields[1]], coupling
        )
        rest = np.zeros(1)
        for h in fields[2:]:
            rest = np.concatenate([rest + h, rest - h])
        expected = np.sort((pair.reshape(-1, 1) + rest).ravel())
        assert np.max(np.abs(prop.evals - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert ground_state_dense(op).ground_energy == pytest.approx(expected[0], rel=1e-12, abs=0.0)


def _full_lowest_pair(op):
    """The lowest pair from every block's `eigh`, which `ground_state_dense` prunes."""
    return _lowest_pair(*_eigensystem(op, DENSE_CAP_DEFAULT))


def _spy_linalg(monkeypatch, names):
    """Record (name, matrix size, succeeded) of each listed np.linalg call the dense solver makes."""
    linalg = gnlab.exact.np.linalg
    calls = []

    def spy(name, fn):
        def wrapped(mat, *args, **kwargs):
            try:
                out = fn(mat, *args, **kwargs)
            except linalg.LinAlgError:
                calls.append((name, len(mat), False))
                raise
            calls.append((name, len(mat), True))
            return out
        return wrapped

    for name in names:
        monkeypatch.setattr(linalg, name, spy(name, getattr(linalg, name)))
    return calls


class TestPrunedLowestPair:
    """`ground_state_dense` skips blocks; the full block eigensystem is its reference."""

    @pytest.mark.parametrize("point", [(0.2, 1.5), (0.4, 1.0)])
    @pytest.mark.parametrize("n_sites", [2, 3, 4, 5, 6])
    def test_gross_neveu_matches_the_full_solve(self, n_sites, point):
        op = build_hamiltonian(ModelSpec(n_sites=n_sites, spacing=0.25, bare_mass=point[0], coupling_sq=point[1]))
        pruned, full = ground_state_dense(op), _full_lowest_pair(op)
        assert pruned.ground_energy == full.ground_energy
        assert np.array_equal(pruned.ground_vector, full.ground_vector)
        assert pruned.first_excited_energy == pytest.approx(full.first_excited_energy, rel=1e-13, abs=0.0)

    def test_ground_block_without_the_smallest_diagonal_undercuts(self, monkeypatch):
        # blocks {00}, {01, 10} and {11} have diagonals 1, (0.75, -0.75) and -1;
        # the hopping XX + YY splits the middle block into -1.25 and 1.25, below
        # {11}'s -1; unequal fields leave no mirror to split the middle block by
        op = PauliSumOperator.from_terms(2, [(0.875, "ZI"), (0.125, "IZ"), (0.5, "XX"), (0.5, "YY")])
        assert _mirror_signs(op, _reversal(op.n_qubits)) is None
        full = _full_lowest_pair(op)
        calls = _spy_linalg(monkeypatch, ("eigh", "eigvalsh", "cholesky"))
        pruned = ground_state_dense(op)
        # {11} first, then the undercut middle block; {00} lies above E1 = -1
        assert calls == [("eigh", 1, True), ("eigvalsh", 2, True), ("eigh", 2, True), ("cholesky", 1, True)]
        assert (pruned.ground_energy, pruned.first_excited_energy) == (-1.25, -1.0)
        assert pruned.ground_energy == full.ground_energy
        assert np.array_equal(pruned.ground_vector, full.ground_vector)
        assert pruned.first_excited_energy == pytest.approx(full.first_excited_energy, rel=1e-13, abs=0.0)

    def test_first_excited_level_in_another_block(self, monkeypatch):
        # as above with hopping 0.15625: the middle block's -0.8125 is E1, above {11}'s E0 = -1
        op = PauliSumOperator.from_terms(2, [(0.875, "ZI"), (0.125, "IZ"), (0.15625, "XX"), (0.15625, "YY")])
        full = _full_lowest_pair(op)
        calls = _spy_linalg(monkeypatch, ("eigh", "eigvalsh", "cholesky"))
        pruned = ground_state_dense(op)
        assert calls == [("eigh", 1, True), ("eigvalsh", 2, True), ("cholesky", 1, True)]
        assert pruned.ground_energy == full.ground_energy == -1.0
        assert np.array_equal(pruned.ground_vector, full.ground_vector)
        assert pruned.first_excited_energy == pytest.approx(-0.8125, rel=1e-13, abs=0.0)
        assert pruned.first_excited_energy == pytest.approx(full.first_excited_energy, rel=1e-13, abs=0.0)

    def test_five_sites_diagonalise_one_block(self, monkeypatch):
        # the vacuum lies in a 71-dim quarter (U = +1, R = -1) of the 252-dim
        # half-filled block, and E1 in the 110-dim R = +1 piece of the first
        # 210-dim block, whose twin is never touched; on the way down two more
        # quarters fail the Cholesky test at the E1 of the moment, and every
        # other piece passes it (no twin is visited)
        op = build_hamiltonian(ModelSpec(n_sites=5, spacing=0.25, bare_mass=0.2, coupling_sq=1.5))
        calls = _spy_linalg(monkeypatch, ("eigh", "eigvalsh", "cholesky"))
        ground_state_dense(op)
        assert calls == [
            ("eigh", 71, True),
            ("cholesky", 55, False), ("eigvalsh", 55, True), ("cholesky", 55, True),
            ("cholesky", 71, False), ("eigvalsh", 71, True), ("cholesky", 60, True),
            ("cholesky", 110, False), ("eigvalsh", 110, True),
            ("cholesky", 100, True), ("cholesky", 60, True), ("cholesky", 5, True), ("cholesky", 20, True),
            ("cholesky", 25, True), ("cholesky", 5, True), ("cholesky", 1, True),
        ]

    def test_ground_level_in_a_twin_pair_is_twice_degenerate(self, monkeypatch):
        # -ZZ commutes with XX: |00> and its twin |11> share E0 = -1, so E1 = E0
        # without a look at {11}; {01} lies above E1 and its twin {10} is skipped
        op = PauliSumOperator.from_terms(2, [(-1.0, "ZZ")])
        full = _full_lowest_pair(op)
        calls = _spy_linalg(monkeypatch, ("eigh", "eigvalsh", "cholesky"))
        pruned = ground_state_dense(op)
        assert calls == [("eigh", 1, True), ("cholesky", 1, True)]
        assert pruned.ground_energy == pruned.first_excited_energy == full.first_excited_energy == -1.0
        assert pruned.gap == 0.0
        assert np.array_equal(pruned.ground_vector, full.ground_vector)
        assert np.array_equal(pruned.ground_vector, [1, 0, 0, 0])


def _unitary_eigensystem_residuals(mat, prop):
    scale = np.linalg.norm(mat)
    evecs = prop.from_eigenbasis(np.eye(len(mat)))
    unitarity = np.linalg.norm(evecs.conj().T @ evecs - np.eye(len(mat)))
    residual = np.linalg.norm(mat @ evecs - evecs * prop.evals) / scale
    return unitarity, residual


class TestBlockEigensystem:
    def test_gross_neveu_blocks_are_fermion_number_sectors(self):
        spec = ModelSpec(n_sites=4, spacing=0.25, bare_mass=0.2, coupling_sq=1.5)
        ham = build_hamiltonian(spec)
        mat = ham.to_matrix()
        blocks = _invariant_blocks(list(ham._actions()), ham.n_qubits)
        popcounts = [{bin(int(i)).count("1") for i in idx} for idx in blocks]
        assert all(len(p) == 1 for p in popcounts)
        assert sorted(p.pop() for p in popcounts) == list(range(9))
        assert sorted(len(idx) for idx in blocks) == sorted(comb(8, k) for k in range(9))

        prop = ExactPropagator(ham)
        oracle = np.linalg.eigvalsh(dense_hamiltonian(spec))
        assert np.max(np.abs(prop.evals - oracle)) <= 1e-12 * np.max(np.abs(oracle))
        unitarity, residual = _unitary_eigensystem_residuals(mat, prop)
        assert unitarity <= 1e-12
        assert residual <= 1e-10

    def test_start_operator_spectrum_is_shifted_copies(self):
        spec = ModelSpec(n_sites=3, spacing=0.25, bare_mass=0.2, coupling_sq=1.5)
        h_prev = build_hamiltonian(spec)
        e_prev = np.linalg.eigvalsh(h_prev.to_matrix())
        penalty = max(1.0, 2.0 * (e_prev[1] - e_prev[0]))
        prop = _start_propagator(ExactPropagator(h_prev), pad_state(PadKind.UNIFORM, 1), penalty)
        assert prop.op.n_qubits == build_hamiltonian(spec.with_sites(4)).n_qubits
        mat = prop.op.to_matrix()

        expected = np.sort(np.concatenate([e_prev] + 3 * [e_prev + penalty]))
        assert np.max(np.abs(np.sort(prop.evals) - expected)) <= 1e-12 * np.max(np.abs(expected))
        unitarity, residual = _unitary_eigensystem_residuals(mat, prop)
        assert unitarity <= 1e-12
        assert residual <= 1e-10

    def test_random_pauli_sum_is_one_block_and_matches_eigh(self, rng):
        op = random_hermitian_pauli_sum(5, 10, rng)
        mat = op.to_matrix()
        assert _flip_phases(op) is None
        assert _mirror_signs(op, _reversal(op.n_qubits)) is None
        assert len(_invariant_blocks(list(op._actions()), op.n_qubits)) == 1
        evals, evecs = np.linalg.eigh(mat)
        prop = ExactPropagator(op)
        assert np.max(np.abs(prop.evals - evals)) <= 1e-12 * np.max(np.abs(evals))
        overlaps = np.abs(np.sum(evecs.conj() * prop.from_eigenbasis(np.eye(len(mat))), axis=0))
        assert np.max(np.abs(overlaps - 1.0)) <= 1e-10


    def test_action_tables_built_once_per_solve(self, monkeypatch):
        op = build_hamiltonian(ModelSpec(n_sites=3, spacing=0.25, bare_mass=0.2, coupling_sq=1.5))
        actions, calls = PauliSumOperator._actions, []

        def counted(self):
            calls.append(self.n_qubits)
            return actions(self)

        monkeypatch.setattr(PauliSumOperator, "_actions", counted)
        ground_state_dense(op)
        ExactPropagator(op)
        assert calls == [op.n_qubits] * 2

    def test_block_eigensystems_equal_eigh_of_matrix_blocks(self):
        # a potential on every mode, rising along the chain, keeps the
        # fermion-number blocks and breaks the particle-hole flip and the
        # mirror, so every block is solved whole
        ham = build_hamiltonian(ModelSpec(n_sites=4, spacing=0.25, bare_mass=0.2, coupling_sq=1.5))
        ham = ham + PauliSumOperator.from_terms(8, [(0.3 + 0.05 * q, "I" * q + "Z" + "I" * (7 - q)) for q in range(8)])
        assert _flip_phases(ham) is None
        assert _mirror_signs(ham, _reversal(ham.n_qubits)) is None
        prop = ExactPropagator(ham)
        blocks = per_block(prop)
        reference = block_eigh(ham.to_matrix(), [idx for idx, _cols, _vecs in blocks])
        assert len(reference) == len(blocks) == 9
        for (_idx, cols, vecs), (evals, evecs) in zip(blocks, reference):
            assert np.array_equal(prop.evals[cols], evals)
            assert np.array_equal(vecs, evecs)

    def test_split_block_eigensystems_equal_the_flip_symmetric_oracle(self):
        # Z Z on the first two modes commutes with the flip and breaks the
        # mirror, so U alone splits the half-filled block
        ham = build_hamiltonian(ModelSpec(n_sites=4, spacing=0.25, bare_mass=0.2, coupling_sq=1.5))
        ham = ham + PauliSumOperator.from_terms(8, [(0.3, "ZZ" + "I" * 6)])
        assert _mirror_signs(ham, _reversal(ham.n_qubits)) is None
        mat, flip = ham.to_matrix(), pauli_matrix("YX" * 4)
        assert np.allclose(flip @ mat, mat @ flip, rtol=0.0, atol=1e-14)
        assert np.array_equal(_flip_phases(ham), flip[np.arange(256) ^ 255, np.arange(256)])
        prop = ExactPropagator(ham)
        blocks = per_block(prop)
        reference = flip_symmetric_block_eigh(mat, [idx for idx, _cols, _vecs in blocks], flip)
        assert len(reference) == len(blocks) == 9
        for (_idx, cols, vecs), (evals, evecs) in zip(blocks, reference):
            assert np.array_equal(prop.evals[cols], evals)
            assert np.array_equal(vecs, evecs)
        # blocks k and 8 - k share one spectrum exactly
        for k in range(4):
            assert np.array_equal(prop.evals[blocks[k][1]], prop.evals[blocks[8 - k][1]])

    # the one-flavour N = 2, 3, 4 cases are the Kronecker-sum fixtures' H_prev,
    # so their round trips run through halves and twins
    @pytest.mark.parametrize("spec", [
        ModelSpec(n_sites=2, spacing=0.25, bare_mass=0.2, coupling_sq=1.5),
        ModelSpec(n_sites=3, spacing=0.25, bare_mass=0.2, coupling_sq=1.5),
        ModelSpec(n_sites=4, spacing=0.25, bare_mass=0.2, coupling_sq=1.5),
        ModelSpec(n_sites=2, spacing=0.25, bare_mass=0.2, coupling_sq=1.5, flavors=2),
        ModelSpec(n_sites=4, spacing=0.25, bare_mass=0.2, coupling_sq=1.5, boundary=Boundary.PERIODIC),
        ModelSpec(n_sites=4, spacing=0.25, bare_mass=1.0, coupling_sq=0.0),
        ModelSpec(n_sites=3, spacing=0.5, bare_mass=-0.3, coupling_sq=1.0, wilson_r=0.5),
    ], ids=["one-flavor-2", "one-flavor-3", "one-flavor-4", "two-flavors", "periodic", "free",
            "negative-mass-r-half"])
    def test_gross_neveu_commutes_with_yx_on_every_mode_pair(self, spec):
        ham = build_hamiltonian(spec)
        flip = pauli_matrix("YX" * (ham.n_qubits // 2))
        dim = 1 << ham.n_qubits
        assert np.array_equal(_flip_phases(ham), flip[np.arange(dim) ^ (dim - 1), np.arange(dim)])
        mat = dense_hamiltonian(spec)
        assert np.allclose(flip @ mat, mat @ flip, rtol=0.0, atol=1e-12)

    def test_flip_phases_need_no_numpy_2(self, monkeypatch):
        # np.bitwise_count exists from NumPy 2.0 only; the declared floor is 1.24
        ham = build_hamiltonian(ModelSpec(n_sites=3, spacing=0.25, bare_mass=0.2, coupling_sq=1.5))
        expected = _flip_phases(ham)
        split = build_hamiltonian(ModelSpec(n_sites=4, spacing=0.25, bare_mass=0.2, coupling_sq=1.5))
        signs = _mirror_signs(split, _reversal(split.n_qubits))
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        assert np.array_equal(_flip_phases(ham), expected)
        assert ground_state_dense(ham).ground_energy == ExactPropagator(ham).evals[0]
        # the mirror split of the half-filled block into quarters
        assert np.array_equal(_mirror_signs(split, _reversal(split.n_qubits)), signs)
        assert sum(k == 4 for k, _mat, _lifts in _split_blocks(split, DENSE_CAP_DEFAULT)[1]) == 4
        dense, full = ground_state_dense(split), ExactPropagator(split).spectrum()
        assert dense.ground_energy == full.ground_energy
        assert np.array_equal(dense.ground_vector, full.ground_vector)

    @pytest.mark.parametrize("n_sites", [5, 6])
    def test_split_propagator_matches_independent_solvers(self, n_sites):
        ham = build_hamiltonian(ModelSpec(n_sites=n_sites, spacing=0.25, bare_mass=0.2, coupling_sq=1.5))
        assert _flip_phases(ham) is not None
        prop = ExactPropagator(ham)
        scale = np.max(np.abs(prop.evals))
        reference = arpack_lowest(ham, 6)
        assert np.max(np.abs(prop.evals[:6] - reference)) <= 1e-12 * scale
        if n_sites == 5:
            mat = ham.to_matrix()
            assert np.max(np.abs(prop.evals - np.linalg.eigvalsh(mat))) <= 1e-12 * scale
            unitarity, residual = _unitary_eigensystem_residuals(mat, prop)
            assert unitarity <= 1e-12
            assert residual <= 1e-10

    @pytest.mark.parametrize("shape", [(256,), (256, 3)])
    def test_eigenbasis_round_trip(self, rng, shape):
        ham = build_hamiltonian(ModelSpec(n_sites=4, spacing=0.25, bare_mass=0.2, coupling_sq=1.5))
        prop = ExactPropagator(ham)
        state = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        amps = prop.to_eigenbasis(state)
        assert amps.shape == shape
        assert np.max(np.abs(prop.from_eigenbasis(amps) - state)) <= 1e-13


def mirror_oracle(n_qubits):
    """R|i> = amp |j> by letters: the qubit reversal, then Z on the first qubit of every mode pair."""
    return partial(pauli_mirror_action, "ZI" * (n_qubits // 2), True)


def flip_oracle(n_qubits):
    """U|i> = amp |j> by letters: Y X on every mode pair."""
    return partial(pauli_mirror_action, "YX" * (n_qubits // 2), False)


def action_table(symmetry, n_qubits):
    """(images, amplitudes) of a symmetry i -> (j, amp) over every basis index."""
    images, amps = zip(*(symmetry(i) for i in range(1 << n_qubits)))
    return np.array(images), np.array(amps)


MIRROR_CASES = [
    *(ModelSpec(n_sites=n, spacing=0.25, bare_mass=0.2, coupling_sq=1.5) for n in range(2, 7)),
    *(ModelSpec(n_sites=n, spacing=0.25, bare_mass=0.2, coupling_sq=1.5, flavors=2) for n in (2, 3)),
    ModelSpec(n_sites=4, spacing=0.25, bare_mass=0.2, coupling_sq=1.5, boundary=Boundary.PERIODIC),
    ModelSpec(n_sites=4, spacing=0.25, bare_mass=1.0, coupling_sq=0.0),
    ModelSpec(n_sites=3, spacing=0.5, bare_mass=-0.3, coupling_sq=1.0, wilson_r=0.5),
]
MIRROR_IDS = [*(f"one-flavor-{n}" for n in range(2, 7)), "two-flavors-2", "two-flavors-3", "periodic", "free",
              "negative-mass-r-half"]


class TestMirror:
    """The mirror R: qubit reversal, then Z on the first qubit of each mode pair (`_mirror_signs`)."""

    @pytest.mark.parametrize("spec", MIRROR_CASES, ids=MIRROR_IDS)
    def test_gross_neveu_commutes_with_the_mirror(self, spec, rng):
        ham = build_hamiltonian(spec)
        n, dim = ham.n_qubits, 1 << ham.n_qubits
        images, amps = action_table(mirror_oracle(n), n)
        # the GF(2) solve finds z: R|i> = signs_i |rev(i)>
        assert np.array_equal(_mirror_signs(ham, _reversal(ham.n_qubits)), amps)

        def mirrored(vec):
            out = np.empty_like(vec)
            out[images] = amps * vec
            return out

        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        h_psi = ham.apply(psi)
        assert np.linalg.norm(ham.apply(mirrored(psi)) - mirrored(h_psi)) <= 1e-12 * np.linalg.norm(h_psi)
        # R maps each block onto a block (two flavours: sectors of swapped flavour
        # numbers onto each other), and R^2 = +-1 on each
        blocks = _invariant_blocks(list(ham._actions()), n)
        by_start = {int(idx[0]): idx for idx in blocks}
        selfmapped = 0
        for idx in blocks:
            image = np.sort(images[idx])
            assert np.array_equal(image, by_start[int(image[0])])
            selfmapped += np.array_equal(image, idx)
            square = amps[idx] * amps[images[idx]]
            assert square[0] in (1, -1) and np.all(square == square[0])
        assert selfmapped == (len(blocks) if spec.flavors == 1 else (spec.n_qubits // 2 + 1))
        # U and R commute on the half-filled block
        flipped, phases = action_table(flip_oracle(n), n)
        half = np.array([i for i in range(dim) if bin(i).count("1") == n // 2])
        assert np.array_equal(flipped[images[half]], images[flipped[half]])
        assert np.array_equal(amps[half] * phases[images[half]], phases[half] * amps[flipped[half]])

    def test_operators_without_a_mirror_keep_whole_blocks(self, rng):
        for op in (PauliSumOperator.from_terms(2, [(1.0, "ZI"), (1e-13, "IX")]), random_hermitian_pauli_sum(5, 10, rng)):
            assert _mirror_signs(op, _reversal(op.n_qubits)) is None
            blocks, pieces, twins = _split_blocks(op, DENSE_CAP_DEFAULT)
            assert twins == {}
            assert [k for k, _mat, _lifts in pieces] == list(range(len(blocks)))
            for idx, (_k, mat, lifts) in zip(blocks, pieces):
                assert lifts == ()
                assert np.array_equal(idx, np.sort(idx))
                assert np.array_equal(mat, op.to_matrix()[np.ix_(idx, idx)])

    @pytest.mark.parametrize("spec", [
        ModelSpec(n_sites=4, spacing=0.25, bare_mass=0.2, coupling_sq=1.5),
        ModelSpec(n_sites=5, spacing=0.25, bare_mass=0.2, coupling_sq=1.5),
        ModelSpec(n_sites=3, spacing=0.25, bare_mass=0.2, coupling_sq=1.5, flavors=2),
    ], ids=["one-flavor-4", "one-flavor-5", "two-flavors-3"])
    def test_block_eigensystems_match_the_symmetry_sector_oracle(self, spec):
        ham = build_hamiltonian(spec)
        n, mat = ham.n_qubits, ham.to_matrix()
        prop = ExactPropagator(ham)
        blocks = per_block(prop)
        reference = symmetry_sector_eigh(mat, [idx for idx, _cols, _vecs in blocks], [flip_oracle(n), mirror_oracle(n)])
        scale = np.max(np.abs(prop.evals))
        unitarity = residual = 0.0
        for (idx, cols, vecs), sectors in zip(blocks, reference):
            # each eigenvector lies in one sector, whose eigenvalues it shares
            sector_of = np.full(len(idx), -1)
            for s, (proj, evals, _evecs) in enumerate(sectors):
                inside = np.linalg.norm(proj @ vecs, axis=0) > 0.5
                assert np.all(sector_of[inside] == -1)
                sector_of[inside] = s
                assert np.max(np.abs(proj @ vecs[:, inside] - vecs[:, inside])) <= 1e-12
                assert np.max(np.abs(np.sort(prop.evals[cols[inside]]) - evals)) <= 1e-12 * scale
            assert np.all(sector_of >= 0)
            # `_unitary_eigensystem_residuals`, summed block by block (the full eigenvector matrix is block-diagonal)
            unitarity += np.linalg.norm(vecs.conj().T @ vecs - np.eye(len(idx))) ** 2
            residual += np.linalg.norm(mat[np.ix_(idx, idx)] @ vecs - vecs * prop.evals[cols]) ** 2
        assert np.sqrt(unitarity) <= 1e-12
        assert np.sqrt(residual) / np.linalg.norm(mat) <= 1e-10


def pad_complement(pad):
    """1 - |pad><pad| on the pad's two qubits, expanded as `_start_propagator` expands it."""
    return PauliSumOperator.identity(2) - PauliSumOperator.from_matrix(np.outer(pad, pad.conj())).hermitized()


def term_by_term_start_operator(h_prev, pad, penalty):
    """H_prev (x) 1 + penalty (1 (x) (1 - |pad><pad|)), one Pauli string at a time."""
    complement = pad_complement(pad)
    n = h_prev.n_qubits
    return PauliSumOperator.from_terms(n + 2, [
        *((c, s + "II") for c, s in h_prev.terms),
        *((penalty * c, "I" * n + s) for c, s in complement.terms),
    ])


@pytest.fixture(scope="module", params=[(kind, n) for kind in PadKind for n in (2, 3, 4)],
                ids=lambda p: f"{p[0].value}-{p[1]}")
def kronecker_instance(request):
    """(Kronecker-sum propagator, propagator of the term-by-term start operator, start gap bound)."""
    kind, n = request.param
    h_prev = build_hamiltonian(ModelSpec(n_sites=n, spacing=0.25, bare_mass=0.2, coupling_sq=1.5))
    prev = ExactPropagator(h_prev)
    gap = prev.evals[1] - prev.evals[0]
    penalty = max(1.0, 2.0 * gap)
    pad = pad_state(kind, 1)
    prop = KroneckerSumPropagator(prev, ExactPropagator(penalty * pad_complement(pad)))
    reference = ExactPropagator(term_by_term_start_operator(h_prev, pad, penalty))
    return prop, reference, min(gap, penalty)


class TestKroneckerSum:
    def test_operator_is_the_term_by_term_start_operator(self, kronecker_instance):
        prop, reference, _gap = kronecker_instance
        assert prop.op == reference.op

    def test_eigenvalues_match_eigh(self, kronecker_instance):
        prop, reference, _gap = kronecker_instance
        scale = np.max(np.abs(reference.evals))
        assert np.max(np.abs(np.sort(prop.evals) - reference.evals)) <= 1e-12 * scale

    @pytest.mark.parametrize("columns", [None, 3])
    def test_eigenbasis_round_trip(self, kronecker_instance, rng, columns):
        prop, _reference, _gap = kronecker_instance
        shape = (len(prop.evals),) if columns is None else (len(prop.evals), columns)
        state = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert np.max(np.abs(prop.from_eigenbasis(prop.to_eigenbasis(state)) - state)) <= 1e-13

    def test_every_eigencomponent_is_one_eigenpair(self, kronecker_instance):
        # evals are in factor-major, unsorted order: column k of the eigenbasis must carry evals[k]
        prop, reference, _gap = kronecker_instance
        unitarity, residual = _unitary_eigensystem_residuals(reference.op.to_matrix(), prop)
        assert unitarity <= 1e-12
        assert residual <= 1e-10

    def test_phase_estimation_reflection_agrees(self, kronecker_instance, rng):
        prop, reference, gap = kronecker_instance
        cfg = PhaseEstimationConfig(
            ancilla_bits=ancilla_bits_for(prop.op, gap, _WINDOW_CELLS),
            energy_estimate=float(reference.evals[0]) + 0.1 * gap,
            gap_bound=gap,
        )
        state = rng.standard_normal(len(prop.evals)) + 1j * rng.standard_normal(len(prop.evals))
        state /= np.linalg.norm(state)
        ours = PhaseEstimationReflection(prop, cfg).apply(state, 0.7)
        theirs = PhaseEstimationReflection(reference, cfg).apply(state, 0.7)
        assert np.max(np.abs(ours - theirs)) <= 1e-12

    @pytest.mark.parametrize("kind", list(PadKind), ids=lambda k: k.value)
    def test_start_propagator_forms_no_kronecker_product(self, kind, rng):
        # Kronecker-product eigenvectors of this start operator would take 1.4 MB (symmetry-adapted pad) to 3.3 MB (uniform)
        spec = ModelSpec(n_sites=4, spacing=0.25, bare_mass=0.2, coupling_sq=1.5)
        prev = ExactPropagator(build_hamiltonian(spec))
        pad = pad_state(kind, 1)
        state = rng.standard_normal(4 * len(prev.evals)) + 1j * rng.standard_normal(4 * len(prev.evals))
        tracemalloc.start()
        try:
            prop = _start_propagator(prev, pad, 1.0)
            back = prop.from_eigenbasis(prop.to_eigenbasis(state))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.max(np.abs(back - state)) <= 1e-13
        assert peak < 1 << 20


def seeded_lanczos(op, tol, seed, **kwargs):
    """`lanczos_lowest` on the Pauli action of `op` from a seeded complex Gaussian start."""
    rng = np.random.default_rng(seed)
    dim = 1 << op.n_qubits
    return lanczos_lowest(op.apply, rng.standard_normal(dim) + 1j * rng.standard_normal(dim), tol, **kwargs)


class TestLanczos:
    def test_agrees_with_dense_to_ten_tol(self, small_spec):
        ham = build_hamiltonian(small_spec)
        tol = 1e-10
        dense = ground_state_dense(ham)
        energy, vec = seeded_lanczos(ham, tol, seed=11)
        assert abs(energy - dense.ground_energy) <= 10 * tol
        assert abs(abs(np.vdot(dense.ground_vector, vec)) - 1) < 1e-8

    def test_diagonal_operator_gives_basis_state(self):
        op = PauliSumOperator.from_terms(3, [(1.0, "ZII"), (0.5, "IZI"), (0.25, "IIZ")])
        _energy, vec = seeded_lanczos(op, 1e-12, seed=2)
        probs = np.abs(vec) ** 2
        assert probs[-1] == pytest.approx(1.0, abs=1e-12)

    def test_energy_variance_bound(self, small_spec):
        ham = build_hamiltonian(small_spec)
        tol = 1e-8
        _energy, vec = seeded_lanczos(ham, tol, seed=1)
        h_vec = ham.apply(vec)
        # ||Hv - <H>v||^2 rather than <Hv,Hv> - <H>^2, whose subtraction has a
        # rounding floor of ulp(E^2), above the bound itself
        energy = np.real(np.vdot(vec, h_vec))
        variance = float(np.linalg.norm(h_vec - energy * vec) ** 2)
        assert variance <= (10 * tol) ** 2

    def test_deterministic_given_seed(self, small_spec):
        ham = build_hamiltonian(small_spec)
        a_energy, a_vec = seeded_lanczos(ham, 1e-10, seed=9)
        b_energy, b_vec = seeded_lanczos(ham, 1e-10, seed=9)
        assert a_energy == b_energy
        assert np.array_equal(a_vec, b_vec)

    def test_nonconvergence_raises(self, small_spec):
        ham = build_hamiltonian(small_spec)
        with pytest.raises(ConvergenceError):
            seeded_lanczos(ham, 1e-14, seed=1, max_restarts=1)

    def test_zero_start_rejected_before_any_product(self):
        def no_product(_vec):
            raise AssertionError("matvec called on a zero start")

        with pytest.raises(ValueError, match="zero"):
            lanczos_lowest(no_product, np.zeros(8), tol=1e-10)

    def test_relative_tolerance_at_large_shift(self):
        rng = np.random.default_rng(7)
        dim = 200
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        mat = (a + a.conj().T) / 2 + 1e4 * np.eye(dim)
        start = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        # the absolute 1e-12 lies below the rounding floor at |E| ~ 1e4
        with pytest.raises(ConvergenceError):
            lanczos_lowest(lambda v: mat @ v, start, tol=1e-12, max_restarts=20)
        rtol = 1e-9
        theta, vec = lanczos_lowest(lambda v: mat @ v, start, tol=1e-12, max_restarts=20, rtol=rtol)
        exact = np.linalg.eigvalsh(mat)[0]
        assert abs(theta - exact) <= 1e-10 * abs(exact)
        assert np.linalg.norm(mat @ vec - theta * vec) <= rtol * abs(theta)

    def test_converged_start_stops_early_with_honest_residual(self):
        """The Ritz estimate ends the expansion long before the full basis;
        the returned pair still meets tol by an explicit residual."""
        rng = np.random.default_rng(5)
        dim = 200
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        mat = (a + a.conj().T) / 2
        lowest = np.linalg.eigh(mat)[1][:, 0]
        start = lowest + 1e-9 * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        products = []

        def matvec(v):
            products.append(1)
            return mat @ v

        tol = 1e-8
        theta, vec = lanczos_lowest(matvec, start, tol=tol)
        # a full basis of the default krylov_dim = 30 plus the residual check is 31
        assert len(products) < 10
        assert np.linalg.norm(mat @ vec - theta * vec) <= tol

    @pytest.mark.parametrize("dim, shift, seed", [(40, 0.0, 1), (200, 0.0, 2), (200, -5e3, 3), (64, 10.0, 4)])
    @pytest.mark.parametrize("tol, rtol, krylov_dim, max_restarts", [
        (1e-12, 1e-7, 16, 4),    # the DMRG local solve at epsilon goal 1e-8
        (1e-9, 0.0, 30, 400),    # the defaults, absolute tolerance
    ])
    def test_fused_projection_matches_the_three_term_recurrence(
            self, dim, shift, seed, tol, rtol, krylov_dim, max_restarts):
        """CGS2 with alpha from its first pass takes the same products as the
        recurrence plus two projections, and lands on the same Ritz value."""
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        mat = (a + a.conj().T) / 2 + shift * np.eye(dim)
        start = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        runs = []
        for solver in (lanczos_lowest, lanczos_reference):
            calls = []

            def matvec(v):
                calls.append(1)
                return mat @ v

            kwargs = {"strict": False} if solver is lanczos_lowest else {}
            theta, _vec = solver(matvec, start, tol, max_restarts=max_restarts, krylov_dim=krylov_dim,
                                 rtol=rtol, **kwargs)
            runs.append((theta, len(calls)))
        (theta, calls), (want, want_calls) = runs
        assert calls == want_calls
        assert abs(theta - want) <= 1e-12 * abs(want)


def test_fix_phase_leading_amplitude_real_positive(rng):
    vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    fixed = fix_phase(vec)
    lead = fixed[np.argmax(np.abs(fixed) > 1e-12 * np.abs(fixed).max())]
    assert lead.imag == pytest.approx(0.0, abs=1e-12)
    assert lead.real > 0
