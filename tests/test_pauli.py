import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gnlab.pauli import PAULI_CHARS, PauliSumOperator, _parities

from oracles import jordan_wigner, ladder_operators, operator_product, pauli_matrix

I2 = np.eye(2)
PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_of_string(string):
    mat = PAULI_MATRICES[string[0]]
    for ch in string[1:]:
        mat = np.kron(mat, PAULI_MATRICES[ch])
    return mat


def test_canonicalization_merges_and_sorts():
    op = PauliSumOperator.from_terms(2, [(1.0, "XZ"), (0.5, "IZ"), (2.0, "XZ"), (1e-16, "YY")])
    assert op.terms == ((0.5, "IZ"), (3.0, "XZ"))


def test_duplicate_cancellation_drops_term():
    op = PauliSumOperator.from_terms(1, [(1.0, "X"), (-1.0, "X")])
    assert op.terms == ()


def test_invalid_strings_rejected():
    with pytest.raises(ValueError):
        PauliSumOperator.from_terms(2, [(1.0, "XQ")])
    with pytest.raises(ValueError):
        PauliSumOperator.from_terms(2, [(1.0, "XZZ")])


def test_action_matches_kronecker_oracle(rng):
    """to_matrix and apply against the sum of Kronecker products, string by string."""
    for n in range(1, 7):
        strings = {"".join(rng.choice(list(PAULI_CHARS), size=n)) for _ in range(3 * n)}
        strings.add("I" * n)
        if n >= 2:
            # three strings sharing the flip mask of "XI..."
            strings.update(s + "I" * (n - 2) for s in ("XZ", "YI", "XI"))
        terms = [(complex(rng.standard_normal(), rng.standard_normal()), s) for s in sorted(strings)]
        op = PauliSumOperator.from_terms(n, terms)
        oracle = sum(c * dense_of_string(s) for c, s in terms)
        assert np.allclose(op.to_matrix(), oracle, atol=1e-13)
        state = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        assert np.allclose(op.apply(state), oracle @ state, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.text(alphabet="IXYZ", min_size=n, max_size=n),
            st.text(alphabet="IXYZ", min_size=n, max_size=n),
        )
    )
)
def test_product_agrees_with_dense(strings):
    """The oracle's letter-table product against the product of the dense matrices."""
    sa, sb = strings
    a = PauliSumOperator.from_terms(len(sa), [(1.0, sa)])
    b = PauliSumOperator.from_terms(len(sb), [(1.0, sb)])
    assert np.allclose(operator_product(a, b).to_matrix(), dense_of_string(sa) @ dense_of_string(sb))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.dictionaries(
            st.text(alphabet="IXYZ", min_size=n, max_size=n),
            st.tuples(st.integers(-64, 64), st.integers(-64, 64)),
            min_size=1,
        )
    )
)
def test_from_matrix_inverts_to_matrix(coefficients):
    """Dyadic coefficients are exact in either direction, so the round trip returns the very terms."""
    n = len(next(iter(coefficients)))
    op = PauliSumOperator.from_terms(n, [(complex(re, im) / 16, s) for s, (re, im) in coefficients.items()])
    assert PauliSumOperator.from_matrix(op.to_matrix()).terms == op.terms


@pytest.mark.parametrize("string", ["I", "X", "Y", "Z", "XY", "YZ", "ZYX", "IYIX", "YYYY"])
def test_from_matrix_reads_single_strings(string):
    assert PauliSumOperator.from_matrix(pauli_matrix(string)).terms == ((1.0, string),)
    assert PauliSumOperator.from_matrix(0.5j * pauli_matrix(string)).terms == ((0.5j, string),)


def test_from_matrix_rejects_other_shapes():
    for shape in ((1, 1), (3, 3), (4, 2), (8,)):
        with pytest.raises(ValueError):
            PauliSumOperator.from_matrix(np.zeros(shape))


def test_parities_count_set_bits():
    assert [bool(p) for p in _parities(6)] == [bin(i).count("1") % 2 == 1 for i in range(64)]


def test_apply_matches_matrix(rng):
    op = PauliSumOperator.from_terms(
        3, [(0.7, "XYZ"), (-0.2, "ZIZ"), (1.3, "IYI"), (0.05, "III")]
    )
    state = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    assert np.allclose(op.apply(state), op.to_matrix() @ state)
    assert np.isclose(op.expectation(state), np.vdot(state, op.to_matrix() @ state))


def test_hermitized_rejects_complex():
    op = PauliSumOperator.from_terms(1, [(1j, "X")])
    with pytest.raises(ValueError):
        op.hermitized()


def test_first_mode_creation_operator():
    op = jordan_wigner(0, "create", 2)
    assert op.terms == ((0.5, "XI"), (-0.5j, "YI"))


def test_number_operator_identity():
    for k, n in ((0, 1), (1, 3), (2, 4)):
        num = operator_product(jordan_wigner(k, "create", n), jordan_wigner(k, "annihilate", n))
        ident = "I" * n
        z_string = "I" * k + "Z" + "I" * (n - k - 1)
        assert num.terms == ((0.5, ident), (-0.5, z_string))


def test_canonical_anticommutators_up_to_six_modes():
    """{c_i, c_j+} = delta_ij and {c_i, c_j} = 0, checked as dense matrices."""
    n = 6
    dim = 1 << n
    for i in range(n):
        for j in range(n):
            ci = jordan_wigner(i, "annihilate", n)
            cjd = jordan_wigner(j, "create", n)
            anti = (operator_product(ci, cjd) + operator_product(cjd, ci)).to_matrix()
            assert np.allclose(anti, (1.0 if i == j else 0.0) * np.eye(dim), atol=1e-12)
            cj = jordan_wigner(j, "annihilate", n)
            assert (operator_product(ci, cj) + operator_product(cj, ci)).terms == ()


def test_jordan_wigner_matches_ladder_oracle():
    n = 4
    oracle = ladder_operators(n)
    for k in range(n):
        assert np.allclose(jordan_wigner(k, "annihilate", n).to_matrix(), oracle[k])
        assert np.allclose(jordan_wigner(k, "create", n).to_matrix(), oracle[k].conj().T)


def test_one_norm_and_identity_coefficient():
    op = PauliSumOperator.from_terms(2, [(3.0, "II"), (-2.0, "XZ"), (1.0, "ZI")])
    assert op.identity_coefficient() == 3.0
    assert op.coefficient_one_norm() == 3.0
