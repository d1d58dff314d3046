"""Weighted sums of Pauli strings: the common operator currency.

A Pauli string is a fixed-length word over {I, X, Y, Z}, one letter per
qubit, with qubit 0 the leftmost letter (most significant bit of the
computational-basis index).  Operators are stored canonically: terms
sorted lexicographically by string, duplicate strings merged, and
coefficients with |c| <= COEFF_DROP_TOL discarded.

`_actions` and `from_matrix` run on the symplectic form (Aaronson &
Gottesman, PRA 70, 052328 (2004)): a string is the integer pair (x, z), x
marking its X/Y letters and z its Y/Z letters, so that it equals
i^{|x&z|} X^x Z^z, |.| counting set bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

PAULI_CHARS = "IXYZ"

# Letter -> bit of the X/Y flip mask and of the Y/Z sign mask, and back from the digit x + 2z.
_X_BITS = str.maketrans("IXYZ", "0110")
_Z_BITS = str.maketrans("IXYZ", "0011")
_LETTERS = str.maketrans("0123", "IXZY")

# Coefficients at or below this magnitude are dropped during canonicalization.
COEFF_DROP_TOL = 1e-14


def _masks(string: str) -> tuple[int, int]:
    """(x, z): the X/Y flip mask and the Y/Z sign mask, qubit 0 most significant."""
    return int(string.translate(_X_BITS), 2), int(string.translate(_Z_BITS), 2)


def _parities(n_qubits: int) -> np.ndarray:
    """Parity of the set bits of every index below 2**n_qubits, tabulated by doubling: i + 2**k flips it."""
    parity = np.zeros(1, dtype=bool)
    for _ in range(n_qubits):
        parity = np.concatenate([parity, ~parity])
    return parity


def _string(x: int, z: int, n_qubits: int) -> str:
    """The Pauli string of the masks (x, z), the inverse of `_masks`."""
    # read as hex, the binary masks give one digit x + 2z per qubit; one translate spells them
    digits = int(format(x, "b"), 16) + 2 * int(format(z, "b"), 16)
    return format(digits, "x").zfill(n_qubits).translate(_LETTERS)


def _canonical(n_qubits: int, raw: Iterable[tuple[complex, str]]) -> tuple[tuple[complex, str], ...]:
    acc: dict[str, complex] = {}
    for coeff, string in raw:
        if len(string) != n_qubits:
            raise ValueError(f"string {string!r} has length {len(string)}, expected {n_qubits}")
        if string.strip(PAULI_CHARS):
            raise ValueError(f"invalid Pauli letter in {string!r}")
        acc[string] = acc.get(string, 0j) + complex(coeff)
    return tuple(
        (acc[s], s) for s in sorted(acc) if abs(acc[s]) > COEFF_DROP_TOL
    )


@dataclass(frozen=True)
class PauliSumOperator:
    """Canonicalized weighted sum of Pauli strings on `n_qubits` qubits.

    Coefficients are complex internally; Hermitian operators carry real
    coefficients (see `is_hermitian`).  Instances are immutable values.
    """

    n_qubits: int
    terms: tuple[tuple[complex, str], ...]

    @classmethod
    def from_terms(cls, n_qubits: int, terms: Iterable[tuple[complex, str]]) -> "PauliSumOperator":
        if n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        return cls(n_qubits, _canonical(n_qubits, terms))

    @classmethod
    def identity(cls, n_qubits: int, coeff: complex = 1.0) -> "PauliSumOperator":
        return cls.from_terms(n_qubits, [(coeff, "I" * n_qubits)])

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "PauliSumOperator":
        """The Pauli sum of a 2^k x 2^k matrix M, the inverse of `to_matrix`.

        Each coefficient is Tr(P M) / 2^k.  With P = i^{|x&z|} X^x Z^z that is
        i^{|x&z|} sum_i (-1)^{|i&z|} M[i, i^x] / 2^k, so for each flip mask x
        one Walsh-Hadamard sum over the entries M[i, i^x] gives every z at once.
        """
        mat = np.asarray(matrix, dtype=complex)
        k = len(mat).bit_length() - 1
        if k < 1 or mat.shape != (1 << k, 1 << k):
            raise ValueError(f"matrix of shape {mat.shape} is not 2^k x 2^k for some k >= 1")
        idx = np.arange(1 << k)
        sums = mat[idx, idx[:, None] ^ idx].reshape(-1, *(2,) * k)   # sums[x, i] = M[i, i ^ x]
        for axis in range(1, k + 1):   # one butterfly per bit of i, the most significant first
            lo, hi = np.take(sums, 0, axis), np.take(sums, 1, axis)
            sums = np.stack([lo + hi, lo - hi], axis)
        sums = sums.reshape(1 << k, 1 << k) / (1 << k)
        return cls.from_terms(k, (
            (1j ** (x & z).bit_count() * sums[x, z], _string(x, z, k))
            for x, z in zip(*(a.tolist() for a in np.nonzero(sums)))
        ))

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "PauliSumOperator") -> "PauliSumOperator":
        self._check_compatible(other)
        return PauliSumOperator.from_terms(self.n_qubits, (*self.terms, *other.terms))

    def __sub__(self, other: "PauliSumOperator") -> "PauliSumOperator":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "PauliSumOperator":
        return PauliSumOperator.from_terms(
            self.n_qubits, ((scalar * c, s) for c, s in self.terms)
        )

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return all(abs(c.imag) <= tol for c, _ in self.terms)

    def hermitized(self, tol: float = 1e-10) -> "PauliSumOperator":
        """Drop imaginary coefficient parts; raise if any exceed `tol`."""
        bad = max((abs(c.imag) for c, _ in self.terms), default=0.0)
        if bad > tol:
            raise ValueError(f"operator is not Hermitian: max imaginary coefficient {bad:.3e}")
        return PauliSumOperator.from_terms(self.n_qubits, ((c.real, s) for c, s in self.terms))

    def _check_compatible(self, other: "PauliSumOperator") -> None:
        if self.n_qubits != other.n_qubits:
            raise ValueError(
                f"qubit-count mismatch: {self.n_qubits} vs {other.n_qubits}"
            )

    # -- structure ----------------------------------------------------------

    def identity_coefficient(self) -> complex:
        ident = "I" * self.n_qubits
        for c, s in self.terms:
            if s == ident:
                return c
        return 0j

    def coefficient_one_norm(self) -> float:
        """Sum of |coefficients| of the non-identity terms; bounds the spectral radius of H - c_I."""
        ident = "I" * self.n_qubits
        return float(sum(abs(c) for c, s in self.terms if s != ident))

    # -- action on state vectors --------------------------------------------

    def _actions(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (perm, diag) per X/Y flip mask x, with perm = idx ^ x.

        The terms sharing x act together as P|i> = diag[i] |perm[i]>, where
        diag[i] sums c i^{#Y} (-1)^{parity(i & z)} and z marks the Y and Z
        letters (Aaronson & Gottesman's symplectic view of Pauli strings).
        """
        groups: dict[int, list[tuple[complex, int]]] = {}
        for coeff, string in self.terms:
            x, z = _masks(string)
            groups.setdefault(x, []).append((coeff * 1j ** (x & z).bit_count(), z))
        idx = np.arange(1 << self.n_qubits)
        parity = _parities(self.n_qubits)
        for x, members in groups.items():
            diag = np.zeros(len(idx), dtype=complex)
            for c, z in members:
                diag += np.where(parity[idx & z], -c, c)
            yield idx ^ x, diag

    def apply(self, state: np.ndarray) -> np.ndarray:
        """Matrix-free action on a dense state vector of length 2**n_qubits."""
        dim = 1 << self.n_qubits
        if state.shape != (dim,):
            raise ValueError(f"state has shape {state.shape}, expected ({dim},)")
        out = np.zeros(dim, dtype=complex)
        for perm, diag in self._actions():
            out += (diag * state)[perm]   # perm is its own inverse: a gather
        return out

    def expectation(self, state: np.ndarray) -> complex:
        return complex(np.vdot(state, self.apply(state)))

    def to_matrix(self) -> np.ndarray:
        """Dense matrix; one non-zero per flip mask per column."""
        dim = 1 << self.n_qubits
        mat = np.zeros((dim, dim), dtype=complex)
        cols = np.arange(dim)
        for perm, diag in self._actions():
            mat[perm, cols] += diag
        return mat
