"""Matrix product states and operators with one tensor per lattice site.

Site convention: one tensor-network site holds the 2 * flavors qubits of one
lattice site (both spinor components of every flavor), so its physical
dimension is 4**flavors and "adding a lattice site" appends one tensor at
every flavor count.  MPS tensors have index order (left bond, physical,
right bond); MPO tensors (left bond, bra physical, ket physical, right
bond).  Site 0 is the most significant block of the dense basis index,
matching the qubit-0-leftmost convention of the Pauli layer, so dense
vectors and networks can be compared directly.

Dtypes: an MPS holds the dtype numpy promotes its tensors to (float64 or
complex128), and the contractions keep the dtype of what they are given.
`compile_mpo` returns a float64 MPO when the operator is real in its Pauli
form, as the spinor-frame Hamiltonian of `model` is, and complex128
otherwise.  Checkpoints always store complex128.
"""

from __future__ import annotations

import struct
from dataclasses import astuple, dataclass
from functools import cache, reduce
from pathlib import Path

import numpy as np

from .pauli import PauliSumOperator

_PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
# The same letters with Y written as i times the real [[0, -1], [1, 0]]; a string with
# k letters Y is i^k times the product of these.
_REAL_PAULI_MATS = {c: m.real for c, m in _PAULI_MATS.items()} | {"Y": np.array([[0.0, -1.0], [1.0, 0.0]])}
_I_POWERS = (1, 1j, -1, -1j)


def grouped_dims(n_qubits: int, flavors: int) -> tuple[int, ...]:
    """Physical dimensions of `n_qubits` grouped into lattice sites of 2 * flavors qubits."""
    group = 2 * flavors
    if n_qubits % group != 0:
        raise ValueError(f"{n_qubits} qubits cannot be grouped in blocks of {group}")
    return (2**group,) * (n_qubits // group)


def truncated_svd(
    matrix: np.ndarray,
    max_bond: int | None,
    discarded_weight: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD keeping the smallest rank whose discarded tail weight stays below
    `discarded_weight` (relative to the total squared norm), capped at `max_bond`.

    The tail weights are one reversed cumulative sum of s**2, added from the
    smallest singular value up; a zero matrix keeps rank 1."""
    u, s, vh = np.linalg.svd(matrix, full_matrices=False)
    tails = np.cumsum(s[::-1] ** 2)[::-1]   # tails[i] = sum of s[i:]**2
    keep = int(np.count_nonzero(tails > discarded_weight * float(np.sum(s**2))))
    if max_bond is not None:
        keep = min(keep, max_bond)
    keep = max(keep, 1)
    return u[:, :keep], s[:keep], vh[:keep]


@dataclass(frozen=True)
class DmrgReport:
    """What a ground-state solve reported; a checkpoint stores it beside its state.

    A dense solve reports sweeps = 0 and epsilon = ||Hv - Ev||^2 / E^2."""

    energy: float
    epsilon: float
    sweeps: int
    max_bond: int
    converged: bool


class MatrixProductState:
    """Open-boundary MPS with a tracked orthogonality center."""

    def __init__(self, tensors: list[np.ndarray], center: int = 0):
        """Tensors of one common dtype, the one numpy promotes them and float64 to:
        float64 for real tensors, complex128 as soon as one is complex."""
        if not tensors:
            raise ValueError("an MPS needs at least one tensor")
        arrays = [np.asarray(t) for t in tensors]
        dtype = np.result_type(np.float64, *arrays)
        self.tensors = [t.astype(dtype, copy=False) for t in arrays]
        self.center = center
        self._validate()

    def _validate(self) -> None:
        if self.tensors[0].shape[0] != 1 or self.tensors[-1].shape[2] != 1:
            raise ValueError("edge bond dimensions must be 1")
        for k in range(len(self.tensors) - 1):
            if self.tensors[k].shape[2] != self.tensors[k + 1].shape[0]:
                raise ValueError(f"bond mismatch between sites {k} and {k + 1}")
        if not 0 <= self.center < len(self.tensors):
            raise ValueError("orthogonality center out of range")

    # -- structure ----------------------------------------------------------

    @property
    def n_sites(self) -> int:
        return len(self.tensors)

    @property
    def phys_dims(self) -> tuple[int, ...]:
        return tuple(t.shape[1] for t in self.tensors)

    @property
    def bond_dims(self) -> tuple[int, ...]:
        """Bond dimensions including the trivial edges: length n_sites + 1."""
        return tuple([1] + [t.shape[2] for t in self.tensors])

    # -- construction ---------------------------------------------------------

    @classmethod
    def random(cls, phys_dims: tuple[int, ...], bond_dim: int, seed: int,
               dtype: np.dtype | type = complex) -> "MatrixProductState":
        """Seeded Gaussian tensors, normalised with its center at site 0: complex by default,
        real and imaginary parts drawn in turn, or real for a real `dtype`."""
        rng = np.random.default_rng(seed)
        complex_ = np.issubdtype(dtype, np.complexfloating)
        n = len(phys_dims)
        tensors = []
        left = 1
        for k, d in enumerate(phys_dims):
            right = 1 if k == n - 1 else min(bond_dim, left * d)
            t = rng.standard_normal((left, d, right))
            if complex_:
                t = t + 1j * rng.standard_normal((left, d, right))
            tensors.append(t)
            left = right
        mps = cls(tensors, center=0)
        mps.canonicalize(0)
        mps.normalize()
        return mps

    @classmethod
    def from_dense(
        cls,
        vector: np.ndarray,
        phys_dims: tuple[int, ...],
    ) -> "MatrixProductState":
        """Exact MPS factorization of a dense state vector; drops singular values <= 5e-16 of the largest."""
        total = int(np.prod(phys_dims))
        vec = np.asarray(vector, dtype=complex).reshape(-1)
        if vec.shape[0] != total:
            raise ValueError(f"vector length {vec.shape[0]} does not match dims {phys_dims}")
        tensors = []
        rest = vec.reshape(1, total)
        left = 1
        for k, d in enumerate(phys_dims[:-1]):
            m = rest.reshape(left * d, -1)
            u, s, vh = np.linalg.svd(m, full_matrices=False)
            keep = max(int(np.sum(s > 5e-16 * s[0])), 1)
            tensors.append(u[:, :keep].reshape(left, d, keep))
            rest = (s[:keep, None] * vh[:keep]).reshape(keep, -1)
            left = keep
        tensors.append(rest.reshape(left, phys_dims[-1], 1))
        return cls(tensors, center=len(phys_dims) - 1)

    # -- gauge ----------------------------------------------------------------

    def _push_right(self, k: int) -> None:
        dl, d, dr = self.tensors[k].shape
        q, r = np.linalg.qr(self.tensors[k].reshape(dl * d, dr))
        self.tensors[k] = q.reshape(dl, d, q.shape[1])
        self.tensors[k + 1] = np.tensordot(r, self.tensors[k + 1], axes=([1], [0]))

    def _push_left(self, k: int) -> None:
        dl, d, dr = self.tensors[k].shape
        q, r = np.linalg.qr(self.tensors[k].reshape(dl, d * dr).conj().T)
        self.tensors[k] = q.conj().T.reshape(q.shape[1], d, dr)
        self.tensors[k - 1] = np.tensordot(self.tensors[k - 1], r.conj().T, axes=([2], [0]))

    def canonicalize(self, center: int = 0) -> None:
        """Left-orthonormalize sites < center and right-orthonormalize > center."""
        for k in range(center):
            self._push_right(k)
        for k in range(self.n_sites - 1, center, -1):
            self._push_left(k)
        self.center = center

    def norm(self) -> float:
        return float(np.linalg.norm(self.tensors[self.center]))

    def normalize(self) -> None:
        nrm = self.norm()
        if nrm == 0.0:
            raise ValueError("cannot normalize a zero state")
        self.tensors[self.center] = self.tensors[self.center] / nrm

    # -- persistence ------------------------------------------------------------

    _MAGIC = b"GNMPS002"
    _REPORT = struct.Struct("<ddII?")   # energy, epsilon, sweeps, max_bond, converged

    def save(self, path: str | Path, report: DmrgReport) -> None:
        """Binary checkpoint of the state and the report of the solve that produced it.

        Byte layout, little-endian: the 8-byte magic GNMPS002; the report as
        float64 energy and epsilon, uint32 sweeps and max_bond and one byte
        converged (25 bytes); uint32 n_sites and center; per-site uint32
        (left, phys, right) dims; then the row-major complex128 payloads
        (float64 pairs)."""
        with open(path, "wb") as fh:
            fh.write(self._MAGIC)
            fh.write(self._REPORT.pack(*astuple(report)))
            fh.write(struct.pack("<II", self.n_sites, self.center))
            for t in self.tensors:
                fh.write(struct.pack("<III", *t.shape))
            for t in self.tensors:
                fh.write(np.ascontiguousarray(t, dtype="<c16").tobytes())

    @classmethod
    def load(cls, path: str | Path) -> tuple["MatrixProductState", DmrgReport]:
        """The state and report that `save` wrote to `path`, bit for bit.

        Any other file, an older format or a truncated checkpoint among them,
        raises ValueError naming `path`."""
        data = Path(path).read_bytes()
        try:
            if not data.startswith(cls._MAGIC):
                raise ValueError(f"it starts with {data[:len(cls._MAGIC)]!r}")
            pos = len(cls._MAGIC)
            report = DmrgReport(*cls._REPORT.unpack_from(data, pos))
            n_sites, center = struct.unpack_from("<II", data, pos + cls._REPORT.size)
            pos += cls._REPORT.size + 8
            shapes = [struct.unpack_from("<III", data, pos + 12 * k) for k in range(n_sites)]
            pos += 12 * n_sites
            tensors = []
            for shape in shapes:
                count = shape[0] * shape[1] * shape[2]
                tensors.append(np.frombuffer(data, "<c16", count, pos).reshape(shape).astype(complex))
                pos += 16 * count
            if pos != len(data):
                raise ValueError(f"{len(data) - pos} bytes follow the last tensor")
            return cls(tensors, center=center), report
        except (struct.error, ValueError) as exc:
            raise ValueError(f"{path}: not a {cls._MAGIC.decode()} checkpoint: {exc}") from None


def mps_overlap(a: MatrixProductState, b: MatrixProductState) -> complex:
    """Exact contraction <a|b>."""
    if a.phys_dims != b.phys_dims:
        raise ValueError(f"size mismatch: {a.phys_dims} vs {b.phys_dims}")
    env = np.ones((1, 1, 1), dtype=complex)
    for ta, tb in zip(a.tensors, b.tensors):
        d = ta.shape[1]
        env = transfer(env, ta, np.eye(d).reshape(1, d, d, 1), tb)
    return complex(env[0, 0, 0])


def append_site(state: MatrixProductState, pad: np.ndarray) -> MatrixProductState:
    """Tensor-product the one-site `pad` onto the right edge with bond dimension 1."""
    pad = np.asarray(pad, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(pad) - 1.0) > 1e-10:
        raise ValueError("pad state must be normalized")
    d = state.phys_dims[-1]
    if len(pad) != d:
        raise ValueError(f"pad length {len(pad)} is not the site dimension {d}")
    return MatrixProductState([t.copy() for t in state.tensors] + [pad.reshape(1, d, 1)], state.center)


def pauli_sum_expectation(state: MatrixProductState, op: PauliSumOperator) -> complex:
    """<state|op|state> through the exact MPO of `op`, whatever its range."""
    group = state.phys_dims[0].bit_length() - 1   # qubits per site
    if op.n_qubits != group * state.n_sites:
        raise ValueError("operator size does not match the state")
    return expectation_value(state, compile_mpo(op, group // 2, max_span=state.n_sites))


# ---------------------------------------------------------------------------
# Matrix product operators
# ---------------------------------------------------------------------------


@dataclass
class MatrixProductOperator:
    """MPO tensors with index order (left, bra physical, ket physical, right)."""

    tensors: list[np.ndarray]

    @property
    def n_sites(self) -> int:
        return len(self.tensors)

    @property
    def phys_dims(self) -> tuple[int, ...]:
        return tuple(t.shape[1] for t in self.tensors)

    @property
    def bond_dims(self) -> tuple[int, ...]:
        return tuple([1] + [t.shape[3] for t in self.tensors])

    @property
    def max_bond(self) -> int:
        return max(self.bond_dims)


class MpoRangeError(ValueError):
    """A Pauli term spans more sites than the configured locality range."""


MPO_MAX_SPAN = 8


def compile_mpo(op: PauliSumOperator, flavors: int, max_span: int = MPO_MAX_SPAN) -> MatrixProductOperator:
    """Exact MPO of a geometrically local Pauli sum, one tensor per lattice site of 2 * flavors qubits.

    Built as a term automaton (idle channel, one intermediate channel per
    term crossing each bond, done channel), then compressed by merging
    exactly parallel rows and columns.  The bond dimension is of the order
    of the number of distinct coupling channels crossing a bond.

    Each Y is i times a real matrix.  When every coefficient times i^(its
    number of Y) is real, as for the spinor-frame Hamiltonian, the MPO is
    built from the real letters with those folded coefficients and is
    float64; otherwise it is complex128, built as before.
    """
    dims = grouped_dims(op.n_qubits, flavors)
    n_sites = len(dims)
    d = dims[0]
    group = 2 * flavors

    folded = [(c * _I_POWERS[s.count("Y") % 4], s) for c, s in op.terms]
    real = all(c.imag == 0 for c, _s in folded)
    terms, mats = ([(c.real, s) for c, s in folded], _REAL_PAULI_MATS) if real else (op.terms, _PAULI_MATS)
    # the operator of every site string, built once per call; shared, so never mutate an entry
    site_op = cache(lambda letters: reduce(np.kron, [mats[c] for c in letters]))
    supports = []
    site_ops = []
    for coeff, string in terms:
        first, last = len(string) - len(string.lstrip("I")), len(string.rstrip("I")) - 1
        lo, hi = (first // group, last // group) if last >= 0 else (0, 0)
        if hi - lo + 1 > max_span:
            raise MpoRangeError(
                f"term {string} spans {hi - lo + 1} sites, beyond the configured range {max_span}"
            )
        supports.append((lo, hi))
        ops = {k: site_op(string[group * k: group * (k + 1)]) for k in range(lo, hi + 1)}
        ops[lo] = coeff * ops[lo]   # a new array: the shared entry stays as it is
        site_ops.append(ops)

    # channel layout per bond: 0 = idle, 1 = done, then one per crossing term
    crossing: list[dict[int, int]] = [{} for _ in range(n_sites + 1)]
    for t, (lo, hi) in enumerate(supports):
        for b in range(lo + 1, hi + 1):
            crossing[b][t] = 2 + len(crossing[b])

    tensors = [np.zeros((2 + len(crossing[k]), d, d, 2 + len(crossing[k + 1])), dtype=mats["I"].dtype)
               for k in range(n_sites)]
    for w in tensors:
        w[0, :, :, 0] = w[1, :, :, 1] = np.eye(d)
    for t, (lo, hi) in enumerate(supports):
        for k, site_op in site_ops[t].items():
            row = 0 if k == lo else crossing[k][t]
            col = 1 if k == hi else crossing[k + 1][t]
            tensors[k][row, :, :, col] += site_op

    tensors[0] = tensors[0][0:1]
    tensors[-1] = tensors[-1][:, :, :, 1:2]
    _deparallelize(tensors)
    return MatrixProductOperator(tensors)


def _merge_columns(m: np.ndarray, tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Return (kept, transfer) with m = kept @ transfer and no parallel columns.

    Exact merging of parallel MPO channels (Hubig, McCulloch and Schollwoeck,
    PRB 95, 035129 (2017)): in column order, a column of norm <= tol * max|m|
    is dropped, and one within tol * its norm of a multiple of a kept column
    merges into the first such column.  One Gram product m^H m screens the
    pairs: only those with squared cosine >= 1 - 1e-6 get the residual test,
    and every pair that passes it has squared cosine >= 1 - tol**2.
    The transfer has the dtype of `m`.
    """
    rows, cols = m.shape
    gram = m.conj().T @ m
    sq = gram.diagonal().real
    near = (np.abs(gram) ** 2 >= (1.0 - 1e-6) * np.outer(sq, sq)).tolist()
    kept: list[int] = []
    transfer = np.zeros((cols, cols), dtype=m.dtype)
    scale = np.max(np.abs(m)) or 1.0
    for j in range(cols):
        col = m[:, j]
        nrm = np.linalg.norm(col)
        if nrm <= tol * scale:
            continue
        for i, c in enumerate(kept):
            if near[c][j]:
                ref = m[:, c]
                lam = np.vdot(ref, col) / np.vdot(ref, ref)
                if np.linalg.norm(col - lam * ref) <= tol * nrm:
                    transfer[i, j] = lam
                    break
        else:
            kept.append(j)
            transfer[len(kept) - 1, j] = 1.0
    if not kept:
        return np.zeros((rows, 1), dtype=m.dtype), transfer[:1]
    return m[:, kept], transfer[: len(kept)]


def _deparallelize(tensors: list[np.ndarray]) -> None:
    # left-to-right: merge parallel columns, absorb transfer into the right
    for k in range(len(tensors) - 1):
        dl, d, d2, dr = tensors[k].shape
        kept, transfer = _merge_columns(tensors[k].reshape(dl * d * d2, dr))
        tensors[k] = kept.reshape(dl, d, d2, kept.shape[1])
        tensors[k + 1] = np.tensordot(transfer, tensors[k + 1], axes=([1], [0]))
    # right-to-left: merge parallel rows symmetrically
    for k in range(len(tensors) - 1, 0, -1):
        dl, d, d2, dr = tensors[k].shape
        kept, transfer = _merge_columns(tensors[k].reshape(dl, d * d2 * dr).T)
        tensors[k] = kept.T.reshape(kept.shape[1], d, d2, dr)
        tensors[k - 1] = np.tensordot(tensors[k - 1], transfer.T, axes=([3], [0]))


def transfer(env: np.ndarray, bra: np.ndarray, w: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """Grow a (bra, mpo, ket) environment by one site, left to right.

    Sums env[a, b, c] conj(bra[a, s, a']) w[b, s, t, b'] ket[c, t, c'] into
    the (a', b', c') environment (Schollwoeck, Ann. Phys. 326, 96 (2011)).
    Right environments use the same sum on mirrored tensors:
    a.transpose(2, 1, 0) and w.transpose(3, 1, 2, 0); three matmuls, none on a transposed copy.
    """
    a, b, _ = env.shape
    _, s, t, b2 = w.shape
    x = (env.reshape(a * b, -1) @ ket.reshape(len(ket), -1)).reshape(a, b * t, -1)   # (a, b t, c')
    x = w.transpose(1, 3, 0, 2).reshape(s * b2, b * t) @ x                            # (a, s b', c')
    out = bra.reshape(a * s, -1).conj().T @ x.reshape(a * s, -1)                      # (a', b' c')
    return out.reshape(len(out), b2, -1)


def expectation_value(state: MatrixProductState, mpo: MatrixProductOperator) -> complex:
    """<state|mpo|state> by a single transfer sweep, in the dtype of the tensors."""
    if state.phys_dims != mpo.phys_dims:
        raise ValueError("state and operator dimensions differ")
    env = np.ones((1, 1, 1), dtype=np.result_type(*state.tensors, *mpo.tensors))
    for t, w in zip(state.tensors, mpo.tensors):
        env = transfer(env, t, w, t)
    return complex(env[0, 0, 0])


def apply_mpo(mpo: MatrixProductOperator, state: MatrixProductState) -> MatrixProductState:
    """mpo |state> as an MPS, compressed on the fly (zip-up sweep) with
    discarded weight 1e-14 and no bond cap.

    The result is left-orthonormal except at the last site, so its norm is
    the Frobenius norm of the final tensor.
    """
    if state.phys_dims != mpo.phys_dims:
        raise ValueError("state and operator dimensions differ")
    n = state.n_sites
    tensors: list[np.ndarray] = []
    rem = np.ones((1, 1, 1), dtype=complex)   # (new bond, mpo bond, mps bond)
    for k in range(n):
        t, w = state.tensors[k], mpo.tensors[k]
        x = np.tensordot(rem, t, axes=([2], [0]))          # (nb, wb, p_in, r)
        x = np.tensordot(x, w, axes=([1, 2], [0, 2]))      # (nb, r, p_out, w2)
        x = x.transpose(0, 2, 3, 1)                        # (nb, p_out, w2, r)
        nb, d, w2, r = x.shape
        if k == n - 1:
            tensors.append(x.reshape(nb, d, w2 * r))
            break
        u, s, vh = truncated_svd(x.reshape(nb * d, w2 * r), None, 1e-14)
        tensors.append(u.reshape(nb, d, u.shape[1]))
        rem = (s[:, None] * vh).reshape(u.shape[1], w2, r)
    return MatrixProductState(tensors, center=n - 1)
