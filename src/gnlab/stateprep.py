"""Statevector simulation of the site-by-site vacuum-preparation algorithm.

Three layers:

* `phase_estimate` - a ground-state membership test: textbook phase
  estimation with an ancilla register, repeated an odd number of times with
  a majority vote over the sampled decisions.
* `ground_oracle_reflection` / `state_reflection` - partial reflections
  e^{i phi P} used as oracles, through a ground space by phase estimation or
  about one known state.  The phase-estimation reflection runs the
  coherent circuit (estimation, conditional phase on the in-window ancilla
  values, inverse estimation) and postselects the ancilla register back to
  |0>; that channel is diagonal in the system eigenbasis, which is how it
  is evaluated here, exactly.
* `fixed_point_amplify` / `prepare_vacuum` - fixed-point amplitude
  amplification with the Chebyshev phase schedule, and the driver that
  grows the lattice one padded site at a time.

No ancilla register is stored: the membership test and the reflection
read one closed-form kernel, `_estimation_kernel`.  With M ancilla values
and delta = phi_k - 2 pi y / M, eigencomponent k with eigenphase phi_k
reaches outcome y with probability sin^2(M delta / 2) / (M^2 sin^2(delta / 2))
(the Fejer kernel), evaluated on the outcome rows a caller needs only.

The evolution-time normalization maps the full spectral range (bounded by
the Pauli coefficient 1-norm) into [0, 2pi) with a 1/8 safety margin, so
eigenphases never wrap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .exact import DENSE_CAP_DEFAULT, ExactPropagator, KroneckerSumPropagator, _require_memory, ground_state_dense
from .fits import EnergyFit
from .model import ModelSpec, build_hamiltonian
from .pauli import PAULI_CHARS, PauliSumOperator

_SPAN_MARGIN = 0.125
#: 2 pi = _TWO_PI_HI + _TWO_PI_LO.  The high part has 32 significant bits, so
#: _TWO_PI_HI y / M is exact for every outcome y < 2^21; the low part holds
#: the rest, float(2 pi)'s own rounding error -sin(float(2 pi)) included.
_TWO_PI_HI = math.ldexp(math.floor(math.ldexp(2.0 * math.pi, 29)), -29)
_TWO_PI_LO = (2.0 * math.pi - _TWO_PI_HI) - math.sin(2.0 * math.pi)
#: Decision-window width, in grid cells, of every register `prepare_vacuum` sizes;
#: reflections need a wide window to keep kernel leakage inside the error budget.
_WINDOW_CELLS = 32


class Decision(str, Enum):
    GROUND = "ground"
    NOT_GROUND = "not-ground"


class OracleMode(str, Enum):
    IDEAL = "ideal"
    PHASE_ESTIMATION = "phase-estimation"


@dataclass(frozen=True)
class PhaseEstimationConfig:
    """Knobs of the boosted membership test.

    The promise |energy_estimate - E0| < gap_bound / 2 is the caller's
    responsibility, and so is a repetition count that meets the decision
    error it needs (`repetitions_for`).
    """

    ancilla_bits: int
    energy_estimate: float
    gap_bound: float
    repetitions: int = 3

    def __post_init__(self) -> None:
        if self.ancilla_bits < 1:
            raise ValueError("ancilla_bits must be positive")
        if self.gap_bound <= 0:
            raise ValueError("gap_bound must be positive")
        if self.repetitions < 1 or self.repetitions % 2 == 0:
            raise ValueError("repetitions must be a positive odd integer")


def repetitions_for(decision_error: float) -> int:
    """Smallest odd repetition count whose majority vote meets `decision_error`.

    Uses the additive Chernoff bound exp(-2 R (1/2 - 1/4)^2) on the
    probability that more than half of R votes err, each with probability
    at most 1/4.
    """
    reps = max(1, math.ceil(math.log(1.0 / decision_error) / (2.0 * 0.25**2)))
    return reps if reps % 2 == 1 else reps + 1


def _time_scaling(op: PauliSumOperator) -> tuple[float, float, float]:
    """(e_lo, t, span) such that (E - e_lo) * t covers [0, 2pi) with margin."""
    center = op.identity_coefficient().real
    radius = op.coefficient_one_norm()
    radius = max(radius, 1e-9)
    e_lo = center - radius
    span = 2.0 * radius * (1.0 + _SPAN_MARGIN)
    return e_lo, 2.0 * math.pi / span, span


def ancilla_bits_for(op: PauliSumOperator, gap_bound: float, window_cells: int = 8) -> int:
    """Ancilla count making the decision window at least `window_cells` wide."""
    _e_lo, _t, span = _time_scaling(op)
    need = window_cells * span / gap_bound
    return max(1, math.ceil(math.log2(need)))


def _estimation_register(prop: ExactPropagator, cfg: PhaseEstimationConfig) -> tuple[np.ndarray, np.ndarray]:
    """(phases, grid) of textbook phase estimation on `prop.op`.

    Ancilla value a puts the phase exp(+i a phases[k]) on eigencomponent E_k,
    phases[k] = (E_k - e_lo) t (controlled powers of exp(+i (H - e_lo) t));
    grid[y] is the energy that ancilla outcome y reads.
    """
    e_lo, t, span = _time_scaling(prop.op)
    resolution = span / (1 << cfg.ancilla_bits)
    if resolution > cfg.gap_bound / 2.0:
        raise ValueError(
            f"ancilla resolution {resolution:.3e} exceeds half the gap bound "
            f"{cfg.gap_bound / 2.0:.3e}; increase ancilla_bits"
        )
    m_dim = 1 << cfg.ancilla_bits
    grid = e_lo + 2.0 * math.pi * np.arange(m_dim) / (m_dim * t)
    return (prop.evals - e_lo) * t, grid


def _estimation_kernel(phases: np.ndarray, rows: np.ndarray, m_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(delta, ratio), each (len(rows), len(phases)): the Dirichlet kernel on outcome rows only.

    After the inverse QFT on M = m_dim values, eigencomponent k leaves
    outcome y the amplitude (1/M) sum_a exp(i a delta) =
    exp(i (M-1) delta / 2) ratio, with delta = phases[k] - 2 pi y / M and
    ratio = sin(M delta / 2) / (M sin(delta / 2)), 1 where sin(delta / 2) = 0
    (|delta| < 2 pi, since phases lie in [0, 2 pi)).  ratio**2 is the Fejer
    kernel, the probability of outcome y on eigencomponent k.
    """
    _require_memory(  # delta, half, ratio and one temporary, 8 bytes an entry each
        4 * 8 * len(rows) * len(phases),
        f"a phase-estimation table of {len(rows)} outcomes by {len(phases)} eigenstates",
    )
    cycles = rows[:, None] / m_dim  # y / M, exact for M a power of two
    delta = (phases[None, :] - _TWO_PI_HI * cycles) - _TWO_PI_LO * cycles
    half = np.sin(0.5 * delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sin((0.5 * m_dim) * delta) / (m_dim * half)
    ratio[half == 0.0] = 1.0
    return delta, ratio


def phase_estimate(
    prop: ExactPropagator,
    state: np.ndarray,
    cfg: PhaseEstimationConfig,
    seed: int,
) -> tuple[Decision, np.ndarray, float]:
    """Decide whether `state` is the ground state of `prop.op`.

    Runs cfg.repetitions sequential phase estimations on the collapsing
    register, votes on the per-run decisions |E_hat - energy_estimate| <=
    gap_bound / 2, and returns the voted decision, the post-measurement
    system state, and the median energy sample.  Outcomes are drawn from
    the Fejer kernel of all M outcomes; the state collapses by the
    Dirichlet amplitude of the drawn one.
    """
    phases, grid = _estimation_register(prop, cfg)
    m_dim = len(grid)
    fejer = _estimation_kernel(phases, np.arange(m_dim), m_dim)[1] ** 2
    rng = np.random.default_rng(seed)
    psi = prop.to_eigenbasis(np.asarray(state, dtype=complex))
    psi = psi / np.linalg.norm(psi)

    votes = []
    samples = []
    for _ in range(cfg.repetitions):
        probs = fejer @ np.abs(psi) ** 2
        outcome = int(rng.choice(m_dim, p=probs))
        delta, ratio = _estimation_kernel(phases, np.array([outcome]), m_dim)
        psi = np.exp(0.5j * (m_dim - 1) * delta[0]) * ratio[0] * psi / math.sqrt(probs[outcome])
        e_hat = float(grid[outcome])
        samples.append(e_hat)
        votes.append(abs(e_hat - cfg.energy_estimate) <= cfg.gap_bound / 2.0)
    decision = Decision.GROUND if sum(votes) * 2 > len(votes) else Decision.NOT_GROUND
    post = prop.from_eigenbasis(psi)
    return decision, post, sorted(samples)[len(samples) // 2]


# ---------------------------------------------------------------------------
# Reflection oracles
# ---------------------------------------------------------------------------


class _Reflection:
    """Callable e^{i phi P}-style oracle with an invocation counter."""

    def __init__(self) -> None:
        self.calls = 0

    def apply(self, state: np.ndarray, phase: float) -> np.ndarray:
        raise NotImplementedError


class ProjectorReflection(_Reflection):
    def __init__(self, vectors: np.ndarray):
        super().__init__()
        self._basis = vectors if vectors.ndim == 2 else vectors[:, None]

    def apply(self, state: np.ndarray, phase: float) -> np.ndarray:
        self.calls += 1
        amps = self._basis.conj().T @ state
        return state + (np.exp(1j * phase) - 1.0) * (self._basis @ amps)


class PhaseEstimationReflection(_Reflection):
    """Coherent estimation -> in-window phase -> inverse estimation, with the
    ancillas postselected back to |0>.  Exactly diagonal in the eigenbasis of
    `prop`: the factor on eigencomponent E_k is 1 + w_k (e^{i phi} - 1), where
    w_k = sum over window rows y of sin^2(M delta / 2) / (M^2 sin^2(delta / 2)),
    delta = phases[k] - 2 pi y / M, is the in-window mass of the Fejer kernel."""

    def __init__(self, prop: ExactPropagator, cfg: PhaseEstimationConfig):
        super().__init__()
        self._prop = prop
        phases, grid = _estimation_register(prop, cfg)
        window = np.flatnonzero(np.abs(grid - cfg.energy_estimate) <= cfg.gap_bound / 2.0)
        ratio = _estimation_kernel(phases, window, len(grid))[1]
        self._weight = np.sum(ratio**2, axis=0)

    def apply(self, state: np.ndarray, phase: float) -> np.ndarray:
        self.calls += 1
        amps = self._prop.to_eigenbasis(state)
        amps = amps * (1.0 + (np.exp(1j * phase) - 1.0) * self._weight)
        out = self._prop.from_eigenbasis(amps)
        return out / np.linalg.norm(out)


def state_reflection(vector: np.ndarray) -> ProjectorReflection:
    """Reflection about one explicitly known state."""
    vec = np.asarray(vector, dtype=complex)
    return ProjectorReflection(vec / np.linalg.norm(vec))


def ground_oracle_reflection(prop: ExactPropagator, cfg: PhaseEstimationConfig) -> PhaseEstimationReflection:
    """Reflection through the ground space of `prop.op` via phase estimation."""
    return PhaseEstimationReflection(prop, cfg)


# ---------------------------------------------------------------------------
# Fixed-point amplitude amplification
# ---------------------------------------------------------------------------


def fixed_point_schedule_length(overlap_lower_bound: float, target_infidelity: float) -> int:
    """Smallest odd query count L meeting the fixed-point guarantee.

    L = ceil( arccosh(1/delta) / arccosh(1/sqrt(1 - eta^2)) ) rounded up to
    odd, with delta = sqrt(target infidelity); asymptotically
    L ~ ln(2/sqrt(eps)) / eta, i.e. within a factor 1/2 of log(2/eps)/eta.
    """
    eta = overlap_lower_bound
    eps = target_infidelity
    if not 0 < eta <= 1:
        raise ValueError("overlap_lower_bound must lie in (0, 1]")
    if not 0 < eps < 1:
        raise ValueError("target_infidelity must lie in (0, 1)")
    if eta > 1.0 - 1e-12:
        return 1
    delta = math.sqrt(eps)
    length = math.acosh(1.0 / delta) / math.acosh(1.0 / math.sqrt(1.0 - eta**2))
    l_odd = math.ceil(length)
    return l_odd if l_odd % 2 == 1 else l_odd + 1


@dataclass(frozen=True)
class FixedPointConfig:
    overlap_lower_bound: float
    target_infidelity: float
    derived_query_count: int

    def __post_init__(self) -> None:
        minimum = fixed_point_schedule_length(self.overlap_lower_bound, self.target_infidelity)
        if self.derived_query_count < minimum:
            raise ValueError(
                f"derived_query_count {self.derived_query_count} is below the "
                f"schedule minimum {minimum}"
            )
        if self.derived_query_count % 2 == 0:
            raise ValueError("derived_query_count must be odd")

    @classmethod
    def from_targets(cls, overlap_lower_bound: float, target_infidelity: float) -> "FixedPointConfig":
        return cls(
            overlap_lower_bound=overlap_lower_bound,
            target_infidelity=target_infidelity,
            derived_query_count=fixed_point_schedule_length(overlap_lower_bound, target_infidelity),
        )


def _fixed_point_phases(length: int, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev phase schedule (alpha_j, beta_j) for an odd query count."""
    half = (length - 1) // 2
    gamma_inv = math.cosh(math.acosh(1.0 / delta) / length)
    shrink = math.sqrt(1.0 - 1.0 / gamma_inv**2)
    alphas = np.array(
        [2.0 * math.atan2(1.0, math.tan(2.0 * math.pi * j / length) * shrink)
         for j in range(1, half + 1)]
    )
    betas = -alphas[::-1]
    return alphas, betas


def fixed_point_amplify(
    start: np.ndarray,
    target_oracle: _Reflection,
    start_oracle: _Reflection,
    cfg: FixedPointConfig,
) -> tuple[np.ndarray, int]:
    """Drive `start` toward the target oracle's invariant state.

    Whenever the true overlap is at least cfg.overlap_lower_bound, the final
    infidelity is at most cfg.target_infidelity.  Returns the state and the
    number of oracle invocations (both oracles counted).
    """
    state = np.asarray(start, dtype=complex)
    if abs(np.linalg.norm(state) - 1.0) > 1e-8:
        raise ValueError("start state must be normalized")
    delta = math.sqrt(cfg.target_infidelity)
    alphas, betas = _fixed_point_phases(cfg.derived_query_count, delta)
    before = target_oracle.calls + start_oracle.calls
    for alpha, beta in zip(alphas, betas):
        state = target_oracle.apply(state, beta)
        state = start_oracle.apply(state, -alpha)
    calls = (target_oracle.calls + start_oracle.calls) - before
    return state / np.linalg.norm(state), calls


# ---------------------------------------------------------------------------
# Site-by-site driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrepStep:
    target_size: int
    overlap_before: float
    oracle_calls: int
    fidelity_after: float
    energy_estimate_used: float


@dataclass(frozen=True)
class PrepTrace:
    steps: tuple[PrepStep, ...]
    oracle_calls_total: int
    final_fidelity: float


class PreparationError(RuntimeError):
    """A step's overlap fell below the floor; carries the partial trace."""

    def __init__(self, message: str, trace: PrepTrace):
        super().__init__(message)
        self.trace = trace


def _start_propagator(prev_prop: ExactPropagator, pad: np.ndarray, penalty: float) -> KroneckerSumPropagator:
    """Eigensystem of H_prev (x) 1 + penalty (1 (x) (1 - |pad><pad|)), whose ground state is |g_prev> (x) |pad>.

    A Kronecker sum: only the pad's penalty operator is diagonalised, next to H_prev's `prev_prop`.
    """
    complement = PauliSumOperator.identity(int(math.log2(len(pad)))) - projector_pauli_expansion(pad)
    return KroneckerSumPropagator(prev_prop, ExactPropagator(penalty * complement))


def projector_pauli_expansion(vector: np.ndarray) -> PauliSumOperator:
    """|v><v| over k qubits as a Pauli sum (4^k coefficients <v|P|v>/2^k)."""
    vec = np.asarray(vector, dtype=complex).reshape(-1)
    k = int(math.log2(len(vec)))
    if 1 << k != len(vec):
        raise ValueError("vector length must be a power of two")
    strings = [""]
    for _ in range(k):
        strings = [s + ch for s in strings for ch in PAULI_CHARS]
    terms = []
    for s in strings:
        coeff = PauliSumOperator.from_terms(k, [(1.0, s)]).expectation(vec) / (1 << k)
        terms.append((coeff, s))
    return PauliSumOperator.from_terms(k, terms).hermitized()


def prepare_vacuum(
    spec_family: ModelSpec,
    n0: int,
    n_final: int,
    pad: np.ndarray,
    energy_predictor: EnergyFit,
    eps: float,
    mode: OracleMode | str = OracleMode.IDEAL,
    eta_floor: float = 0.4,
    dense_cap: int = DENSE_CAP_DEFAULT,
) -> tuple[np.ndarray, PrepTrace]:
    """Grow the vacuum from n0 to n_final sites, one padded site at a time.

    Starts from the exactly solved |g_{n0}>, then for each step appends
    the pad and amplifies onto the next ground state, budgeting the target
    trace-distance `eps` uniformly across steps.  The per-step energy
    estimates come from `energy_predictor` and must satisfy the half-gap
    promise (validated here against the exact spectra).  Each register is
    sized so the decision window spans `_WINDOW_CELLS` grid cells.  Each
    size is solved once.  In ideal mode `ground_state_dense` gives its
    spectrum, and the target oracle reflects about its ground vector: the
    half-gap check refuses a zero gap, so the ground space is that one
    vector.  In phase-estimation mode its propagator gives both the
    spectrum and the target oracle, and no start operator is diagonalised:
    its eigensystem is kept as the previous size's propagator and that of
    the 2-qubit pad penalty (`KroneckerSumPropagator`).
    """
    mode = OracleMode(mode)
    if n0 < 2:
        raise ValueError("n0 must be at least 2")
    if n_final < n0:
        raise ValueError("n_final must be at least n0")
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")

    props, spectra = {}, {}
    for n in range(n0, n_final + 1):
        op = build_hamiltonian(spec_family.with_sites(n))
        if mode is OracleMode.IDEAL:
            spectra[n] = ground_state_dense(op, dense_cap)
        else:
            props[n] = ExactPropagator(op, dense_cap)
            spectra[n] = props[n].spectrum()

    state = spectra[n0].ground_vector.copy()
    steps: list[PrepStep] = []
    total_calls = 0
    if n_final == n0:
        return state, PrepTrace(steps=(), oracle_calls_total=0, final_fidelity=1.0)

    for n in range(n0, n_final + 1):
        miss = abs(energy_predictor.predict(n) - spectra[n].ground_energy)
        if miss >= spectra[n].gap / 2.0:
            raise ValueError(
                f"energy prediction at size {n} misses the half-gap promise: "
                f"{miss} >= {spectra[n].gap / 2.0}"
            )

    eps_step = eps / (n_final - n0)
    for target in range(n0 + 1, n_final + 1):
        e_pred = energy_predictor.predict(target)
        gap_bound = spectra[target].gap
        state = np.kron(state, pad)
        overlap = abs(np.vdot(spectra[target].ground_vector, state))
        if overlap < eta_floor:
            raise PreparationError(
                f"overlap {overlap:.4f} at size {target} fell below the floor {eta_floor}",
                PrepTrace(tuple(steps), total_calls, float(overlap**2)),
            )
        if mode is OracleMode.IDEAL:
            target_oracle = state_reflection(spectra[target].ground_vector)
            start_oracle = state_reflection(state)
        else:
            pe_cfg = PhaseEstimationConfig(
                ancilla_bits=ancilla_bits_for(props[target].op, gap_bound, _WINDOW_CELLS),
                energy_estimate=e_pred,
                gap_bound=gap_bound,
            )
            target_oracle = ground_oracle_reflection(props[target], pe_cfg)
            prev = target - 1
            penalty = max(1.0, 2.0 * spectra[prev].gap)
            start_prop = _start_propagator(props[prev], pad, penalty)
            start_cfg = PhaseEstimationConfig(
                ancilla_bits=ancilla_bits_for(start_prop.op, min(spectra[prev].gap, penalty), _WINDOW_CELLS),
                energy_estimate=energy_predictor.predict(prev),
                gap_bound=min(spectra[prev].gap, penalty),
            )
            start_oracle = ground_oracle_reflection(start_prop, start_cfg)
        fp_cfg = FixedPointConfig.from_targets(eta_floor, eps_step)
        state, calls = fixed_point_amplify(state, target_oracle, start_oracle, fp_cfg)
        fidelity = float(abs(np.vdot(spectra[target].ground_vector, state)) ** 2)
        steps.append(
            PrepStep(
                target_size=target,
                overlap_before=float(overlap),
                oracle_calls=calls,
                fidelity_after=fidelity,
                energy_estimate_used=float(e_pred),
            )
        )
        total_calls += calls
    trace = PrepTrace(
        steps=tuple(steps),
        oracle_calls_total=total_calls,
        final_fidelity=steps[-1].fidelity_after,
    )
    return state, trace
