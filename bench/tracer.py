"""Span tracer for the traced benchmark run.

The traced run wraps the public functions of each ``gnlab`` module from the
outside: every binding a caller resolves (``gnlab.cli.dmrg_ground_state``,
``gnlab.overlaps.dmrg_ground_state``, ...) is replaced by one wrapper that
records a span (name, start, end, parent) in memory.  Very hot leaf calls
(Bessel evaluations, Lanczos matvecs, fit residuals, oracle applications) are
aggregated into counters instead of spans; their time is still charged to
the enclosing span so self times stay exact.

A target whose name no longer exists is reported absent with a warning and
its metrics are left out; tracing never raises into the workload.  Timed
sessions never install any wrapper.
"""

from __future__ import annotations

import functools
import os
import sys
import warnings
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

LAYERS = ("cli", "model", "pauli", "exact", "mps", "dmrg", "observables",
          "bessel", "fits", "overlaps", "stateprep")

# span record slots
NAME, START, END, PARENT, CHILD_S, WORK = range(6)


@dataclass
class Tracer:
    spans: list[list] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)
    leaves: dict[str, list[float]] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    maxima: dict[str, float] = field(default_factory=dict)
    absent: dict[str, str] = field(default_factory=dict)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    # -- recording ----------------------------------------------------------

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def record_max(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, 0), value)

    def span(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        """Wrap `fn` in a span.  `before(tracer, args, kwargs) -> (args, kwargs,
        state)` may substitute arguments; `after(tracer, rec, state, args, kwargs,
        result)` records counters once the call returned."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = None
            if before is not None:
                args, kwargs, state = before(tracer, args, kwargs)
            parent = tracer.stack[-1] if tracer.stack else -1
            rec = [name, 0.0, 0.0, parent, 0.0, 0]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                tracer.stack.pop()
                if parent >= 0:
                    tracer.spans[parent][CHILD_S] += rec[END] - rec[START]
            if after is not None:
                after(tracer, rec, state, args, kwargs, result)
            return result

        return wrapper

    def leaf(self, name: str | Callable, fn: Callable) -> Callable:
        """Wrap a hot call that has no traced children: count and time it
        without a span.  `name` may be a function of the call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                key = name(args, kwargs) if callable(name) else name
                agg = tracer.leaves.setdefault(key, [0, 0.0])
                agg[0] += 1
                agg[1] += dt
                if tracer.stack:
                    tracer.spans[tracer.stack[-1]][CHILD_S] += dt

        return wrapper

    # -- installing ---------------------------------------------------------

    def patch_function(self, module: str, attr: str, make: Callable[[Callable], Callable]) -> bool:
        """Replace every binding of `module.attr` across loaded gnlab modules."""
        mod = sys.modules.get(module)
        original = getattr(mod, attr, None) if mod is not None else None
        if original is None:
            self._missing(f"{module}.{attr}")
            return False
        wrapped = make(original)
        for name, other in list(sys.modules.items()):
            if other is None or not (name == "gnlab" or name.startswith("gnlab.")):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._patches.append((other, key, original))
                    setattr(other, key, wrapped)
        return True

    def patch_method(self, module: str, cls_name: str, attr: str,
                     make: Callable[[Callable], Callable]) -> bool:
        """Replace `module.cls_name.attr`, keeping classmethods classmethods."""
        cls = getattr(sys.modules.get(module), cls_name, None)
        raw = vars(cls).get(attr) if isinstance(cls, type) else None
        if raw is None:
            self._missing(f"{module}.{cls_name}.{attr}")
            return False
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, new)
        return True

    def _missing(self, target: str) -> None:
        reason = f"{target} no longer exists"
        self.absent[target] = reason
        warnings.warn(f"trace target {reason}; its metrics are reported absent", stacklevel=3)

    def uninstall(self) -> list[str]:
        """Restore every original binding; return the ones that did not stick."""
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        stale = [f"{getattr(owner, '__name__', owner)}.{key}"
                 for owner, key, original in self._patches
                 if vars(owner).get(key) is not original]
        self._patches.clear()
        return stale

    # -- reading ------------------------------------------------------------

    def ancestor(self, idx: int, names: tuple[str, ...]) -> bool:
        parent = self.spans[idx][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] in names:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def calls(self, name: str) -> int:
        return sum(1 for rec in self.spans if rec[NAME] == name)

    def seconds(self, name: str) -> float:
        return sum(rec[END] - rec[START] for rec in self.spans if rec[NAME] == name)

    def work(self, name: str, under: tuple[str, ...] | None = None) -> float:
        return sum(rec[WORK] for i, rec in enumerate(self.spans)
                   if rec[NAME] == name and (under is None or self.ancestor(i, under)))

    def count_under(self, names: tuple[str, ...], under: tuple[str, ...]) -> int:
        return sum(1 for i, rec in enumerate(self.spans)
                   if rec[NAME] in names and self.ancestor(i, under))

    def self_seconds(self, name: str) -> float:
        return sum(rec[END] - rec[START] - rec[CHILD_S] for rec in self.spans if rec[NAME] == name)

    def layer_self_seconds(self, layer: str) -> float:
        spans = sum(rec[END] - rec[START] - rec[CHILD_S] for rec in self.spans
                    if rec[NAME].split(".", 1)[0] == layer)
        leaves = sum(agg[1] for key, agg in self.leaves.items() if key.split(".", 1)[0] == layer)
        return spans + leaves

    def top_level_seconds(self) -> float:
        return sum(rec[END] - rec[START] for rec in self.spans if rec[PARENT] < 0)


# ---------------------------------------------------------------------------
# What the traced run wraps, and the metrics it derives
# ---------------------------------------------------------------------------


def _arg(args, kwargs, index: int, name: str):
    """The argument at position `index`, or passed as keyword `name`."""
    return args[index] if len(args) > index else kwargs[name]


def _substitute(args, kwargs, index: int, name: str, value):
    if len(args) > index:
        return args[:index] + (value,) + args[index + 1:], kwargs
    return args, dict(kwargs, **{name: value})


def _count_matvecs(tracer, args, kwargs):
    """Substitute a counting matvec for the one handed to lanczos_lowest."""
    counter = [0]

    def counted(fn):
        layer = (getattr(fn, "__module__", None) or "exact").rsplit(".", 1)[-1]
        timed = tracer.leaf(f"{layer}.matvec", fn)

        def matvec(vec):
            counter[0] += 1
            return timed(vec)

        return matvec

    args, kwargs = _substitute(args, kwargs, 0, "matvec", counted(_arg(args, kwargs, 0, "matvec")))
    return args, kwargs, counter


def _store_matvecs(tracer, rec, counter, args, kwargs, result):
    rec[WORK] = counter[0]


def _count_residuals(tracer, args, kwargs):
    residual = tracer.leaf("fits.residual", _arg(args, kwargs, 0, "residual"))
    return (*_substitute(args, kwargs, 0, "residual", residual), None)


def _files(directory) -> dict[str, tuple[int, int]]:
    out = {}
    for root, _dirs, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            st = os.stat(path)
            out[path] = (st.st_mtime_ns, st.st_size)
    return out


def _snapshot_out_dir(tracer, args, kwargs):
    out_dir = _arg(args, kwargs, 0, "cfg").out_dir
    return args, kwargs, (out_dir, _files(out_dir))


def _output_bytes(tracer, rec, state, args, kwargs, result):
    out_dir, before = state
    after = _files(out_dir)
    tracer.add("cli.output_bytes", sum(size for path, (mtime, size) in after.items()
                                       if before.get(path) != (mtime, size)))


def install(tracer: Tracer) -> None:
    """Wrap every traced gnlab entry point; absent targets are only warned about."""
    import gnlab.cli  # noqa: F401  (loads every module the CLI resolves)

    span, leaf = tracer.span, tracer.leaf
    fn, meth = tracer.patch_function, tracer.patch_method

    fn("gnlab.cli", "main", lambda f: span("cli.command", f))
    for cmd, name in (("cmd_solve", "cli.solve"), ("cmd_correlate", "cli.correlate"),
                      ("cmd_overlap", "cli.overlap"), ("cmd_energy_fit", "cli.energy_fit"),
                      ("cmd_prepare", "cli.prepare")):
        fn("gnlab.cli", cmd, lambda f, name=name: span(
            name, f, before=_snapshot_out_dir, after=_output_bytes))

    def terms(tracer, rec, state, args, kwargs, result):
        rec[WORK] = len(result.terms)

    fn("gnlab.model", "build_hamiltonian", lambda f: span("model.hamiltonian", f, after=terms))

    meth("gnlab.pauli", "PauliSumOperator", "from_terms", lambda f: span("pauli.canonicalize", f))
    meth("gnlab.pauli", "PauliSumOperator", "to_matrix", lambda f: span("pauli.to_matrix", f))
    meth("gnlab.pauli", "PauliSumOperator", "apply", lambda f: span("pauli.apply", f))

    def dense_dim(tracer, rec, state, args, kwargs, result):
        tracer.record_max("exact.dense_max_dim", 1 << _arg(args, kwargs, 0, "op").n_qubits)

    def propagator_dim(tracer, rec, state, args, kwargs, result):
        tracer.record_max("exact.dense_max_dim", 1 << _arg(args, kwargs, 1, "op").n_qubits)

    fn("gnlab.exact", "ground_state_dense", lambda f: span("exact.dense_solve", f, after=dense_dim))
    meth("gnlab.exact", "ExactPropagator", "__init__", lambda f: span(
        "exact.propagator", f, after=propagator_dim))
    fn("gnlab.exact", "lanczos_lowest", lambda f: span(
        "exact.lanczos", f, before=_count_matvecs, after=_store_matvecs))

    def mpo_bond(tracer, rec, state, args, kwargs, result):
        tracer.record_max("mps.mpo_max_bond", result.max_bond)

    def checkpoint_bytes(tracer, rec, state, args, kwargs, result):
        tracer.add("mps.checkpoint_bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))

    fn("gnlab.mps", "compile_mpo", lambda f: span("mps.compile_mpo", f, after=mpo_bond))
    fn("gnlab.mps", "truncated_svd", lambda f: span("mps.svd", f))
    fn("gnlab.mps", "apply_mpo", lambda f: span("mps.apply_mpo", f))
    fn("gnlab.mps", "mps_overlap", lambda f: span("mps.overlap", f))
    meth("gnlab.mps", "MatrixProductState", "save", lambda f: span(
        "mps.checkpoint", f, after=checkpoint_bytes))
    meth("gnlab.mps", "MatrixProductState", "load", lambda f: span(
        "mps.checkpoint", f, after=checkpoint_bytes))

    def pauli_terms(tracer, rec, state, args, kwargs, result):
        tracer.add("observables.expectation_terms", len(_arg(args, kwargs, 1, "op").terms))

    fn("gnlab.mps", "pauli_sum_expectation", lambda f: span(
        "mps.pauli_expectation", f, after=pauli_terms))

    def dmrg_report(tracer, rec, state, args, kwargs, result):
        _state, report = result
        tracer.add("dmrg.sweeps", report.sweeps)
        tracer.record_max("dmrg.max_bond", report.max_bond)

    fn("gnlab.dmrg", "dmrg_ground_state", lambda f: span("dmrg.solve", f, after=dmrg_report))
    fn("gnlab.dmrg", "epsilon_measure", lambda f: span("dmrg.epsilon", f))

    fn("gnlab.observables", "two_point_correlator", lambda f: span("observables.correlator", f))

    fn("gnlab.bessel", "bessel_k", lambda f: leaf(
        lambda args, kwargs: f"bessel.k{_arg(args, kwargs, 0, 'order')}", f))

    fn("gnlab.fits", "damped_gauss_newton", lambda f: span(
        "fits.gauss_newton", f, before=_count_residuals))
    fn("gnlab.fits", "fit_correlation_length", lambda f: span("fits.correlation_fit", f))
    fn("gnlab.fits", "fit_energy_extrapolation", lambda f: span("fits.energy_fit", f))

    def pairs(tracer, rec, state, args, kwargs, result):
        rec[WORK] = len(result.overlaps)

    fn("gnlab.overlaps", "consecutive_overlaps", lambda f: span("overlaps.series", f, after=pairs))

    fn("gnlab.stateprep", "prepare_vacuum", lambda f: span("stateprep.prepare", f))
    fn("gnlab.stateprep", "ground_oracle_reflection", lambda f: span("stateprep.oracle_build", f))
    fn("gnlab.stateprep", "state_reflection", lambda f: span("stateprep.oracle_build", f))
    fn("gnlab.stateprep", "fixed_point_amplify", lambda f: span("stateprep.amplify", f))
    for cls in ("ProjectorReflection", "PhaseEstimationReflection"):
        meth("gnlab.stateprep", cls, "apply", lambda f: leaf("stateprep.oracle_call", f))


# metric name -> (unit, trace targets it needs, how to read it)
def _leaf_calls(key):
    return lambda t: t.leaves.get(key, [0, 0.0])[0]


def _per(num, den):
    return num / den if den else 0.0


SOLVES = ("dmrg.solve", "exact.dense_solve")

METRICS: dict[str, tuple[str, tuple[str, ...], Callable[[Tracer], float]]] = {
    "cli.solve_s": ("s", ("gnlab.cli.cmd_solve",), lambda t: t.seconds("cli.solve")),
    "cli.correlate_s": ("s", ("gnlab.cli.cmd_correlate",), lambda t: t.seconds("cli.correlate")),
    "cli.overlap_s": ("s", ("gnlab.cli.cmd_overlap",), lambda t: t.seconds("cli.overlap")),
    "cli.energy_fit_s": ("s", ("gnlab.cli.cmd_energy_fit",), lambda t: t.seconds("cli.energy_fit")),
    "cli.prepare_s": ("s", ("gnlab.cli.cmd_prepare",), lambda t: t.seconds("cli.prepare")),
    "cli.output_bytes": ("bytes", ("gnlab.cli.cmd_solve",), lambda t: t.counters.get("cli.output_bytes", 0)),
    "model.hamiltonian_calls": ("count", ("gnlab.model.build_hamiltonian",),
                                lambda t: t.calls("model.hamiltonian")),
    "model.hamiltonian_s": ("s", ("gnlab.model.build_hamiltonian",), lambda t: t.seconds("model.hamiltonian")),
    "model.hamiltonian_terms": ("count", ("gnlab.model.build_hamiltonian",),
                                lambda t: t.work("model.hamiltonian")),
    "pauli.canonicalize_calls": ("count", ("gnlab.pauli.PauliSumOperator.from_terms",),
                                 lambda t: t.calls("pauli.canonicalize")),
    "pauli.canonicalize_s": ("s", ("gnlab.pauli.PauliSumOperator.from_terms",),
                             lambda t: t.seconds("pauli.canonicalize")),
    "pauli.to_matrix_calls": ("count", ("gnlab.pauli.PauliSumOperator.to_matrix",),
                              lambda t: t.calls("pauli.to_matrix")),
    "pauli.to_matrix_s": ("s", ("gnlab.pauli.PauliSumOperator.to_matrix",), lambda t: t.seconds("pauli.to_matrix")),
    "pauli.apply_calls": ("count", ("gnlab.pauli.PauliSumOperator.apply",), lambda t: t.calls("pauli.apply")),
    "pauli.apply_s": ("s", ("gnlab.pauli.PauliSumOperator.apply",), lambda t: t.seconds("pauli.apply")),
    "exact.dense_solve_calls": ("count", ("gnlab.exact.ground_state_dense",),
                                lambda t: t.calls("exact.dense_solve")),
    "exact.dense_solve_s": ("s", ("gnlab.exact.ground_state_dense",), lambda t: t.seconds("exact.dense_solve")),
    "exact.dense_max_dim": ("count", ("gnlab.exact.ground_state_dense", "gnlab.exact.ExactPropagator.__init__"),
                            lambda t: t.maxima.get("exact.dense_max_dim", 0)),
    "exact.propagator_builds": ("count", ("gnlab.exact.ExactPropagator.__init__",),
                                lambda t: t.calls("exact.propagator")),
    "exact.propagator_s": ("s", ("gnlab.exact.ExactPropagator.__init__",), lambda t: t.seconds("exact.propagator")),
    "exact.lanczos_calls": ("count", ("gnlab.exact.lanczos_lowest",), lambda t: t.calls("exact.lanczos")),
    "exact.lanczos_s": ("s", ("gnlab.exact.lanczos_lowest",), lambda t: t.seconds("exact.lanczos")),
    "exact.lanczos_matvecs": ("count", ("gnlab.exact.lanczos_lowest",), lambda t: t.work("exact.lanczos")),
    "mps.compile_mpo_calls": ("count", ("gnlab.mps.compile_mpo",), lambda t: t.calls("mps.compile_mpo")),
    "mps.compile_mpo_s": ("s", ("gnlab.mps.compile_mpo",), lambda t: t.seconds("mps.compile_mpo")),
    "mps.mpo_max_bond": ("count", ("gnlab.mps.compile_mpo",), lambda t: t.maxima.get("mps.mpo_max_bond", 0)),
    "mps.svd_calls": ("count", ("gnlab.mps.truncated_svd",), lambda t: t.calls("mps.svd")),
    "mps.svd_s": ("s", ("gnlab.mps.truncated_svd",), lambda t: t.seconds("mps.svd")),
    "mps.apply_mpo_s": ("s", ("gnlab.mps.apply_mpo",), lambda t: t.seconds("mps.apply_mpo")),
    "mps.overlap_calls": ("count", ("gnlab.mps.mps_overlap",), lambda t: t.calls("mps.overlap")),
    "mps.overlap_s": ("s", ("gnlab.mps.mps_overlap",), lambda t: t.seconds("mps.overlap")),
    "mps.checkpoint_bytes": ("bytes", ("gnlab.mps.MatrixProductState.save", "gnlab.mps.MatrixProductState.load"),
                             lambda t: t.counters.get("mps.checkpoint_bytes", 0)),
    "mps.checkpoint_s": ("s", ("gnlab.mps.MatrixProductState.save", "gnlab.mps.MatrixProductState.load"),
                         lambda t: t.seconds("mps.checkpoint")),
    "dmrg.solve_calls": ("count", ("gnlab.dmrg.dmrg_ground_state",), lambda t: t.calls("dmrg.solve")),
    "dmrg.solve_s": ("s", ("gnlab.dmrg.dmrg_ground_state",), lambda t: t.seconds("dmrg.solve")),
    "dmrg.self_s": ("s", ("gnlab.dmrg.dmrg_ground_state", "gnlab.exact.lanczos_lowest",
                          "gnlab.mps.truncated_svd", "gnlab.dmrg.epsilon_measure"),
                    lambda t: t.self_seconds("dmrg.solve")),
    "dmrg.sweeps": ("count", ("gnlab.dmrg.dmrg_ground_state",), lambda t: t.counters.get("dmrg.sweeps", 0)),
    "dmrg.local_solves": ("count", ("gnlab.dmrg.dmrg_ground_state", "gnlab.exact.lanczos_lowest"),
                          lambda t: t.count_under(("exact.lanczos",), ("dmrg.solve",))),
    "dmrg.matvecs": ("count", ("gnlab.dmrg.dmrg_ground_state", "gnlab.exact.lanczos_lowest"),
                     lambda t: t.work("exact.lanczos", under=("dmrg.solve",))),
    "dmrg.matvecs_per_local_solve": ("ratio", ("gnlab.dmrg.dmrg_ground_state", "gnlab.exact.lanczos_lowest"),
                                     lambda t: _per(t.work("exact.lanczos", under=("dmrg.solve",)),
                                                    t.count_under(("exact.lanczos",), ("dmrg.solve",)))),
    "dmrg.matvec_s": ("s", ("gnlab.exact.lanczos_lowest",),
                      lambda t: t.leaves.get("dmrg.matvec", [0, 0.0])[1]),
    "dmrg.epsilon_calls": ("count", ("gnlab.dmrg.epsilon_measure",), lambda t: t.calls("dmrg.epsilon")),
    "dmrg.epsilon_s": ("s", ("gnlab.dmrg.epsilon_measure",), lambda t: t.seconds("dmrg.epsilon")),
    "dmrg.max_bond": ("count", ("gnlab.dmrg.dmrg_ground_state",), lambda t: t.maxima.get("dmrg.max_bond", 0)),
    "observables.correlator_s": ("s", ("gnlab.observables.two_point_correlator",),
                                 lambda t: t.seconds("observables.correlator")),
    "observables.expectation_terms": ("count", ("gnlab.mps.pauli_sum_expectation",),
                                      lambda t: t.counters.get("observables.expectation_terms", 0)),
    "bessel.k0_calls": ("count", ("gnlab.bessel.bessel_k",), _leaf_calls("bessel.k0")),
    "bessel.k2_calls": ("count", ("gnlab.bessel.bessel_k",), _leaf_calls("bessel.k2")),
    "bessel.s": ("s", ("gnlab.bessel.bessel_k",),
                 lambda t: sum(agg[1] for key, agg in t.leaves.items() if key.startswith("bessel."))),
    "fits.correlation_fit_s": ("s", ("gnlab.fits.fit_correlation_length",),
                               lambda t: t.seconds("fits.correlation_fit")),
    "fits.energy_fit_s": ("s", ("gnlab.fits.fit_energy_extrapolation",), lambda t: t.seconds("fits.energy_fit")),
    "fits.gauss_newton_calls": ("count", ("gnlab.fits.damped_gauss_newton",),
                                lambda t: t.calls("fits.gauss_newton")),
    "fits.residual_evals": ("count", ("gnlab.fits.damped_gauss_newton",), _leaf_calls("fits.residual")),
    "overlaps.series_s": ("s", ("gnlab.overlaps.consecutive_overlaps",), lambda t: t.seconds("overlaps.series")),
    "overlaps.states_solved": ("count", ("gnlab.overlaps.consecutive_overlaps", "gnlab.dmrg.dmrg_ground_state",
                                         "gnlab.exact.ground_state_dense"),
                               lambda t: t.count_under(SOLVES, ("overlaps.series",))),
    "overlaps.pairs": ("count", ("gnlab.overlaps.consecutive_overlaps",), lambda t: t.work("overlaps.series")),
    "stateprep.prepare_s": ("s", ("gnlab.stateprep.prepare_vacuum",), lambda t: t.seconds("stateprep.prepare")),
    "stateprep.oracle_builds": ("count", ("gnlab.stateprep.ground_oracle_reflection",
                                          "gnlab.stateprep.state_reflection"),
                                lambda t: t.calls("stateprep.oracle_build")),
    "stateprep.oracle_calls": ("count", ("gnlab.stateprep.ProjectorReflection.apply",
                                         "gnlab.stateprep.PhaseEstimationReflection.apply"),
                               _leaf_calls("stateprep.oracle_call")),
    "stateprep.amplify_s": ("s", ("gnlab.stateprep.fixed_point_amplify",), lambda t: t.seconds("stateprep.amplify")),
}

for _layer in LAYERS:
    METRICS[f"self_s.{_layer}"] = ("s", (), lambda t, layer=_layer: t.layer_self_seconds(layer))

TRACE_METRICS = {
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
    "trace.spans": "count",
}


def layer_metrics(tracer: Tracer) -> tuple[dict[str, dict], dict[str, str]]:
    """(metrics, absent): every derivable metric, and a reason for each one left out."""
    metrics, absent = {}, {}
    for name, (unit, needs, read) in METRICS.items():
        missing = [target for target in needs if target in tracer.absent]
        if missing:
            absent[name] = "; ".join(tracer.absent[target] for target in missing)
            continue
        metrics[name] = {"value": float(read(tracer)), "unit": unit}
    return metrics, absent
