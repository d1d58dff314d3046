"""Command-line pipelines: solve, correlate, overlap, energy-fit, prepare, report.

Every output CSV starts with a manifest comment (config hash, seed,
version) so a rerun with the same config and seed is byte-identical.
Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields, replace
from enum import Enum
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, Engine, ExperimentConfig, load_config
from .dmrg import DmrgReport, dmrg_ground_state
from .exact import ConvergenceError, ground_state_dense
from .fits import FitConvergenceError, fit_correlation_length, fit_energy_extrapolation, window_mask
from .model import ModelSpec, build_hamiltonian, free_dispersion, free_quadratic_form, lattice_momenta
from .mps import MatrixProductState, append_site, compile_mpo, grouped_dims
from .observables import centered_pairs, two_point_correlator
from .overlaps import PadKind, consecutive_overlaps, pad_state
from .stateprep import OracleMode, PreparationError, prepare_vacuum

NUMERICAL_ERRORS = (
    ConvergenceError,
    FitConvergenceError,
    PreparationError,
    np.linalg.LinAlgError,
    ValueError,
)


def _cell(value: object) -> str:
    """One CSV cell: enums by value, floats by repr (NaN is empty), the rest by str."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(float(value))
    return str(value)


def _write_text(path: Path, lines: list[str]) -> None:
    """Write `lines` to `path`, making its directory first."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _write(path: Path, cfg: ExperimentConfig, header: str, rows: list[tuple]) -> None:
    _write_text(path, [cfg.manifest_line(), header, *(",".join(map(_cell, row)) for row in rows)])


class _Record(dict):
    """One CSV row or manifest read from `path`; a missing key is a ConfigError naming the file."""

    def __init__(self, path: Path, items):
        super().__init__(items)
        self.path = path

    def __missing__(self, key: str):
        raise ConfigError(f"{self.path}: no {key!r} entry")

    def number(self, key: str, cast: type = float):
        """The `key` entry as a number; a cell that is not one is a ConfigError naming it."""
        try:
            return cast(self[key])
        except ValueError:
            raise ConfigError(f"{self.path}: {key!r} = {self[key]!r} is not a number") from None


def read_csv(path: Path) -> list[_Record]:
    """Data rows of a CSV written by `_write`, keyed by its header."""
    lines = [ln for ln in path.read_text().splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ConfigError(f"{path}: no header line")
    header = lines[0].split(",")
    return [_Record(path, zip(header, ln.split(","))) for ln in lines[1:]]


def _state_slug(cfg: ExperimentConfig, spec: ModelSpec, lo: int | None = None) -> str:
    """Checkpoint name: every parameter of the Hamiltonian and every solver setting that shapes the state,
    ending in `_from{lo}` for a state grown in a ladder that began at size `lo`."""
    solver = cfg.solver
    grown = "" if lo is None else f"_from{lo}"
    return (f"state_N{spec.n_sites}_a{spec.spacing!r}_m{spec.bare_mass!r}_g{spec.coupling_sq!r}"
            f"_r{spec.wilson_r!r}_f{spec.flavors}_{spec.boundary.value}_{solver.engine.value}"
            f"_s{solver.seed}_e{solver.epsilon_goal!r}_b{solver.max_bond}_w{solver.max_sweeps}{grown}.mps")


def _solve_point(cfg: ExperimentConfig, spec: ModelSpec, start: MatrixProductState | None = None):
    """Converged ground state for one spec by the configured engine: (mps, report); dense states become exact MPSs.
    DMRG starts from `start` if one is given; the dense engine ignores it."""
    op = build_hamiltonian(spec)
    if cfg.solver.engine is Engine.DENSE:
        result = ground_state_dense(op, dense_cap=cfg.solver.dense_cap)
        vec = result.ground_vector
        h_vec = op.apply(vec)
        e = float(np.real(np.vdot(vec, h_vec)))
        eps = max(float(np.linalg.norm(h_vec - e * vec)) ** 2 / e**2, np.finfo(float).eps)   # epsilon_measure's floor
        mps = MatrixProductState.from_dense(vec, grouped_dims(spec.n_qubits, spec.flavors))
        report = DmrgReport(energy=result.ground_energy, epsilon=eps, sweeps=0,
                            max_bond=max(mps.bond_dims), converged=True)
        return mps, report
    mps, report = dmrg_ground_state(
        compile_mpo(op, spec.flavors),
        epsilon_goal=cfg.solver.epsilon_goal,
        max_bond=cfg.solver.max_bond,
        seed=cfg.solver.seed,
        max_sweeps=cfg.solver.max_sweeps,
        start=start,
    )
    if not report.converged:
        raise ConvergenceError(f"DMRG did not converge at {spec.n_sites} sites in {report.sweeps} sweep(s): "
                               f"epsilon {report.epsilon:.3e}, goal {cfg.solver.epsilon_goal:.3e}")
    return mps, report


def _ground_state(cfg: ExperimentConfig, spec: ModelSpec, reuse: bool = True, lo: int | None = None,
                  smaller: MatrixProductState | None = None) -> tuple[MatrixProductState, DmrgReport]:
    """`spec`'s converged ground state and its solve's report: from its checkpoint if `reuse` and one exists,
    else solved and saved.  A checkpoint that does not load, such as one of an older format, one whose sites are not
    `spec`'s lattice sites, or a DMRG one whose stored epsilon is not below `epsilon_goal`, is a ConfigError.
    A state grown in a ladder begun at size `lo` starts from `smaller` with the symmetry-adapted pad appended."""
    chk = cfg.out_dir / _state_slug(cfg, spec, lo)
    if reuse and chk.exists():
        try:
            state, report = MatrixProductState.load(chk)
            if state.phys_dims != (dims := grouped_dims(spec.n_qubits, spec.flavors)):
                raise ValueError(f"{chk}: site dimensions {state.phys_dims}, not the lattice's {dims}")
            if cfg.solver.engine is Engine.DMRG and not report.epsilon < (goal := cfg.solver.epsilon_goal):
                raise ValueError(f"{chk}: stored epsilon {report.epsilon:.3e} is not below the goal {goal:.3e}")
        except ValueError as exc:
            raise ConfigError(f"{exc}; remove it or choose another output directory") from None
        return state, report
    start = None if lo is None else append_site(smaller, pad_state(PadKind.SYMMETRY_ADAPTED, spec.flavors))
    state, report = _solve_point(cfg, spec, start)
    chk.parent.mkdir(parents=True, exist_ok=True)
    state.save(chk, report)
    return state, report


def _ladder(cfg: ExperimentConfig, family: ModelSpec, reuse: bool):
    """Ground states of `family` at the configured sizes lo..hi: yields (n, state, report).

    Under DMRG each size after the first grows from the previous state, solved or loaded, with the
    symmetry-adapted pad whatever `pad_kind` says: it keeps the start in one fermion-number sector, while
    the uniform pad spans three.
    """
    lo, hi = cfg.analysis.sizes_min, cfg.analysis.sizes_max
    state = None
    for n in range(lo, hi + 1):
        grown = n > lo and cfg.solver.engine is Engine.DMRG
        state, report = _ground_state(cfg, family.with_sites(n), reuse, lo if grown else None, state)
        yield n, state, report


def _require_model(cfg: ExperimentConfig) -> ModelSpec:
    if cfg.model is None:
        raise ConfigError("this command needs a [model] section")
    return cfg.model


def _require_dense_cap(cfg: ExperimentConfig, model: ModelSpec, n_sites: int, what: str) -> None:
    """Refuse, before any solve, a dense solve of `n_sites` sites beyond `dense_cap`."""
    need = model.with_sites(n_sites).n_qubits
    if need > cfg.solver.dense_cap:
        raise ConfigError(f"{what} = {n_sites} needs {need} qubits, beyond dense_cap = {cfg.solver.dense_cap}")


def cmd_solve(cfg: ExperimentConfig) -> None:
    model = _require_model(cfg)
    if cfg.solver.engine is Engine.DENSE:
        _require_dense_cap(cfg, model, cfg.analysis.sizes_max, "sizes_max")
    rows = [(n, report.energy, report.epsilon, report.sweeps, report.max_bond)
            for n, _state, report in _ladder(cfg, model, reuse=False)]
    name = "energies.csv" if cfg.solver.engine is Engine.DMRG else "energies_dense.csv"
    _write(cfg.out_dir / name, cfg, "N,energy,epsilon,sweeps,max_bond", rows)


def cmd_correlate(cfg: ExperimentConfig) -> None:
    model = _require_model(cfg)
    window = cfg.analysis.fit_window
    try:
        window_mask([k * model.spacing for k, _i, _j in centered_pairs(model.n_sites)], window)
    except ValueError as exc:
        raise ConfigError(f"{model.n_sites} sites: {exc}") from exc
    if cfg.solver.engine is Engine.DENSE:
        _require_dense_cap(cfg, model, model.n_sites, "n_sites")
    corr_rows: list[tuple] = []
    fit_rows: list[tuple] = []
    for m0, g0_sq in cfg.analysis.parameter_points():
        spec = replace(model, bare_mass=m0, coupling_sq=g0_sq)
        state, report = _ground_state(cfg, spec)
        series = two_point_correlator(state, spec, epsilon=report.epsilon)
        corr_rows.extend((m0, g0_sq, *point)
                         for point in zip(series.separations, series.values, series.error_bars))
        fit = fit_correlation_length(series, window=window)
        fit_rows.append((m0, g0_sq, fit.amplitude_b, fit.corr_length_chi, fit.residual_norm))
    _write(cfg.out_dir / "correlators.csv", cfg, "m0,g0_sq,dx,value,err", corr_rows)
    _write(cfg.out_dir / "corr_fits.csv", cfg, "m0,g0_sq,b,chi,residual", fit_rows)


def cmd_overlap(cfg: ExperimentConfig) -> None:
    model = _require_model(cfg)
    lo, hi = cfg.analysis.sizes_min, cfg.analysis.sizes_max
    if hi <= lo:
        raise ConfigError(f"overlap needs at least two sizes, got sizes_min = {lo}, sizes_max = {hi}")
    if cfg.solver.engine is Engine.DENSE:
        _require_dense_cap(cfg, model, hi, "sizes_max")
    rows: list[tuple] = []
    summary: list[tuple] = []
    kinds = [cfg.analysis.pad_kind]
    if cfg.analysis.pad_kind is PadKind.UNIFORM:
        kinds.append(PadKind.SYMMETRY_ADAPTED)
    for m0, g0_sq in cfg.analysis.parameter_points():
        family = replace(model, bare_mass=m0, coupling_sq=g0_sq)
        states = {n: state for n, state, _report in _ladder(cfg, family, reuse=True)}
        for kind in kinds:
            series = consecutive_overlaps(states, pad_state(kind, model.flavors))
            rows.extend((m0, g0_sq, j, o, kind) for j, o in zip(series.sizes, series.overlaps))
            summary.append((m0, g0_sq, series.eta_estimate, series.eta_spread, kind))
    _write(cfg.out_dir / "overlaps.csv", cfg, "m0,g0_sq,j,overlap,pad_kind", rows)
    _write(cfg.out_dir / "overlaps_summary.csv", cfg, "m0,g0_sq,eta,spread,pad_kind", summary)


def cmd_energy_fit(cfg: ExperimentConfig) -> None:
    path = cfg.out_dir / "energies.csv"
    if not path.exists():
        path = cfg.out_dir / "energies_dense.csv"
    if not path.exists():
        raise ConfigError(f"no energies.csv under {cfg.out_dir}; run solve first")
    data = [(r.number("N", int), r.number("energy")) for r in read_csv(path)]
    if cfg.analysis.gap is None:
        raise ConfigError("[analysis] gap is required for energy-fit")
    fit = fit_energy_extrapolation(data, cfg.analysis.energy_model, gap=cfg.analysis.gap)
    columns = zip(fit.sizes, fit.energies, fit.predictions, fit.prediction_errors)
    rows = [(size, energy, fit.model, pred, err, fit.half_gap) for size, energy, pred, err in columns]
    _write(cfg.out_dir / "energy_fit.csv", cfg, "N,E,model,prediction,abs_error,half_gap", rows)


def cmd_prepare(cfg: ExperimentConfig) -> None:
    model = _require_model(cfg)
    prep = cfg.prep
    _require_dense_cap(cfg, model, prep.n_final + 1, "n_final + 1")
    sizes = range(prep.n0, prep.n_final + 2)
    energies = []
    for n in sizes:
        spec = model.with_sites(n)
        result = ground_state_dense(build_hamiltonian(spec), dense_cap=cfg.solver.dense_cap)
        energies.append((n, result.ground_energy))
    fit = fit_energy_extrapolation(energies, "linear", gap=1.0)
    pad = pad_state(cfg.analysis.pad_kind, model.flavors)
    state, trace = prepare_vacuum(
        model, prep.n0, prep.n_final, pad, fit,
        eps=prep.eps, mode=prep.oracle, eta_floor=prep.eta_floor,
        dense_cap=cfg.solver.dense_cap,
    )
    _write(
        cfg.out_dir / f"prep_trace_{prep.oracle.value}.csv",
        cfg,
        "step_j,overlap_before,oracle_calls,fidelity_after,energy_estimate",
        [(s.target_size, s.overlap_before, s.oracle_calls, s.fidelity_after, s.energy_estimate_used)
         for s in trace.steps],
    )
    manifest = [
        f"version = {__version__}",
        f"config_sha = {cfg.config_hash}",
        f"seed = {cfg.solver.seed}",
        f"dense_cap = {cfg.solver.dense_cap}",
        f"oracle_mode = {prep.oracle.value}",
        f"n0 = {prep.n0}",
        f"n_final = {prep.n_final}",
        f"eps = {prep.eps!r}",
        f"eta_floor = {prep.eta_floor!r}",
        f"final_fidelity = {trace.final_fidelity!r}",
        f"oracle_calls_total = {trace.oracle_calls_total}",
        "model:",
        *(f"  {f.name} = {_cell(getattr(model, f.name))}" for f in fields(model)),
    ]
    _write_text(cfg.out_dir / f"prep_manifest_{prep.oracle.value}.txt", manifest)


def _report_dispersion(model: ModelSpec) -> tuple[bool, str]:
    worst = 0.0
    for r in (0.25, 0.5, 1.0):
        spec = ModelSpec(
            n_sites=12, spacing=model.spacing, bare_mass=model.bare_mass,
            coupling_sq=0.0, wilson_r=r, flavors=1, boundary="periodic",
        )
        sp = np.sort(np.linalg.eigvalsh(free_quadratic_form(spec)))
        expect = np.sort(
            np.concatenate(
                [[free_dispersion(spec, p), -free_dispersion(spec, p)] for p in lattice_momenta(spec)]
            ).ravel()
        )
        worst = max(worst, float(np.max(np.abs(sp - expect))))
    return worst <= 1e-10, f"max deviation {worst:.2e} (tol 1e-10)"


def cmd_report(cfg: ExperimentConfig) -> None:
    model = _require_model(cfg)
    out = cfg.out_dir
    lines = [cfg.manifest_line(), "acceptance criterion summary", ""]

    def add(num: int, name: str, verdict: str, detail: str) -> None:
        lines.append(f"[{num:02d}] {name}: {verdict} ({detail})")

    # 1. oracle equivalence: dense vs dmrg energies when both engines were run
    dense_f, dmrg_f = out / "energies_dense.csv", out / "energies.csv"
    if dense_f.exists() and dmrg_f.exists():
        dense = {r.number("N", int): r.number("energy") for r in read_csv(dense_f)}
        dmrg = {r.number("N", int): r.number("energy") for r in read_csv(dmrg_f)}
        common = sorted(set(dense) & set(dmrg))
        if common:
            worst = max(abs(dense[n] - dmrg[n]) / abs(dense[n]) for n in common)
            add(1, "dense/DMRG energy equivalence", "PASS" if worst <= 1e-8 else "FAIL",
                f"worst relative {worst:.2e} over N={common}")
        else:
            add(1, "dense/DMRG energy equivalence", "MISSING", "no common sizes")
    else:
        add(1, "dense/DMRG energy equivalence", "MISSING",
            "need energies.csv (dmrg) and energies_dense.csv (dense)")

    ok, detail = _report_dispersion(model)
    add(2, "free-theory dispersion", "PASS" if ok else "FAIL", detail)

    fits_f = out / "corr_fits.csv"
    if fits_f.exists():
        entries = [(r.number("m0"), r.number("g0_sq"), r.number("chi"), r.number("residual"))
                   for r in read_csv(fits_f)]
        a = model.spacing
        length = model.n_sites * a
        ok = all(res <= 0.05 and 2 * a <= chi <= length / 3 for _m, _g, chi, res in entries)
        detail = "; ".join(
            f"(m0={m0}, g0^2={g0}): chi={chi:.4f}, residual={res:.2%}" for m0, g0, chi, res in entries
        )
        add(3, "correlator K0 fit", "PASS" if ok and entries else "FAIL", detail or "no rows")
    else:
        add(3, "correlator K0 fit", "MISSING", "run correlate first")

    summary_f = out / "overlaps_summary.csv"
    if summary_f.exists():
        rows = [(r.number("m0"), r.number("g0_sq"), r.number("eta"), r.number("spread"), r["pad_kind"])
                for r in read_csv(summary_f)]
        uniform = [r for r in rows if r[4] == PadKind.UNIFORM.value]
        ok = bool(uniform) and all(eta > 0 and spread <= 0.1 * eta for _m, _g, eta, spread, _k in uniform)
        sym = {(m, g): eta for m, g, eta, _s, k in rows if k == PadKind.SYMMETRY_ADAPTED.value}
        ratio_note = ""
        for m, g, eta, _s, _k in uniform:
            if (m, g) in sym and eta > 0:
                ratio = sym[(m, g)] / eta
                ratio_note += f" ratio={ratio:.6f}"
                ok = ok and abs(ratio - np.sqrt(2)) <= 1e-6
        add(4, "overlap plateau", "PASS" if ok else "FAIL",
            "; ".join(f"eta={eta:.4f}+-{spread:.4f}" for _m, _g, eta, spread, _k in uniform) + ratio_note)
    else:
        add(4, "overlap plateau", "MISSING", "run overlap first")

    fit_f = out / "energy_fit.csv"
    if fit_f.exists():
        errs = [(r.number("abs_error"), r.number("half_gap")) for r in read_csv(fit_f) if r["abs_error"]]
        if errs:
            half_gap = errs[0][1]
            tail = [e for e, _h in errs[len(errs) // 2:]]
            ok = all(e < half_gap for e in tail)
            add(5, "energy predictability", "PASS" if ok else "FAIL",
                f"late-size max error {max(tail):.3e} vs half gap {half_gap:.3e}")
        else:
            add(5, "energy predictability", "MISSING", "no causal predictions in file")
    else:
        add(5, "energy predictability", "MISSING", "run energy-fit first")

    for num, name in ((6, "variance error bound"), (7, "membership-test contract"),
                      (8, "amplification contract")):
        add(num, name, "SEE-TESTS", "exercised by the acceptance test suite")

    prep_files = sorted(out.glob("prep_manifest_*.txt"))
    if prep_files:
        details = []
        ok = True
        for pf in prep_files:
            info = _Record(pf, (ln.split(" = ", 1) for ln in pf.read_text().splitlines() if " = " in ln))
            fid = info.number("final_fidelity")
            eps = info.number("eps")
            mode = info["oracle_mode"]
            bound = 1 - eps if mode == OracleMode.IDEAL.value else 1 - 5 * eps
            ok = ok and fid >= bound
            details.append(f"{mode}: fidelity={fid:.6f} (bound {bound:.6f})")
        add(9, "site-by-site preparation", "PASS" if ok else "FAIL", "; ".join(details))
    else:
        add(9, "site-by-site preparation", "MISSING", "run prepare first")

    add(10, "determinism", "SEE-TESTS", "byte-identical reruns exercised by the test suite")

    _write_text(out / "report.txt", lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gnlab",
        description="Lattice Gross-Neveu vacuum-preparation laboratory",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "solve": cmd_solve,
        "correlate": cmd_correlate,
        "overlap": cmd_overlap,
        "energy-fit": cmd_energy_fit,
        "prepare": cmd_prepare,
        "report": cmd_report,
    }
    for name in commands:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment INI file")
        p.add_argument("--out", default=None, help="output directory (wins over config)")
        p.add_argument("--seed", type=int, default=None, help="solver seed (wins over config)")
        p.add_argument("--engine", choices=[e.value for e in Engine], default=None)
        p.add_argument("--sizes", default=None, help="size range a..b (wins over config)")

    args = parser.parse_args(argv)
    overrides: dict[str, object] = {}
    if args.out is not None:
        overrides["out"] = args.out
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.engine is not None:
        overrides["engine"] = args.engine
    if args.sizes is not None:
        try:
            lo, hi = args.sizes.split("..")
            overrides["sizes"] = (int(lo), int(hi))
        except ValueError:
            print(f"error: bad --sizes value {args.sizes!r}, expected a..b", file=sys.stderr)
            return 2

    try:
        cfg = load_config(args.config, overrides)
        commands[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
