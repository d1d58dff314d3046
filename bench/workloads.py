"""The benchmark's workloads: user sessions of the gnlab CLI and library.

Each workload is a closed loop of operations (one caller, each operation
waits for the previous one).  An operation is one CLI command or one
library pipeline call; it fails when it raises, exits non-zero, or when its
output misses the acceptance tolerance it is checked against.  Outputs are
always checked by value at the acceptance tolerances, never byte for byte.

`smoke=True` selects tiny sizes with the same operations, for the
benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("chain50", "size-ladder", "statevector-prep")

ENERGY_RTOL = 1e-8          # C01
FIT_RESIDUAL_MAX = 0.05     # C03
PLATEAU_SPREAD_MAX = 0.1    # C04, relative to eta
PAD_RATIO_TOL = 1e-6        # C04
PREP_EPS = 1e-3             # C09


@dataclass(frozen=True)
class Context:
    workdir: Path
    seed: int
    smoke: bool
    refs: dict              # pinned references of this workload and size


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], tuple[list[str], dict]]   # -> (problems, observed values)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _chain_params(smoke: bool) -> dict:
    n = 24 if smoke else 50
    return {"n": n, "spacing": 1.0 / n, "m0": 0.2, "g0_sq": 1.5, "eps_goal": 1e-8, "bond": 32}


def _ladder_params(smoke: bool) -> dict:
    return {"sizes": (2, 7) if smoke else (2, 8), "spacing": 0.25, "m0": 0.2, "g0_sq": 1.5,
            "eps_goal": 1e-10, "bond": 64, "gap": 22.0}


def _prep_params(smoke: bool) -> dict:
    # the linear predictor needs three energies, so smoke solves one size past n_final
    return {"points": ((0.2, 1.5),), "spacing": 0.25, "n0": 2,
            "n_final": 3 if smoke else 5, "energy_max": 4 if smoke else 5,
            "cli_n_final": 3 if smoke else 4}


def write_inputs(workload: str, workdir: Path, smoke: bool) -> None:
    """Write the workload's INI files; part of set-up."""
    if workload == "chain50":
        p = _chain_params(smoke)
        text = f"""[model]
n_sites = {p['n']}
spacing = {p['spacing']!r}
bare_mass = {p['m0']!r}
coupling_sq = {p['g0_sq']!r}

[solver]
engine = dmrg
epsilon_goal = {p['eps_goal']!r}
max_bond = {p['bond']}

[analysis]
sizes_min = {p['n']}
sizes_max = {p['n']}
points = {p['m0']!r}:{p['g0_sq']!r}
"""
    elif workload == "size-ladder":
        p = _ladder_params(smoke)
        lo, hi = p["sizes"]
        text = f"""[model]
n_sites = {hi}
spacing = {p['spacing']!r}
bare_mass = {p['m0']!r}
coupling_sq = {p['g0_sq']!r}

[solver]
engine = dmrg
epsilon_goal = {p['eps_goal']!r}
max_bond = {p['bond']}

[analysis]
sizes_min = {lo}
sizes_max = {hi}
points = {p['m0']!r}:{p['g0_sq']!r}
pad_kind = uniform
energy_model = casimir
gap = {p['gap']!r}
"""
    elif workload == "statevector-prep":
        p = _prep_params(smoke)
        m0, g0_sq = p["points"][0]
        text = f"""[model]
n_sites = {p['cli_n_final']}
spacing = {p['spacing']!r}
bare_mass = {m0!r}
coupling_sq = {g0_sq!r}

[prep]
n0 = {p['n0']}
n_final = {p['cli_n_final']}
eps = {PREP_EPS!r}
oracle = phase-estimation
"""
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (workdir / "out").mkdir(parents=True, exist_ok=True)
    (workdir / f"{workload}.ini").write_text(text)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _rows(path: Path) -> list[list[str]]:
    """Data rows of a gnlab CSV (manifest comment and header skipped)."""
    lines = [ln for ln in path.read_text().splitlines() if ln.strip() and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _energy_problems(observed: dict[str, float], pinned: dict[str, float]) -> list[str]:
    problems = []
    for key, value in observed.items():
        want = pinned.get(key)
        if want is None:
            problems.append(f"no pinned energy for {key}")
        elif abs(value - want) > ENERGY_RTOL * abs(want):
            problems.append(f"energy {key}: {value!r} vs pinned {want!r} "
                            f"(relative {abs(value - want) / abs(want):.1e} > {ENERGY_RTOL})")
    return problems


def _calls_problems(observed: dict[str, int], pinned: dict[str, int]) -> list[str]:
    return [f"oracle_calls_total {key}: {value} vs pinned {pinned.get(key)}"
            for key, value in observed.items() if pinned.get(key) != value]


def _cli(ctx: Context, workload: str, command: str) -> list[str]:
    """Run one gnlab command in-process; a non-zero exit is a problem."""
    import gnlab.cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = gnlab.cli.main([command, "--config", str(ctx.workdir / f"{workload}.ini"),
                               "--out", str(ctx.workdir / "out"), "--seed", str(ctx.seed)])
    return [] if code == 0 else [f"gnlab {command} exited {code}: {err.getvalue().strip()}"]


def _check_energies_csv(ctx: Context, eps_goal: float, expect_sizes: range) -> tuple[list[str], dict]:
    rows = _rows(ctx.workdir / "out" / "energies.csv")
    observed = {row[0]: float(row[1]) for row in rows}
    problems = _energy_problems(observed, ctx.refs.get("energy", {}))
    if sorted(int(n) for n in observed) != list(expect_sizes):
        problems.append(f"energies.csv sizes {sorted(observed)} != {list(expect_sizes)}")
    problems += [f"N={row[0]}: epsilon {row[2]} not below goal {eps_goal}"
                 for row in rows if not float(row[2]) < eps_goal]
    return problems, {"energy": observed}


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------


def _chain50(ctx: Context) -> list[Op]:
    p = _chain_params(ctx.smoke)

    def solve():
        problems = _cli(ctx, "chain50", "solve")
        if problems:
            return problems, {}
        return _check_energies_csv(ctx, p["eps_goal"], range(p["n"], p["n"] + 1))

    def correlate():
        problems = _cli(ctx, "chain50", "correlate")
        if problems:
            return problems, {}
        a, length = p["spacing"], p["n"] * p["spacing"]
        fits = _rows(ctx.workdir / "out" / "corr_fits.csv")
        if len(fits) != 1:
            problems.append(f"corr_fits.csv has {len(fits)} rows, expected 1")
        for _m0, _g0, _b, chi, res in (map(float, row) for row in fits):
            if not 2 * a <= chi <= length / 3:
                problems.append(f"chi {chi!r} outside [2a, L/3] = [{2 * a}, {length / 3}]")
            if not res <= FIT_RESIDUAL_MAX:
                problems.append(f"K0 fit residual {res!r} above {FIT_RESIDUAL_MAX}")
        return problems, {}

    return [Op("cli solve", solve), Op("cli correlate", correlate)]


def _size_ladder(ctx: Context) -> list[Op]:
    p = _ladder_params(ctx.smoke)
    lo, hi = p["sizes"]

    def solve():
        problems = _cli(ctx, "size-ladder", "solve")
        if problems:
            return problems, {}
        return _check_energies_csv(ctx, p["eps_goal"], range(lo, hi + 1))

    def overlap():
        problems = _cli(ctx, "size-ladder", "overlap")
        if problems:
            return problems, {}
        out = ctx.workdir / "out"
        for kind in ("uniform", "symmetry-adapted"):
            pairs = [row for row in _rows(out / "overlaps.csv") if row[4] == kind]
            if len(pairs) != hi - lo:
                problems.append(f"{kind} series has {len(pairs)} pairs, expected {hi - lo}")
        eta = {row[4]: (float(row[2]), float(row[3])) for row in _rows(out / "overlaps_summary.csv")}
        uniform, spread = eta.get("uniform", (math.nan, math.nan))
        if not (uniform > 0 and spread <= PLATEAU_SPREAD_MAX * uniform):
            problems.append(f"uniform plateau eta={uniform!r} spread={spread!r}")
        ratio = eta.get("symmetry-adapted", (math.nan, 0.0))[0] / uniform
        if not abs(ratio - math.sqrt(2)) <= PAD_RATIO_TOL:
            problems.append(f"symmetry-adapted/uniform ratio {ratio!r} is not sqrt(2)")
        return problems, {}

    def energy_fit():
        problems = _cli(ctx, "size-ladder", "energy-fit")
        if problems:
            return problems, {}
        causal = [(float(row[0]), float(row[4]), float(row[5]))
                  for row in _rows(ctx.workdir / "out" / "energy_fit.csv") if row[4]]
        if not causal:
            return ["energy_fit.csv has no causal predictions"], {}
        late = causal[len(causal) // 2:]
        problems += [f"N={n:g}: causal error {err!r} not below half gap {half!r}"
                     for n, err, half in late if not err < half]
        return problems, {}

    return [Op("cli solve", solve), Op("cli overlap", overlap), Op("cli energy-fit", energy_fit)]


def _statevector_prep(ctx: Context) -> list[Op]:
    from gnlab import (ModelSpec, build_hamiltonian, fit_energy_extrapolation,
                       ground_state_dense, pad_state, prepare_vacuum)

    p = _prep_params(ctx.smoke)
    n0, n_final = p["n0"], p["n_final"]
    pad = pad_state("uniform", 1)
    ops: list[Op] = []
    predictors: dict = {}

    for m0, g0_sq in p["points"]:
        point = f"{m0!r}:{g0_sq!r}"
        spec = ModelSpec(n_sites=n0, spacing=p["spacing"], bare_mass=m0, coupling_sq=g0_sq)

        def energies(spec=spec, point=point):
            observed = {f"{point}/{n}": ground_state_dense(build_hamiltonian(spec.with_sites(n))).ground_energy
                        for n in range(n0, p["energy_max"] + 1)}
            predictors[point] = fit_energy_extrapolation(
                [(int(key.rsplit("/", 1)[1]), e) for key, e in observed.items()], "linear", gap=1.0)
            return _energy_problems(observed, ctx.refs.get("energy", {})), {"energy": observed}

        def prepare(mode, spec=spec, point=point):
            _state, trace = prepare_vacuum(spec, n0, n_final, pad, predictors[point], eps=PREP_EPS, mode=mode)
            floor = 1 - PREP_EPS if mode == "ideal" else 1 - 5 * PREP_EPS
            problems = [] if trace.final_fidelity >= floor else [
                f"{point} {mode}: fidelity {trace.final_fidelity!r} below {floor}"]
            observed = {f"{point}/{mode}": trace.oracle_calls_total}
            return problems + _calls_problems(observed, ctx.refs.get("oracle_calls", {})), {
                "oracle_calls": observed}

        ops += [Op(f"dense energies + predictor {point}", energies),
                Op(f"prepare_vacuum ideal {point}", lambda prepare=prepare: prepare("ideal")),
                Op(f"prepare_vacuum phase-estimation {point}",
                   lambda prepare=prepare: prepare("phase-estimation"))]

    def cli_prepare():
        problems = _cli(ctx, "statevector-prep", "prepare")
        if problems:
            return problems, {}
        text = (ctx.workdir / "out" / "prep_manifest_phase-estimation.txt").read_text()
        info = dict(ln.split(" = ", 1) for ln in text.splitlines() if " = " in ln)
        fidelity, floor = float(info["final_fidelity"]), 1 - 5 * float(info["eps"])
        if not fidelity >= floor:
            problems.append(f"cli prepare: fidelity {fidelity!r} below {floor}")
        observed = {"cli/phase-estimation": int(info["oracle_calls_total"])}
        return problems + _calls_problems(observed, ctx.refs.get("oracle_calls", {})), {
            "oracle_calls": observed}

    return ops + [Op("cli prepare phase-estimation", cli_prepare)]


SESSIONS: dict[str, Callable[[Context], list[Op]]] = {
    "chain50": _chain50,
    "size-ladder": _size_ladder,
    "statevector-prep": _statevector_prep,
}

# operations per session, known before running (a crashed session counts all as failed)
OPS_PER_SESSION = {"chain50": 2, "size-ladder": 3, "statevector-prep": 4}
