"""Experiment configuration: strict INI parsing with fail-fast key checking.

Every section owns a fixed key set; unknown sections or keys abort with the
offending name, so typos never silently fall back to defaults.  The
[model], [solver] and [prep] keys, types and defaults are the fields of
`ModelSpec`, `SolverConfig` and `PrepConfig`.  Values given on the command
line win over the file.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import get_type_hints

from .exact import DENSE_CAP_DEFAULT
from .model import Boundary, ModelSpec
from .fits import EnergyModel
from .mps import MPO_MAX_SPAN
from .overlaps import PadKind
from .stateprep import OracleMode


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


DEFAULT_CORRELATE_M0 = (0.2, 0.4)
DEFAULT_CORRELATE_G0_SQ = (0.0, 0.5, 1.0, 1.5, 2.0)


class Engine(str, Enum):
    DENSE = "dense"
    DMRG = "dmrg"


@dataclass(frozen=True)
class SolverConfig:
    engine: Engine = Engine.DMRG
    epsilon_goal: float = 1e-8
    max_bond: int = 64
    dense_cap: int = DENSE_CAP_DEFAULT
    seed: int = 3
    max_sweeps: int = 40


@dataclass(frozen=True)
class AnalysisConfig:
    fit_window: tuple[float, float] | None = None
    pad_kind: PadKind = PadKind.UNIFORM
    sizes: tuple[int, int] = (2, 10)
    points: tuple[tuple[float, float], ...] | None = None
    energy_model: EnergyModel = EnergyModel.LINEAR
    gap: float | None = None

    def parameter_points(self) -> tuple[tuple[float, float], ...]:
        if self.points is not None:
            return self.points
        return tuple((m, g) for m in DEFAULT_CORRELATE_M0 for g in DEFAULT_CORRELATE_G0_SQ)


@dataclass(frozen=True)
class PrepConfig:
    n0: int = 2
    n_final: int = 4
    eps: float = 1e-3
    oracle: OracleMode = OracleMode.IDEAL
    eta_floor: float = 0.4


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec | None
    solver: SolverConfig = field(default_factory=SolverConfig)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    prep: PrepConfig = field(default_factory=PrepConfig)
    out_dir: Path = Path("out")
    config_hash: str = "none"

    def manifest_line(self) -> str:
        from . import __version__

        return f"# manifest config_sha={self.config_hash} seed={self.solver.seed} version={__version__}"


#: Sections read field by field into their dataclass.
_DATACLASS_SECTIONS = {"model": ModelSpec, "solver": SolverConfig, "prep": PrepConfig}

_KNOWN_KEYS = {
    **{name: {f.name for f in fields(cls)} for name, cls in _DATACLASS_SECTIONS.items()},
    "analysis": {
        "fit_window_min", "fit_window_max", "pad_kind", "sizes_min", "sizes_max",
        "points", "energy_model", "gap",
    },
    "output": {"directory"},
}


def _parse_points(text: str) -> tuple[tuple[float, float], ...]:
    points = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            m0, g0 = chunk.split(":")
            points.append((float(m0), float(g0)))
        except ValueError as exc:
            raise ConfigError(f"bad parameter point {chunk!r}, expected m0:g0_sq") from exc
    if not points:
        raise ConfigError("points list is empty")
    return tuple(points)


def _check_keys(parser: configparser.ConfigParser) -> None:
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        unknown = set(parser[section].keys()) - _KNOWN_KEYS[section]
        if unknown:
            raise ConfigError(
                f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}"
            )


def _read_section(parser: configparser.ConfigParser, name: str, given: dict[str, object]):
    """Section `name` as its dataclass: keys cast by their field types, absent keys default, `given` wins."""
    cls = _DATACLASS_SECTIONS[name]
    types = get_type_hints(cls)
    values = {**(parser[name] if name in parser else {}), **given}
    for key, value in values.items():
        try:
            values[key] = types[key](value)
        except ValueError as exc:
            raise ConfigError(f"bad value for [{name}] {key}: {exc}") from exc
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:  # TypeError: a required field has no key
        raise ConfigError(f"[{name}] {exc}") from exc


def load_config(path: str | Path, overrides: dict[str, object] | None = None) -> ExperimentConfig:
    """Parse the INI file at `path`, applying `overrides` (flag-wins).

    Recognized override keys: out, seed, engine, sizes (tuple).
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(path.read_text())
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    _check_keys(parser)
    overrides = overrides or {}

    def _get(section: str, key: str, cast, default):
        if section in parser and key in parser[section]:
            try:
                return cast(parser[section][key])
            except (ValueError, KeyError) as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc
        return default

    given = {key: overrides[key] for key in ("engine", "seed") if overrides.get(key) is not None}
    model = _read_section(parser, "model", {}) if "model" in parser else None
    solver = _read_section(parser, "solver", given)
    prep = _read_section(parser, "prep", {})
    try:
        window_min = _get("analysis", "fit_window_min", float, None)
        window_max = _get("analysis", "fit_window_max", float, None)
        if (window_min is None) != (window_max is None):
            raise ConfigError("fit_window_min and fit_window_max must be set together")
        sizes = overrides.get("sizes") or (
            _get("analysis", "sizes_min", int, AnalysisConfig.sizes[0]),
            _get("analysis", "sizes_max", int, AnalysisConfig.sizes[1]),
        )
        points_text = _get("analysis", "points", str, None)
        analysis = AnalysisConfig(
            fit_window=None if window_min is None else (window_min, window_max),
            pad_kind=PadKind(_get("analysis", "pad_kind", str, AnalysisConfig.pad_kind)),
            sizes=(int(sizes[0]), int(sizes[1])),
            points=None if points_text is None else _parse_points(points_text),
            energy_model=EnergyModel(_get("analysis", "energy_model", str, AnalysisConfig.energy_model)),
            gap=_get("analysis", "gap", float, None),
        )
    except (ValueError, KeyError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc
    if (model is not None and model.boundary is Boundary.PERIODIC and solver.engine is Engine.DMRG
            and max(model.n_sites, analysis.sizes[1]) > MPO_MAX_SPAN):
        raise ConfigError(
            f"engine = dmrg with periodic boundaries supports at most {MPO_MAX_SPAN} sites "
            f"(the wrap-around term spans the whole chain), got n_sites = {model.n_sites}, "
            f"sizes_max = {analysis.sizes[1]}"
        )

    out_dir = Path(overrides.get("out") or _get("output", "directory", str, "out"))
    # hash the semantic inputs only: the parsed sections plus overrides that
    # change results (the output location, [output] or --out, does not)
    sections = [(name, sorted(parser.items(name, raw=True)))
                for name in sorted(parser.sections()) if name != "output"]
    hashed_overrides = sorted((k, str(v)) for k, v in overrides.items() if k != "out")
    digest = hashlib.sha256(repr((sections, hashed_overrides)).encode()).hexdigest()[:12]
    return ExperimentConfig(
        model=model,
        solver=solver,
        analysis=analysis,
        prep=prep,
        out_dir=out_dir,
        config_hash=digest,
    )
