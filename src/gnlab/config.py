"""Experiment configuration: strict INI parsing with fail-fast key checking.

Every section owns a fixed key set; unknown sections or keys abort with the
offending name, so typos never silently fall back to defaults.  The
[model], [solver], [analysis] and [prep] keys, types and defaults are the
fields of `ModelSpec`, `SolverConfig`, `AnalysisConfig` and `PrepConfig`.
Values given on the command line win over the file.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path
from types import UnionType
from typing import get_args, get_type_hints

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


@dataclass(frozen=True)
class SolverConfig:
    """[solver]: a positive epsilon_goal, max_bond >= 2 and max_sweeps >= 1."""

    engine: Engine = Engine.DMRG
    epsilon_goal: float = 1e-8
    max_bond: int = 64
    dense_cap: int = DENSE_CAP_DEFAULT
    seed: int = 3
    max_sweeps: int = 40

    def __post_init__(self) -> None:
        if not self.epsilon_goal > 0:
            raise ValueError(f"epsilon_goal must be positive, got {self.epsilon_goal}")
        if self.max_bond < 2:
            raise ValueError(f"max_bond must be at least 2, got {self.max_bond}")
        if self.max_sweeps < 1:
            raise ValueError(f"max_sweeps must be at least 1, got {self.max_sweeps}")


@dataclass(frozen=True)
class AnalysisConfig:
    """[analysis]: 2 <= sizes_min <= sizes_max, a positive gap when set, both window ends or neither."""

    fit_window_min: float | None = None
    fit_window_max: float | None = None
    sizes_min: int = 2
    sizes_max: int = 10
    points: tuple[tuple[float, float], ...] | None = field(default=None, metadata={"parse": _parse_points})
    pad_kind: PadKind = PadKind.UNIFORM
    energy_model: EnergyModel = EnergyModel.LINEAR
    gap: float | None = None

    def __post_init__(self) -> None:
        if not 2 <= self.sizes_min <= self.sizes_max:
            raise ValueError(f"need 2 <= sizes_min <= sizes_max, got {self.sizes_min}..{self.sizes_max}")
        if self.gap is not None and not self.gap > 0:
            raise ValueError(f"gap must be positive, got {self.gap}")
        if (self.fit_window_min is None) != (self.fit_window_max is None):
            raise ValueError("fit_window_min and fit_window_max must be set together")

    @property
    def fit_window(self) -> tuple[float, float] | None:
        return None if self.fit_window_min is None else (self.fit_window_min, self.fit_window_max)

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
_DATACLASS_SECTIONS = {"model": ModelSpec, "solver": SolverConfig, "analysis": AnalysisConfig, "prep": PrepConfig}

_KNOWN_KEYS = {
    **{name: {f.name for f in fields(cls)} for name, cls in _DATACLASS_SECTIONS.items()},
    "output": {"directory"},
}


def _check_keys(parser: configparser.ConfigParser) -> None:
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        unknown = set(parser[section].keys()) - _KNOWN_KEYS[section]
        if unknown:
            raise ConfigError(
                f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}"
            )


def _unwrap_optional(hint):
    return get_args(hint)[0] if isinstance(hint, UnionType) else hint


def _read_section(parser: configparser.ConfigParser, name: str, given: dict[str, object]):
    """Section `name` as its dataclass: keys cast by their field's `parse` or else its type (T for
    `T | None`), absent keys default, `given` wins."""
    cls = _DATACLASS_SECTIONS[name]
    hints = get_type_hints(cls)
    casts = {f.name: f.metadata.get("parse") or _unwrap_optional(hints[f.name]) for f in fields(cls)}
    values = {**(parser[name] if name in parser else {}), **given}
    for key, value in values.items():
        try:
            values[key] = casts[key](value)
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

    given = {key: overrides[key] for key in ("engine", "seed") if overrides.get(key) is not None}
    sizes = dict(zip(("sizes_min", "sizes_max"), overrides["sizes"])) if overrides.get("sizes") else {}
    model = _read_section(parser, "model", {}) if "model" in parser else None
    solver = _read_section(parser, "solver", given)
    analysis = _read_section(parser, "analysis", sizes)
    prep = _read_section(parser, "prep", {})
    if (model is not None and model.boundary is Boundary.PERIODIC and solver.engine is Engine.DMRG
            and max(model.n_sites, analysis.sizes_max) > MPO_MAX_SPAN):
        raise ConfigError(
            f"engine = dmrg with periodic boundaries supports at most {MPO_MAX_SPAN} sites "
            f"(the wrap-around term spans the whole chain), got n_sites = {model.n_sites}, "
            f"sizes_max = {analysis.sizes_max}"
        )

    out_dir = Path(overrides.get("out") or parser.get("output", "directory", fallback="out"))
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
