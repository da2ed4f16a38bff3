"""Run configuration: sectioned JSON, validated with all errors collected.

A run config is a JSON object with sections grid / time / dynamics /
coupling / fixed_point / mc / initial_density plus an output_dir string.
Unknown keys anywhere are errors (config drift protection), and parsing
reports every problem at once rather than stopping at the first.
Serialization round-trips: parse_config(serialize_config(cfg)) == cfg.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

from .coupling import CouplingSpec, builtin_coupling
from .dynamics import DynamicsSpec, dynamics_preset
from .errors import ConfigurationError
from .fixed_point import FixedPointConfig
from .grid import DensityField, Grid2D, truncated_gaussian
from .hjb import HjbConfig
from .sde import EnsembleConfig


@dataclass(frozen=True)
class GridSection:
    x1_min: float = -5.0
    x1_max: float = 5.0
    x2_min: float = -5.0
    x2_max: float = 5.0
    n1: int = 32
    n2: int = 32


@dataclass(frozen=True)
class TimeSection:
    T: float = 1.0
    nt: int = 64


@dataclass(frozen=True)
class DynamicsSection:
    preset: str = "grushin_exp"
    epsilon: float = 0.05


@dataclass(frozen=True)
class CouplingSection:
    name: str = "nonlocal_smooth"
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FixedPointSection:
    theta: float = 0.5
    tol_d1: float = 1e-3
    max_outer_iters: int = 30
    eps_schedule: tuple = (0.1, 0.05, 0.025, 0.0125)
    n_check_slices: int = 7
    lp_check_points: int = 120


@dataclass(frozen=True)
class McSection:
    n_particles: int = 10_000
    seed: int = 0
    dt_sde: float = 0.015625
    store_every: int = 1


@dataclass(frozen=True)
class InitialDensitySection:
    center: tuple = (0.0, 0.0)
    variance: float = 0.25


_SECTIONS = {
    "grid": GridSection,
    "time": TimeSection,
    "dynamics": DynamicsSection,
    "coupling": CouplingSection,
    "fixed_point": FixedPointSection,
    "mc": McSection,
    "initial_density": InitialDensitySection,
}

_TUPLE_FIELDS = {("fixed_point", "eps_schedule"), ("initial_density", "center")}


@dataclass(frozen=True)
class RunConfig:
    grid: GridSection = field(default_factory=GridSection)
    time: TimeSection = field(default_factory=TimeSection)
    dynamics: DynamicsSection = field(default_factory=DynamicsSection)
    coupling: CouplingSection = field(default_factory=CouplingSection)
    fixed_point: FixedPointSection = field(default_factory=FixedPointSection)
    mc: McSection = field(default_factory=McSection)
    initial_density: InitialDensitySection = field(
        default_factory=InitialDensitySection)
    output_dir: str = "runs/out"

    # --- constructors of the solver-facing objects -------------------------
    def make_grid(self) -> Grid2D:
        g = self.grid
        return Grid2D(g.x1_min, g.x1_max, g.x2_min, g.x2_max, g.n1, g.n2)

    def make_dynamics(self) -> DynamicsSpec:
        return dynamics_preset(self.dynamics.preset, self.dynamics.epsilon)

    def make_coupling(self) -> CouplingSpec:
        return builtin_coupling(self.coupling.name, dict(self.coupling.params))

    def make_hjb_config(self) -> HjbConfig:
        return HjbConfig(T=self.time.T, nt=self.time.nt)

    def make_fixed_point(self) -> FixedPointConfig:
        fp = self.fixed_point
        return FixedPointConfig(theta=fp.theta, tol_d1=fp.tol_d1,
                                max_outer_iters=fp.max_outer_iters,
                                eps_schedule=tuple(fp.eps_schedule),
                                n_check_slices=fp.n_check_slices,
                                lp_check_points=fp.lp_check_points)

    def make_ensemble(self) -> EnsembleConfig:
        mc = self.mc
        return EnsembleConfig(n_particles=mc.n_particles, seed=mc.seed,
                              dt_sde=mc.dt_sde, store_every=mc.store_every)

    def make_initial_density(self) -> DensityField:
        d = self.initial_density
        return truncated_gaussian(self.make_grid(), center=tuple(d.center),
                                  variance=d.variance)


def _validate(cfg: RunConfig) -> list:
    """Every problem with ``cfg``, each prefixed by its section name.

    Each section is checked by building its solver object, which owns the
    rules; only the rules that span sections are written out here.
    """
    problems = []

    def build(section, make):
        try:
            return make()
        except ConfigurationError as exc:
            problems.extend("%s: %s" % (section, p) for p in exc.problems)
        except (TypeError, ValueError) as exc:  # a value of the wrong type
            problems.append("%s: %s" % (section, exc))
        return None

    grid = build("grid", cfg.make_grid)
    hjb = build("time", cfg.make_hjb_config)
    build("dynamics", cfg.make_dynamics)
    build("coupling", cfg.make_coupling)
    build("fixed_point", cfg.make_fixed_point)
    build("mc", cfg.make_ensemble)
    # the initial density is built on the grid; an invalid grid section must
    # not hide its own problems, so those are then checked on the default box
    on_grid = cfg if grid is not None else replace(cfg, grid=GridSection())
    build("initial_density", on_grid.make_initial_density)
    if hjb is not None:
        # the HJB residual check differences three consecutive time slices
        if hjb.nt < 3:
            problems.append("time.nt must be >= 3")
        # a coarser SDE step would use a stale feedback control
        if cfg.mc.dt_sde > hjb.dt + 1e-12:
            problems.append("mc.dt_sde=%g exceeds the time mesh dt=%g"
                            % (cfg.mc.dt_sde, hjb.dt))
    return problems


def _coerce_section(name: str, cls, raw: dict, problems: list):
    known = cls.__dataclass_fields__
    kwargs = {}
    for key, value in raw.items():
        if key not in known:
            problems.append("unknown key %r in section %r (known: %s)"
                            % (key, name, sorted(known)))
            continue
        if (name, key) in _TUPLE_FIELDS:
            value = tuple(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        problems.append("section %r: %s" % (name, exc))
        return cls()


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run config; raises with all problems."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(["config is not valid JSON: %s" % exc])
    if not isinstance(raw, dict):
        raise ConfigurationError(["config root must be a JSON object"])

    problems = []
    kwargs = {}
    for key, value in raw.items():
        if key == "output_dir":
            if not isinstance(value, str):
                problems.append("output_dir must be a string")
            else:
                kwargs["output_dir"] = value
        elif key in _SECTIONS:
            if not isinstance(value, dict):
                problems.append("section %r must be a JSON object" % key)
            else:
                kwargs[key] = _coerce_section(key, _SECTIONS[key], value,
                                              problems)
        else:
            problems.append("unknown top-level key %r (known: %s)"
                            % (key, sorted(list(_SECTIONS) + ["output_dir"])))
    cfg = RunConfig(**kwargs)
    problems.extend(_validate(cfg))
    if problems:
        raise ConfigurationError(problems)
    return cfg


def config_to_dict(cfg: RunConfig) -> dict:
    d = asdict(cfg)
    d["fixed_point"]["eps_schedule"] = list(cfg.fixed_point.eps_schedule)
    d["initial_density"]["center"] = list(cfg.initial_density.center)
    return d


def serialize_config(cfg: RunConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n"


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
