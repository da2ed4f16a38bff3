"""Run configuration: sectioned JSON, validated with all errors collected.

A run config is a JSON object with sections grid / time / dynamics /
coupling / fixed_point / mc / initial_density plus an output_dir string.
The grid, time, fixed_point and mc sections are the solver objects
themselves (Grid2D, HjbConfig, FixedPointConfig, EnsembleConfig): a
section is its ``RunConfig`` default with the JSON keys replaced, and the
object's own checks validate it. Unknown keys anywhere are errors (config
drift protection), and parsing reports every problem at once rather than
stopping at the first. Serialization round-trips:
parse_config(serialize_config(cfg)) == cfg.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace

from .coupling import CouplingSpec, builtin_coupling
from .dynamics import DynamicsSpec, dynamics_preset
from .errors import ConfigurationError
from .fixed_point import FixedPointConfig
from .grid import DensityField, Grid2D, truncated_gaussian
from .hjb import HjbConfig
from .sde import EnsembleConfig


@dataclass(frozen=True)
class DynamicsSection:
    preset: str = "grushin_exp"
    epsilon: float = 0.05


@dataclass(frozen=True)
class CouplingSection:
    name: str = "nonlocal_smooth"
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class InitialDensitySection:
    center: tuple = (0.0, 0.0)
    variance: float = 0.25


@dataclass(frozen=True)
class RunConfig:
    grid: Grid2D = Grid2D(-5.0, 5.0, -5.0, 5.0, 32, 32)
    time: HjbConfig = HjbConfig(T=1.0, nt=64)
    dynamics: DynamicsSection = field(default_factory=DynamicsSection)
    coupling: CouplingSection = field(default_factory=CouplingSection)
    fixed_point: FixedPointConfig = FixedPointConfig()
    mc: EnsembleConfig = EnsembleConfig(dt_sde=0.015625)
    initial_density: InitialDensitySection = field(
        default_factory=InitialDensitySection)
    output_dir: str = "runs/out"

    # --- the solver-facing objects -----------------------------------------
    def make_grid(self) -> Grid2D:
        return self.grid

    def make_dynamics(self) -> DynamicsSpec:
        return dynamics_preset(self.dynamics.preset, self.dynamics.epsilon)

    def make_coupling(self) -> CouplingSpec:
        return builtin_coupling(self.coupling.name, dict(self.coupling.params))

    def make_hjb_config(self) -> HjbConfig:
        return self.time

    def make_fixed_point(self) -> FixedPointConfig:
        return self.fixed_point

    def make_ensemble(self) -> EnsembleConfig:
        return self.mc

    def make_initial_density(self) -> DensityField:
        d = self.initial_density
        return truncated_gaussian(self.grid, center=tuple(d.center),
                                  variance=d.variance)


_DEFAULT = RunConfig()
_SECTIONS = [f.name for f in fields(RunConfig) if f.name != "output_dir"]


def _build(section: str, make, problems: list):
    """Call make(); if it fails, record why, prefixed by ``section``.

    Returns the built object, or None. A solver object checks its own
    rules when it is built.
    """
    try:
        return make()
    except ConfigurationError as exc:
        problems.extend("%s: %s" % (section, p) for p in exc.problems)
    except (TypeError, ValueError) as exc:  # a value of the wrong type
        problems.append("%s: %s" % (section, exc))
    return None


# the JSON numbers a field takes, by the type of its default; a JSON true
# or false is never a number
_NUMBERS = {int: (int, "an integer"), float: ((int, float), "a number")}


def _parse_section(name: str, default, raw, problems: list):
    """``default`` with the keys of the JSON object ``raw`` replaced.

    Records every problem, prefixed by ``name``, and returns the section,
    or None if it did not build.
    """
    if not isinstance(raw, dict):
        problems.append("section %r must be a JSON object" % name)
        return None
    known = [f.name for f in fields(default)]
    typed = True
    for key, value in raw.items():
        if key not in known:
            problems.append("unknown key %r in section %r (known: %s)"
                            % (key, name, sorted(known)))
            continue
        rule = _NUMBERS.get(type(getattr(default, key)))
        if rule and (isinstance(value, bool) or not isinstance(value, rule[0])):
            problems.append("%s: %s must be %s (got %r)"
                            % (name, key, rule[1], value))
            typed = False
    if not typed:
        return None

    def make():  # a JSON array is a tuple where the default is a tuple
        return replace(default, **{
            key: tuple(value) if isinstance(getattr(default, key), tuple)
            else value for key, value in raw.items() if key in known})

    return _build(name, make, problems)


def parse_section(name: str, default, raw):
    """One section on its own (a file of verify thresholds, say): the
    section, or ConfigurationError with every problem."""
    problems = []
    section = _parse_section(name, default, raw, problems)
    if problems:
        raise ConfigurationError(problems)
    return section


def _validate(cfg: RunConfig, failed: set) -> list:
    """The problems of the dynamics, coupling and initial density, and of
    the rules that span sections.

    ``failed`` names the sections that did not build; ``cfg`` holds their
    defaults, and the rules that span sections skip them.
    """
    problems = []
    _build("dynamics", cfg.make_dynamics, problems)
    _build("coupling", cfg.make_coupling, problems)
    # on the default box if the grid section is invalid, so that its own
    # problems are not hidden
    _build("initial_density", cfg.make_initial_density, problems)
    if "time" not in failed:
        # the HJB residual check differences three consecutive time slices
        if cfg.time.nt < 3:
            problems.append("time.nt must be >= 3")
        if "mc" not in failed:
            _build("mc", lambda: cfg.mc.check_step(cfg.time.dt), problems)
    return problems


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
    failed = set()
    for key, value in raw.items():
        if key == "output_dir":
            if not isinstance(value, str):
                problems.append("output_dir must be a string")
            else:
                kwargs["output_dir"] = value
        elif key in _SECTIONS:
            section = _parse_section(key, getattr(_DEFAULT, key), value,
                                     problems)
            if section is None:
                failed.add(key)
            else:
                kwargs[key] = section
        else:
            problems.append("unknown top-level key %r (known: %s)"
                            % (key, sorted(_SECTIONS + ["output_dir"])))
    cfg = RunConfig(**kwargs)
    problems.extend(_validate(cfg, failed))
    if problems:
        raise ConfigurationError(problems)
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    return json.dumps(asdict(cfg), indent=2, sort_keys=True) + "\n"


def read_text(path) -> str:
    """The text of an input file, or a ConfigurationError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigurationError("cannot read %s: %s"
                                 % (path, exc.strerror or exc)) from None
    except UnicodeDecodeError as exc:
        raise ConfigurationError("%s: not a text file: %s"
                                 % (path, exc)) from None


def load_config(path) -> RunConfig:
    return parse_config(read_text(path))
