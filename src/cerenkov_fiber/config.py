"""Run configuration: a JSON document validated against module preconditions.

The canonical serialization (sorted keys, round-trip floats) is hashed into
a fingerprint that stamps every output file, so identical configurations
reproduce byte-identical result bodies.
"""

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields

from cerenkov_fiber.fock import build_basis
from cerenkov_fiber.formfactor import FormFactor
from cerenkov_fiber.grids import AngularSpec, GridError, RadialSpec, build_grid
from cerenkov_fiber.solver import DENSE_CUTOFF
from cerenkov_fiber.spectra import FiberModel


class ConfigError(ValueError):
    """Configuration value violates a module precondition."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return (_is_int(value) or isinstance(value, float)) and math.isfinite(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """The typed `experiment` object: per-command extras with their defaults.

    `dense_cutoff` bounds both the dense solve and the Schur block of the
    shift-invert solve; the cone cosines are given together or not at all.
    """

    dense_cutoff: int = DENSE_CUTOFF
    n_shell_max: int = 3
    fd_step: float = 1e-3
    curvature_step: float = 1e-2
    gamma: float = 0.2
    cone_plateau_cos: float | None = None
    cone_support_cos: float | None = None

    @classmethod
    def from_dict(cls, data) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("experiment must be a JSON object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown experiment fields: {sorted(unknown)}")
        exp = cls(**data)
        for name in ("dense_cutoff", "n_shell_max"):
            value = getattr(exp, name)
            if not (_is_int(value) and value >= 1):
                raise ConfigError(f"experiment.{name} must be an integer >= 1")
        for name in ("fd_step", "curvature_step", "gamma"):
            value = getattr(exp, name)
            if not (_is_real(value) and value > 0.0):
                raise ConfigError(f"experiment.{name} must be a positive number")
        cones = (exp.cone_plateau_cos, exp.cone_support_cos)
        if (cones[0] is None) != (cones[1] is None):
            raise ConfigError(
                "experiment.cone_plateau_cos and cone_support_cos go together"
            )
        if cones[0] is not None and not all(
            _is_real(c) and -1.0 <= c <= 1.0 for c in cones
        ):
            raise ConfigError("experiment cone cosines must lie in [-1, 1]")
        return exp


@dataclass
class RunConfig:
    k_min: float = 0.05
    k_max: float = 1.0
    radial_count: int = 16
    radial_spacing: str = "geometric"
    polar_count: int = 8
    azimuthal_count: int = 1
    n_max: int = 2
    e_cut: float | None = None
    amplitude: float = 1.0
    beta: float = 1.0
    cutoff: float = 1.0
    smooth_width: float = 0.2
    solver_tol: float = 1e-9
    solver_maxiter: int | None = None
    pairs: int = 4
    # kept as given, so the fingerprint covers exactly what the user wrote;
    # `extras()` is its validated, typed view
    experiment: dict = field(default_factory=dict)

    def extras(self) -> ExperimentConfig:
        return ExperimentConfig.from_dict(self.experiment)

    def to_dict(self) -> dict:
        return asdict(self)

    def fingerprint(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def radial_spec(self) -> RadialSpec:
        return RadialSpec(
            k_min=self.k_min,
            k_max=self.k_max,
            count=self.radial_count,
            spacing=self.radial_spacing,
        )

    def angular_spec(self) -> AngularSpec:
        return AngularSpec(
            polar_count=self.polar_count, azimuthal_count=self.azimuthal_count
        )

    def form_factor(self) -> FormFactor:
        return FormFactor(
            amplitude=self.amplitude,
            beta=self.beta,
            cutoff=self.cutoff,
            smooth_width=self.smooth_width,
        )

    def validate(self) -> "RunConfig":
        """Check every field against the owning module's preconditions."""
        try:
            self.radial_spec()
            self.angular_spec()
            self.form_factor()
        except (GridError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        if self.n_max < 0:
            raise ConfigError(f"n_max must be >= 0, got {self.n_max}")
        if self.e_cut is not None and self.e_cut <= 0.0:
            raise ConfigError(f"e_cut must be positive, got {self.e_cut}")
        if self.solver_tol <= 0.0:
            raise ConfigError("solver_tol must be positive")
        if self.pairs < 1:
            raise ConfigError("pairs must be >= 1")
        self.extras()
        return self


_FIELD_NAMES = set(RunConfig.__dataclass_fields__)


def config_from_dict(data: dict) -> RunConfig:
    unknown = set(data) - _FIELD_NAMES
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    try:
        cfg = RunConfig(**data)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg.validate()


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    return config_from_dict(data)


def make_model(cfg: RunConfig) -> FiberModel:
    """Materialize the discretized model this configuration describes."""
    grid = build_grid(cfg.radial_spec(), cfg.angular_spec())
    basis = build_basis(grid, cfg.n_max, cfg.e_cut)
    return FiberModel(
        grid=grid,
        basis=basis,
        form_factor=cfg.form_factor(),
        solver_tol=cfg.solver_tol,
        dense_cutoff=cfg.extras().dense_cutoff,
        solver_maxiter=cfg.solver_maxiter,
    )
