"""Flat key-value run configuration for the command-line front end.

A config file holds one `key = value` pair per line; `#` starts a comment.
Lists are comma-separated.  Command-line flags mirror the keys and win over
file values.  Each key is one `RunConfig` field that carries its default,
parser and help text; the field order is the canonical key order.
Defaults are the reference parameter set: 14.5% relay detection
efficiency, 6.02e-6 dark-click probability per gate, 1.5% total
misalignment, 0.2 dB/km fiber, error-correction inefficiency 1.16.

Every emitted result file embeds the resolved configuration (all keys,
canonical order) so a run can be reproduced from its own output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Callable

from .decoy import DEFAULT_INTENSITIES
from .errors import ConfigError
from .hom import DEFAULT_DELAYS, HomParams
from .keyrate import DEFAULT_OPT_GRID, SystemModel
from .optics import _MAX_FACT, DetectorModel, NetworkConfig

_DEFAULT_DISTANCES = tuple(i * 12.5 for i in range(25))  # 0..300 km
# Larger intensity grids are rejected before the optimizer tiles one over
# every distance.
MAX_OPT_GRID_POINTS = 10_000
# The Fock expansion's photon limit: a bsm table takes bsm_photons_a +
# bsm_photons_b photons, and a decoy table up to 2 * estimation_n_max.
MAX_FOCK_PHOTONS = _MAX_FACT - 1
MAX_ESTIMATION_N_MAX = MAX_FOCK_PHOTONS // 2


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {text!r}") from exc


def _parse_float_list(text: str) -> tuple[float, ...]:
    items = [part.strip() for part in text.split(",") if part.strip() != ""]
    if not items:
        return ()
    return tuple(_parse_float(item) for item in items)


def _parse_str(text: str) -> str:
    return text.strip()


def _choice(*options: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        value = text.strip()
        if value not in options:
            raise ConfigError(f"expected one of {options}, got {value!r}")
        return value
    return parse


def _render(value: Any) -> str:
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _key(default: Any, parse: Callable[[str], Any], help: str) -> Any:
    """A config key: a RunConfig field with its default, parser and help text."""
    return field(default=default, metadata={"parse": parse, "help": help})


@dataclass(frozen=True)
class RunConfig:
    detector_efficiency: float = _key(
        0.145, _parse_float,
        "relay detection efficiency (optics transmittance x detector efficiency)")
    dark_count_prob: float = _key(
        6.02e-6, _parse_float, "dark-click probability per detector per gate")
    misalignment: float = _key(
        0.015, _parse_float, "total misalignment fraction, split evenly over the two rotations")
    attenuation_db_per_km: float = _key(0.2, _parse_float, "fiber loss coefficient")
    relay_position: str = _key(
        "midpoint", _choice("midpoint", "at-alice", "custom"),
        "relay placement; custom uses arm_length_*_km as a ratio")
    arm_length_a_km: float = _key(0.0, _parse_float, "Alice arm length for custom placement")
    arm_length_b_km: float = _key(0.0, _parse_float, "Bob arm length for custom placement")
    error_correction_inefficiency: float = _key(
        1.16, _parse_float, "f >= 1 multiplying the error-correction entropy term")
    distances_km: tuple[float, ...] = _key(
        _DEFAULT_DISTANCES, _parse_float_list, "total distances for the rate scan, ascending")
    intensity_mode: str = _key(
        "optimize", _choice("optimize", "fixed"), "per-distance optimization of mu, or fixed_mu_*")
    fixed_mu_a: float = _key(0.1, _parse_float, "Alice signal intensity in fixed mode")
    fixed_mu_b: float = _key(0.1, _parse_float, "Bob signal intensity in fixed mode")
    opt_grid_min: float = _key(
        DEFAULT_OPT_GRID[0], _parse_float, "smallest intensity in the search grid")
    opt_grid_max: float = _key(
        DEFAULT_OPT_GRID[1], _parse_float, "largest intensity in the search grid")
    opt_grid_points: int = _key(DEFAULT_OPT_GRID[2], _parse_int, "log-spaced intensity grid size")
    grid_alice: tuple[float, ...] = _key(
        DEFAULT_INTENSITIES, _parse_float_list, "decoy intensities used by Alice")
    grid_bob: tuple[float, ...] = _key(
        DEFAULT_INTENSITIES, _parse_float_list, "decoy intensities used by Bob")
    estimation_n_max: int = _key(4, _parse_int, "photon-number truncation of the inversion")
    decoy_distance_km: float = _key(
        0.0, _parse_float, "total distance at which the decoy round trip is synthesized")
    decoy_synthesis: str = _key(
        "table", _choice("table", "model"),
        "synthesize observables from the truncated table or the full coherent model")
    bsm_input: str = _key(
        "fock", _choice("fock", "coherent"), "input kind for the outcome-probability table")
    bsm_photons_a: int = _key(1, _parse_int, "Alice photon number for bsm_input=fock")
    bsm_photons_b: int = _key(1, _parse_int, "Bob photon number for bsm_input=fock")
    bsm_mu_a: float = _key(0.1, _parse_float, "Alice intensity for bsm_input=coherent")
    bsm_mu_b: float = _key(0.1, _parse_float, "Bob intensity for bsm_input=coherent")
    hom_mean_photon_number: float = _key(0.1, _parse_float, "intensity per interfering pulse")
    hom_fwhm_ps: float = _key(200.0, _parse_float, "intensity FWHM of the Gaussian pulses")
    hom_efficiency: float = _key(1.0, _parse_float, "detector efficiency in the dip model")
    hom_dark_prob: float = _key(0.0, _parse_float, "dark-click probability in the dip model")
    hom_overlap_ceiling: float = _key(
        1.0, _parse_float, "cap on the mode overlap modeling residual imperfections (1 = off)")
    hom_delays_ps: tuple[float, ...] = _key(DEFAULT_DELAYS, _parse_float_list, "delay sweep")
    format: str = _key("csv", _choice("csv", "json"), "output file format")

    def __post_init__(self):
        self._validate()

    def _validate(self):
        def check(cond: bool, message: str):
            if not cond:
                raise ConfigError(message)

        check(0.0 <= self.detector_efficiency <= 1.0,
              "detector_efficiency must be in [0, 1]")
        check(0.0 <= self.dark_count_prob < 1.0, "dark_count_prob must be in [0, 1)")
        check(0.0 <= self.misalignment <= 1.0, "misalignment must be in [0, 1]")
        check(self.attenuation_db_per_km >= 0, "attenuation_db_per_km must be >= 0")
        check(self.error_correction_inefficiency >= 1.0,
              "error_correction_inefficiency must be >= 1")
        check(len(self.distances_km) > 0, "distances_km must not be empty")
        check(all(d >= 0 for d in self.distances_km), "distances_km must be >= 0")
        check(all(b >= a for a, b in zip(self.distances_km, self.distances_km[1:])),
              "distances_km must be ascending")
        check(self.fixed_mu_a >= 0 and self.fixed_mu_b >= 0, "fixed intensities must be >= 0")
        check(0 < self.opt_grid_min <= self.opt_grid_max,
              "need 0 < opt_grid_min <= opt_grid_max")
        check(self.opt_grid_points >= 1, "opt_grid_points must be >= 1")
        check(self.opt_grid_points <= MAX_OPT_GRID_POINTS,
              f"opt_grid_points must be <= {MAX_OPT_GRID_POINTS}")
        if self.relay_position == "custom":
            check(self.arm_length_a_km >= 0 and self.arm_length_b_km >= 0,
                  "custom arm lengths must be >= 0")
            check(self.arm_length_a_km + self.arm_length_b_km > 0,
                  "custom placement needs a positive total arm length")
        for name in ("grid_alice", "grid_bob"):
            grid = getattr(self, name)
            check(len(grid) > 0, f"{name} must not be empty")
            check(all(v >= 0 for v in grid), f"{name} intensities must be >= 0")
            check(all(b > a for a, b in zip(grid, grid[1:])),
                  f"{name} must be strictly increasing")
        check(self.estimation_n_max >= 0, "estimation_n_max must be >= 0")
        check(self.estimation_n_max <= MAX_ESTIMATION_N_MAX,
              f"estimation_n_max must be <= {MAX_ESTIMATION_N_MAX}")
        check(len(self.grid_alice) >= self.estimation_n_max + 1,
              f"grid_alice needs at least estimation_n_max+1 = "
              f"{self.estimation_n_max + 1} intensities")
        check(len(self.grid_bob) >= self.estimation_n_max + 1,
              f"grid_bob needs at least estimation_n_max+1 = "
              f"{self.estimation_n_max + 1} intensities")
        check(self.bsm_photons_a >= 0 and self.bsm_photons_b >= 0,
              "bsm photon numbers must be >= 0")
        check(self.bsm_photons_a + self.bsm_photons_b <= MAX_FOCK_PHOTONS,
              f"bsm_photons_a + bsm_photons_b must be <= {MAX_FOCK_PHOTONS}")
        check(self.bsm_mu_a >= 0 and self.bsm_mu_b >= 0, "bsm intensities must be >= 0")
        check(self.hom_mean_photon_number >= 0, "hom_mean_photon_number must be >= 0")
        check(self.hom_fwhm_ps > 0, "hom_fwhm_ps must be > 0")
        check(0.0 <= self.hom_efficiency <= 1.0, "hom_efficiency must be in [0, 1]")
        check(0.0 <= self.hom_dark_prob < 1.0, "hom_dark_prob must be in [0, 1)")
        check(0.0 < self.hom_overlap_ceiling <= 1.0,
              "hom_overlap_ceiling must be in (0, 1]")
        check(len(self.hom_delays_ps) > 0, "hom_delays_ps must not be empty")

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "RunConfig":
        values: dict[str, Any] = {}
        for key, raw in mapping.items():
            key_field = _FIELDS.get(key)
            if key_field is None:
                raise ConfigError(f"unknown configuration key {key!r}")
            try:
                values[key] = key_field.metadata["parse"](raw)
            except ConfigError as exc:
                raise ConfigError(f"bad value for {key}: {exc}") from exc
        try:
            return cls(**values)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def resolved_items(self) -> list[tuple[str, str]]:
        """All keys in canonical order with their canonical string values."""
        return [(f.name, _render(getattr(self, f.name))) for f in fields(self)]

    def resolved_dict(self) -> dict[str, str]:
        return dict(self.resolved_items())

    # Builders for the model layer -------------------------------------

    def system(self) -> SystemModel:
        return SystemModel(
            network=NetworkConfig.from_misalignment(self.misalignment),
            detector=DetectorModel(efficiency=self.detector_efficiency,
                                   dark_prob=self.dark_count_prob),
            attenuation_db_per_km=self.attenuation_db_per_km,
            error_correction_inefficiency=self.error_correction_inefficiency,
        )

    def placement(self) -> float:
        """Alice's share of the total distance, as keyrate takes it."""
        if self.relay_position == "midpoint":
            return 0.5
        if self.relay_position == "at-alice":
            return 0.0
        return self.arm_length_a_km / (self.arm_length_a_km + self.arm_length_b_km)

    def hom_params(self) -> HomParams:
        try:
            return HomParams(
                mean_photon_number=self.hom_mean_photon_number,
                fwhm_ps=self.hom_fwhm_ps,
                efficiency=self.hom_efficiency,
                dark_prob=self.hom_dark_prob,
                overlap_ceiling=self.hom_overlap_ceiling,
                delays_ps=self.hom_delays_ps,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


_FIELDS = {f.name: f for f in fields(RunConfig)}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines, ignoring blanks and `#` comments."""
    mapping: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping


def load_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
