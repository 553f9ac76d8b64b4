"""Secret key rate over lossy fiber, with per-distance intensity optimization.

The asymptotic lower bound evaluated here is

    R = Q11_rect * (1 - H(e11_diag)) - Q_rect * f * H(E_rect)

with H the binary Shannon entropy and f >= 1 the error-correction
inefficiency.  The single-photon quantities come from the exact
photon-number oracle with channel loss folded in as a binomial channel per
arm ("infinite-decoy" evaluation); the aggregate gain and error rate come
from the analytic coherent-pulse model with the per-arm transmittance
folded into the intensities arriving at the relay.  Detector efficiency
stays inside the detector model throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .decoy import q11
from .errors import NumericalFailure
from .optics import DetectorModel, NetworkConfig, build_network
from .protocol import (
    Basis,
    YieldErrorTable,
    build_yield_error_table,
    loss_adjusted_table,
    wcp_gains_qbers,
)

SCAN_CSV_HEADER = "distance_km,mu_a,mu_b,q11_rect,e11_diag,q_rect,e_rect,key_rate_raw,key_rate"

DEFAULT_OPT_GRID = (0.005, 1.0, 40)


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy in bits, with H(0) = H(1) = 0 by continuity."""
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"binary_entropy domain is [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


@dataclass(frozen=True)
class KeyRateParams:
    error_correction_inefficiency: float = 1.16

    def __post_init__(self):
        if self.error_correction_inefficiency < 1.0:
            raise ValueError("error-correction inefficiency must be >= 1")


@dataclass(frozen=True)
class KeyRateValue:
    raw: float
    clamped: float


def key_rate(q11_rect: float, e11_diag: float, q_rect: float,
             e_rect: float | None, params: KeyRateParams = KeyRateParams()) -> KeyRateValue:
    """Evaluate the key-rate bound; returns the raw value and max(raw, 0).

    e_rect may be None only when q_rect = 0 (no successes, so the
    error-correction term vanishes).
    """
    for name, value in (("q11_rect", q11_rect), ("e11_diag", e11_diag), ("q_rect", q_rect)):
        if not (0.0 <= value <= 1.0):
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    if q11_rect > q_rect and not math.isclose(q11_rect, q_rect, rel_tol=1e-9, abs_tol=1e-15):
        raise ValueError(f"q11_rect ({q11_rect}) must not exceed q_rect ({q_rect})")
    if e_rect is None:
        if q_rect > 0.0:
            raise ValueError("e_rect may be None only when q_rect is zero")
        ec_term = 0.0
    else:
        if not (0.0 <= e_rect <= 1.0):
            raise ValueError(f"e_rect must be in [0, 1], got {e_rect}")
        ec_term = q_rect * params.error_correction_inefficiency * binary_entropy(e_rect)
    raw = q11_rect * (1.0 - binary_entropy(e11_diag)) - ec_term
    return KeyRateValue(raw=raw, clamped=max(raw, 0.0))


@dataclass(frozen=True)
class ChannelModel:
    """Fiber arms from Alice and Bob to the relay."""

    length_a_km: float
    length_b_km: float
    attenuation_db_per_km: float = 0.2

    def __post_init__(self):
        if self.length_a_km < 0 or self.length_b_km < 0:
            raise ValueError("arm lengths must be >= 0")
        if self.attenuation_db_per_km < 0:
            raise ValueError("attenuation must be >= 0")

    @property
    def transmittance_a(self) -> float:
        return 10.0 ** (-self.attenuation_db_per_km * self.length_a_km / 10.0)

    @property
    def transmittance_b(self) -> float:
        return 10.0 ** (-self.attenuation_db_per_km * self.length_b_km / 10.0)


def arm_lengths(total_km: float, placement) -> tuple[float, float]:
    """Split a total Alice-to-Bob distance according to the relay placement.

    placement is "midpoint", "at-alice", or a float fraction f in [0, 1]
    giving Alice's share of the distance (L_A = f * L).
    """
    if total_km < 0:
        raise ValueError("distance must be >= 0")
    if placement == "midpoint":
        fraction = 0.5
    elif placement == "at-alice":
        fraction = 0.0
    else:
        fraction = float(placement)
        if not (0.0 <= fraction <= 1.0):
            raise ValueError(f"arm fraction must be in [0, 1], got {fraction}")
    return fraction * total_km, (1.0 - fraction) * total_km


@dataclass(frozen=True)
class ScanPoint:
    distance_km: float
    mu_a: float
    mu_b: float
    q11_rect: float
    e11_diag: float
    q_rect: float
    e_rect: float
    key_rate_raw: float
    key_rate: float


@dataclass(frozen=True)
class SystemModel:
    """Everything fixed across a scan: relay network, detectors, fiber, rate params."""

    network: NetworkConfig = NetworkConfig()
    detector: DetectorModel = DetectorModel()
    attenuation_db_per_km: float = 0.2
    params: KeyRateParams = field(default_factory=KeyRateParams)

    @cached_property
    def transfer_matrix(self) -> np.ndarray:
        return build_network(self.network)

    @cached_property
    def single_photon_relay_tables(self) -> dict[Basis, YieldErrorTable]:
        # Yields/errors at the relay for <=1 photon per side; loss independent,
        # so these are computed once and reused across distances and intensities.
        return {
            basis: build_yield_error_table(basis, self.transfer_matrix, self.detector, n_max=1)
            for basis in (Basis.RECT, Basis.DIAG)
        }


@dataclass(frozen=True)
class _DistanceTerms:
    """The terms of the rate bound that depend on the distance alone."""

    distance_km: float
    t_a: float
    t_b: float
    y11: float
    e11: float  # NaN when the diagonal basis has no successes at all


def arm_transmittances(system: SystemModel, distance_km: float,
                       placement) -> tuple[float, float]:
    """Transmittances (t_A, t_B) of the two fiber arms at a total distance."""
    la, lb = arm_lengths(distance_km, placement)
    channel = ChannelModel(length_a_km=la, length_b_km=lb,
                           attenuation_db_per_km=system.attenuation_db_per_km)
    return channel.transmittance_a, channel.transmittance_b


def _distance_terms(system: SystemModel, distance_km: float, placement) -> _DistanceTerms:
    ta, tb = arm_transmittances(system, distance_km, placement)
    rect_sent = loss_adjusted_table(system.single_photon_relay_tables[Basis.RECT], ta, tb)
    diag_sent = loss_adjusted_table(system.single_photon_relay_tables[Basis.DIAG], ta, tb)
    return _DistanceTerms(distance_km=distance_km, t_a=ta, t_b=tb,
                          y11=float(rect_sent.yields[1, 1]),
                          e11=float(diag_sent.errors[1, 1]))


def _evaluate(system: SystemModel, terms: _DistanceTerms, mus_a, mus_b) -> list[ScanPoint]:
    """Every term of the rate bound for a vector of intensity pairs at one distance."""
    mus_a, mus_b = np.asarray(mus_a, dtype=float), np.asarray(mus_b, dtype=float)
    gains, qbers = wcp_gains_qbers(terms.t_a * mus_a, terms.t_b * mus_b, Basis.RECT,
                                   system.transfer_matrix, system.detector)
    # No diagonal-basis successes at all: the rate is zero regardless.
    e11_for_rate = 0.0 if math.isnan(terms.e11) else terms.e11
    points = []
    for mu_a, mu_b, gain, qber in zip(mus_a.tolist(), mus_b.tolist(),
                                      gains.tolist(), qbers.tolist()):
        q11_rect = q11(mu_a, mu_b, terms.y11)
        rate = key_rate(q11_rect, e11_for_rate, gain, None if math.isnan(qber) else qber,
                        system.params)
        points.append(ScanPoint(
            distance_km=terms.distance_km, mu_a=mu_a, mu_b=mu_b,
            q11_rect=q11_rect, e11_diag=terms.e11, q_rect=gain, e_rect=qber,
            key_rate_raw=rate.raw, key_rate=rate.clamped,
        ))
    return points


def evaluate_point(system: SystemModel, distance_km: float, mu_a: float, mu_b: float,
                   placement="midpoint") -> ScanPoint:
    """Evaluate every term of the rate bound at one distance and intensity pair."""
    terms = _distance_terms(system, distance_km, placement)
    return _evaluate(system, terms, [mu_a], [mu_b])[0]


def default_intensity_grid() -> np.ndarray:
    lo, hi, n = DEFAULT_OPT_GRID
    return np.geomspace(lo, hi, n)


def optimize_intensity(system: SystemModel, distance_km: float, placement="midpoint",
                       *, grid=None, golden_iters: int = 40) -> ScanPoint:
    """Maximize the clamped rate over mu_a = mu_b.

    Grid search over a log-spaced grid, evaluated in one batch, followed by
    one golden-section refinement around the best grid point.  Ties break
    toward smaller mu, so a distance beyond cutoff deterministically returns
    the smallest grid intensity with rate zero.
    """
    mus = default_intensity_grid() if grid is None else np.asarray(grid, dtype=float)
    if mus.size == 0:
        raise ValueError("intensity grid is empty")

    terms = _distance_terms(system, distance_km, placement)
    evaluated = _evaluate(system, terms, mus, mus)

    def rate_at(mu: float) -> float:
        point = _evaluate(system, terms, [mu], [mu])[0]
        evaluated.append(point)
        return point.key_rate

    best_idx = 0
    best_rate = -math.inf
    for idx, point in enumerate(evaluated):
        if point.key_rate > best_rate:
            best_rate, best_idx = point.key_rate, idx

    lo = float(mus[max(best_idx - 1, 0)])
    hi = float(mus[min(best_idx + 1, len(mus) - 1)])
    if hi > lo:
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        fc, fd = rate_at(c), rate_at(d)
        for _ in range(golden_iters):
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = rate_at(c)
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = rate_at(d)

    best_rate = max(p.key_rate for p in evaluated)
    return min((p for p in evaluated if p.key_rate == best_rate), key=lambda p: p.mu_a)


def _rate_point(system: SystemModel, distance_km: float, placement, *, grid,
                fixed_intensities: tuple[float, float] | None) -> ScanPoint:
    """The rate at one distance, at the fixed intensity pair if given, else optimized."""
    if fixed_intensities is None:
        return optimize_intensity(system, distance_km, placement, grid=grid)
    mu_a, mu_b = fixed_intensities
    return evaluate_point(system, distance_km, mu_a, mu_b, placement)


def distance_scan(system: SystemModel, distances, placement="midpoint", *,
                  fixed_intensities: tuple[float, float] | None = None,
                  grid=None) -> list[ScanPoint]:
    """Evaluate the rate at each distance, optimizing mu unless fixed."""
    ds = [float(d) for d in distances]
    if not ds:
        raise ValueError("distance list is empty")
    if any(d < 0 for d in ds):
        raise ValueError("distances must be >= 0")
    if any(b < a for a, b in zip(ds, ds[1:])):
        raise ValueError("distances must be ascending")
    return [_rate_point(system, d, placement, grid=grid, fixed_intensities=fixed_intensities)
            for d in ds]


def find_cutoff(system: SystemModel, placement="midpoint", *, lo_km: float = 0.0,
                hi_km: float = 500.0, tol_km: float = 0.25, grid=None,
                fixed_intensities: tuple[float, float] | None = None) -> float:
    """Distance beyond lo_km at which the rate reaches zero, by bisection.

    Uses per-distance optimized intensities unless a fixed pair is given.
    Returns lo_km when the rate there is already zero.  The bisection
    assumes one zero crossing beyond lo_km.  With optimized or equal
    intensities the rate falls with distance; with fixed unequal
    intensities and an off-center relay it can rise first, so start from a
    distance with a positive rate.  Raises NumericalFailure when the rate
    stays positive up to 20000 km.
    """
    def positive(d: float) -> bool:
        return _rate_point(system, d, placement, grid=grid,
                           fixed_intensities=fixed_intensities).key_rate > 0.0

    if not positive(lo_km):
        return lo_km
    hi = hi_km
    while hi <= lo_km or positive(hi):
        hi *= 2.0
        if hi > 20000.0:
            raise NumericalFailure("no cutoff found below 20000 km")
    lo = lo_km
    while hi - lo > tol_km:
        mid = 0.5 * (lo + hi)
        if positive(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def format_float(x: float) -> str:
    return f"{x:.17g}"


def scan_csv_lines(points: list[ScanPoint], comments=()) -> list[str]:
    lines = [f"# {c}" for c in comments]
    lines.append(SCAN_CSV_HEADER)
    for p in points:
        lines.append(",".join(format_float(v) for v in (
            p.distance_km, p.mu_a, p.mu_b, p.q11_rect, p.e11_diag,
            p.q_rect, p.e_rect, p.key_rate_raw, p.key_rate)))
    return lines


def scan_json_obj(points: list[ScanPoint], config: dict | None = None) -> dict:
    def clean(x: float):
        return None if math.isnan(x) else x

    obj: dict = {}
    if config is not None:
        obj["config"] = config
    obj["points"] = [
        {
            "distance_km": p.distance_km, "mu_a": p.mu_a, "mu_b": p.mu_b,
            "q11_rect": p.q11_rect, "e11_diag": clean(p.e11_diag),
            "q_rect": p.q_rect, "e_rect": clean(p.e_rect),
            "key_rate_raw": p.key_rate_raw, "key_rate": p.key_rate,
        }
        for p in points
    ]
    return obj
