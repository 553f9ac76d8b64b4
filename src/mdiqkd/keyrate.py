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
from .optics import (
    DetectorModel,
    NetworkConfig,
    _coherent_success_probs,
    assert_unitary,
    build_network,
)
from .protocol import (
    Basis,
    YieldErrorTable,
    _bit_pairs,
    _gains_qbers,
    build_yield_error_table,
    loss_adjusted_table,
)

DEFAULT_OPT_GRID = (0.005, 1.0, 40)
GOLDEN_ITERS = 40
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# Bisection levels that find_cutoff probes in one batch: the 3 probes of two
# levels fill one 4-intensity kernel chunk (optics._MU_CHUNK); 3 levels were
# slightly slower and 4 much slower on the default keyrate scan.
_BISECTION_LEVELS = 2
_MAX_CUTOFF_KM = 20000.0


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
        # Checked once here, so that the rate path can run the kernel unchecked.
        u = build_network(self.network)
        assert_unitary(u)
        return u

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


def _bound_terms(system: SystemModel, terms, mus_a, mus_b):
    """Every term of the rate bound for a batch of entries, in one kernel call.

    Entry i is the intensity pair (mus_a[i], mus_b[i]) at the distance of
    terms[i].  The kernel and the bit-pair reduction are batch-invariant, so
    an entry's values do not depend on the entries around it.  Yields
    (terms, mu_a, mu_b, q11_rect, q_rect, e_rect, KeyRateValue) per entry.
    """
    mus_a, mus_b = np.asarray(mus_a, dtype=float), np.asarray(mus_b, dtype=float)
    t_a = np.array([t.t_a for t in terms])
    t_b = np.array([t.t_b for t in terms])
    # Unchecked kernel: SystemModel checked transfer_matrix when it built it.
    probs = _coherent_success_probs(t_a * mus_a, t_b * mus_b, _bit_pairs(Basis.RECT),
                                    system.transfer_matrix, system.detector)
    gains, qbers = _gains_qbers(probs, Basis.RECT)
    for t, mu_a, mu_b, gain, qber in zip(terms, mus_a.tolist(), mus_b.tolist(),
                                         gains.tolist(), qbers.tolist()):
        # No diagonal-basis successes at all: the rate is zero regardless.
        e11_for_rate = 0.0 if math.isnan(t.e11) else t.e11
        q11_rect = q11(mu_a, mu_b, t.y11)
        yield t, mu_a, mu_b, q11_rect, gain, qber, key_rate(
            q11_rect, e11_for_rate, gain, None if math.isnan(qber) else qber, system.params)


def _rates(system: SystemModel, terms, mus) -> list[float]:
    """Clamped rates at mu_a = mu_b = mus[i] and the distance of terms[i]."""
    return [rate.clamped for *_, rate in _bound_terms(system, terms, mus, mus)]


def _golden_section(a: float, b: float):
    """Golden-section search for the largest rate on [a, b], as a coroutine.

    Yields a tuple of intensities to probe and receives their rates, so that
    the searches of many distances can share each kernel call.
    """
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    fc, fd = yield (c, d)
    for _ in range(GOLDEN_ITERS):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            (fc,) = yield (c,)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            (fd,) = yield (d,)


def _optimal_mus(system: SystemModel, terms: list[_DistanceTerms], grid) -> list[float]:
    """The mu_a = mu_b with the largest clamped rate at each distance.

    The grid of every distance is one batch; then the golden sections of all
    distances run in lockstep, one kernel call per step.  Each distance
    keeps its own bracket, around its best grid point, and ties break toward
    smaller mu.
    """
    mus = default_intensity_grid() if grid is None else np.asarray(grid, dtype=float)
    if mus.size == 0:
        raise ValueError("intensity grid is empty")
    size = len(mus)
    grid_mus = mus.tolist()
    grid_rates = _rates(system, [t for t in terms for _ in range(size)],
                        np.tile(mus, len(terms)))

    best: list[tuple[float, float]] = []  # (rate, mu) per distance
    searches, probes = {}, {}
    for i in range(len(terms)):
        rates = grid_rates[i * size:(i + 1) * size]
        best_idx = rates.index(max(rates))
        best.append((rates[best_idx], min(mu for mu, r in zip(grid_mus, rates)
                                          if r == rates[best_idx])))
        lo, hi = grid_mus[max(best_idx - 1, 0)], grid_mus[min(best_idx + 1, size - 1)]
        if hi > lo:
            searches[i] = _golden_section(lo, hi)
            probes[i] = next(searches[i])

    while probes:
        index = [i for i, step in probes.items() for _ in step]
        flat = [mu for step in probes.values() for mu in step]
        rates = _rates(system, [terms[i] for i in index], flat)
        for i, mu, rate in zip(index, flat, rates):
            if rate > best[i][0] or (rate == best[i][0] and mu < best[i][1]):
                best[i] = (rate, mu)
        pos, advanced = 0, {}
        for i, step in probes.items():
            try:
                advanced[i] = searches[i].send(rates[pos:pos + len(step)])
            except StopIteration:
                pass
            pos += len(step)
        probes = advanced
    return [mu for _, mu in best]


def _rate_points(system: SystemModel, distances, placement, *, grid=None,
                 fixed_intensities: tuple[float, float] | None = None) -> list[ScanPoint]:
    """The rate at each distance, at the fixed intensity pair if given, else optimized.

    All distances share every kernel call.  Only (mu, rate) floats are kept
    while optimizing; each distance's winner is evaluated again in one final
    batch, which batch invariance makes bit-identical to its first value.
    """
    terms = [_distance_terms(system, d, placement) for d in distances]
    if fixed_intensities is None:
        mus_a = mus_b = _optimal_mus(system, terms, grid)
    else:
        mus_a = [fixed_intensities[0]] * len(terms)
        mus_b = [fixed_intensities[1]] * len(terms)
    return [
        ScanPoint(distance_km=t.distance_km, mu_a=mu_a, mu_b=mu_b, q11_rect=q11_rect,
                  e11_diag=t.e11, q_rect=gain, e_rect=qber,
                  key_rate_raw=rate.raw, key_rate=rate.clamped)
        for t, mu_a, mu_b, q11_rect, gain, qber, rate
        in _bound_terms(system, terms, mus_a, mus_b)
    ]


def evaluate_point(system: SystemModel, distance_km: float, mu_a: float, mu_b: float,
                   placement="midpoint") -> ScanPoint:
    """Evaluate every term of the rate bound at one distance and intensity pair."""
    return _rate_points(system, [distance_km], placement,
                        fixed_intensities=(mu_a, mu_b))[0]


def default_intensity_grid() -> np.ndarray:
    lo, hi, n = DEFAULT_OPT_GRID
    return np.geomspace(lo, hi, n)


def optimize_intensity(system: SystemModel, distance_km: float, placement="midpoint",
                       *, grid=None) -> ScanPoint:
    """Maximize the clamped rate over mu_a = mu_b at one distance.

    Grid search over a log-spaced grid, evaluated in one batch, followed by
    a golden-section refinement of GOLDEN_ITERS steps around the best grid
    point.  Ties break toward smaller mu, so a distance beyond cutoff
    deterministically returns the smallest grid intensity with rate zero.
    This is the one-distance case of the lockstep optimizer that
    distance_scan and find_cutoff run over many distances at once: their
    grids share one kernel call, and so does each golden-section step.
    """
    return _rate_points(system, [distance_km], placement, grid=grid)[0]


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
    return _rate_points(system, ds, placement, grid=grid, fixed_intensities=fixed_intensities)


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

    lo_km and hi_km are evaluated in one batch.  The bisection then probes
    the midpoints of its next _BISECTION_LEVELS levels as one speculative
    batch and follows the path their signs give.  Every midpoint is
    0.5 * (lo + hi) of the bracket it would split, so the probes on the
    path taken are those of a one-probe-at-a-time bisection, and so is the
    result.
    """
    def positive(distances) -> list[bool]:
        return [p.key_rate > 0.0 for p in _rate_points(
            system, distances, placement, grid=grid, fixed_intensities=fixed_intensities)]

    # hi_km is probed only when it lies beyond lo_km; otherwise it is doubled first.
    first = positive([lo_km, hi_km] if hi_km > lo_km else [lo_km])
    if not first[0]:
        return lo_km
    hi, hi_positive = hi_km, first[-1]
    while hi <= lo_km or hi_positive:
        hi *= 2.0
        if hi > _MAX_CUTOFF_KM:
            raise NumericalFailure(f"no cutoff found below {_MAX_CUTOFF_KM:g} km")
        if hi > lo_km:
            (hi_positive,) = positive([hi])

    lo = lo_km
    while hi - lo > tol_km:
        brackets, probes = [(lo, hi)], []
        for _ in range(_BISECTION_LEVELS):
            split = []
            for a, b in brackets:
                if b - a > tol_km:
                    mid = 0.5 * (a + b)
                    probes.append(mid)
                    split += [(a, mid), (mid, b)]
            brackets = split
        sign = dict(zip(probes, positive(probes)))
        for _ in range(_BISECTION_LEVELS):
            if hi - lo <= tol_km:
                break
            mid = 0.5 * (lo + hi)
            if sign[mid]:
                lo = mid
            else:
                hi = mid
    return 0.5 * (lo + hi)
