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
from dataclasses import dataclass
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
_MAX_CUTOFF_KM = 20000.0


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy in bits, with H(0) = H(1) = 0 by continuity."""
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"binary_entropy domain is [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


@dataclass(frozen=True)
class KeyRateValue:
    raw: float
    clamped: float


def key_rate(q11_rect: float, e11_diag: float, q_rect: float, e_rect: float | None,
             error_correction_inefficiency: float = 1.16) -> KeyRateValue:
    """Evaluate the key-rate bound; returns the raw value and max(raw, 0).

    e_rect may be None only when q_rect = 0 (no successes, so the
    error-correction term vanishes).
    """
    if error_correction_inefficiency < 1.0:
        raise ValueError("error-correction inefficiency must be >= 1")
    for name, value in (("q11_rect", q11_rect), ("e11_diag", e11_diag), ("q_rect", q_rect)):
        if not (0.0 <= value <= 1.0):
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    if q11_rect > q_rect and not math.isclose(q11_rect, q_rect, rel_tol=1e-9):
        raise ValueError(f"q11_rect ({q11_rect}) must not exceed q_rect ({q_rect})")
    if e_rect is None:
        if q_rect > 0.0:
            raise ValueError("e_rect may be None only when q_rect is zero")
        ec_term = 0.0
    else:
        if not (0.0 <= e_rect <= 1.0):
            raise ValueError(f"e_rect must be in [0, 1], got {e_rect}")
        ec_term = q_rect * error_correction_inefficiency * binary_entropy(e_rect)
    raw = q11_rect * (1.0 - binary_entropy(e11_diag)) - ec_term
    return KeyRateValue(raw=raw, clamped=max(raw, 0.0))


def arm_lengths(total_km: float, placement: float) -> tuple[float, float]:
    """Split a total Alice-to-Bob distance according to the relay placement.

    placement is Alice's share f in [0, 1] of the distance (L_A = f * L):
    0.5 puts the relay at the midpoint, 0 at Alice.
    """
    if total_km < 0:
        raise ValueError("distance must be >= 0")
    if not (0.0 <= placement <= 1.0):
        raise ValueError(f"placement must be in [0, 1], got {placement}")
    return placement * total_km, (1.0 - placement) * total_km


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
    """Everything fixed across a scan: relay network, detectors, fiber, and f."""

    network: NetworkConfig = NetworkConfig()
    detector: DetectorModel = DetectorModel()
    attenuation_db_per_km: float = 0.2
    error_correction_inefficiency: float = 1.16

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
                       placement: float) -> tuple[float, float]:
    """Transmittances (t_A, t_B) of the two fiber arms at a total distance."""
    att = system.attenuation_db_per_km
    if att < 0:
        raise ValueError("attenuation must be >= 0")
    la, lb = arm_lengths(distance_km, placement)
    return 10.0 ** (-att * la / 10.0), 10.0 ** (-att * lb / 10.0)


def _distance_terms(system: SystemModel, distance_km: float, placement: float) -> _DistanceTerms:
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
    Raises NumericalFailure where q_rect has underflowed to 0 while q11_rect
    has not (no dark counts): that zero is rounding, not a lack of clicks.
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
        if gain == 0.0 < q11_rect:
            raise NumericalFailure(f"q_rect underflows to 0 at {t.distance_km:g} km")
        yield t, mu_a, mu_b, q11_rect, gain, qber, key_rate(
            q11_rect, e11_for_rate, gain, None if math.isnan(qber) else qber,
            system.error_correction_inefficiency)


def _optimal_mus(system: SystemModel, terms: list[_DistanceTerms], grid) -> np.ndarray:
    """The mu_a = mu_b with the largest clamped rate at each distance.

    The grid of every distance is one batch.  Then a golden section of
    GOLDEN_ITERS steps runs around each distance's best grid point, with its
    brackets and probes held as arrays over the distances: one kernel call
    per step.  The probe rates of a distance without a proper bracket (a
    one-point, constant or descending grid) are masked to -inf.  Each
    distance keeps the largest rate it has seen, ties broken toward smaller mu.
    """
    mus = default_intensity_grid() if grid is None else np.asarray(grid, dtype=float)
    if mus.size == 0:
        raise ValueError("intensity grid is empty")
    seen_mus, seen_rates = [], []

    def probe(points: np.ndarray) -> np.ndarray:
        """Clamped rates at mu = points[i, j] and distance i, kept for the selection."""
        entries, flat = [t for t in terms for _ in range(points.shape[1])], points.ravel()
        rates = [rate.clamped for *_, rate in _bound_terms(system, entries, flat, flat)]
        seen_mus.append(points)
        seen_rates.append(np.reshape(rates, points.shape))
        return seen_rates[-1]

    best = np.argmax(probe(np.tile(mus, (len(terms), 1))), axis=1)
    a, b = mus[np.maximum(best - 1, 0)], mus[np.minimum(best + 1, mus.size - 1)]
    bracketed = b > a
    if bracketed.any():
        c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
        fc, fd = probe(np.column_stack([c, d])).T
        for _ in range(GOLDEN_ITERS):
            left = fc >= fd  # keep [a, d]; else keep [c, b]
            a, b = np.where(left, a, c), np.where(left, d, b)
            step = _INVPHI * (b - a)
            new = np.where(left, b - step, a + step)
            f = probe(new[:, None])[:, 0]
            c, d = np.where(left, new, d), np.where(left, c, new)
            fc, fd = np.where(left, f, fd), np.where(left, fc, f)
    mus_seen, rates_seen = np.hstack(seen_mus), np.hstack(seen_rates)
    rates_seen[~bracketed, mus.size:] = -np.inf  # probes outside a proper bracket
    top = rates_seen == rates_seen.max(axis=1, keepdims=True)
    return np.where(top, mus_seen, np.inf).min(axis=1)


def _rate_points(system: SystemModel, distances, placement: float, *, grid=None,
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


def default_intensity_grid() -> np.ndarray:
    lo, hi, n = DEFAULT_OPT_GRID
    return np.geomspace(lo, hi, n)


def distance_scan(system: SystemModel, distances, placement: float = 0.5, *,
                  fixed_intensities: tuple[float, float] | None = None,
                  grid=None) -> list[ScanPoint]:
    """Evaluate the rate at each distance, optimizing mu unless fixed.

    Without fixed intensities, each distance maximizes the clamped rate over
    mu_a = mu_b: a search over the log-spaced grid (the default one unless
    given), then a golden-section refinement of GOLDEN_ITERS steps around
    the best grid point.  Ties break toward smaller mu, so a distance beyond
    cutoff deterministically returns the smallest grid intensity with rate
    zero.  A distance's result does not depend on the other distances.
    """
    ds = [float(d) for d in distances]
    if not ds:
        raise ValueError("distance list is empty")
    if any(d < 0 for d in ds):
        raise ValueError("distances must be >= 0")
    if any(b < a for a, b in zip(ds, ds[1:])):
        raise ValueError("distances must be ascending")
    return _rate_points(system, ds, placement, grid=grid, fixed_intensities=fixed_intensities)


def find_cutoff(system: SystemModel, placement: float = 0.5, *, lo_km: float = 0.0,
                hi_km: float = 500.0, tol_km: float = 0.25, grid=None,
                fixed_intensities: tuple[float, float] | None = None) -> float:
    """Distance beyond lo_km at which the rate reaches zero, by bisection.

    Uses per-distance optimized intensities unless a fixed pair is given.
    Returns lo_km when the rate there is already zero.  The bisection
    assumes one zero crossing beyond lo_km.  With optimized or equal
    intensities the rate falls with distance; with fixed unequal
    intensities and an off-center relay it can rise first, so start from a
    distance with a positive rate.  Raises NumericalFailure when the rate
    stays positive up to 20000 km, and when, beyond lo_km, the rate is zero
    only because q_rect has underflowed to 0 (no dark counts).

    lo_km and hi_km are evaluated in one batch.  Each bisection batch then
    probes the bracket's midpoint and, where a half is wider than tol_km, the
    midpoint of that half, and takes up to two halvings.  Every probe is
    0.5 * (a + b) of the bracket it would split, so the probes on the path
    taken are those of a one-probe-at-a-time bisection, and so is the result.
    """
    def rate_points(distances) -> list[ScanPoint]:
        return _rate_points(system, distances, placement, grid=grid,
                            fixed_intensities=fixed_intensities)

    def positive(points) -> list[bool]:
        # Only for points past a positive rate at lo_km: a zero there with no
        # successes at all is q_rect underflowing, not a cutoff.
        for p in points:
            if p.key_rate == 0.0 and p.q_rect == 0.0:
                raise NumericalFailure(f"no cutoff found: q_rect underflows to 0 at "
                                       f"{p.distance_km:g} km")
        return [p.key_rate > 0.0 for p in points]

    # hi_km is probed only when it lies beyond lo_km; otherwise it is doubled first.
    first = rate_points([lo_km, hi_km] if hi_km > lo_km else [lo_km])
    if first[0].key_rate == 0.0:
        return lo_km
    hi, hi_positive = hi_km, positive(first)[-1]
    while hi <= lo_km or hi_positive:
        hi *= 2.0
        if hi > _MAX_CUTOFF_KM:
            raise NumericalFailure(f"no cutoff found below {_MAX_CUTOFF_KM:g} km")
        if hi > lo_km:
            (hi_positive,) = positive(rate_points([hi]))

    lo = lo_km
    while hi - lo > tol_km:
        mid = 0.5 * (lo + hi)
        probes = [mid] + [0.5 * (a + b) for a, b in ((lo, mid), (mid, hi)) if b - a > tol_km]
        sign = dict(zip(probes, positive(rate_points(probes))))
        for _ in range(2):
            if hi - lo > tol_km:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if sign[mid] else (lo, mid)
    return 0.5 * (lo + hi)
