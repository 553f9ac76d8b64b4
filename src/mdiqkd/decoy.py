"""Two-stage decoy-state estimation of photon-number yields and error rates.

The observables are gains Q[i][j] and error rates E[i][j] over a grid of
source intensities.  Since phase-randomized coherent pulses are Poisson
mixtures of photon-number states, the observables are Poisson-weighted
linear combinations of the per-photon-number yields, and a truncated linear
inversion recovers them: first invert over Alice's intensity index for all
of Bob's settings at once (giving marginal yields), then invert the
marginals over Bob's index.  Error rates follow the same route applied to
the products Q*E, divided by the recovered yields at the end.

One least-squares kernel serves every stage, and each stage is one call of
it: the design matrix and its condition number are shared by the columns.  Nonnegativity is enforced by
post-hoc clamping with a logged event list rather than constrained solving;
on data consistent with a valid table the clamp log stays empty.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InversionError
from .protocol import Basis, YieldErrorTable
from .optics import DetectorModel
from . import protocol

logger = logging.getLogger(__name__)

DEFAULT_INTENSITIES = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
# Design matrices with a larger condition number are rejected.
MAX_CONDITION = 1e10

# Estimated entries below this yield are reported as undefined rather than
# divided through (guards e = W/Y).
YIELD_EPS = 1e-12

# Violations beyond this slack are logged as clamp events; smaller ones are
# floating-point noise from the solver and are snapped silently, so that
# re-estimating from consistent data logs nothing.
CLAMP_TOL = 1e-9


def poisson_pmf(mu: float, n: int) -> float:
    if mu < 0:
        raise ValueError("mean photon number must be >= 0")
    if mu == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(-mu + n * math.log(mu) - math.lgamma(n + 1))


def poisson_weights(mu: float, n_max: int) -> np.ndarray:
    """pmf values for n = 0..n_max."""
    return np.array([poisson_pmf(mu, n) for n in range(n_max + 1)])


def poisson_tail_mass(mu: float, n_max: int) -> float:
    """P(N > n_max) computed by direct summation (stable for tiny tails)."""
    term = poisson_pmf(mu, n_max + 1)
    total = 0.0
    n = n_max + 1
    while term > 0.0 and (total == 0.0 or term > total * 1e-18):
        total += term
        n += 1
        term *= mu / n
    return total


@dataclass(frozen=True)
class IntensityGrid:
    """Decoy intensity settings for Alice and Bob (mean photon numbers)."""

    alice: tuple[float, ...] = DEFAULT_INTENSITIES
    bob: tuple[float, ...] = DEFAULT_INTENSITIES

    def __post_init__(self):
        for name in ("alice", "bob"):
            values = tuple(float(v) for v in getattr(self, name))
            if len(values) == 0:
                raise ValueError(f"{name} intensity list is empty")
            if any(v < 0 or not math.isfinite(v) for v in values):
                raise ValueError(f"{name} intensities must be finite and >= 0")
            if any(b <= a for a, b in zip(values, values[1:])):
                raise ValueError(f"{name} intensities must be strictly increasing")
            object.__setattr__(self, name, values)


@dataclass(frozen=True)
class ObservedStats:
    """Gains and error rates over the intensity grid for one basis.

    qbers entries are NaN where the corresponding gain is zero, and only
    there: an undefined error rate with a positive gain is rejected.
    """

    basis: Basis
    grid: IntensityGrid
    gains: np.ndarray
    qbers: np.ndarray

    def __post_init__(self):
        shape = (len(self.grid.alice), len(self.grid.bob))
        q = np.array(self.gains, dtype=float)
        e = np.array(self.qbers, dtype=float)
        if q.shape != shape or e.shape != shape:
            raise ValueError(f"observed matrices must have shape {shape}")
        if not np.all((q >= 0) & (q <= 1)):
            raise ValueError("gains must lie in [0, 1]")
        defined = ~np.isnan(e)
        if np.any((e[defined] < 0) | (e[defined] > 1)):
            raise ValueError("defined error rates must lie in [0, 1]")
        if np.any(~defined & (q > 0)):
            raise ValueError("error rates must be defined where the gain is positive")
        q.setflags(write=False)
        e.setflags(write=False)
        object.__setattr__(self, "gains", q)
        object.__setattr__(self, "qbers", e)

    def error_weighted_gains(self) -> np.ndarray:
        """Q*E with undefined E (zero gain) contributing zero."""
        return np.where(np.isnan(self.qbers), 0.0, self.gains * np.nan_to_num(self.qbers))

    def to_json_dict(self) -> dict:
        qbers = [[None if math.isnan(v) else v for v in row] for row in self.qbers.tolist()]
        return {
            "basis": self.basis.value,
            "alice_intensities": list(self.grid.alice),
            "bob_intensities": list(self.grid.bob),
            "gains": self.gains.tolist(),
            "qbers": qbers,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ObservedStats":
        grid = IntensityGrid(alice=tuple(data["alice_intensities"]),
                             bob=tuple(data["bob_intensities"]))
        qbers = np.array(
            [[math.nan if v is None else float(v) for v in row] for row in data["qbers"]])
        return cls(basis=Basis(data["basis"]), grid=grid,
                   gains=np.array(data["gains"], dtype=float), qbers=qbers)

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_json_dict(), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "ObservedStats":
        return cls.from_json_dict(json.loads(text))


def observed_from_table(table: YieldErrorTable, grid: IntensityGrid) -> ObservedStats:
    """Synthesize observables from a truncated yield/error table.

    The resulting linear system is exactly the one the estimator inverts, so
    estimation at the same truncation recovers the table up to conditioning.
    """
    wa = np.stack([poisson_weights(mu, table.n_max) for mu in grid.alice])
    wb = np.stack([poisson_weights(mu, table.n_max) for mu in grid.bob])
    gains = wa @ table.yields @ wb.T
    weighted = wa @ table.error_weighted() @ wb.T
    qbers = np.where(gains > 0.0, weighted / np.where(gains > 0.0, gains, 1.0), np.nan)
    return ObservedStats(basis=table.basis, grid=grid, gains=gains, qbers=qbers)


def observed_from_model(grid: IntensityGrid, basis: Basis, u: np.ndarray,
                        det: DetectorModel, *,
                        transmittances: tuple[float, float] = (1.0, 1.0)) -> ObservedStats:
    """Synthesize observables from the full coherent-pulse model.

    The grid holds intensities as sent; per-arm channel transmittances fold
    into the intensities arriving at the relay.  Unlike observed_from_table
    this includes every photon-number component, so a truncated inversion of
    these observables carries a truncation bias.
    """
    t_a, t_b = transmittances
    mu_a, mu_b = np.meshgrid(grid.alice, grid.bob, indexing="ij")
    gains, qbers = protocol.wcp_gains_qbers(t_a * mu_a.ravel(), t_b * mu_b.ravel(), basis,
                                            u, det)
    return ObservedStats(basis=basis, grid=grid, gains=gains.reshape(mu_a.shape),
                         qbers=qbers.reshape(mu_a.shape))


@dataclass(frozen=True)
class InversionResult:
    coefficients: np.ndarray
    residual: float
    condition: float


def invert_poisson(values, intensities, n_max: int) -> InversionResult:
    """Solve values[i] = sum_n exp(-mu_i) mu_i^n / n! * c[n] for n <= n_max.

    values is 1-d, or 2-d with one right-hand side per column; the
    coefficients have the same layout, with n_max + 1 rows.  The design
    matrix and its condition number are computed once for all columns, and
    each column is a least-squares solve of the (possibly overdetermined)
    system; residual is the largest column misfit.  Raises ValueError when
    fewer than n_max + 1 intensities are supplied and InversionError when
    the condition number exceeds MAX_CONDITION.
    """
    mus = np.asarray(intensities, dtype=float)
    vals = np.asarray(values, dtype=float)
    if mus.ndim != 1 or vals.ndim not in (1, 2) or vals.shape[0] != len(mus):
        raise ValueError("intensities must be 1-d and values 1-d or 2-d, "
                         "with one row per intensity")
    if len(mus) < n_max + 1:
        raise ValueError(
            f"need at least {n_max + 1} intensities to resolve photon numbers 0..{n_max}, "
            f"got {len(mus)}")
    design = np.stack([poisson_weights(mu, n_max) for mu in mus])
    condition = float(np.linalg.cond(design))
    if not math.isfinite(condition) or condition > MAX_CONDITION:
        raise InversionError(
            f"decoy design matrix is ill-conditioned (condition {condition:.3e} "
            f"> {MAX_CONDITION:.1e})", condition=condition)
    columns = vals.reshape(len(mus), -1)
    coeffs = np.empty((n_max + 1, columns.shape[1]))
    residual = 0.0
    # One solve per column: a multi-column lstsq rounds differently.
    for k in range(columns.shape[1]):
        c, *_ = np.linalg.lstsq(design, columns[:, k], rcond=None)
        coeffs[:, k] = c
        residual = max(residual, float(np.linalg.norm(design @ c - columns[:, k])))
    return InversionResult(coefficients=coeffs.reshape((n_max + 1,) + vals.shape[1:]),
                           residual=residual, condition=condition)


@dataclass(frozen=True)
class ClampEvent:
    quantity: str
    stage: str
    index: tuple[int, ...]
    raw: float


@dataclass
class EstimationResult:
    """Estimated table plus solver diagnostics.

    clamp_events records every out-of-range value beyond numerical slack;
    max_residual is the largest least-squares misfit across all solves.
    """

    table: YieldErrorTable
    clamp_events: list[ClampEvent] = field(default_factory=list)
    max_residual: float = 0.0
    max_condition: float = 0.0


def _clamp(values: np.ndarray, lo, hi, quantity: str, stage: str,
           events: list[ClampEvent]) -> np.ndarray:
    lo_arr = np.broadcast_to(np.asarray(lo, dtype=float), values.shape)
    hi_arr = np.broadcast_to(np.asarray(hi, dtype=float), values.shape)
    for idx in zip(*np.nonzero((values < lo_arr - CLAMP_TOL) | (values > hi_arr + CLAMP_TOL))):
        event = ClampEvent(quantity=quantity, stage=stage, index=tuple(int(i) for i in idx),
                           raw=float(values[idx]))
        events.append(event)
        logger.info("clamped %s at %s stage %s: raw=%g", quantity, event.index, stage, event.raw)
    return np.clip(values, lo_arr, hi_arr)


def _solve_stage(values: np.ndarray, intensities, n_max: int, stage: str) -> InversionResult:
    try:
        return invert_poisson(values, intensities, n_max)
    except InversionError as exc:
        raise InversionError(f"{exc} (stage {stage})", condition=exc.condition,
                             stage=stage) from exc


def estimate_table(obs: ObservedStats, n_max: int = 4) -> EstimationResult:
    """Recover Y[n][m] and e[n][m] for n, m <= n_max from the observables.

    The gains Q give the yields and the products Q*E the error-weighted
    yields Y*e, each in two solves: one over Alice's intensities for every
    Bob setting (the marginals, clamped to [0, 1]), then one over Bob's
    intensities for every photon number n.  The error rates are Y*e divided
    by Y where Y > YIELD_EPS; smaller yields give undefined (NaN) entries,
    never a 0/0.
    """
    events: list[ClampEvent] = []
    solves: list[InversionResult] = []

    def two_stage(matrix: np.ndarray, quantity: str) -> np.ndarray:
        alice = _solve_stage(matrix, obs.grid.alice, n_max, "alice-inversion")
        marginals = _clamp(alice.coefficients, 0.0, 1.0, f"marginal_{quantity}",
                           "alice-inversion", events)
        bob = _solve_stage(marginals.T, obs.grid.bob, n_max, "bob-inversion")
        solves.extend((alice, bob))
        return np.ascontiguousarray(bob.coefficients.T)

    yields = _clamp(two_stage(obs.gains, "yield"), 0.0, 1.0, "yield", "bob-inversion", events)
    weighted = _clamp(two_stage(obs.error_weighted_gains(), "error_weight"), 0.0, yields,
                      "error_weight", "bob-inversion", events)
    defined = yields > YIELD_EPS
    errors = np.where(defined, weighted / np.where(defined, yields, 1.0), np.nan)
    table = YieldErrorTable(basis=obs.basis, n_max=n_max, yields=yields, errors=errors)
    return EstimationResult(table=table, clamp_events=events,
                            max_residual=max(s.residual for s in solves),
                            max_condition=max(s.condition for s in solves))


def q11(mu_a: float, mu_b: float, y11: float) -> float:
    """Single-photon-pair gain mu_a * mu_b * exp(-(mu_a + mu_b)) * Y11."""
    if mu_a < 0 or mu_b < 0:
        raise ValueError("mean photon numbers must be >= 0")
    if not (0.0 <= y11 <= 1.0):
        raise ValueError(f"y11 must be in [0, 1], got {y11}")
    return mu_a * mu_b * math.exp(-(mu_a + mu_b)) * y11
