"""Protocol-level statistics on top of the relay model.

Turns relay outcome probabilities into the quantities the protocol works
with: per-photon-number yields Y[n][m] and error rates e[n][m] in each
basis, aggregate weak-coherent-pulse gains and error rates, and the
sift/bit-flip bookkeeping.

Bit convention: H and D encode 0, V and A encode 1, and Bob is the party
who flips.  The four bit pairs within a basis are taken equiprobable.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .optics import (
    BsmOutcome,
    DetectorModel,
    Polarization,
    _readonly,
    coherent_success_probs,
    fock_success_probs,
)


class Basis(enum.Enum):
    RECT = "rect"  # {H, V}, key generation
    DIAG = "diag"  # {D, A}, testing


BASIS_STATES = {
    Basis.RECT: (Polarization.H, Polarization.V),
    Basis.DIAG: (Polarization.D, Polarization.A),
}

BIT_VALUE = {
    Polarization.H: 0,
    Polarization.V: 1,
    Polarization.D: 0,
    Polarization.A: 1,
}


@dataclass(frozen=True)
class SiftDecision:
    keep: bool
    flip_bob: bool


def sift(basis_a: Basis, basis_b: Basis, outcome: BsmOutcome) -> SiftDecision:
    """Post-selection and bit-flip rule.

    Events are kept only when both parties used the same basis and the relay
    announced a success.  Bob flips his bit except when both chose the
    diagonal basis and the relay announced the triplet.
    """
    keep = basis_a is basis_b and outcome is not BsmOutcome.FAIL
    flip = keep and not (basis_a is Basis.DIAG and outcome is BsmOutcome.PSI_PLUS)
    return SiftDecision(keep=keep, flip_bob=flip)


@dataclass(frozen=True)
class YieldErrorTable:
    """Truncated tables Y[n][m] and e[n][m] for one basis.

    yields[n, m] is the success probability given n photons from Alice and
    m from Bob; errors[n, m] is the error fraction among successes, NaN
    where undefined (no successes).  Row index n is Alice's photon number.
    """

    basis: Basis
    n_max: int
    yields: np.ndarray
    errors: np.ndarray

    def __post_init__(self):
        shape = (self.n_max + 1, self.n_max + 1)
        y = np.asarray(self.yields, dtype=float)
        e = np.asarray(self.errors, dtype=float)
        if y.shape != shape or e.shape != shape:
            raise ValueError(f"tables must have shape {shape}")
        if np.any((y < -1e-9) | (y > 1.0 + 1e-9)):
            raise ValueError("yields must lie in [0, 1]")
        defined = ~np.isnan(e)
        if np.any((e[defined] < -1e-9) | (e[defined] > 1.0 + 1e-9)):
            raise ValueError("defined error entries must lie in [0, 1]")
        if np.any(defined & (y <= 0.0)):
            raise ValueError("error entries must be undefined (NaN) where the yield is zero")
        y = np.clip(y, 0.0, 1.0)
        e = np.where(defined, np.clip(e, 0.0, 1.0), np.nan)
        object.__setattr__(self, "yields", _readonly(y))
        object.__setattr__(self, "errors", _readonly(e))

    @property
    def error_defined(self) -> np.ndarray:
        return ~np.isnan(self.errors)

    def error_weighted(self) -> np.ndarray:
        """Y[n][m] * e[n][m] with undefined entries contributing zero."""
        return np.where(self.error_defined, self.yields * np.nan_to_num(self.errors), 0.0)

    def to_json_dict(self) -> dict:
        errors = [[None if math.isnan(v) else v for v in row] for row in self.errors.tolist()]
        return {
            "basis": self.basis.value,
            "n_max": self.n_max,
            "yields": self.yields.tolist(),
            "errors": errors,
        }


def _bit_pairs(basis: Basis):
    return tuple(product(BASIS_STATES[basis], repeat=2))


# Which (pair, outcome) terms of a basis are errors, pairs in _bit_pairs order
# and outcomes psi-, psi+, as laid out by the success kernels of optics: those
# where Alice's bit differs from Bob's after the sift rule's flip.
_ERROR_TERMS = {
    basis: np.array([BIT_VALUE[a] != BIT_VALUE[b] ^ sift(basis, basis, outcome).flip_bob
                     for a, b in _bit_pairs(basis)
                     for outcome in (BsmOutcome.PSI_MINUS, BsmOutcome.PSI_PLUS)])
    for basis in Basis
}


def _gains_qbers(probs: np.ndarray, basis: Basis) -> tuple[np.ndarray, np.ndarray]:
    """Gains and error rates from a (..., 4 pairs, 2 outcomes) success array.

    Averages over the four equiprobable bit pairs of the basis, in
    _bit_pairs order; an error rate is NaN and its gain 0 where the gain is
    not positive.
    """
    # Running sums over the terms in pair-then-outcome order; accumulate adds
    # one term at a time, so an entry does not depend on the batch around it.
    terms = probs.reshape(probs.shape[:-2] + (-1,))
    success = np.add.accumulate(terms, axis=-1)[..., -1]
    errors = np.add.accumulate(np.where(_ERROR_TERMS[basis], terms, 0.0), axis=-1)[..., -1]
    gains = success / 4.0
    positive = gains > 0.0
    qbers = np.where(positive, errors / 4.0 / np.where(positive, gains, 1.0), np.nan)
    return np.where(positive, gains, 0.0), qbers


def fock_yield_error(n: int, m: int, basis: Basis, u: np.ndarray,
                     det: DetectorModel) -> tuple[float, float | None]:
    """Yield and error rate of the (n, m) photon-number component.

    Averages the exact outcome probabilities over the four equiprobable bit
    pairs of the basis.  Returns (Y, e) with e None when Y = 0.
    """
    y, e = _gains_qbers(fock_success_probs(n, m, _bit_pairs(basis), u, det), basis)
    return (float(y), float(e)) if y > 0.0 else (0.0, None)


def build_yield_error_table(basis: Basis, u: np.ndarray, det: DetectorModel,
                            n_max: int) -> YieldErrorTable:
    """Tabulate Y and e for all photon numbers up to n_max, one Fock expansion per cell."""
    pairs = _bit_pairs(basis)
    probs = np.array([[fock_success_probs(n, m, pairs, u, det) for m in range(n_max + 1)]
                      for n in range(n_max + 1)])
    yields, errors = _gains_qbers(probs, basis)
    return YieldErrorTable(basis=basis, n_max=n_max, yields=yields, errors=errors)


def wcp_gains_qbers(mu_a, mu_b, basis: Basis, u: np.ndarray,
                    det: DetectorModel) -> tuple[np.ndarray, np.ndarray]:
    """Gains and error rates of weak coherent pulses over an intensity axis.

    This is the synthetic measurement record fed to the decoy estimator:
    the same averaging and error classification as the photon-number
    tables, evaluated on the analytic coherent-pulse model.  mu_a and mu_b
    are two scalars or two 1-d arrays of one length; each entry gives one
    gain and one error rate, NaN where the gain is zero.  All four bit pairs
    go through one coherent_success_probs call, and an entry does not depend
    on the batch around it.
    """
    return _gains_qbers(coherent_success_probs(mu_a, mu_b, _bit_pairs(basis), u, det), basis)


def _binom_pmf(k: int, n: int, p: float) -> float:
    return math.comb(n, k) * p ** k * (1.0 - p) ** (n - k)


def loss_adjusted_table(table: YieldErrorTable, t_alice: float, t_bob: float) -> YieldErrorTable:
    """Fold per-arm channel transmittance into a relay-side table.

    Loss on each arm acts as an independent binomial channel on the photon
    number before the relay, so the yield for (n, m) photons as sent is the
    binomial mixture of the relay yields over surviving photon numbers, and
    likewise for the error-weighted yields.
    """
    for name, t in (("t_alice", t_alice), ("t_bob", t_bob)):
        if not (0.0 <= t <= 1.0):
            raise ValueError(f"{name} must be in [0, 1], got {t}")
    size = table.n_max + 1
    w_relay = table.error_weighted()
    yields = np.zeros((size, size))
    weighted = np.zeros((size, size))
    for n in range(size):
        pa = np.array([_binom_pmf(k, n, t_alice) for k in range(n + 1)])
        for m in range(size):
            pb = np.array([_binom_pmf(l, m, t_bob) for l in range(m + 1)])
            yields[n, m] = pa @ table.yields[: n + 1, : m + 1] @ pb
            weighted[n, m] = pa @ w_relay[: n + 1, : m + 1] @ pb
    errors = np.where(yields > 0.0, np.divide(weighted, np.where(yields > 0.0, yields, 1.0)), np.nan)
    return YieldErrorTable(basis=table.basis, n_max=table.n_max, yields=yields, errors=errors)
