"""Hong-Ou-Mandel interference of two independent phase-randomized pulses.

Two weak coherent pulses with identical Gaussian temporal envelopes, one
delayed by tau, meet on a 50:50 beam splitter watched by two threshold
detectors.  The delayed pulse is decomposed into a component matched to the
other pulse's temporal mode (amplitude weight O(tau)) and an orthogonal
remainder; both propagate through the splitter and the detectors integrate
over all temporal modes.  Click probabilities are formed without
cancellation and averaged over the relative phase with the relay model's
trapezoid rule, for all delays of a scan at once.

The figure of merit is the normalized coincidence C = PC / (P1 * P2): it is
1 for distinguishable pulses and dips toward 1/2 at zero delay in the
weak-pulse limit (phase-randomized coherent light cannot dip below 1/2, in
contrast to the 0 reached by single photons).

The coincidence window is taken to be much longer than the pulses (200 ps
by default), so it is treated as fully integrating both pulses and timing
enters only through the mode overlap.  Residual experimental imperfections
(pulse-shape mismatch, jitter, frequency offset) can be lumped into an
optional overlap ceiling < 1; it is off by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UndefinedCoincidenceError
from .optics import _PHASE_WEIGHTS, _PHASES, _click_probs

DEFAULT_DELAYS = tuple(float(t) for t in range(-1000, 1001, 25))


def mode_overlap(tau_ps, fwhm_ps: float):
    """Amplitude overlap of two identical Gaussian envelopes delayed by tau.

    fwhm_ps is the full width at half maximum of the *intensity* envelope;
    the amplitude envelope is its square root, hence the standard deviation
    sigma = FWHM / (2 sqrt(2 ln 2)) and O(tau) = exp(-tau^2 / (8 sigma^2)).
    tau_ps may be an array of delays.
    """
    if fwhm_ps <= 0:
        raise ValueError("fwhm_ps must be > 0")
    sigma = fwhm_ps / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    return np.exp(-np.square(tau_ps) / (8.0 * sigma ** 2))


@dataclass(frozen=True)
class HomParams:
    """Pulse, detector and sweep settings for the interference model."""

    mean_photon_number: float = 0.1
    fwhm_ps: float = 200.0
    efficiency: float = 1.0
    dark_prob: float = 0.0
    overlap_ceiling: float = 1.0
    delays_ps: tuple[float, ...] = DEFAULT_DELAYS

    def __post_init__(self):
        if self.mean_photon_number < 0:
            raise ValueError("mean photon number must be >= 0")
        if self.fwhm_ps <= 0:
            raise ValueError("fwhm_ps must be > 0")
        if not (0.0 <= self.efficiency <= 1.0):
            raise ValueError("efficiency must be in [0, 1]")
        if not (0.0 <= self.dark_prob < 1.0):
            raise ValueError("dark_prob must be in [0, 1)")
        if not (0.0 < self.overlap_ceiling <= 1.0):
            raise ValueError("overlap ceiling must be in (0, 1]")
        if len(self.delays_ps) == 0:
            raise ValueError("delay list is empty")
        object.__setattr__(self, "delays_ps", tuple(float(t) for t in self.delays_ps))


@dataclass(frozen=True)
class HomPoint:
    delay_ps: float
    p1: float
    p2: float
    pc: float
    c_norm: float


def coincidence_point(tau_ps: float, params: HomParams) -> HomPoint:
    """Single-detector and coincidence probabilities at one delay."""
    return _coincidences((tau_ps,), params)[0]


def hom_scan(params: HomParams) -> list[HomPoint]:
    """Evaluate the coincidence curve over the configured delay list."""
    return _coincidences(params.delays_ps, params)


def _coincidences(delays_ps, params: HomParams) -> list[HomPoint]:
    """Single-detector and coincidence probabilities at each delay, as one array expression.

    For relative phase theta the detector intensities are
    mu * (1 +/- O cos(theta)) with O the (possibly ceiling-limited) mode
    overlap; thresholds and dark clicks apply per detector, and the phase
    average runs over theta uniform on [0, 2pi).

    Raises UndefinedCoincidenceError when P1 * P2 = 0 (e.g. vacuum pulses
    with no dark counts), since C is a ratio.
    """
    mu, eta, dark = params.mean_photon_number, params.efficiency, params.dark_prob
    overlap = params.overlap_ceiling * mode_overlap(np.array(delays_ps, dtype=float),
                                                    params.fwhm_ps)
    swing = overlap[:, None] * np.cos(_PHASES)  # (delay, phase node)
    p1, _ = _click_probs(eta * (mu * (1.0 + swing)), 1.0 - dark)
    p2, _ = _click_probs(eta * (mu * (1.0 - swing)), 1.0 - dark)
    p1_avg, p2_avg, pc_avg = (p1 @ _PHASE_WEIGHTS, p2 @ _PHASE_WEIGHTS,
                              (p1 * p2) @ _PHASE_WEIGHTS)
    denom = p1_avg * p2_avg
    if not np.all(denom > 0.0):
        tau_ps = delays_ps[int(np.argmin(denom > 0.0))]
        raise UndefinedCoincidenceError(
            f"normalized coincidence undefined at delay {tau_ps} ps: P1*P2 = 0 "
            f"(mu={mu}, efficiency={eta}, dark_prob={dark})")
    return [HomPoint(delay_ps=tau, p1=a, p2=b, pc=c, c_norm=c / (a * b))
            for tau, a, b, c in zip(delays_ps, p1_avg.tolist(), p2_avg.tolist(),
                                    pc_avg.tolist())]
