"""Linear-optics model of the untrusted measurement relay.

Alice's and Bob's pulses meet on a beam splitter whose output ports are each
split by a polarizing beam splitter onto four threshold detectors.  This
module builds the 4x4 complex mode map of that network and computes
Bell-state-measurement outcome probabilities for two kinds of inputs:

* phase-randomized coherent pulses (the operational source model), averaged
  over the relative phase with Gauss-Legendre quadrature by one kernel that
  is batched over intensities and polarization pairs, and
* definite photon-number inputs expanded exactly through the network, which
  act as an independent multiphoton oracle for the coherent model.

Both kinds apply one click rule, _success_probs, and return P(psi-) and
P(psi+) for a sequence of polarization pairs in the same layout.

Detectors are threshold detectors: each mode clicks independently with
probability 1 - (1-d) * P(no surviving photon), where d is the dark-click
probability per gate and the survival probability folds in the efficiency.

Mode ordering is fixed: inputs (AliceH, AliceV, BobH, BobV), outputs
(D1H, D1V, D2H, D2V).  All functions are pure; values are immutable once
constructed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

N_MODES = 4

_SQRT_HALF = 1.0 / math.sqrt(2.0)


class Polarization(enum.Enum):
    H = "H"
    V = "V"
    D = "D"  # +45 degrees
    A = "A"  # -45 degrees

    @property
    def jones(self) -> np.ndarray:
        """Two-component (H, V) amplitude vector, unit norm, read-only."""
        return _JONES[self]


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


_JONES = {
    Polarization.H: _readonly(np.array([1.0, 0.0], dtype=complex)),
    Polarization.V: _readonly(np.array([0.0, 1.0], dtype=complex)),
    Polarization.D: _readonly(np.array([_SQRT_HALF, _SQRT_HALF], dtype=complex)),
    Polarization.A: _readonly(np.array([_SQRT_HALF, -_SQRT_HALF], dtype=complex)),
}


class BsmOutcome(enum.Enum):
    PSI_MINUS = "psi_minus"
    PSI_PLUS = "psi_plus"
    FAIL = "fail"


# A successful outcome requires precisely the designated detector pair to
# click and the other two to stay silent; any other pattern (including
# triple/quadruple clicks from dark counts) is a failure.
_PSI_MINUS_PATTERNS = frozenset({
    (True, False, False, True),   # D1H & D2V
    (False, True, True, False),   # D1V & D2H
})
_PSI_PLUS_PATTERNS = frozenset({
    (True, True, False, False),   # D1H & D1V
    (False, False, True, True),   # D2H & D2V
})


def classify_pattern(clicks) -> BsmOutcome:
    """Map a 4-tuple of detector clicks (D1H, D1V, D2H, D2V) to an outcome."""
    pattern = tuple(bool(c) for c in clicks)
    if len(pattern) != N_MODES:
        raise ValueError(f"expected {N_MODES} click flags, got {len(pattern)}")
    if pattern in _PSI_MINUS_PATTERNS:
        return BsmOutcome.PSI_MINUS
    if pattern in _PSI_PLUS_PATTERNS:
        return BsmOutcome.PSI_PLUS
    return BsmOutcome.FAIL


@dataclass(frozen=True)
class NetworkConfig:
    """Geometry of the relay network.

    The input rotation models misalignment on Bob's arm before the beam
    splitter; the output rotation acts on output port 1 before its
    polarizing beam splitter.  A misalignment fraction e per rotation maps
    to an angle with sin^2(angle) = e, so that a single photon picks up the
    orthogonal polarization with probability e.  from_misalignment gives
    the two rotations opposite senses: with equal senses the leakage
    amplitudes of the two rotations add coherently along the path through
    both, which triples the single-photon-pair error instead of summing
    the per-rotation fractions.
    """

    input_rotation_rad: float = 0.0
    output_rotation_rad: float = 0.0

    def __post_init__(self):
        for name in ("input_rotation_rad", "output_rotation_rad"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @classmethod
    def from_misalignment(cls, total_fraction: float) -> "NetworkConfig":
        """Split a total misalignment fraction evenly over the two rotations."""
        if not (0.0 <= total_fraction <= 1.0):
            raise ValueError(f"misalignment fraction must be in [0, 1], got {total_fraction}")
        angle = math.asin(math.sqrt(total_fraction / 2.0))
        return cls(input_rotation_rad=angle, output_rotation_rad=-angle)


def _as_four(value, name: str) -> tuple[float, float, float, float]:
    if np.isscalar(value):
        out = (float(value),) * N_MODES
    else:
        out = tuple(float(v) for v in value)
        if len(out) != N_MODES:
            raise ValueError(f"{name} must be a scalar or length-{N_MODES} sequence")
    return out


@dataclass(frozen=True)
class DetectorModel:
    """Efficiency and dark-click probability of the four threshold detectors.

    Scalars apply to all detectors (the homogeneous case used throughout);
    length-4 sequences allow asymmetry studies.  Efficiency includes the
    transmittance of the relay optics.
    """

    efficiency: float | tuple = 1.0
    dark_prob: float | tuple = 0.0

    def __post_init__(self):
        eff = _as_four(self.efficiency, "efficiency")
        dark = _as_four(self.dark_prob, "dark_prob")
        for e in eff:
            if not (0.0 <= e <= 1.0):
                raise ValueError(f"efficiency must be in [0, 1], got {e}")
        for d in dark:
            if not (0.0 <= d < 1.0):
                raise ValueError(f"dark_prob must be in [0, 1), got {d}")
        object.__setattr__(self, "efficiency", eff)
        object.__setattr__(self, "dark_prob", dark)

    @property
    def etas(self) -> np.ndarray:
        return np.array(self.efficiency)

    @property
    def darks(self) -> np.ndarray:
        return np.array(self.dark_prob)


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]], dtype=complex)


def build_network(cfg: NetworkConfig) -> np.ndarray:
    """Build the 4x4 transfer matrix of the relay.

    Composition: input rotation on Bob's polarization pair, beam splitter on
    the spatial modes (identical for H and V), output rotation on port 1,
    then the polarizing beam splitters route (port, polarization) to the
    detector modes, which is the identity in the chosen ordering.
    """
    # A fixed 50:50 splitter: transmission +1/sqrt(2), Alice's reflection
    # -1/sqrt(2).  The amplitude is math.sqrt(0.5), one ulp above _SQRT_HALF.
    amp = math.sqrt(0.5)
    bs = np.array([[amp, amp], [-amp, amp]], dtype=complex)
    eye2 = np.eye(2, dtype=complex)

    rot_in = np.zeros((N_MODES, N_MODES), dtype=complex)
    rot_in[0:2, 0:2] = eye2
    rot_in[2:4, 2:4] = _rotation(cfg.input_rotation_rad)

    rot_out = np.zeros((N_MODES, N_MODES), dtype=complex)
    rot_out[0:2, 0:2] = _rotation(cfg.output_rotation_rad)
    rot_out[2:4, 2:4] = eye2

    u = rot_out @ np.kron(bs, eye2) @ rot_in
    return _readonly(u)


def unitarity_defect(u: np.ndarray) -> float:
    """Largest entrywise deviation of u @ u^dagger from the identity."""
    return float(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))))


def assert_unitary(u: np.ndarray, tol: float = 1e-10) -> None:
    if u.shape != (N_MODES, N_MODES):
        raise ValueError(f"transfer matrix must be {N_MODES}x{N_MODES}, got {u.shape}")
    defect = unitarity_defect(u)
    if defect > tol:
        raise ValueError(f"transfer matrix is not unitary (defect {defect:.3e} > {tol:.0e})")


# The phase rule of every phase average, here and in hom: Gauss-Legendre
# (phases, weights) on [0, 2pi), the weights normalized to average.  The
# integrands are entire in exp(i*phi), so 64 nodes already reach machine
# precision.
_x, _w = np.polynomial.legendre.leggauss(64)
PHASE_RULE = (_readonly(math.pi * (_x + 1.0)), _readonly(_w / 2.0))
del _x, _w
_PHASE_ROTATION = _readonly(np.exp(1j * PHASE_RULE[0]))


def _success_probs(p: np.ndarray) -> np.ndarray:
    """P(psi-) and P(psi+) from per-detector click probabilities.

    p holds independent click probabilities with the detector axis
    (D1H, D1V, D2H, D2V) first; the result has the remaining axes and then
    the two outcomes.  A success is exactly one designated pair clicking with
    the other two detectors silent, the rule of classify_pattern: with
    q = 1 - p, psi- = p0 q1 q2 p3 + q0 p1 p2 q3 and
    psi+ = p0 p1 q2 q3 + q0 q1 p2 p3.
    """
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = 1.0 - p
    # Filled in place rather than stacked: most coherent-kernel calls hold
    # one intensity, and there np.stack's overhead is a visible share.
    success = np.empty(p.shape[1:] + (2,))
    success[..., 0] = p0 * q1 * q2 * p3 + q0 * p1 * p2 * q3
    success[..., 1] = p0 * p1 * q2 * q3 + q0 * q1 * p2 * p3
    return success


# The coherent kernel holds this many intensities' amplitudes at a time.  It
# bounds the temporaries of a long intensity vector: on the default keyrate
# scan, chunks of 8 raised the peak RSS by about 0.6 MB and 40 by 1.8 MB,
# while chunks of 4 do not raise it measurably.
_MU_CHUNK = 4


def coherent_success_probs(
    mu_a,
    mu_b,
    pairs,
    u: np.ndarray,
    det: DetectorModel,
) -> np.ndarray:
    """Singlet and triplet probabilities of phase-randomized coherent pulses.

    mu_a and mu_b (Alice's and Bob's mean photon numbers) are two scalars
    or two 1-d arrays of one length M; pairs is a sequence of K
    (pol_a, pol_b) polarization pairs.  Returns an (M, K, 2) array holding
    P(psi-) and P(psi+) for every intensity and pair.

    For a fixed relative phase phi the input amplitudes are
    (sqrt(mu_A)*pol_A, e^{i phi} sqrt(mu_B)*pol_B); each detector mode with
    output amplitude alpha clicks independently with probability
    p = 1 - (1-d) exp(-eta |alpha|^2), and _success_probs forms only the
    four success patterns.  The result is averaged over phi uniform on
    [0, 2pi) by the Gauss-Legendre rule PHASE_RULE.  Only the relative phase
    matters, so averaging over one phase is equivalent to independent
    randomization of both.
    """
    assert_unitary(u)
    return _coherent_success_probs(mu_a, mu_b, pairs, u, det)


def _coherent_success_probs(mu_a, mu_b, pairs, u: np.ndarray, det: DetectorModel) -> np.ndarray:
    """coherent_success_probs on a transfer matrix its caller has checked once."""
    mus = np.array([mu_a, mu_b], dtype=float)
    if mus.ndim > 2:
        raise ValueError(f"intensities must be scalars or 1-d arrays, got shape {mus.shape[1:]}")
    mus = mus.reshape(2, -1)
    if not np.all((mus >= 0.0) & (mus < math.inf)):
        raise ValueError(f"mean photon numbers must be finite and >= 0, got {mus}")
    # Unit-intensity input amplitudes, Alice's then Bob's, for each pair.
    inputs = np.zeros((2, 1, len(pairs), N_MODES), dtype=complex)
    for k, (pol_a, pol_b) in enumerate(pairs):
        inputs[0, 0, k, 0:2] = pol_a.jones
        inputs[1, 0, k, 2:4] = pol_b.jones
    weights = PHASE_RULE[1]
    # Detector mode before quadrature node, so the inner loops run over nodes.
    darks, etas = det.darks[:, None], det.etas[:, None]

    out = np.empty((mus.shape[1], len(pairs), 2))
    for start in range(0, mus.shape[1], _MU_CHUNK):
        chunk = slice(start, start + _MU_CHUNK)
        amplitudes = np.sqrt(mus[:, chunk, None, None]) * inputs
        # matmul over stacked axes runs one small matrix-vector product per
        # intensity and pair, here and in the phase average below, so an
        # entry does not depend on the batch around it.
        a_out, b_out = np.matmul(u, amplitudes[..., None])
        intensities = np.abs(a_out + _PHASE_ROTATION * b_out) ** 2

        p = 1.0 - (1.0 - darks) * np.exp(-etas * intensities)
        # A view with the detector axis first (np.moveaxis costs more per call).
        out[chunk] = np.matmul(weights, _success_probs(p.transpose(2, 0, 1, 3)))
    return out


@lru_cache(maxsize=None)
def _compositions(total: int) -> np.ndarray:
    """All ways to place `total` photons into the four modes, as an array."""
    rows = [
        (i, j, k, total - i - j - k)
        for i in range(total + 1)
        for j in range(total - i + 1)
        for k in range(total - i - j + 1)
    ]
    return _readonly(np.array(rows, dtype=np.int64))


_MAX_FACT = 40
_FACT = _readonly(np.array([math.factorial(k) for k in range(_MAX_FACT)], dtype=float))
_SQRT_FACT = _readonly(np.sqrt(_FACT))


def fock_success_probs(
    n: int,
    m: int,
    pairs,
    u: np.ndarray,
    det: DetectorModel,
) -> np.ndarray:
    """Exact singlet and triplet probabilities for photon-number inputs.

    n photons come from Alice and m from Bob; pairs is a sequence of K
    (pol_a, pol_b) polarization pairs.  Returns a (K, 2) array holding
    P(psi-) and P(psi+) for every pair, like coherent_success_probs.

    The creation-operator monomial of the input state is expanded through
    the network, giving exact amplitudes over output occupation patterns;
    each occupation then suffers per-mode binomial loss with survival
    probability eta and threshold detection OR-ed with dark clicks.  The
    compositions of n and m photons over the four modes and their output
    occupation indices depend only on (n, m), so they are built once and
    each pair is expanded on them.

    The cost grows ~ (n+3 choose 3) * (m+3 choose 3) per pair, and n + m may
    not exceed the factorial table, _MAX_FACT - 1 photons.
    """
    if not (isinstance(n, (int, np.integer)) and isinstance(m, (int, np.integer))):
        raise ValueError("photon counts must be integers")
    if n < 0 or m < 0:
        raise ValueError("photon counts must be non-negative")
    if n + m >= _MAX_FACT:
        raise ValueError(
            f"total photon count n+m = {n + m} exceeds {_MAX_FACT - 1}, "
            f"the largest the expansion supports")
    assert_unitary(u)

    comps_a, comps_b = _compositions(n), _compositions(m)
    norm_a, norm_b = np.prod(_FACT[comps_a], axis=1), np.prod(_FACT[comps_b], axis=1)
    dims = (n + m + 1,) * N_MODES
    occ = comps_a[:, None, :] + comps_b[None, :, :]
    lin = np.ravel_multi_index(tuple(occ[..., k] for k in range(N_MODES)), dims).ravel()

    out = np.empty((len(pairs), 2))
    for k, (pol_a, pol_b) in enumerate(pairs):
        a_in = np.zeros(N_MODES, dtype=complex)
        a_in[0:2] = pol_a.jones
        b_in = np.zeros(N_MODES, dtype=complex)
        b_in[2:4] = pol_b.jones
        amp_a = _SQRT_FACT[n] * np.prod((u @ a_in)[None, :] ** comps_a, axis=1) / norm_a
        amp_b = _SQRT_FACT[m] * np.prod((u @ b_in)[None, :] ** comps_b, axis=1) / norm_b
        acc = np.zeros(math.prod(dims), dtype=complex)
        np.add.at(acc, lin, (amp_a[:, None] * amp_b[None, :]).ravel())

        support = np.flatnonzero(acc)
        occupations = np.stack(np.unravel_index(support, dims), axis=1)
        probs = np.abs(acc[support]) ** 2 * np.prod(_FACT[occupations], axis=1)
        survival = (1.0 - det.etas)[None, :] ** occupations
        p_click = 1.0 - (1.0 - det.darks)[None, :] * survival
        out[k] = probs @ _success_probs(p_click.T)
    return out
