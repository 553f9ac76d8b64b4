"""Linear-optics model of the untrusted measurement relay.

Alice's and Bob's pulses meet on a beam splitter whose output ports are each
split by a polarizing beam splitter onto four threshold detectors.  This
module builds the 4x4 complex mode map of that network and computes
Bell-state-measurement outcome probabilities for two kinds of inputs:

* phase-randomized coherent pulses (the operational source model), averaged
  over the relative phase by one real-arithmetic kernel that is batched over
  intensities and polarization pairs: a 32-node trapezoid rule on a
  cancellation-free click probability, accurate to ~1e-15 for eta*mu <= 10
  and less accurate beyond, and
* definite photon-number inputs expanded exactly through the network, which
  act as an independent multiphoton oracle for the coherent model.  What
  the expansion needs of the photon numbers (n, m) alone is built once and
  cached, and the pairs of a call share one scatter of their amplitudes
  onto the output occupations.

Both kinds apply one click rule, _success_probs, and return P(psi-) and
P(psi+) for a sequence of polarization pairs in the same layout.  The tests
hold the rule's oracle, a table of the 16 click patterns and their outcomes.

Detectors are threshold detectors: each mode clicks independently with
probability 1 - (1-d) * P(no surviving photon), where d is the dark-click
probability per gate and the survival probability folds in the efficiency.
The no-click factor is 1 - d rounded to a double, so the dark probability
the kernels model is 1 - (1 - d), within 5.6e-17 of d.

Mode ordering is fixed: inputs (AliceH, AliceV, BobH, BobV), outputs
(D1H, D1V, D2H, D2V).  All functions are pure; values are immutable once
constructed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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


# The phase rule of every phase average, here and in hom: the trapezoid rule
# on PHASE_NODES equispaced phases of [0, 2pi), each weighted 1/PHASE_NODES.
# The integrands are periodic and entire in the phase, so the rule converges
# geometrically (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)): 32 nodes
# reach ~1e-15 for eta*mu <= 10, and the error grows beyond that.
PHASE_NODES = 32
_PHASES = _readonly(2.0 * math.pi * np.arange(PHASE_NODES) / PHASE_NODES)
_PHASE_WEIGHTS = _readonly(np.full(PHASE_NODES, 1.0 / PHASE_NODES))


def _click_probs(x: np.ndarray, keep):
    """Click and no-click probabilities (p, q) of detectors seeing mean photon number x.

    keep is the no-click factor 1 - d, a float or an array broadcasting
    against x.  A detector stays silent with probability q = keep e^{-x}
    and clicks with p = (1 - keep) + keep (1 - e^{-x}), formed with expm1 so
    that a small x keeps its relative accuracy instead of cancelling against
    1.  The dark probability is taken as 1 - keep, so that p + q = 1.
    """
    minus_x = -x
    return (1.0 - keep) - keep * np.expm1(minus_x), keep * np.exp(minus_x)


def _success_probs(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """P(psi-) and P(psi+) from per-detector click probabilities.

    p holds independent click probabilities and q = 1 - p the no-click ones,
    given separately so that each can be formed without cancellation, both
    with the detector axis (D1H, D1V, D2H, D2V) first; the result has the
    remaining axes and then the two outcomes.  A success is exactly one
    designated pair clicking with the other two detectors silent, triple and
    quadruple clicks failing: psi- = p0 q1 q2 p3 + q0 p1 p2 q3 (D1H & D2V or
    D1V & D2H) and psi+ = p0 p1 q2 q3 + q0 q1 p2 p3 (D1H & D1V or D2H & D2V).
    """
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    # Filled in place rather than stacked: most coherent-kernel calls hold
    # one intensity, and there np.stack's overhead is a visible share.
    success = np.empty(p.shape[1:] + (2,))
    success[..., 0] = p0 * q1 * q2 * p3 + q0 * p1 * p2 * q3
    success[..., 1] = p0 * p1 * q2 * q3 + q0 * q1 * p2 * p3
    return success


class _RelayCoefficients(NamedTuple):
    """The terms of the coherent kernel that depend only on U, the pairs and the detectors.

    For pair k and detector j, with a = (U a_k)_j and b = (U b_k)_j the
    output amplitudes of Alice's and Bob's unit-intensity inputs, the mean
    photon number detected at relay phase phi_n is
    mu_a * alice + mu_b * bob + sqrt(mu_a mu_b) * cross, where
    alice = eta_j |a|^2, bob = eta_j |b|^2 and
    cross = 2 eta_j Re(a conj(b) e^{-i phi_n}).  Axes are (detector,
    intensity, pair, node), with length 1 where a term does not vary.
    """

    alice: np.ndarray
    bob: np.ndarray
    cross: np.ndarray
    keep: np.ndarray  # the detectors' no-click factors 1 - d


def _relay_coefficients(pairs, u: np.ndarray, det: DetectorModel) -> _RelayCoefficients:
    """_RelayCoefficients of a sequence of (pol_a, pol_b) pairs; u is not checked here."""
    inputs = np.zeros((2, N_MODES, len(pairs)), dtype=complex)
    for k, (pol_a, pol_b) in enumerate(pairs):
        inputs[0, 0:2, k] = pol_a.jones
        inputs[1, 2:4, k] = pol_b.jones
    a, b = u @ inputs  # (detector, pair) each
    etas = det.etas[:, None]
    cross = 2.0 * etas[..., None] * (a * b.conj())[..., None] * np.exp(-1j * _PHASES)
    return _RelayCoefficients(
        alice=_readonly((etas * np.abs(a) ** 2)[:, None, :, None]),
        bob=_readonly((etas * np.abs(b) ** 2)[:, None, :, None]),
        cross=_readonly(np.ascontiguousarray(cross.real[:, None])),
        keep=_readonly(1.0 - det.darks[:, None, None, None]))


# The coherent kernel holds this many intensities' terms at a time.  It
# bounds the temporaries of a long intensity vector, such as the 1,000-entry
# grid batch of a default keyrate scan.  Two such runs in one process peaked
# at 31.6 MB RSS with chunks of 4 to 16, 32.0 MB with 32, 32.7 MB with 64 and
# 51.6 MB unchunked; chunks below 32 were no faster.
_MU_CHUNK = 32


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
    (sqrt(mu_A)*pol_A, e^{i phi} sqrt(mu_B)*pol_B).  A detector with output
    amplitude alpha sees the mean photon number x = eta |alpha|^2, which is
    formed in real arithmetic from coefficients that depend only on u, the
    pairs and the detectors.  It clicks independently with probability
    p = d + (1-d)(1 - e^{-x}), formed with expm1 so that weak light keeps its
    relative accuracy, and _success_probs forms the four success patterns.
    The result is their average over phi uniform on [0, 2pi) by the
    trapezoid rule on PHASE_NODES = 32 equispaced nodes: accurate to ~1e-15
    for eta*mu <= 10, and less accurate beyond.  Only the relative phase
    matters, so averaging over one phase is equivalent to independent
    randomization of both.
    """
    assert_unitary(u)
    return _coherent_success_probs(mu_a, mu_b, _relay_coefficients(pairs, u, det))


def _coherent_success_probs(mu_a, mu_b, coefficients: _RelayCoefficients) -> np.ndarray:
    """coherent_success_probs on coefficients of a transfer matrix checked once."""
    mus = np.array([mu_a, mu_b], dtype=float)
    if mus.ndim > 2:
        raise ValueError(f"intensities must be scalars or 1-d arrays, got shape {mus.shape[1:]}")
    mus = mus.reshape(2, -1)
    if not np.all((mus >= 0.0) & (mus < math.inf)):
        raise ValueError(f"mean photon numbers must be finite and >= 0, got {mus}")
    alice, bob, cross, keep = coefficients

    out = np.empty((mus.shape[1], alice.shape[2], 2))
    for start in range(0, mus.shape[1], _MU_CHUNK):
        chunk = slice(start, start + _MU_CHUNK)
        ma, mb = mus[:, chunk, None, None]
        # (detector, intensity, pair, node): the detector axis leads, as
        # _success_probs wants, and each entry is computed elementwise.
        x = ma * alice + mb * bob + np.sqrt(ma * mb) * cross
        # matmul over stacked axes runs one small vector-matrix product per
        # intensity and pair, so an entry does not depend on the batch around it.
        out[chunk] = np.matmul(_PHASE_WEIGHTS, _success_probs(*_click_probs(x, keep)))
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


class _FockLayout(NamedTuple):
    """The terms of the Fock expansion that depend only on (n, m).

    Alice's n photons and Bob's m photons are each placed over the four
    modes in every way (the compositions), normed by their factorial
    products.  A composition t is keyed by (t_0 * s + t_1) * s + t_2 with
    s = n + m + 1.  No entry of a sum of an Alice and a Bob composition
    reaches s, so the key of the output occupation is the sum of their keys.
    The fourth entry is fixed by the other three, so the occupations, listed
    by ascending key, are in the order of their row-major index over
    (n+m+1)^4.  The layout holds O(Ca + Cb + n_out) values; the Ca * Cb
    output keys of a call are formed from them, not cached.
    """

    alice: np.ndarray        # (Ca, 4) compositions of n
    alice_norm: np.ndarray   # (Ca,) their factorial products
    alice_keys: np.ndarray   # (Ca, 1) their keys, for broadcasting against bob_keys
    bob: np.ndarray          # (Cb, 4) compositions of m
    bob_norm: np.ndarray     # (Cb,)
    bob_keys: np.ndarray     # (Cb,)
    occupations: np.ndarray  # (n_out, 4) compositions of n + m
    norm: np.ndarray         # (n_out,) their factorial products
    keys: np.ndarray         # (n_out,) their keys, ascending
    bins: int                # s**3, the size of the key space


@lru_cache(maxsize=None)
def _fock_layout(n: int, m: int) -> _FockLayout:
    size = n + m + 1
    alice, bob, occupations = _compositions(n), _compositions(m), _compositions(n + m)

    def norms(comps: np.ndarray) -> np.ndarray:
        return _readonly(np.prod(_FACT[comps], axis=1))

    def keys(comps: np.ndarray) -> np.ndarray:
        return _readonly((comps[:, 0] * size + comps[:, 1]) * size + comps[:, 2])

    return _FockLayout(alice, norms(alice), keys(alice)[:, None], bob, norms(bob), keys(bob),
                       occupations, norms(occupations), keys(occupations), size ** 3)


# fock_success_probs scatters the terms of this many (pair, composition
# pair) products at a time, or of one pair where a pair has more.  At
# n, m <= 5 the four pairs of a basis share one scatter (4 * 56^2 = 12,544
# terms; a call peaks at 0.6 MB under tracemalloc).  At (19, 19) one pair
# has 2.4e6 terms and a call peaks at 135 MB, so pairs there go one at a time.
_FOCK_CHUNK = 1 << 14


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
    compositions, occupations and keys depend only on (n, m) and are cached
    per (n, m) in a _FockLayout.  The amplitude products of all composition
    pairs of a chunk of pairs are summed into their occupations by one
    bincount on the real parts and one on the imaginary parts, each bin in
    the order of the composition pairs.  The click rule runs once per
    occupation, and each pair's probabilities are a dot product over the
    occupations it reaches with a nonzero amplitude.  A pair's result does
    not depend on the other pairs of the call.

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
    layout = _fock_layout(int(n), int(m))

    inputs = np.zeros((2, len(pairs), N_MODES, 1), dtype=complex)
    for k, (pol_a, pol_b) in enumerate(pairs):
        inputs[0, k, 0:2, 0] = pol_a.jones
        inputs[1, k, 2:4, 0] = pol_b.jones
    # One matrix-vector product per pair and party, rounded as u @ a_in is.
    out_a, out_b = np.matmul(u, inputs)[..., 0]
    amp_a = _SQRT_FACT[n] * np.prod(out_a[:, None, :] ** layout.alice, axis=2) / layout.alice_norm
    amp_b = _SQRT_FACT[m] * np.prod(out_b[:, None, :] ** layout.bob, axis=2) / layout.bob_norm

    survival = (1.0 - det.etas)[None, :] ** layout.occupations
    p_click = 1.0 - (1.0 - det.darks)[None, :] * survival
    success = _success_probs(p_click.T, 1.0 - p_click.T)

    out = np.empty((len(pairs), 2))
    step = max(1, _FOCK_CHUNK // (amp_a.shape[1] * amp_b.shape[1]))
    for start in range(0, len(pairs), step):
        terms = amp_a[start:start + step, :, None] * amp_b[start:start + step, None, :]
        count = terms.shape[0]
        bins = (layout.alice_keys + layout.bob_keys
                + layout.bins * np.arange(count)[:, None, None]).ravel()
        acc = np.empty((count, len(layout.keys)), dtype=complex)
        for part, values in ((acc.real, terms.real), (acc.imag, terms.imag)):
            sums = np.bincount(bins, values.ravel(), count * layout.bins)
            part[...] = sums.reshape(count, layout.bins)[:, layout.keys]
        reached = acc != 0.0
        probs = np.abs(acc) ** 2 * layout.norm
        # A dot over each pair's own support: one product over every
        # occupation, or over all pairs at once, would sum in another order.
        for k in range(count):
            support = reached[k]
            out[start + k] = probs[k, support] @ success[support]
    return out
