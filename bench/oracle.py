"""Independent reference models and the output check for every benchmark op.

Each check reads the result file an op wrote, and its captured stdout, and
compares them with values recomputed here:

* coherent-pulse gains and error rates by a direct average over a uniform
  grid of relative phases (the program averages with Gauss-Legendre nodes);
* photon-number inputs by expanding the creation operators through the relay
  one photon at a time (the program expands whole compositions at once);
* single-photon-pair terms from the public `fock_yield_error`, with channel
  loss applied here as a binomial matrix;
* HOM click probabilities in closed form, with the Bessel function I0.

No check passes `--phase-nodes` or calls `phase_quadrature`, so replacing
the quadrature by an exact closed form moves nothing beyond REL_TOL.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import re
from collections import defaultdict

import numpy as np

from mdiqkd.optics import DetectorModel, NetworkConfig, build_network
from mdiqkd.protocol import Basis, fock_yield_error
from workloads import poisson_matrix

# Agreement required between a result and its reference value.  The phase
# grid below converges to machine precision for the intensities generated, so
# this tolerance leaves room only for rounding differences.
REL_TOL = 1e-9
ABS_TOL = 1e-15
PHASE_POINTS = 32

# Decoy round trip, by estimation_n_max: bounds on the relative error of the
# estimated Y11 and the absolute error of the estimated e11.  Truncating the
# photon-number sum biases the estimate when the statistics hold every photon
# number (the `model` route), so these bound that bias, not rounding.  They
# are about three times the largest bias at the corners of the generated
# ranges (n_max 3: 3.5e-2 and 2.6e-2; 4: 2.3e-3 and 8.0e-3; 5: 1.1e-4 and
# 1.4e-4).
DECOY_Y11_REL_BOUND = {3: 0.1, 4: 0.01, 5: 5e-4}
DECOY_E11_ABS_BOUND = {3: 0.08, 4: 0.025, 5: 5e-4}

# HOM: the normalized coincidence of phase-randomized coherent pulses lies in
# [1/2, 1] at every delay.
HOM_C_RANGE = (0.5, 1.0)

ATTENUATION_DB_PER_KM = 0.2
EC_INEFFICIENCY = 1.16
OPT_GRID = np.geomspace(0.005, 1.0, 40)
CUTOFF_MARGIN_KM = 0.5

_H = math.sqrt(0.5)
JONES = {"H": (1.0, 0.0), "V": (0.0, 1.0), "D": (_H, _H), "A": (_H, -_H)}
POL_ORDER = "HVDA"
BASIS_POLS = {"rect": "HV", "diag": "DA"}

# Click patterns over the detectors (D1H, D1V, D2H, D2V) and the outcome each
# announces: column 0 psi-minus, 1 psi-plus, 2 failure.
_PATTERNS = np.array(list(itertools.product((0, 1), repeat=4)), dtype=bool)
_PSI_MINUS = {(1, 0, 0, 1), (0, 1, 1, 0)}
_PSI_PLUS = {(1, 1, 0, 0), (0, 0, 1, 1)}
_OUTCOME = np.zeros((16, 3))
for _row, _pattern in enumerate(_PATTERNS):
    _key = tuple(int(b) for b in _pattern)
    _OUTCOME[_row, 0 if _key in _PSI_MINUS else 1 if _key in _PSI_PLUS else 2] = 1.0


class OutputMismatch(Exception):
    """An op's output disagrees with its reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise OutputMismatch(message)


def require_close(name: str, got, want, rel: float = REL_TOL, abs_: float = ABS_TOL) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    both_nan = np.isnan(got) & np.isnan(want)
    ok = both_nan | (np.abs(got - want) <= abs_ + rel * np.abs(want))
    if not np.all(ok):
        worst = int(np.argmax(np.where(ok, 0.0, np.abs(got - want))))
        got, want = np.broadcast_arrays(got, want)
        raise OutputMismatch(f"{name} [{worst}]: got {float(got.flat[worst])!r}, "
                             f"reference {float(want.flat[worst])!r}")


# -- relay model ----------------------------------------------------------


def transfer_matrix(misalignment: float) -> np.ndarray:
    return build_network(NetworkConfig.from_misalignment(misalignment))


def _outcomes(p_click: np.ndarray) -> np.ndarray:
    p = p_click[..., None, :]
    return np.where(_PATTERNS, p, 1.0 - p).prod(axis=-1) @ _OUTCOME


def coherent_probs(u, eta, dark, pol_a, pol_b, mu_a, mu_b) -> np.ndarray:
    """Outcome probabilities (psi-, psi+, fail); mu_a and mu_b broadcast."""
    a = u[:, :2] @ np.array(JONES[pol_a], dtype=complex)
    b = u[:, 2:] @ np.array(JONES[pol_b], dtype=complex)
    phase = np.exp(2j * np.pi * np.arange(PHASE_POINTS) / PHASE_POINTS)
    amp_a = np.sqrt(np.asarray(mu_a, dtype=float))[..., None, None] * a
    amp_b = np.sqrt(np.asarray(mu_b, dtype=float))[..., None, None] * b
    field = amp_a + phase[:, None] * amp_b
    p_click = 1.0 - (1.0 - dark) * np.exp(-eta * np.abs(field) ** 2)
    return _outcomes(p_click).mean(axis=-2)


def gain_qber(u, eta, dark, basis: str, mu_a, mu_b) -> tuple[np.ndarray, np.ndarray]:
    """Gain and error rate averaged over the four equiprobable bit pairs."""
    success = 0.0
    errors = 0.0
    for pol_a, pol_b in itertools.product(BASIS_POLS[basis], repeat=2):
        p = coherent_probs(u, eta, dark, pol_a, pol_b, mu_a, mu_b)
        same = pol_a == pol_b
        success = success + p[..., 0] + p[..., 1]
        if basis == "rect":
            errors = errors + (p[..., 0] + p[..., 1] if same else 0.0)
        else:
            errors = errors + (p[..., 0] if same else p[..., 1])
    gain = np.asarray(success / 4.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        qber = np.where(gain > 0.0, errors / 4.0 / np.where(gain > 0.0, gain, 1.0), np.nan)
    return gain, qber


def fock_probs(u, eta, dark, n: int, pol_a: str, m: int, pol_b: str) -> np.ndarray:
    """Outcome probabilities for n photons from Alice and m from Bob."""
    cols = ([u[:, :2] @ np.array(JONES[pol_a], dtype=complex)] * n
            + [u[:, 2:] @ np.array(JONES[pol_b], dtype=complex)] * m)
    state = {(0, 0, 0, 0): 1.0 + 0j}
    for col in cols:
        grown: dict[tuple, complex] = defaultdict(complex)
        for occ, coeff in state.items():
            for k in range(4):
                if col[k] != 0:
                    nxt = list(occ)
                    nxt[k] += 1
                    grown[tuple(nxt)] += coeff * col[k]
        state = grown
    norm = math.factorial(n) * math.factorial(m)
    occupations = np.array(list(state), dtype=float)
    weights = np.array([abs(c) ** 2 * math.prod(math.factorial(o) for o in occ) / norm
                        for occ, c in state.items()])
    p_click = 1.0 - (1.0 - dark) * (1.0 - eta) ** occupations
    return weights @ _outcomes(p_click)


@functools.lru_cache(maxsize=None)
def relay_table(eta: float, dark: float, misalignment: float, basis: str,
                n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Relay-side yields Y[n, m] and error-weighted yields Y*e, from fock_yield_error."""
    u = transfer_matrix(misalignment)
    det = DetectorModel(efficiency=eta, dark_prob=dark)
    yields = np.zeros((n_max + 1, n_max + 1))
    weighted = np.zeros_like(yields)
    for n, m in itertools.product(range(n_max + 1), repeat=2):
        y, e = fock_yield_error(n, m, Basis(basis), u, det)
        yields[n, m] = y
        weighted[n, m] = 0.0 if e is None else y * e
    return yields, weighted


def _binomial(n_max: int, t) -> np.ndarray:
    """B[..., n, k]: probability that k of n photons survive transmittance t."""
    t = np.asarray(t, dtype=float)[..., None, None]
    n = np.arange(n_max + 1)[:, None]
    k = np.arange(n_max + 1)[None, :]
    comb = np.array([[math.comb(i, j) for j in range(n_max + 1)] for i in range(n_max + 1)])
    with np.errstate(invalid="ignore"):
        b = comb * t ** k * (1.0 - t) ** np.maximum(n - k, 0)
    return np.where(k <= n, b, 0.0)


def sent_table(eta, dark, misalignment, basis, n_max, t_a, t_b):
    """Yields and error rates for photons as sent, through lossy arms; t broadcasts."""
    yields, weighted = relay_table(eta, dark, misalignment, basis, n_max)
    b_a, b_b = _binomial(n_max, t_a), _binomial(n_max, t_b)
    y = b_a @ yields @ np.swapaxes(b_b, -1, -2)
    w = b_a @ weighted @ np.swapaxes(b_b, -1, -2)
    with np.errstate(invalid="ignore", divide="ignore"):
        e = np.where(y > 0.0, w / np.where(y > 0.0, y, 1.0), np.nan)
    return y, e


def entropy(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        h = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
    return np.where((x <= 0.0) | (x >= 1.0), 0.0, h)


def arm_fraction(params: dict) -> float:
    placement = params["placement"]
    if placement == "midpoint":
        return 0.5
    if placement == "at-alice":
        return 0.0
    return params["arm_a"] / (params["arm_a"] + params["arm_b"])


def transmittances(distance_km: float, fraction: float) -> tuple[float, float]:
    la, lb = fraction * distance_km, (1.0 - fraction) * distance_km
    return (10.0 ** (-ATTENUATION_DB_PER_KM * la / 10.0),
            10.0 ** (-ATTENUATION_DB_PER_KM * lb / 10.0))


class RateModel:
    """The key-rate bound for one op's device parameters and relay placement."""

    def __init__(self, params: dict):
        self.eta, self.dark = params["efficiency"], params["dark"]
        self.misalignment = params["misalignment"]
        self.u = transfer_matrix(self.misalignment)
        self.fraction = arm_fraction(params)

    def terms(self, distance_km, mu_a, mu_b):
        """(q11, e11, gain, qber, raw rate); distance and mu broadcast together."""
        t_a, t_b = transmittances(np.asarray(distance_km, dtype=float), self.fraction)
        y_rect, _ = sent_table(self.eta, self.dark, self.misalignment, "rect", 1, t_a, t_b)
        _, e_diag = sent_table(self.eta, self.dark, self.misalignment, "diag", 1, t_a, t_b)
        mu_a, mu_b = np.asarray(mu_a, dtype=float), np.asarray(mu_b, dtype=float)
        q11 = mu_a * mu_b * np.exp(-(mu_a + mu_b)) * y_rect[..., 1, 1]
        e11 = e_diag[..., 1, 1]
        gain, qber = gain_qber(self.u, self.eta, self.dark, "rect", t_a * mu_a, t_b * mu_b)
        raw = q11 * (1.0 - entropy(np.nan_to_num(e11))) - gain * EC_INEFFICIENCY * entropy(
            np.nan_to_num(qber))
        return q11, e11, gain, qber, raw

    def best_grid_rate(self, distance_km: float) -> float:
        *_, raw = self.terms(distance_km, OPT_GRID, OPT_GRID)
        return float(np.maximum(raw, 0.0).max())


# -- reading results --------------------------------------------------------


def _csv_rows(text: str) -> list[dict[str, str]]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return list(csv.DictReader(lines))


def _float(text) -> float:
    return math.nan if text is None else float(text)


def _stdout_value(stdout: str, key: str) -> str:
    match = re.search(rf"^{re.escape(key)} = (\S+)", stdout, re.MULTILINE)
    require(match is not None, f"stdout lacks '{key} = ...'")
    return match.group(1)


# -- per-op checks ----------------------------------------------------------


def check_keyrate(params: dict, text: str, stdout: str) -> None:
    model = RateModel(params)
    fixed = params.get("fixed_mu")
    rows = _csv_rows(text)
    require(len(rows) == len(params["distances"]), f"expected {len(params['distances'])} rows")
    cutoff = float(_stdout_value(stdout, "cutoff_km"))
    columns = {k: np.array([_float(r[k]) for r in rows]) for k in rows[0]}
    d, mu_a, mu_b = columns["distance_km"], columns["mu_a"], columns["mu_b"]
    q11, e11, gain, qber = (columns[k] for k in ("q11_rect", "e11_diag", "q_rect", "e_rect"))
    raw, rates = columns["key_rate_raw"], columns["key_rate"]
    require_close("distance_km", d, params["distances"])
    if fixed is not None:
        require_close("mu_a", mu_a, fixed[0])
        require_close("mu_b", mu_b, fixed[1])
    want = model.terms(d, mu_a, mu_b)
    require_close("q11_rect", q11, want[0])
    require_close("e11_diag", e11, want[1])
    require_close("q_rect", gain, want[2])
    require_close("e_rect", qber, want[3])
    scale = np.abs(q11) + EC_INEFFICIENCY * gain
    own_raw = (q11 * (1.0 - entropy(np.nan_to_num(e11)))
               - gain * EC_INEFFICIENCY * entropy(np.nan_to_num(qber)))
    require_close("key_rate_raw from its row", raw, own_raw, rel=0.0, abs_=1e-12 * scale)
    require_close("key_rate_raw", raw, want[4], rel=0.0, abs_=REL_TOL * scale)
    require(bool(np.all(rates == np.maximum(raw, 0.0))), "key_rate != max(key_rate_raw, 0)")
    for distance, rate in zip(d, rates):
        where = f"row {distance:g} km"
        if fixed is None:
            best = model.best_grid_rate(distance)
            require(rate >= best * (1.0 - REL_TOL),
                    f"{where}: optimized rate {rate!r} below the grid's best {best!r}")
        if distance < cutoff - CUTOFF_MARGIN_KM:
            require(rate > 0.0, f"{where}: zero rate inside the cutoff {cutoff} km")
        elif distance > cutoff + CUTOFF_MARGIN_KM:
            require(rate == 0.0, f"{where}: positive rate beyond the cutoff {cutoff} km")
    at40 = float(_stdout_value(stdout, "rate_at_40db_loss"))
    d40 = 40.0 / ATTENUATION_DB_PER_KM
    if fixed is None:
        floor = model.best_grid_rate(d40)
    else:
        floor = max(float(model.terms(d40, *fixed)[4]), 0.0)
    # Printed with seven significant digits.
    require(at40 >= 0.0 and at40 >= floor * (1.0 - 1e-6),
            f"rate_at_40db_loss {at40!r} below the reference {floor!r}")


def check_bsm(params: dict, text: str, stdout: str) -> None:
    u = transfer_matrix(params["misalignment"])
    eta, dark = params["efficiency"], params["dark"]
    rows = _csv_rows(text)
    pairs = [(r["pol_a"], r["pol_b"]) for r in rows]
    require(pairs == list(itertools.product(POL_ORDER, repeat=2)), "rows must cover all 16 pairs")
    for row in rows:
        pa, pb = row["pol_a"], row["pol_b"]
        got = [float(row[k]) for k in ("p_psi_minus", "p_psi_plus", "p_fail")]
        require_close(f"{pa}{pb} row sum", sum(got), 1.0, rel=0.0, abs_=1e-12)
        if params["input"] == "fock":
            want = fock_probs(u, eta, dark, params["photons_a"], pa, params["photons_b"], pb)
        else:
            want = coherent_probs(u, eta, dark, pa, pb, params["mu_a"], params["mu_b"])
        require_close(f"{pa}{pb} outcome probabilities", got, want, abs_=1e-14)


def hom_reference(tau_ps, params: dict):
    sigma = params["fwhm_ps"] / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    overlap = params["ceiling"] * np.exp(-np.asarray(tau_ps) ** 2 / (8.0 * sigma ** 2))
    x = params["efficiency"] * params["mu"]
    keep = 1.0 - params["dark"]
    silent = keep * math.exp(-x) * np.i0(x * overlap)
    p1 = 1.0 - silent
    pc = 1.0 - 2.0 * silent + keep ** 2 * math.exp(-2.0 * x)
    return p1, pc, pc / (p1 * p1)


def check_hom(params: dict, text: str, stdout: str) -> None:
    rows = _csv_rows(text)
    delays = np.array([float(r["delay_ps"]) for r in rows])
    require_close("delays", delays, params["delays"])
    p1, pc, c = hom_reference(delays, params)
    for key, want in (("p1", p1), ("p2", p1), ("pc", pc), ("c_norm", c)):
        require_close(key, [float(r[key]) for r in rows], want)
    got_c = np.array([float(r["c_norm"]) for r in rows])
    lo, hi = HOM_C_RANGE
    require(bool(np.all((got_c >= lo - REL_TOL) & (got_c <= hi + REL_TOL))),
            f"normalized coincidence outside [{lo}, {hi}]")
    require_close("dip_c0", float(_stdout_value(stdout, "dip_c0")),
                  hom_reference(0.0, params)[2], rel=1e-5)


def _table(entries: dict) -> tuple[np.ndarray, np.ndarray]:
    return (np.array(entries["yields"], dtype=float),
            np.array([[_float(v) for v in row] for row in entries["errors"]]))


def check_decoy(params: dict, text: str, stdout: str) -> None:
    data = json.loads(text)
    n_max = params["n_max"]
    t_a, t_b = transmittances(params["distance_km"], 0.5)
    for basis in ("rect", "diag"):
        entry = data["bases"][basis]
        y_true, e_true = _table(entry["true"])
        y_est, e_est = _table(entry["estimated"])
        require(y_est.shape == y_true.shape, f"{basis}: estimated table has the wrong shape")
        want_y, want_e = sent_table(params["efficiency"], params["dark"],
                                    params["misalignment"], basis, n_max, t_a, t_b)
        require_close(f"{basis} true yields", y_true, want_y)
        require_close(f"{basis} true errors", e_true, want_e)
        require_close(f"{basis} max_abs_error_yields",
                      entry["metrics"]["max_abs_error_yields"],
                      np.abs(y_est - y_true).max(), rel=1e-12)
    summary = data["summary"]
    y11_true, y11_est = summary["y11_rect_true"], summary["y11_rect_estimated"]
    require(abs(y11_est - y11_true) <= DECOY_Y11_REL_BOUND[n_max] * y11_true,
            f"Y11 round trip off by {abs(y11_est - y11_true) / y11_true:.3g} (relative)")
    e11_true, e11_est = summary["e11_diag_true"], summary["e11_diag_estimated"]
    require(e11_true is not None and e11_est is not None
            and abs(e11_est - e11_true) <= DECOY_E11_ABS_BOUND[n_max],
            f"e11 round trip: true {e11_true}, estimated {e11_est}")
    mu_a, mu_b = summary["q11_mu_a"], summary["q11_mu_b"]
    require_close("q11_rect", summary["q11_rect"],
                  mu_a * mu_b * math.exp(-(mu_a + mu_b)) * y11_est, rel=1e-12)


def check_decoy_observed(params: dict, text: str, stdout: str) -> None:
    data = json.loads(text)
    y_est, e_est = _table(data["estimated"])
    y_true = np.array(params["yields"])
    e_true = np.array(params["errors"])
    require(y_est.shape == y_true.shape, "estimated table has the wrong shape")
    # The statistics are exact; the two inversion stages amplify rounding by at
    # most the product of their design matrices' condition numbers.
    n_max = y_true.shape[0] - 1
    tol = np.finfo(float).eps * math.prod(
        np.linalg.cond(poisson_matrix(params[g], n_max)) for g in ("grid_a", "grid_b"))
    require_close("estimated yields", y_est, y_true, rel=0.0, abs_=tol)
    # e = (Y e) / Y loses accuracy where Y is tiny; compare the products.
    require_close("estimated Y*e", np.nan_to_num(y_est * e_est), y_true * e_true,
                  rel=0.0, abs_=tol)
    require(data["diagnostics"]["clamp_events"] == 0, "clamp events on exact statistics")


CHECKS = {
    "keyrate": check_keyrate,
    "bsm": check_bsm,
    "hom": check_hom,
    "decoy": check_decoy,
    "decoy_observed": check_decoy_observed,
}
