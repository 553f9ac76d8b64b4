"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and diagnostics.  Criterion 4 documents a known model-level failure;
its test carries the full analysis in the failure message.
"""

import math
import time

import numpy as np

from mdiqkd.decoy import (
    IntensityGrid,
    estimate_table,
    observed_from_table,
    poisson_weights,
    q11,
)
from mdiqkd.hom import HomParams, coincidence_point, hom_scan
from mdiqkd.keyrate import (
    SystemModel,
    binary_entropy,
    distance_scan,
    find_cutoff,
    key_rate,
)
from mdiqkd.optics import (
    BsmOutcome,
    DetectorModel,
    NetworkConfig,
    build_network,
    coherent_success_probs,
    fock_success_probs,
)
from mdiqkd.protocol import (
    BASIS_STATES,
    Basis,
    build_yield_error_table,
    fock_yield_error,
    sift,
)

REF_NET = NetworkConfig.from_misalignment(0.015)
REF_DET = DetectorModel(efficiency=0.145, dark_prob=6.02e-6)
REF_SYSTEM = SystemModel(network=REF_NET, detector=REF_DET)
U_REF = build_network(REF_NET)
IDEAL = build_network(NetworkConfig())
DET0 = DetectorModel()


def report(number, label, ok, details):
    print(f"ACCEPTANCE {number} ({label}): {'PASS' if ok else 'FAIL'} - {details}")


def test_criterion_1_ideal_zero_errors():
    t0 = time.perf_counter()
    worst = 0.0
    for det in (DET0, DetectorModel(efficiency=0.145)):
        rect = build_yield_error_table(Basis.RECT, IDEAL, det, 3)
        defined = rect.error_defined
        if defined.any():
            worst = max(worst, float(np.abs(rect.errors[defined]).max()))
        _, e11_diag = fock_yield_error(1, 1, Basis.DIAG, IDEAL, det)
        worst = max(worst, abs(e11_diag))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 10.0
    report(1, "ideal-device zero-error invariants", ok,
           f"max |e| = {worst:.2e} over rect n,m<=3 and diag (1,1); {elapsed:.1f}s")
    assert worst < 1e-12
    assert elapsed < 10.0


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    n_top = 8
    mus = (0.05, 0.1, 0.2)
    pairs = [(pa, pb) for basis in Basis
             for pa in BASIS_STATES[basis] for pb in BASIS_STATES[basis]]
    mus_a, mus_b = np.repeat(mus, len(mus)), np.tile(mus, len(mus))
    worst = 0.0
    for net in (NetworkConfig(), REF_NET):
        u = build_network(net)
        # (psi-, psi+) of every photon-number pair and polarization pair,
        # then the failure probability 1 - psi- - psi+ as a third outcome.
        fock = np.array([[fock_success_probs(n, m, pairs, u, REF_DET)
                          for m in range(n_top + 1)] for n in range(n_top + 1)])
        fock = np.concatenate([fock, 1.0 - fock.sum(axis=-1, keepdims=True)], axis=-1)
        coh = coherent_success_probs(mus_a, mus_b, pairs, u, REF_DET)
        coh = np.concatenate([coh, 1.0 - coh.sum(axis=-1, keepdims=True)], axis=-1)
        for mu_a, mu_b, coh_entry in zip(mus_a, mus_b, coh):
            wa, wb = poisson_weights(mu_a, n_top), poisson_weights(mu_b, n_top)
            mix = np.einsum("n,m,nmko->ko", wa, wb, fock)
            worst = max(worst, float(np.abs(mix - coh_entry).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 120.0
    report(2, "coherent model vs photon-number oracle", ok,
           f"max |diff| = {worst:.2e} over {len(pairs)} pairs x 9 intensity combos "
           f"x 2 networks; {elapsed:.1f}s")
    assert worst < 1e-6
    assert elapsed < 120.0


def test_criterion_3_rate_curve_reproduction():
    t0 = time.perf_counter()
    distances = [12.5 * i for i in range(25)]  # 0..300 km
    points = distance_scan(REF_SYSTEM, distances)
    elapsed = time.perf_counter() - t0
    at_200 = next(p for p in points if p.distance_km == 200.0)
    zeros = [p.distance_km for p in points if p.key_rate == 0.0]
    clamped = [p.key_rate for p in points]
    shape_ok = all(b <= a + 1e-15 for a, b in zip(clamped, clamped[1:]))
    ok = at_200.key_rate > 0.0 and bool(zeros) and min(zeros) < 300.0 and shape_ok \
        and elapsed < 300.0
    report(3, "rate positive at 40 dB, cutoff below 300 km", ok,
           f"R(200 km) = {at_200.key_rate:.3e}, first zero at {min(zeros) if zeros else None} km, "
           f"non-increasing = {shape_ok}; {elapsed:.1f}s for 25 points")
    assert at_200.key_rate > 0.0
    assert zeros and min(zeros) < 300.0
    assert shape_ok
    assert elapsed < 300.0


def test_criterion_4_distance_doubling():
    cut_mid = find_cutoff(REF_SYSTEM, 0.5)  # relay at the midpoint
    cut_alice = find_cutoff(REF_SYSTEM, 0.0)  # relay at Alice
    ratio = cut_mid / cut_alice
    ok = 1.8 <= ratio <= 2.2
    report(4, "midpoint-vs-at-alice cutoff ratio", ok,
           f"cutoff_mid = {cut_mid:.1f} km, cutoff_at_alice = {cut_alice:.1f} km, "
           f"ratio = {ratio:.3f}, band [1.8, 2.2]")
    assert 1.8 <= ratio <= 2.2, (
        f"ratio {ratio:.3f} outside [1.8, 2.2]: with the relay at Alice's side her "
        f"unattenuated pulse meets the relay's misalignment rotations, whose "
        f"polarization leakage produces distance-independent false successes; "
        f"under equal-intensity optimization that floors the at-alice cutoff at "
        f"{cut_alice:.0f} km, so the midpoint relay ({cut_mid:.0f} km) more than "
        f"doubles the reach.  Optimizing the two intensities independently lifts "
        f"the at-alice cutoff to its dark-count limit (~117-120 km), giving a "
        f"ratio near 1.7, still outside the band: one dark-exposed arm instead "
        f"of two buys the single-sided setup a fixed ~15 km.  The band is "
        f"unattainable for this model family at the pinned parameters."
    )


def test_criterion_5_decoy_round_trip():
    t0 = time.perf_counter()
    grid = IntensityGrid()
    results = {}
    for label, u, det in (("reference", U_REF, REF_DET), ("ideal", IDEAL, DET0)):
        rect = build_yield_error_table(Basis.RECT, u, det, 4)
        diag = build_yield_error_table(Basis.DIAG, u, det, 4)
        est_rect = estimate_table(observed_from_table(rect, grid), n_max=4)
        est_diag = estimate_table(observed_from_table(diag, grid), n_max=4)
        y11_true = float(rect.yields[1, 1])
        y11_est = float(est_rect.table.yields[1, 1])
        y11_rel = abs(y11_est - y11_true) / y11_true
        e11_true = float(diag.errors[1, 1])
        e11_est = float(est_diag.table.errors[1, 1])
        e11_err = (abs(e11_est - e11_true) / e11_true if e11_true > 0
                   else abs(e11_est))
        # closing identity: the estimator's Y11 and the gain formula agree
        mu_a, mu_b = 0.1, 0.1
        lhs = q11(mu_a, mu_b, y11_est)
        rhs = mu_a * mu_b * math.exp(-(mu_a + mu_b)) * y11_est
        results[label] = (y11_rel, e11_err, abs(lhs - rhs))
    elapsed = time.perf_counter() - t0
    worst_y = max(v[0] for v in results.values())
    worst_e = max(v[1] for v in results.values())
    worst_q = max(v[2] for v in results.values())
    ok = worst_y < 1e-6 and worst_e < 1e-6 and worst_q <= 1e-12 and elapsed < 30.0
    report(5, "decoy estimation round trip", ok,
           f"Y11 rel err = {worst_y:.2e}, e11_diag err = {worst_e:.2e}, "
           f"gain identity |diff| = {worst_q:.1e}; {elapsed:.1f}s")
    assert worst_y < 1e-6
    assert worst_e < 1e-6
    assert worst_q <= 1e-12
    assert elapsed < 30.0


def test_criterion_6_hom_dip():
    t0 = time.perf_counter()
    dip = coincidence_point(0.0, HomParams()).c_norm
    far = coincidence_point(5 * 200.0, HomParams()).c_norm
    points = hom_scan(HomParams())
    cs = [p.c_norm for p in points]
    symmetric = cs == cs[::-1]
    right = cs[len(cs) // 2:]
    unimodal = all(b >= a - 1e-12 for a, b in zip(right, right[1:]))

    # the overlap-ceiling knob must reach the measured dip of 0.534
    def dip_at(ceiling):
        return coincidence_point(0.0, HomParams(overlap_ceiling=ceiling)).c_norm

    lo, hi = 0.9, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if dip_at(mid) > 0.534:
            lo = mid
        else:
            hi = mid
    ceiling = 0.5 * (lo + hi)
    reached = dip_at(ceiling)
    # in the weak-pulse limit C(0) = 1 - O^2/2, putting the solving ceiling
    # near 0.9654; at mu = 0.1 the exponential correction shifts it upward
    weak_anchor = coincidence_point(
        0.0, HomParams(mean_photon_number=1e-3, overlap_ceiling=0.9654)).c_norm
    elapsed = time.perf_counter() - t0
    ok = (0.50 <= dip <= 0.54 and abs(far - 1.0) <= 0.01 and symmetric and unimodal
          and abs(reached - 0.534) <= 0.005 and 0.9 < ceiling < 1.0
          and abs(weak_anchor - 0.534) <= 0.005 and elapsed < 10.0)
    report(6, "two-pulse coincidence dip", ok,
           f"C(0) = {dip:.4f} in [0.50, 0.54], C(5 FWHM) = {far:.4f}, "
           f"symmetric = {symmetric}, unimodal = {unimodal}, ceiling {ceiling:.4f} "
           f"reaches C = {reached:.4f} (weak-pulse ceiling 0.9654 gives "
           f"{weak_anchor:.4f}); {elapsed:.1f}s")
    assert 0.50 <= dip <= 0.54
    assert abs(far - 1.0) <= 0.01
    assert symmetric and unimodal
    assert 0.9 < ceiling < 1.0 and abs(reached - 0.534) <= 0.005
    assert abs(weak_anchor - 0.534) <= 0.005
    assert elapsed < 10.0


def test_criterion_7_rate_formula_identities():
    identity = key_rate(0.0123, 0.0, 0.02, 0.0).raw == 0.0123

    def reference_entropy(x):
        if x in (0.0, 1.0):
            return 0.0
        return (-x * math.log(x) - (1 - x) * math.log(1 - x)) / math.log(2)

    q11_v, e11, q, e, f = 0.01, 0.02, 0.012, 0.015, 1.16
    dual = abs(key_rate(q11_v, e11, q, e, f).raw
               - (q11_v * (1 - reference_entropy(e11)) - q * f * reference_entropy(e)))
    entropy_ok = binary_entropy(0.0) == 0.0 and binary_entropy(0.5) == 1.0
    ok = identity and dual <= 1e-12 and entropy_ok
    report(7, "rate formula identities", ok,
           f"R(e=0) = Q11 exact = {identity}, dual-path |diff| = {dual:.1e}, "
           f"H(0) = 0 and H(1/2) = 1 = {entropy_ok}")
    assert identity
    assert dual <= 1e-12
    assert entropy_ok


def test_criterion_8_sifting_end_to_end():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260810)
    dist = {}
    for basis in Basis:
        for pa in BASIS_STATES[basis]:
            for pb in BASIS_STATES[basis]:
                dist[(basis, pa, pb)] = tuple(
                    fock_success_probs(1, 1, ((pa, pb),), IDEAL, DET0)[0])
    kept = {Basis.RECT: ([], []), Basis.DIAG: ([], [])}
    total = 0
    while total < 10_000:
        n = 4096
        basis_a = rng.integers(0, 2, n)
        basis_b = rng.integers(0, 2, n)
        bits_a = rng.integers(0, 2, n)
        bits_b = rng.integers(0, 2, n)
        draws = rng.random(n)
        for i in range(n):
            if total >= 10_000:
                break
            ba = Basis.RECT if basis_a[i] == 0 else Basis.DIAG
            bb = Basis.RECT if basis_b[i] == 0 else Basis.DIAG
            if ba is bb:
                pa = BASIS_STATES[ba][bits_a[i]]
                pb = BASIS_STATES[ba][bits_b[i]]
                pm, pp = dist[(ba, pa, pb)]
                outcome = (BsmOutcome.PSI_MINUS if draws[i] < pm
                           else BsmOutcome.PSI_PLUS if draws[i] < pm + pp
                           else BsmOutcome.FAIL)
            else:
                outcome = BsmOutcome.FAIL
            decision = sift(ba, bb, outcome)
            if decision.keep:
                kept[ba][0].append(int(bits_a[i]))
                kept[ba][1].append(int(bits_b[i]) ^ int(decision.flip_bob))
                total += 1
    identical = all(alice == bob for alice, bob in kept.values())
    counts = {basis.value: len(alice) for basis, (alice, _) in kept.items()}
    elapsed = time.perf_counter() - t0
    ok = identical and total == 10_000 and all(c > 1000 for c in counts.values())
    report(8, "noiseless sifted keys bit-identical", ok,
           f"{total} sifted rounds ({counts}), keys identical = {identical}; "
           f"{elapsed:.1f}s")
    assert identical
    assert all(c > 1000 for c in counts.values())
