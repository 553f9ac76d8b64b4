import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdiqkd.optics import (
    BsmOutcome,
    DetectorModel,
    NetworkConfig,
    Polarization,
    SourcePulse,
    build_network,
    _success_probs,
    classify_pattern,
    coherent_outcome_probs,
    coherent_success_probs,
    fock_outcome_probs,
    fock_success_probs,
    phase_quadrature,
    unitarity_defect,
)

IDEAL = build_network(NetworkConfig())
DET0 = DetectorModel()
REF_NET = NetworkConfig.from_misalignment(0.015)
U_REF = build_network(REF_NET)
REF_DET = DetectorModel(efficiency=0.145, dark_prob=6.02e-6)

SQ = 1.0 / math.sqrt(2.0)

ALL_PAIRS = tuple(itertools.product(Polarization, repeat=2))


def poisson_weights(mu, n_max):
    return np.array([math.exp(-mu) * mu ** n / math.factorial(n) for n in range(n_max + 1)])


class TestNetwork:
    def test_ideal_matrix(self):
        # Each input splits 1/sqrt(2) between the two same-polarization
        # detectors; Alice's reflection carries the minus sign.
        expected = np.array([
            [SQ, 0, SQ, 0],
            [0, SQ, 0, SQ],
            [-SQ, 0, SQ, 0],
            [0, -SQ, 0, SQ],
        ])
        assert np.allclose(IDEAL, expected, atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi),
        st.floats(0.0, 1.0),
        st.sampled_from(["real", "symmetric"]),
    )
    def test_unitary_for_any_config(self, theta_in, theta_out, refl, conv):
        u = build_network(NetworkConfig(theta_in, theta_out, refl, conv))
        assert unitarity_defect(u) < 1e-12

    def test_misalignment_split(self):
        # 1.5% total means 0.75% single-photon error per rotation.
        assert math.sin(REF_NET.input_rotation_rad) ** 2 == pytest.approx(0.0075, abs=1e-15)
        assert math.sin(REF_NET.output_rotation_rad) ** 2 == pytest.approx(0.0075, abs=1e-15)
        total = (math.sin(REF_NET.input_rotation_rad) ** 2
                 + math.sin(REF_NET.output_rotation_rad) ** 2)
        assert total == pytest.approx(0.015, abs=1e-15)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig(bs_reflectivity=1.5)
        with pytest.raises(ValueError):
            NetworkConfig(input_rotation_rad=math.inf)
        with pytest.raises(ValueError):
            NetworkConfig(bs_convention="lossy")


class TestClassification:
    @pytest.mark.parametrize("pattern,outcome", [
        ((True, False, False, True), BsmOutcome.PSI_MINUS),
        ((False, True, True, False), BsmOutcome.PSI_MINUS),
        ((True, True, False, False), BsmOutcome.PSI_PLUS),
        ((False, False, True, True), BsmOutcome.PSI_PLUS),
        ((False, False, False, False), BsmOutcome.FAIL),
        ((True, False, False, False), BsmOutcome.FAIL),
        ((True, False, True, False), BsmOutcome.FAIL),   # same polarization pair
        ((True, True, True, False), BsmOutcome.FAIL),    # triple click
        ((True, True, True, True), BsmOutcome.FAIL),
    ])
    def test_patterns(self, pattern, outcome):
        assert classify_pattern(pattern) is outcome

    def test_success_requires_exactly_two(self):
        # Any superset of a success pair with extra clicks must fail.
        n_success = sum(
            classify_pattern(tuple(bool((i >> k) & 1) for k in range(4))) is not BsmOutcome.FAIL
            for i in range(16))
        assert n_success == 4


PATTERNS = tuple(itertools.product((False, True), repeat=4))
OUTCOME_COLUMNS = (BsmOutcome.PSI_MINUS, BsmOutcome.PSI_PLUS, BsmOutcome.FAIL)


def sixteen_pattern_probs(p_click):
    """(psi-, psi+, fail) of independent clicks p_click (..., 4 detectors).

    Sums all 16 click patterns, each assigned its outcome by classify_pattern,
    so this reference shares nothing with the success kernels.
    """
    out = np.zeros(p_click.shape[:-1] + (3,))
    for bits in PATTERNS:
        prob = np.prod(np.where(bits, p_click, 1.0 - p_click), axis=-1)
        out[..., OUTCOME_COLUMNS.index(classify_pattern(bits))] += prob
    return out


class TestClickRule:
    def test_deterministic_clicks_give_the_pattern_indicator(self):
        # Click probabilities 0 and 1 make one pattern certain, so each
        # result is exactly the indicator of its classification.
        p = np.array(PATTERNS, dtype=float).T
        got = _success_probs(p)
        assert got.shape == (16, 2)
        for k, bits in enumerate(PATTERNS):
            outcome = classify_pattern(bits)
            assert got[k].tolist() == [float(outcome is BsmOutcome.PSI_MINUS),
                                       float(outcome is BsmOutcome.PSI_PLUS)]

    def test_random_clicks_match_sixteen_pattern_sum(self):
        p = np.random.default_rng(11).uniform(0.0, 1.0, size=(4, 3, 50))
        got = _success_probs(p)
        ref = sixteen_pattern_probs(np.moveaxis(p, 0, -1))
        assert got.shape == (3, 50, 2)
        assert np.max(np.abs(got - ref[..., :2])) <= 4e-16


class TestFockOracle:
    def test_vacuum_fails(self):
        p = fock_outcome_probs(0, Polarization.H, 0, Polarization.H, IDEAL, DET0)
        assert p[BsmOutcome.FAIL] == 1.0

    def test_orthogonal_rect_pair(self):
        # Hand expansion of the two creation operators through the splitter:
        # four equal-weight patterns, two per Bell outcome.
        p = fock_outcome_probs(1, Polarization.H, 1, Polarization.V, IDEAL, DET0)
        assert p[BsmOutcome.PSI_MINUS] == pytest.approx(0.5, abs=1e-12)
        assert p[BsmOutcome.PSI_PLUS] == pytest.approx(0.5, abs=1e-12)
        assert p[BsmOutcome.FAIL] == pytest.approx(0.0, abs=1e-12)

    def test_identical_diagonal_pair_bunches(self):
        p = fock_outcome_probs(1, Polarization.D, 1, Polarization.D, IDEAL, DET0)
        assert p[BsmOutcome.PSI_PLUS] == pytest.approx(0.5, abs=1e-12)
        assert p[BsmOutcome.PSI_MINUS] == pytest.approx(0.0, abs=1e-12)
        assert p[BsmOutcome.FAIL] == pytest.approx(0.5, abs=1e-12)

    def test_orthogonal_diagonal_pair(self):
        p = fock_outcome_probs(1, Polarization.D, 1, Polarization.A, IDEAL, DET0)
        assert p[BsmOutcome.PSI_MINUS] == pytest.approx(0.5, abs=1e-12)
        assert p[BsmOutcome.PSI_PLUS] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("pol", list(Polarization))
    def test_hom_forbids_singlet_for_identical_photons(self, pol):
        p = fock_outcome_probs(1, pol, 1, pol, IDEAL, DET0)
        assert abs(p[BsmOutcome.PSI_MINUS]) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 3), st.integers(0, 3),
        st.sampled_from(list(Polarization)), st.sampled_from(list(Polarization)),
        st.floats(0.0, 0.9), st.floats(0.0, 0.01),
        st.floats(-0.3, 0.3), st.floats(-0.3, 0.3),
    )
    def test_normalization(self, n, m, pol_a, pol_b, eta, dark, th_in, th_out):
        u = build_network(NetworkConfig(th_in, th_out))
        p = fock_outcome_probs(n, pol_a, m, pol_b, u, DetectorModel(eta, dark))
        assert sum(p.values()) == pytest.approx(1.0, abs=1e-12)

    def test_photon_guard(self):
        p = fock_outcome_probs(4, Polarization.H, 1, Polarization.V, IDEAL, DET0)
        assert sum(p.values()) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            fock_outcome_probs(-1, Polarization.H, 0, Polarization.V, IDEAL, DET0)

    def test_rejects_non_unitary(self):
        bad = np.eye(4, dtype=complex)
        bad[0, 0] = 1.1
        with pytest.raises(ValueError, match="unitary"):
            fock_outcome_probs(1, Polarization.H, 1, Polarization.V, bad, DET0)

    @pytest.mark.parametrize("n,m", [(0, 0), (1, 1), (3, 0), (2, 3)])
    def test_pairs_equal_one_pair_calls(self, n, m):
        # Expanding the pairs on shared compositions must not move a bit.
        got = fock_success_probs(n, m, ALL_PAIRS, U_REF, REF_DET)
        assert got.shape == (len(ALL_PAIRS), 2)
        for k, pair in enumerate(ALL_PAIRS):
            single = fock_success_probs(n, m, (pair,), U_REF, REF_DET)
            assert got[k].tolist() == single[0].tolist()


def _permanent(mat):
    n = mat.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        term = 1.0 + 0.0j
        for i, j in enumerate(perm):
            term *= mat[i, j]
        total += term
    return total


def permanent_oracle(n, pol_a, m, pol_b, u, det):
    """Independent multiphoton oracle based on matrix permanents.

    Each input photon contributes a column of output-mode amplitudes; the
    amplitude of an output occupation t is per(M_t)/sqrt(n! m! prod t_k!)
    with output mode k contributing t_k rows.
    """
    a_in = np.zeros(4, dtype=complex)
    a_in[0:2] = pol_a.jones
    b_in = np.zeros(4, dtype=complex)
    b_in[2:4] = pol_b.jones
    cols = [u @ a_in] * n + [u @ b_in] * m
    total = n + m
    out = {outcome: 0.0 for outcome in BsmOutcome}
    for t in itertools.product(range(total + 1), repeat=4):
        if sum(t) != total:
            continue
        rows = [k for k in range(4) for _ in range(t[k])]
        mat = np.array([[cols[j][k] for j in range(total)] for k in rows],
                       dtype=complex).reshape(total, total)
        norm = math.factorial(n) * math.factorial(m) * math.prod(
            math.factorial(tk) for tk in t)
        prob = abs(_permanent(mat)) ** 2 / norm
        if prob == 0.0:
            continue
        p_click = [1.0 - (1.0 - det.darks[k]) * (1.0 - det.etas[k]) ** t[k]
                   for k in range(4)]
        for bits in itertools.product((False, True), repeat=4):
            pattern_prob = prob
            for k, bit in enumerate(bits):
                pattern_prob *= p_click[k] if bit else 1.0 - p_click[k]
            out[classify_pattern(bits)] += pattern_prob
    return out


class TestPermanentOracle:
    @pytest.mark.parametrize("n,m", [(1, 1), (2, 0), (2, 1), (2, 2), (3, 1)])
    @pytest.mark.parametrize("pols", [
        (Polarization.H, Polarization.V),
        (Polarization.D, Polarization.D),
        (Polarization.D, Polarization.A),
        (Polarization.H, Polarization.D),
    ])
    def test_expansion_matches_permanents(self, n, m, pols):
        pol_a, pol_b = pols
        det = DetectorModel(efficiency=0.7, dark_prob=1e-4)
        expected = permanent_oracle(n, pol_a, m, pol_b, U_REF, det)
        got = fock_outcome_probs(n, pol_a, m, pol_b, U_REF, det)
        for outcome in BsmOutcome:
            assert got[outcome] == pytest.approx(expected[outcome], abs=1e-12)


class TestCoherentModel:
    def test_no_light_no_dark_fails(self):
        p = coherent_outcome_probs(SourcePulse(Polarization.H, 0.0),
                                   SourcePulse(Polarization.V, 0.0), IDEAL, DET0)
        assert p[BsmOutcome.FAIL] == pytest.approx(1.0, abs=1e-12)
        assert p[BsmOutcome.PSI_MINUS] == 0.0

    def test_identical_rect_never_succeeds_ideal(self):
        # No vertical amplitude exists anywhere, and every success pattern
        # needs a V detector.
        p = coherent_outcome_probs(SourcePulse(Polarization.H, 0.3),
                                   SourcePulse(Polarization.H, 0.2), IDEAL, DET0)
        assert p[BsmOutcome.PSI_MINUS] == pytest.approx(0.0, abs=1e-14)
        assert p[BsmOutcome.PSI_PLUS] == pytest.approx(0.0, abs=1e-14)

    def test_matches_fock_mixture(self):
        # mu = 0.1 both sides, H/V inputs, ideal devices.
        mu = 0.1
        coh = coherent_outcome_probs(SourcePulse(Polarization.H, mu),
                                     SourcePulse(Polarization.V, mu), IDEAL, DET0)
        w = poisson_weights(mu, 8)
        for outcome in BsmOutcome:
            mix = sum(
                w[n] * w[m] * fock_outcome_probs(
                    n, Polarization.H, m, Polarization.V, IDEAL, DET0)[outcome]
                for n in range(9) for m in range(9))
            assert coh[outcome] == pytest.approx(mix, abs=1e-8)

    def test_matches_fock_mixture_realistic(self):
        coh = coherent_outcome_probs(SourcePulse(Polarization.D, 0.2),
                                     SourcePulse(Polarization.A, 0.1), U_REF, REF_DET)
        wa, wb = poisson_weights(0.2, 8), poisson_weights(0.1, 8)
        for outcome in BsmOutcome:
            mix = sum(
                wa[n] * wb[m] * fock_outcome_probs(
                    n, Polarization.D, m, Polarization.A, U_REF, REF_DET)[outcome]
                for n in range(9) for m in range(9))
            assert coh[outcome] == pytest.approx(mix, abs=1e-8)

    def test_normalization(self):
        p = coherent_outcome_probs(SourcePulse(Polarization.D, 0.4),
                                   SourcePulse(Polarization.V, 0.3), U_REF, REF_DET)
        assert sum(p.values()) == pytest.approx(1.0, abs=1e-9)

    def test_phase_average_invariances(self):
        # The 64-node rule against a 128-point uniform average on a shifted
        # grid: twice the nodes and a phase offset must not move a result.
        base = coherent_outcome_probs(SourcePulse(Polarization.D, 0.2),
                                      SourcePulse(Polarization.A, 0.15), U_REF, REF_DET)
        uniform = (1.2345 + 2.0 * math.pi * np.arange(128) / 128, np.full(128, 1.0 / 128))
        ref = sixteen_pattern_reference(0.2, Polarization.D, 0.15, Polarization.A,
                                        U_REF, REF_DET, rule=uniform)
        for k, outcome in enumerate((BsmOutcome.PSI_MINUS, BsmOutcome.PSI_PLUS,
                                     BsmOutcome.FAIL)):
            assert abs(base[outcome] - ref[k]) < 1e-10

    def test_rejects_non_unitary(self):
        bad = np.eye(4, dtype=complex) * (1 + 1e-6)
        with pytest.raises(ValueError, match="unitary"):
            coherent_outcome_probs(SourcePulse(Polarization.H, 0.1),
                                   SourcePulse(Polarization.V, 0.1), bad, DET0)

    def test_convention_independence(self):
        # Physical probabilities must not depend on the beam-splitter phase
        # convention, misalignment included.
        u_sym = build_network(NetworkConfig.from_misalignment(0.015, bs_convention="symmetric"))
        for pa in Polarization:
            for pb in Polarization:
                a = coherent_outcome_probs(SourcePulse(pa, 0.2), SourcePulse(pb, 0.1),
                                           U_REF, REF_DET)
                b = coherent_outcome_probs(SourcePulse(pa, 0.2), SourcePulse(pb, 0.1),
                                           u_sym, REF_DET)
                f_a = fock_outcome_probs(2, pa, 1, pb, U_REF, REF_DET)
                f_b = fock_outcome_probs(2, pa, 1, pb, u_sym, REF_DET)
                for outcome in BsmOutcome:
                    assert a[outcome] == pytest.approx(b[outcome], abs=1e-12)
                    assert f_a[outcome] == pytest.approx(f_b[outcome], abs=1e-12)



def sixteen_pattern_reference(mu_a, pol_a, mu_b, pol_b, u, det, rule=None):
    """Phase average of all 16 click patterns, classified by classify_pattern.

    rule is a (phases, weights) pair; the default is the 64-node Gauss-Legendre rule.
    """
    a_in = np.zeros(4, dtype=complex)
    a_in[0:2] = math.sqrt(mu_a) * pol_a.jones
    b_in = np.zeros(4, dtype=complex)
    b_in[2:4] = math.sqrt(mu_b) * pol_b.jones
    phases, weights = phase_quadrature(64) if rule is None else rule
    beta = (u @ a_in)[None, :] + np.exp(1j * phases)[:, None] * (u @ b_in)[None, :]
    p_click = 1.0 - (1.0 - det.darks) * np.exp(-det.etas * np.abs(beta) ** 2)
    return weights @ sixteen_pattern_probs(p_click)


class TestCoherentSuccessKernel:
    @pytest.mark.parametrize("transmittance", [1.0, 1e-2, 1e-5])
    def test_matches_sixteen_pattern_path(self, transmittance):
        mus = transmittance * np.array([0.0, 0.005, 0.1, 0.6, 1.0])
        got = coherent_success_probs(mus, mus[::-1], ALL_PAIRS, U_REF, REF_DET)
        assert got.shape == (len(mus), len(ALL_PAIRS), 2)
        for i, (mu_a, mu_b) in enumerate(zip(mus, mus[::-1])):
            for k, (pol_a, pol_b) in enumerate(ALL_PAIRS):
                ref = sixteen_pattern_reference(mu_a, pol_a, mu_b, pol_b, U_REF, REF_DET)
                assert abs(got[i, k, 0] - ref[0]) <= 1e-15
                assert abs(got[i, k, 1] - ref[1]) <= 1e-15
                fail = coherent_outcome_probs(SourcePulse(pol_a, mu_a), SourcePulse(pol_b, mu_b),
                                              U_REF, REF_DET)[BsmOutcome.FAIL]
                assert abs(fail - ref[2]) <= 1e-15

    def test_batch_equals_single_evaluations(self):
        # 19 intensities span several chunks, the last one partial; batching
        # must not move a bit.
        rng = np.random.default_rng(7)
        mu_a, mu_b = rng.uniform(0.0, 1.0, 19), rng.uniform(0.0, 1.0, 19)
        got = coherent_success_probs(mu_a, mu_b, ALL_PAIRS, U_REF, REF_DET)
        for i in range(len(mu_a)):
            for k, pair in enumerate(ALL_PAIRS):
                single = coherent_success_probs(mu_a[i], mu_b[i], (pair,), U_REF, REF_DET)
                assert got[i, k].tolist() == single[0, 0].tolist()

    @pytest.mark.parametrize("mu_a,mu_b", [
        ([-0.1], [0.1]), ([0.1], [math.nan]), ([math.inf], [0.1]),
        ([[0.1, 0.2]], [[0.1, 0.2]]), ([0.1, 0.2], [0.1]), (0.1, [0.1, 0.2])])
    def test_rejects_bad_intensities(self, mu_a, mu_b):
        with pytest.raises(ValueError):
            coherent_success_probs(mu_a, mu_b, ALL_PAIRS, U_REF, REF_DET)

    def test_rejects_non_unitary(self):
        bad = np.eye(4, dtype=complex) * (1 + 1e-6)
        with pytest.raises(ValueError, match="unitary"):
            coherent_success_probs([0.1], [0.1], ALL_PAIRS, bad, DET0)


class TestValidation:
    def test_detector_ranges(self):
        with pytest.raises(ValueError):
            DetectorModel(efficiency=1.2)
        with pytest.raises(ValueError):
            DetectorModel(dark_prob=1.0)
        per_detector = DetectorModel(efficiency=(0.1, 0.2, 0.3, 0.4), dark_prob=1e-6)
        assert per_detector.etas.tolist() == [0.1, 0.2, 0.3, 0.4]

    def test_source_pulse(self):
        with pytest.raises(ValueError):
            SourcePulse(Polarization.H, -0.1)

    def test_quadrature_weights_average_to_one(self):
        _, w = phase_quadrature(64)
        assert w.sum() == pytest.approx(1.0, abs=1e-14)
