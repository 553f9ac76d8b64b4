import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdiqkd.optics import (
    PHASE_RULE,
    BsmOutcome,
    DetectorModel,
    NetworkConfig,
    Polarization,
    build_network,
    _success_probs,
    classify_pattern,
    coherent_success_probs,
    fock_success_probs,
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
    @given(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi))
    def test_unitary_for_any_config(self, theta_in, theta_out):
        u = build_network(NetworkConfig(theta_in, theta_out))
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
            NetworkConfig(input_rotation_rad=math.inf)
        with pytest.raises(ValueError):
            NetworkConfig.from_misalignment(1.5)


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
        psi_minus, psi_plus = fock_success_probs(
            0, 0, ((Polarization.H, Polarization.H),), IDEAL, DET0)[0]
        assert 1.0 - psi_minus - psi_plus == 1.0

    def test_orthogonal_rect_pair(self):
        # Hand expansion of the two creation operators through the splitter:
        # four equal-weight patterns, two per Bell outcome.
        psi_minus, psi_plus = fock_success_probs(
            1, 1, ((Polarization.H, Polarization.V),), IDEAL, DET0)[0]
        assert psi_minus == pytest.approx(0.5, abs=1e-12)
        assert psi_plus == pytest.approx(0.5, abs=1e-12)
        assert 1.0 - psi_minus - psi_plus == pytest.approx(0.0, abs=1e-12)

    def test_identical_diagonal_pair_bunches(self):
        psi_minus, psi_plus = fock_success_probs(
            1, 1, ((Polarization.D, Polarization.D),), IDEAL, DET0)[0]
        assert psi_plus == pytest.approx(0.5, abs=1e-12)
        assert psi_minus == pytest.approx(0.0, abs=1e-12)
        assert 1.0 - psi_minus - psi_plus == pytest.approx(0.5, abs=1e-12)

    def test_orthogonal_diagonal_pair(self):
        psi_minus, psi_plus = fock_success_probs(
            1, 1, ((Polarization.D, Polarization.A),), IDEAL, DET0)[0]
        assert psi_minus == pytest.approx(0.5, abs=1e-12)
        assert psi_plus == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("pol", list(Polarization))
    def test_hom_forbids_singlet_for_identical_photons(self, pol):
        psi_minus, _ = fock_success_probs(1, 1, ((pol, pol),), IDEAL, DET0)[0]
        assert abs(psi_minus) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 3), st.integers(0, 3),
        st.sampled_from(list(Polarization)), st.sampled_from(list(Polarization)),
        st.floats(0.0, 0.9), st.floats(0.0, 0.01),
        st.floats(-0.3, 0.3), st.floats(-0.3, 0.3),
    )
    def test_normalization(self, n, m, pol_a, pol_b, eta, dark, th_in, th_out):
        # The two successes are disjoint events, so they sum to at most 1.
        u = build_network(NetworkConfig(th_in, th_out))
        p = fock_success_probs(n, m, ((pol_a, pol_b),), u, DetectorModel(eta, dark))[0]
        assert np.all(p >= -1e-15) and p.sum() <= 1.0 + 1e-12

    def test_photon_guard(self):
        p = fock_success_probs(4, 1, ((Polarization.H, Polarization.V),), IDEAL, DET0)[0]
        assert np.all(p >= -1e-15) and p.sum() <= 1.0 + 1e-12
        with pytest.raises(ValueError):
            fock_success_probs(-1, 0, ((Polarization.H, Polarization.V),), IDEAL, DET0)

    def test_rejects_non_unitary(self):
        bad = np.eye(4, dtype=complex)
        bad[0, 0] = 1.1
        with pytest.raises(ValueError, match="unitary"):
            fock_success_probs(1, 1, ((Polarization.H, Polarization.V),), bad, DET0)

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
        psi_minus, psi_plus = fock_success_probs(n, m, ((pol_a, pol_b),), U_REF, det)[0]
        assert psi_minus == pytest.approx(expected[BsmOutcome.PSI_MINUS], abs=1e-12)
        assert psi_plus == pytest.approx(expected[BsmOutcome.PSI_PLUS], abs=1e-12)
        assert 1.0 - psi_minus - psi_plus == pytest.approx(expected[BsmOutcome.FAIL], abs=1e-12)


def symmetric_convention_matrix(net):
    """The relay matrix with i/sqrt(2) on both splitter reflections.

    build_network uses a real splitter (one reflection -1/sqrt(2)); this
    composes the same rotations around the symmetric one.
    """
    amp = math.sqrt(0.5)
    bs = np.array([[amp, 1j * amp], [1j * amp, amp]])

    def rotation(theta):
        return np.array([[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]])

    rot_in, rot_out = np.eye(4, dtype=complex), np.eye(4, dtype=complex)
    rot_in[2:4, 2:4] = rotation(net.input_rotation_rad)
    rot_out[0:2, 0:2] = rotation(net.output_rotation_rad)
    return rot_out @ np.kron(bs, np.eye(2)) @ rot_in


class TestCoherentModel:
    def test_no_light_no_dark_fails(self):
        psi_minus, psi_plus = coherent_success_probs(
            0.0, 0.0, ((Polarization.H, Polarization.V),), IDEAL, DET0)[0, 0]
        assert 1.0 - psi_minus - psi_plus == pytest.approx(1.0, abs=1e-12)
        assert psi_minus == 0.0

    def test_identical_rect_never_succeeds_ideal(self):
        # No vertical amplitude exists anywhere, and every success pattern
        # needs a V detector.
        psi_minus, psi_plus = coherent_success_probs(
            0.3, 0.2, ((Polarization.H, Polarization.H),), IDEAL, DET0)[0, 0]
        assert psi_minus == pytest.approx(0.0, abs=1e-14)
        assert psi_plus == pytest.approx(0.0, abs=1e-14)

    def test_matches_fock_mixture(self):
        # mu = 0.1 both sides, H/V inputs, ideal devices.
        mu, pairs = 0.1, ((Polarization.H, Polarization.V),)
        coh = coherent_success_probs(mu, mu, pairs, IDEAL, DET0)[0, 0]
        w = poisson_weights(mu, 8)
        mix = sum(w[n] * w[m] * fock_success_probs(n, m, pairs, IDEAL, DET0)[0]
                  for n in range(9) for m in range(9))
        assert coh == pytest.approx(mix, abs=1e-8)
        assert 1.0 - coh.sum() == pytest.approx(1.0 - mix.sum(), abs=1e-8)

    def test_matches_fock_mixture_realistic(self):
        pairs = ((Polarization.D, Polarization.A),)
        coh = coherent_success_probs(0.2, 0.1, pairs, U_REF, REF_DET)[0, 0]
        wa, wb = poisson_weights(0.2, 8), poisson_weights(0.1, 8)
        mix = sum(wa[n] * wb[m] * fock_success_probs(n, m, pairs, U_REF, REF_DET)[0]
                  for n in range(9) for m in range(9))
        assert coh == pytest.approx(mix, abs=1e-8)
        assert 1.0 - coh.sum() == pytest.approx(1.0 - mix.sum(), abs=1e-8)

    def test_normalization(self):
        # The two successes are disjoint events, so they sum to at most 1.
        p = coherent_success_probs(0.4, 0.3, ((Polarization.D, Polarization.V),),
                                   U_REF, REF_DET)[0, 0]
        assert np.all(p >= 0.0) and p.sum() <= 1.0 + 1e-9

    def test_phase_average_invariances(self):
        # The 64-node rule against a 128-point uniform average on a shifted
        # grid: twice the nodes and a phase offset must not move a result.
        psi_minus, psi_plus = coherent_success_probs(
            0.2, 0.15, ((Polarization.D, Polarization.A),), U_REF, REF_DET)[0, 0]
        uniform = (1.2345 + 2.0 * math.pi * np.arange(128) / 128, np.full(128, 1.0 / 128))
        ref = sixteen_pattern_reference(0.2, Polarization.D, 0.15, Polarization.A,
                                        U_REF, REF_DET, rule=uniform)
        for got, want in zip((psi_minus, psi_plus, 1.0 - psi_minus - psi_plus), ref):
            assert abs(got - want) < 1e-10

    def test_rejects_non_unitary(self):
        bad = np.eye(4, dtype=complex) * (1 + 1e-6)
        with pytest.raises(ValueError, match="unitary"):
            coherent_success_probs(0.1, 0.1, ((Polarization.H, Polarization.V),), bad, DET0)

    def test_convention_independence(self):
        # Physical probabilities must not depend on the beam-splitter phase
        # convention, misalignment included.
        u_sym = symmetric_convention_matrix(REF_NET)
        assert unitarity_defect(u_sym) < 1e-15
        assert np.max(np.abs(u_sym - U_REF)) > 0.5  # a different matrix, not a copy
        a = coherent_success_probs(0.2, 0.1, ALL_PAIRS, U_REF, REF_DET)[0]
        b = coherent_success_probs(0.2, 0.1, ALL_PAIRS, u_sym, REF_DET)[0]
        assert np.max(np.abs(a - b)) <= 1e-12
        f_a = fock_success_probs(2, 1, ALL_PAIRS, U_REF, REF_DET)
        f_b = fock_success_probs(2, 1, ALL_PAIRS, u_sym, REF_DET)
        assert np.max(np.abs(f_a - f_b)) <= 1e-12


def sixteen_pattern_reference(mu_a, pol_a, mu_b, pol_b, u, det, rule=None):
    """Phase average of all 16 click patterns, classified by classify_pattern.

    rule is a (phases, weights) pair; the default is the 64-node Gauss-Legendre rule.
    """
    a_in = np.zeros(4, dtype=complex)
    a_in[0:2] = math.sqrt(mu_a) * pol_a.jones
    b_in = np.zeros(4, dtype=complex)
    b_in[2:4] = math.sqrt(mu_b) * pol_b.jones
    phases, weights = PHASE_RULE if rule is None else rule
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
                assert abs((1.0 - got[i, k, 0] - got[i, k, 1]) - ref[2]) <= 1e-15

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

    def test_quadrature_weights_average_to_one(self):
        _, w = PHASE_RULE
        assert w.sum() == pytest.approx(1.0, abs=1e-14)
