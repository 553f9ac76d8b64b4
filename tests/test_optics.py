import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdiqkd.optics import (
    _FACT,
    _FOCK_CHUNK,
    _SQRT_FACT,
    BsmOutcome,
    DetectorModel,
    NetworkConfig,
    _MU_CHUNK,
    N_MODES,
    Polarization,
    build_network,
    _compositions,
    _success_probs,
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
RECT_PAIRS = tuple(itertools.product((Polarization.H, Polarization.V), repeat=2))
DIAG_PAIRS = tuple(itertools.product((Polarization.D, Polarization.A), repeat=2))


# The click rule as a table of patterns, the oracle of the success kernels.
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
    assert len(pattern) == N_MODES
    if pattern in _PSI_MINUS_PATTERNS:
        return BsmOutcome.PSI_MINUS
    if pattern in _PSI_PLUS_PATTERNS:
        return BsmOutcome.PSI_PLUS
    return BsmOutcome.FAIL


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
        got = _success_probs(p, 1.0 - p)
        assert got.shape == (16, 2)
        for k, bits in enumerate(PATTERNS):
            outcome = classify_pattern(bits)
            assert got[k].tolist() == [float(outcome is BsmOutcome.PSI_MINUS),
                                       float(outcome is BsmOutcome.PSI_PLUS)]

    def test_random_clicks_match_sixteen_pattern_sum(self):
        p = np.random.default_rng(11).uniform(0.0, 1.0, size=(4, 3, 50))
        got = _success_probs(p, 1.0 - p)
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

    @pytest.mark.parametrize("n,m", [(0, 0), (1, 1), (3, 0), (2, 3), (5, 5)])
    def test_pairs_equal_one_pair_calls(self, n, m):
        # Expanding the pairs on shared compositions must not move a bit.
        got = fock_success_probs(n, m, ALL_PAIRS, U_REF, REF_DET)
        assert got.shape == (len(ALL_PAIRS), 2)
        for k, pair in enumerate(ALL_PAIRS):
            single = fock_success_probs(n, m, (pair,), U_REF, REF_DET)
            assert got[k].tolist() == single[0].tolist()

    @pytest.mark.parametrize("n,m", [(1, 1), (4, 2), (5, 5)])
    def test_both_bases_equal_one_basis_calls(self, n, m):
        # The eight bit pairs of both bases in one call, as each basis's four.
        got = fock_success_probs(n, m, RECT_PAIRS + DIAG_PAIRS, U_REF, REF_DET)
        rect = fock_success_probs(n, m, RECT_PAIRS, U_REF, REF_DET)
        diag = fock_success_probs(n, m, DIAG_PAIRS, U_REF, REF_DET)
        assert got.tobytes() == np.concatenate([rect, diag]).tobytes()
        for k, pair in enumerate(RECT_PAIRS + DIAG_PAIRS):
            assert got[k].tobytes() == fock_success_probs(n, m, (pair,), U_REF, REF_DET).tobytes()

    def test_chunked_pairs_equal_one_pair_calls(self):
        # At (6, 6) a pair has 84 * 84 composition pairs, so the 16 pairs
        # take several scatters.
        n = m = 6
        assert len(ALL_PAIRS) * len(_compositions(n)) * len(_compositions(m)) > 2 * _FOCK_CHUNK
        got = fock_success_probs(n, m, ALL_PAIRS, U_REF, REF_DET)
        assert got.tobytes() == per_pair_expansion(n, m, ALL_PAIRS, U_REF, REF_DET).tobytes()
        for k, pair in enumerate(ALL_PAIRS):
            assert got[k].tobytes() == fock_success_probs(n, m, (pair,), U_REF, REF_DET).tobytes()

    @pytest.mark.parametrize("devices", ["default", "random0", "random1", "random2", "random3",
                                         "complex"])
    def test_matches_per_pair_expansion_bit_for_bit(self, devices):
        u, det = FOCK_DEVICES[devices]
        for n, m in itertools.product(range(6), repeat=2):
            got = fock_success_probs(n, m, ALL_PAIRS, u, det)
            assert got.tobytes() == per_pair_expansion(n, m, ALL_PAIRS, u, det).tobytes(), (n, m)


def per_pair_expansion(n, m, pairs, u, det):
    """The Fock expansion one pair at a time, on a dense occupation array.

    Each pair's amplitude products are accumulated with np.add.at into an
    array over all (n+m+1)^4 occupation indices, and the click rule is
    applied to that pair's nonzero support.  fock_success_probs must agree
    with it bit for bit.
    """
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
        out[k] = probs @ _success_probs(p_click.T, 1.0 - p_click.T)
    return out


@functools.lru_cache(maxsize=None)
def _permutations(n):
    perms = list(itertools.permutations(range(n)))
    return np.array(perms, dtype=int).reshape(len(perms), n)


def _permanent(mat):
    """Sum over all permutations p of prod_i mat[i, p(i)]."""
    n = mat.shape[0]
    return np.prod(mat[np.arange(n), _permutations(n)], axis=1).sum()


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

    @pytest.mark.parametrize("n,m", [(n, m) for n in range(7) for m in range(7 - n)])
    def test_all_pairs_up_to_six_photons(self, n, m):
        det = DetectorModel(efficiency=(0.7, 0.5, 0.9, 0.6), dark_prob=(1e-4, 3e-3, 0.0, 1e-2))
        pairs = ((Polarization.H, Polarization.V), (Polarization.D, Polarization.D),
                 (Polarization.V, Polarization.A))
        got = fock_success_probs(n, m, pairs, U_REF, det)
        for (pol_a, pol_b), (psi_minus, psi_plus) in zip(pairs, got):
            expected = permanent_oracle(n, pol_a, m, pol_b, U_REF, det)
            assert abs(psi_minus - expected[BsmOutcome.PSI_MINUS]) <= 1e-14
            assert abs(psi_plus - expected[BsmOutcome.PSI_PLUS]) <= 1e-14


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


def _random_devices(seed):
    rng = np.random.default_rng(seed)
    net = NetworkConfig(*rng.uniform(-0.4, 0.4, 2))
    det = DetectorModel(efficiency=tuple(rng.uniform(0.05, 1.0, 4)),
                        dark_prob=tuple(10.0 ** rng.uniform(-8.0, -2.0, 4)))
    return build_network(net), det


FOCK_DEVICES = {
    "default": (U_REF, REF_DET),
    **{f"random{k}": _random_devices(100 + k) for k in range(4)},
    "complex": (symmetric_convention_matrix(REF_NET), REF_DET),
}


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
        # The kernel's rule against a 128-point uniform average on a shifted
        # grid: four times the nodes and a phase offset must not move a result.
        psi_minus, psi_plus = coherent_success_probs(
            0.2, 0.15, ((Polarization.D, Polarization.A),), U_REF, REF_DET)[0, 0]
        uniform = (1.2345 + 2.0 * math.pi * np.arange(128) / 128, np.full(128, 1.0 / 128))
        ref = sixteen_pattern_reference(0.2, Polarization.D, 0.15, Polarization.A,
                                        U_REF, REF_DET, rule=uniform)
        for got, want in zip((psi_minus, psi_plus, 1.0 - psi_minus - psi_plus), ref):
            assert abs(got - want) < 1e-10

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


# The reference's own phase rule: 256 equispaced nodes, eight times the kernel's.
REFERENCE_RULE = (2.0 * math.pi * np.arange(256) / 256, np.full(256, 1.0 / 256))


def sixteen_pattern_reference(mu_a, pol_a, mu_b, pol_b, u, det, rule=REFERENCE_RULE):
    """Phase average of all 16 click patterns, classified by classify_pattern.

    rule is a (phases, weights) pair, by default REFERENCE_RULE.
    """
    a_in = np.zeros(4, dtype=complex)
    a_in[0:2] = math.sqrt(mu_a) * pol_a.jones
    b_in = np.zeros(4, dtype=complex)
    b_in[2:4] = math.sqrt(mu_b) * pol_b.jones
    phases, weights = rule
    beta = (u @ a_in)[None, :] + np.exp(1j * phases)[:, None] * (u @ b_in)[None, :]
    p_click = 1.0 - (1.0 - det.darks) * np.exp(-det.etas * np.abs(beta) ** 2)
    # Summed exactly rounded: a plain dot product over 256 nodes would add
    # ~2e-15 of its own rounding to the failure probability, which is near 1.
    terms = weights[:, None] * sixteen_pattern_probs(p_click)
    return np.array([math.fsum(column) for column in terms.T])


def mpmath_success_probs(mp, mu_a, pol_a, mu_b, pol_b, u, det, nodes=64):
    """(psi-, psi+) of coherent pulses in 40-digit arithmetic, as mpmath numbers.

    Takes the entries of u, the Jones vectors and the detector parameters as
    exact binary values.  A detector's no-click factor is 1 - d rounded to a
    double, as in every kernel of the package, so its dark probability is
    1 - (1 - d), within 5.6e-17 of d.  The phase average is the trapezoid rule
    on `nodes` nodes, which for eta*mu <= 10 is converged far below 1e-20.
    """
    with mp.workdps(40):
        a = [mp.sqrt(mu_a) * mp.mpc(v) for v in u[:, 0:2] @ pol_a.jones]
        b = [mp.sqrt(mu_b) * mp.mpc(v) for v in u[:, 2:4] @ pol_b.jones]
        keep = [mp.mpf(1.0 - d) for d in det.darks]
        psi_minus = psi_plus = mp.mpf(0)
        for n in range(nodes):
            rotation = mp.expj(2 * mp.pi * n / nodes)
            q = [keep[j] * mp.exp(-mp.mpf(det.etas[j]) * abs(a[j] + rotation * b[j]) ** 2)
                 for j in range(4)]
            p = [1 - qj for qj in q]
            psi_minus += p[0] * q[1] * q[2] * p[3] + q[0] * p[1] * p[2] * q[3]
            psi_plus += p[0] * p[1] * q[2] * q[3] + q[0] * q[1] * p[2] * p[3]
        return psi_minus / nodes, psi_plus / nodes


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

    @pytest.mark.parametrize("eta", [0.145, 1.0])
    @pytest.mark.parametrize("dark", [0.0, 1e-6])
    @pytest.mark.parametrize("eta_mu_a,eta_mu_b", [(3e-6, 1e-6), (0.04, 0.01), (1.5, 0.4),
                                                   (10.0, 2.5)])
    def test_matches_mpmath(self, eta, dark, eta_mu_a, eta_mu_b):
        # Relative accuracy down to weak pulses without dark counts, where the
        # click probability 1 - e^{-x} used to cancel, and up to eta*mu = 10.
        mp = pytest.importorskip("mpmath")
        det = DetectorModel(efficiency=eta, dark_prob=dark)
        mu_a, mu_b = eta_mu_a / eta, eta_mu_b / eta
        pairs = ((Polarization.H, Polarization.V), (Polarization.H, Polarization.H),
                 (Polarization.D, Polarization.A), (Polarization.D, Polarization.D),
                 (Polarization.V, Polarization.D))
        got = coherent_success_probs(mu_a, mu_b, pairs, U_REF, det)[0]
        for k, (pol_a, pol_b) in enumerate(pairs):
            want = mpmath_success_probs(mp, mu_a, pol_a, mu_b, pol_b, U_REF, det)
            for value, exact in zip(got[k], want):
                assert exact > 0
                assert abs(mp.mpf(value) - exact) <= 1e-13 * exact

    def test_batch_equals_single_evaluations(self):
        # The intensities span two full chunks and a partial third; batching
        # must not move a bit.
        rng = np.random.default_rng(7)
        n = 2 * _MU_CHUNK + 5
        mu_a, mu_b = rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)
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
        # The kernel's phase rule averages a constant to one: coherent pulses
        # with no phase dependence come out as the closed-form Poisson click
        # probability.
        eta, dark, mu = 0.6, 1e-3, 0.7
        det = DetectorModel(efficiency=eta, dark_prob=dark)
        psi_minus, _ = coherent_success_probs(mu, 0.0, ((Polarization.D, Polarization.H),),
                                              IDEAL, det)[0, 0]
        # Alice's D pulse alone: every detector sees eta * mu / 4.
        p = dark + (1.0 - dark) * -math.expm1(-eta * mu / 4.0)
        assert psi_minus == pytest.approx(2.0 * p * p * (1.0 - p) ** 2, rel=1e-14)
