import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdiqkd.decoy import poisson_weights
from mdiqkd.optics import (
    BsmOutcome,
    DetectorModel,
    NetworkConfig,
    Polarization,
    build_network,
    fock_success_probs,
)
from mdiqkd.protocol import (
    _ERROR_TERMS,
    BASIS_STATES,
    BIT_VALUE,
    Basis,
    YieldErrorTable,
    build_yield_error_table,
    fock_yield_error,
    loss_adjusted_table,
    sift,
    wcp_gains_qbers,
)

IDEAL = build_network(NetworkConfig())
DET0 = DetectorModel()
U_REF = build_network(NetworkConfig.from_misalignment(0.015))
REF_DET = DetectorModel(efficiency=0.145, dark_prob=6.02e-6)


class TestYieldError:
    def test_single_photon_pair_rect_ideal(self):
        y, e = fock_yield_error(1, 1, Basis.RECT, IDEAL, DET0)
        assert y == pytest.approx(0.5, abs=1e-12)
        assert e == pytest.approx(0.0, abs=1e-12)

    def test_rect_errors_vanish_ideal(self):
        # No relay output can pair an H and a V click when both senders use
        # the same polarization and nothing leaks, so e stays 0 wherever
        # defined, for every photon number.
        table = build_yield_error_table(Basis.RECT, IDEAL, DET0, 3)
        defined = table.error_defined
        assert np.all(np.abs(table.errors[defined]) < 1e-12)
        # with no dark counts, successes need light from both sides
        for n in range(4):
            for m in range(4):
                assert defined[n, m] == (n >= 1 and m >= 1)

    def test_single_photon_diag_error_zero_ideal(self):
        y, e = fock_yield_error(1, 1, Basis.DIAG, IDEAL, DET0)
        assert y == pytest.approx(0.5, abs=1e-12)
        assert e == pytest.approx(0.0, abs=1e-12)

    def test_diag_multiphoton_errors_exist(self):
        # Multiphoton components in the test basis do carry errors even for
        # perfect devices; only the single-photon pair is clean.
        _, e = fock_yield_error(2, 1, Basis.DIAG, IDEAL, DET0)
        assert e > 0.01

    def test_misaligned_single_photon_errors(self):
        # Frozen model constants for the 1.5% reference misalignment with
        # perfect detectors: opposite-sense rotations leave exactly the
        # per-rotation fraction in the pair error.
        y, e = fock_yield_error(1, 1, Basis.RECT, U_REF, DET0)
        assert e == pytest.approx(0.0075, abs=1e-12)
        assert y == pytest.approx(0.498125, abs=1e-12)
        _, e_diag = fock_yield_error(1, 1, Basis.DIAG, U_REF, DET0)
        assert e_diag == pytest.approx(0.0075, abs=1e-12)

    def test_undefined_error_reported_as_none(self):
        y, e = fock_yield_error(0, 0, Basis.RECT, IDEAL, DET0)
        assert y == 0.0
        assert e is None

    @pytest.mark.parametrize("basis", list(Basis))
    @pytest.mark.parametrize("u,det", [(IDEAL, DET0), (U_REF, REF_DET)])
    def test_table_entries_equal_single_components(self, basis, u, det):
        table = build_yield_error_table(basis, u, det, 3)
        for n in range(4):
            for m in range(4):
                y, e = fock_yield_error(n, m, basis, u, det)
                assert table.yields[n, m] == y
                assert (e is None and np.isnan(table.errors[n, m])) or table.errors[n, m] == e


class TestAggregateStats:
    def test_vacuum(self):
        gains, qbers = wcp_gains_qbers(0.0, 0.0, Basis.RECT, IDEAL, DET0)
        assert gains.tolist() == [0.0]
        assert np.isnan(qbers[0])

    def test_gain_matches_poisson_weighted_yields(self):
        mu = 0.1
        gains, qbers = wcp_gains_qbers(mu, mu, Basis.RECT, IDEAL, DET0)
        table = build_yield_error_table(Basis.RECT, IDEAL, DET0, 8)
        w = poisson_weights(mu, 8)
        assert gains[0] == pytest.approx(float(w @ table.yields @ w), abs=1e-6)
        assert qbers[0] == pytest.approx(0.0, abs=1e-12)

    def test_reference_point_regression(self):
        # Frozen from the first full-model evaluation at the reference
        # parameter set, zero distance, mu = 0.1 both sides.
        gains, qbers = wcp_gains_qbers(0.1, 0.1, Basis.RECT, U_REF, REF_DET)
        assert gains[0] == pytest.approx(1.043640350323243e-04, rel=1e-9)
        assert qbers[0] == pytest.approx(0.016425697341769054, rel=1e-9)

    @pytest.mark.parametrize("basis", list(Basis))
    def test_gain_monotone_in_intensity_and_efficiency(self, basis):
        mus = [0.05, 0.1, 0.2, 0.4]
        gains_mu, _ = wcp_gains_qbers(mus, mus, basis, U_REF, REF_DET)
        assert np.all(np.diff(gains_mu) > 0.0)
        gains_eta = [
            wcp_gains_qbers(0.1, 0.1, basis, U_REF, DetectorModel(eta, 6.02e-6))[0][0]
            for eta in (0.05, 0.145, 0.4, 0.9)]
        assert all(b > a for a, b in zip(gains_eta, gains_eta[1:]))


class TestBatchedAggregateStats:
    @pytest.mark.parametrize("basis", list(Basis))
    def test_vector_equals_scalar_evaluations(self, basis):
        mu_a = np.array([0.0, 1e-4, 0.05, 0.3, 0.7, 0.0, 0.2, 0.9, 0.4, 0.01])
        mu_b = np.array([0.0, 0.2, 0.05, 0.6, 1e-3, 0.4, 0.2, 0.1, 0.4, 0.8])
        gains, qbers = wcp_gains_qbers(mu_a, mu_b, basis, U_REF, REF_DET)
        for i in range(len(mu_a)):
            gain, qber = wcp_gains_qbers(mu_a[i], mu_b[i], basis, U_REF, REF_DET)
            assert gains[i] == gain[0]
            assert np.array_equal(qbers[i], qber[0], equal_nan=True)

    def test_zero_gain_has_undefined_error_rate(self):
        gains, qbers = wcp_gains_qbers([0.0, 0.1], [0.0, 0.1], Basis.RECT, IDEAL, DET0)
        assert gains[0] == 0.0 and np.isnan(qbers[0])
        assert gains[1] > 0.0 and qbers[1] == pytest.approx(0.0, abs=1e-12)


class TestSift:
    @pytest.mark.parametrize("basis_a,basis_b,outcome,keep,flip", [
        (Basis.RECT, Basis.RECT, BsmOutcome.PSI_MINUS, True, True),
        (Basis.RECT, Basis.RECT, BsmOutcome.PSI_PLUS, True, True),
        (Basis.DIAG, Basis.DIAG, BsmOutcome.PSI_MINUS, True, True),
        (Basis.DIAG, Basis.DIAG, BsmOutcome.PSI_PLUS, True, False),
        (Basis.RECT, Basis.RECT, BsmOutcome.FAIL, False, False),
        (Basis.DIAG, Basis.DIAG, BsmOutcome.FAIL, False, False),
        (Basis.RECT, Basis.DIAG, BsmOutcome.PSI_MINUS, False, False),
        (Basis.DIAG, Basis.RECT, BsmOutcome.PSI_PLUS, False, False),
    ])
    def test_table(self, basis_a, basis_b, outcome, keep, flip):
        decision = sift(basis_a, basis_b, outcome)
        assert decision.keep is keep
        assert decision.flip_bob is flip

    def test_never_keep_mismatched_or_failed(self):
        for ba in Basis:
            for bb in Basis:
                for outcome in BsmOutcome:
                    d = sift(ba, bb, outcome)
                    if ba is not bb or outcome is BsmOutcome.FAIL:
                        assert not d.keep

    def test_noiseless_end_to_end_agreement(self):
        # Single-photon sources, perfect devices: after the bit-flip rule the
        # sifted strings agree exactly in both bases.
        rng = np.random.default_rng(414243)
        dist = {}
        for basis in Basis:
            for pa in BASIS_STATES[basis]:
                for pb in BASIS_STATES[basis]:
                    dist[(basis, pa, pb)] = tuple(
                        fock_success_probs(1, 1, ((pa, pb),), IDEAL, DET0)[0])
        kept = {Basis.RECT: ([], []), Basis.DIAG: ([], [])}
        total = 0
        while total < 2000:
            ba, bb = rng.choice(list(Basis), size=2)
            bit_a, bit_b = rng.integers(0, 2, size=2)
            if ba is bb:
                pa = BASIS_STATES[ba][bit_a]
                pb = BASIS_STATES[bb][bit_b]
                pm, pp = dist[(ba, pa, pb)]
                r = rng.random()
                outcome = (BsmOutcome.PSI_MINUS if r < pm
                           else BsmOutcome.PSI_PLUS if r < pm + pp
                           else BsmOutcome.FAIL)
            else:
                outcome = BsmOutcome.FAIL
            d = sift(ba, bb, outcome)
            if d.keep:
                kept[ba][0].append(int(bit_a))
                kept[ba][1].append(int(bit_b) ^ int(d.flip_bob))
                total += 1
        for basis, (alice, bob) in kept.items():
            assert len(alice) > 100
            assert alice == bob

    def test_bit_convention(self):
        assert BIT_VALUE[Polarization.H] == 0
        assert BIT_VALUE[Polarization.V] == 1
        assert BIT_VALUE[Polarization.D] == 0
        assert BIT_VALUE[Polarization.A] == 1

    def test_error_terms(self):
        # The (pair, outcome) terms that the gains and error rates count as
        # errors, pairs HH, HV, VH, VV (DD, DA, AD, AA) and outcomes psi-, psi+.
        # Rectilinear: an error is any success with equal polarizations.
        # Diagonal: a singlet with equal ones, or a triplet with orthogonal ones.
        assert _ERROR_TERMS[Basis.RECT].tolist() == [1, 1, 0, 0, 0, 0, 1, 1]
        assert _ERROR_TERMS[Basis.DIAG].tolist() == [1, 0, 0, 1, 0, 1, 1, 0]


class TestYieldErrorTable:
    def test_json_round_trip_with_nulls(self):
        table = build_yield_error_table(Basis.RECT, IDEAL, DET0, 2)
        data = json.loads(json.dumps(table.to_json_dict(), allow_nan=False))
        assert data["basis"] == "rect"
        assert data["n_max"] == 2
        assert data["errors"][0][0] is None  # vacuum-vacuum never succeeds
        back = YieldErrorTable(
            basis=Basis(data["basis"]), n_max=data["n_max"], yields=np.array(data["yields"]),
            errors=np.array([[np.nan if v is None else v for v in row] for row in data["errors"]]))
        assert np.allclose(back.yields, table.yields)
        assert np.array_equal(back.error_defined, table.error_defined)
        assert np.allclose(back.errors[back.error_defined],
                           table.errors[table.error_defined])

    def test_rejects_error_without_yield(self):
        with pytest.raises(ValueError):
            YieldErrorTable(basis=Basis.RECT, n_max=0,
                            yields=np.array([[0.0]]), errors=np.array([[0.5]]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            YieldErrorTable(basis=Basis.RECT, n_max=0,
                            yields=np.array([[1.5]]), errors=np.array([[np.nan]]))


class TestLossAdjustment:
    def test_identity_at_unit_transmittance(self):
        table = build_yield_error_table(Basis.RECT, U_REF, REF_DET, 2)
        same = loss_adjusted_table(table, 1.0, 1.0)
        assert np.allclose(same.yields, table.yields, atol=1e-15)

    def test_symmetric_loss_equals_efficiency_folding(self):
        # Equal loss on all input arms commutes with the network, so folding
        # it into the detector efficiency must give identical tables.
        t = 10 ** (-0.2 * 50 / 10)
        relay = build_yield_error_table(Basis.RECT, U_REF, REF_DET, 2)
        sent = loss_adjusted_table(relay, t, t)
        folded = build_yield_error_table(
            Basis.RECT, U_REF, DetectorModel(0.145 * t, 6.02e-6), 2)
        assert np.allclose(sent.yields, folded.yields, atol=1e-14)
        both = sent.error_defined & folded.error_defined
        assert np.allclose(sent.errors[both], folded.errors[both], atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_loss_mixes_convexly(self, ta, tb):
        # The adjusted entry is a binomial mixture over surviving photon
        # numbers, so it stays inside the hull of the relay sub-table.
        # (Losing a photon can *raise* the success probability here, since
        # extra photons spoil the exact two-detector patterns.)
        relay = build_yield_error_table(Basis.RECT, IDEAL, DET0, 2)
        sent = loss_adjusted_table(relay, ta, tb)
        for n in range(3):
            for m in range(3):
                block = relay.yields[: n + 1, : m + 1]
                assert sent.yields[n, m] <= block.max() + 1e-12
                assert sent.yields[n, m] >= block.min() - 1e-12
        # total loss leaves only the vacuum-vacuum entry
        dead = loss_adjusted_table(relay, 0.0, 0.0)
        assert np.allclose(dead.yields, relay.yields[0, 0], atol=1e-15)

    def test_rejects_bad_transmittance(self):
        relay = build_yield_error_table(Basis.RECT, IDEAL, DET0, 1)
        with pytest.raises(ValueError):
            loss_adjusted_table(relay, 1.5, 1.0)
