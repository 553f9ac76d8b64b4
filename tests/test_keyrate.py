import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdiqkd.cli import KEYRATE_COLUMNS, build_parser, main, resolve_config
from mdiqkd.config import RunConfig
from mdiqkd.decoy import q11
from mdiqkd.errors import NumericalFailure
from mdiqkd.keyrate import (
    SystemModel,
    arm_lengths,
    arm_transmittances,
    binary_entropy,
    distance_scan,
    find_cutoff,
    key_rate,
)
from mdiqkd.optics import DetectorModel, NetworkConfig

REF_SYSTEM = SystemModel(
    network=NetworkConfig.from_misalignment(0.015),
    detector=DetectorModel(efficiency=0.145, dark_prob=6.02e-6),
)
IDEAL_SYSTEM = SystemModel(network=NetworkConfig(), detector=DetectorModel())


def placement_id(value):
    """Test ids name the relay positions that the shares 0.5 and 0 stand for."""
    if isinstance(value, float):
        return {0.5: "midpoint", 0.0: "at-alice"}.get(value)
    return None


def entropy_reference(x):
    # independent formulation via natural logs
    if x in (0.0, 1.0):
        return 0.0
    ln2 = math.log(2.0)
    return (-x * math.log(x) - (1.0 - x) * math.log(1.0 - x)) / ln2


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_known_value(self):
        assert binary_entropy(0.11) == pytest.approx(0.49992, abs=5e-6)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(0.0, 1.0))
    def test_symmetry_and_reference(self, x):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)
        assert binary_entropy(x) == pytest.approx(entropy_reference(x), abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)


class TestKeyRateFormula:
    def test_reduces_to_q11_when_error_free(self):
        r = key_rate(0.0123, 0.0, 0.02, 0.0)
        assert r.raw == 0.0123
        assert r.clamped == 0.0123

    def test_zero_q11_clamps(self):
        r = key_rate(0.0, 0.1, 0.01, 0.05)
        assert r.raw < 0.0
        assert r.clamped == 0.0

    def test_dual_path_agreement(self):
        q11_v, e11, q, e = 0.01, 0.02, 0.012, 0.015
        got = key_rate(q11_v, e11, q, e, 1.16).raw
        independent = (q11_v * (1.0 - entropy_reference(e11))
                       - q * 1.16 * entropy_reference(e))
        assert got == pytest.approx(independent, abs=1e-12)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            key_rate(0.02, 0.0, 0.01, 0.0)  # q11 > q_rect
        with pytest.raises(ValueError):
            key_rate(0.01, 1.2, 0.02, 0.0)
        with pytest.raises(ValueError):
            key_rate(0.01, 0.0, 0.02, None)  # undefined E with nonzero gain
        assert key_rate(0.0, 0.0, 0.0, None).raw == 0.0
        with pytest.raises(ValueError):
            key_rate(1e-300, 0.0, 0.0, None)  # a positive q11 with no gain at all

    def test_inefficiency_validation(self):
        with pytest.raises(ValueError):
            key_rate(0.01, 0.0, 0.02, 0.0, 0.9)


class TestChannel:
    def test_transmittance(self):
        t_a, t_b = arm_transmittances(REF_SYSTEM, 150.0, 1.0 / 3.0)
        assert t_a == pytest.approx(10 ** -1.0)
        assert t_b == pytest.approx(10 ** -2.0)
        with pytest.raises(ValueError):
            arm_transmittances(dataclasses.replace(REF_SYSTEM, attenuation_db_per_km=-0.1),
                               10.0, 0.5)

    def test_arm_lengths(self):
        assert RunConfig(relay_position="midpoint").placement() == 0.5
        assert RunConfig(relay_position="at-alice").placement() == 0.0
        assert RunConfig(relay_position="custom", arm_length_a_km=3.0,
                         arm_length_b_km=7.0).placement() == 0.3
        assert arm_lengths(100.0, 0.5) == (50.0, 50.0)
        assert arm_lengths(100.0, 0.0) == (0.0, 100.0)
        assert arm_lengths(100.0, 0.25) == (25.0, 75.0)
        with pytest.raises(ValueError):
            arm_lengths(-1.0, 0.5)
        for share in (-0.1, 1.1):
            with pytest.raises(ValueError):
                arm_lengths(10.0, share)


def reference_optimize(system, distance_km, placement, golden_iters=40, grid=None):
    """Grid then golden-section search, one one-point scan per intensity."""
    mus = np.geomspace(0.005, 1.0, 40) if grid is None else np.asarray(grid, dtype=float)
    evaluated = []

    def rate_at(mu):
        (point,) = distance_scan(system, [distance_km], placement, fixed_intensities=(mu, mu))
        r = point.key_rate
        evaluated.append((mu, r))
        return r

    best_idx, best_rate = 0, -math.inf
    for idx, mu in enumerate(mus):
        r = rate_at(float(mu))
        if r > best_rate:
            best_rate, best_idx = r, idx
    a = float(mus[max(best_idx - 1, 0)])
    b = float(mus[min(best_idx + 1, len(mus) - 1)])
    if b > a:
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        fc, fd = rate_at(c), rate_at(d)
        for _ in range(golden_iters):
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = rate_at(c)
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = rate_at(d)
    best = max(r for _, r in evaluated)
    best_mu = min(mu for mu, r in evaluated if r == best)
    (point,) = distance_scan(system, [distance_km], placement,
                             fixed_intensities=(best_mu, best_mu))
    return point


class TestEvaluatePoint:
    def test_ideal_rate_equals_q11(self):
        # Perfect devices at zero distance: no errors in either basis, so the
        # bound collapses to the single-photon-pair gain exactly.
        (pt,) = distance_scan(IDEAL_SYSTEM, [0.0], fixed_intensities=(0.1, 0.1))
        assert pt.e11_diag == pytest.approx(0.0, abs=1e-12)
        assert pt.e_rect == pytest.approx(0.0, abs=1e-12)
        assert pt.key_rate_raw == pytest.approx(q11(0.1, 0.1, 0.5), abs=1e-15)

    def test_reference_point_regression(self):
        # Frozen from the first full-model evaluation (reference parameters,
        # zero distance, mu = 0.1).
        (pt,) = distance_scan(REF_SYSTEM, [0.0], fixed_intensities=(0.1, 0.1))
        assert pt.q11_rect == pytest.approx(8.577075756977628e-05, rel=1e-9)
        assert pt.e11_diag == pytest.approx(0.007646299108672358, rel=1e-9)
        assert pt.q_rect == pytest.approx(1.043640350323243e-04, rel=1e-9)
        assert pt.e_rect == pytest.approx(0.016425697341769054, rel=1e-9)
        assert pt.key_rate == pytest.approx(6.558409690975923e-05, rel=1e-9)

    def test_q11_consistent_with_formula(self):
        from mdiqkd.protocol import Basis, loss_adjusted_table

        (pt,) = distance_scan(REF_SYSTEM, [80.0], fixed_intensities=(0.2, 0.3))
        t = 10 ** (-0.2 * 40.0 / 10.0)
        sent = loss_adjusted_table(
            REF_SYSTEM.single_photon_relay_tables[Basis.RECT], t, t)
        assert pt.q11_rect == pytest.approx(
            q11(0.2, 0.3, float(sent.yields[1, 1])), rel=1e-12)
        assert pt.q_rect >= pt.q11_rect

    def test_rate_positive_at_reference_40db(self):
        (pt,) = distance_scan(REF_SYSTEM, [200.0])
        assert pt.key_rate > 0.0
        assert pt.key_rate == pytest.approx(3.2671540278323395e-09, rel=1e-6)


class TestOptimization:
    def test_optimum_regressions(self):
        p0, p100 = distance_scan(REF_SYSTEM, [0.0, 100.0])
        assert p0.mu_a == p0.mu_b
        assert p0.mu_a == pytest.approx(0.6033361418677428, abs=1e-4)
        assert p0.key_rate == pytest.approx(6.152191331345823e-04, rel=1e-6)
        assert p100.mu_a == pytest.approx(0.5497117002962282, abs=1e-4)
        assert p100.key_rate == pytest.approx(5.0307626628608324e-06, rel=1e-6)

    def test_beyond_cutoff_returns_smallest_grid_mu(self):
        grid = np.geomspace(0.005, 1.0, 40)
        (pt,) = distance_scan(REF_SYSTEM, [320.0], grid=grid)
        assert pt.key_rate == 0.0
        assert pt.mu_a == pytest.approx(grid[0])

    def test_rate_grows_with_efficiency(self):
        low = SystemModel(network=NetworkConfig(), detector=DetectorModel(0.3))
        high = SystemModel(network=NetworkConfig(), detector=DetectorModel(0.6))
        assert distance_scan(high, [0.0])[0].key_rate > distance_scan(low, [0.0])[0].key_rate

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            distance_scan(REF_SYSTEM, [0.0], grid=np.array([]))

    @pytest.mark.parametrize("placement", [0.5, 0.0, 0.3], ids=placement_id)
    @pytest.mark.parametrize("distance", [0.0, 100.0, 250.0])
    def test_matches_scalar_reference_loop(self, placement, distance):
        # The batched grid pass and the stored best point must reproduce the
        # point-by-point search exactly.
        (got,) = distance_scan(REF_SYSTEM, [distance], placement)
        ref = reference_optimize(REF_SYSTEM, distance, placement)
        assert list(map(repr, dataclasses.astuple(got))) == \
            list(map(repr, dataclasses.astuple(ref)))

    @pytest.mark.parametrize("placement", [0.5, 0.0, 0.3], ids=placement_id)
    @pytest.mark.parametrize("distances,grid", [
        ([0.0, 100.0, 250.0, 320.0], None),   # 320 km lies past every cutoff
        ([0.0, 37.5, 75.0, 150.0], np.geomspace(0.01, 0.8, 7)),
        ([50.0, 50.0, 200.0], np.array([0.2])),  # one grid point: no golden section
        ([0.0, 320.0], np.geomspace(0.8, 0.01, 9)),  # descending: ties pick the last
        ([0.0, 200.0, 320.0], np.full(5, 0.3)),  # constant: no bracket, no golden section
        # Unordered: only 320 km has a bracket, so 0 km's probes are masked.
        ([0.0, 320.0], np.array([0.01, 0.02, 0.9, 0.5])),
    ])
    def test_lockstep_scan_matches_scalar_reference(self, placement, distances, grid):
        # Every distance of a scan runs its own golden section inside shared
        # kernel calls; each point must equal the one-distance scalar search,
        # including the tie-break to the smallest mu where the rate is zero.
        got = distance_scan(REF_SYSTEM, distances, placement, grid=grid)
        for point, distance in zip(got, distances):
            ref = reference_optimize(REF_SYSTEM, distance, placement, grid=grid)
            assert list(map(repr, dataclasses.astuple(point))) == \
                list(map(repr, dataclasses.astuple(ref)))

    def test_refinement_beats_dense_grid(self):
        # the golden refinement must find at least as much rate as a dense
        # brute-force grid around the optimum
        found = distance_scan(REF_SYSTEM, [100.0])[0].key_rate
        dense = max(
            distance_scan(REF_SYSTEM, [100.0], fixed_intensities=(mu, mu))[0].key_rate
            for mu in np.linspace(0.3, 0.9, 400))
        assert found >= dense - 1e-12


class TestScan:
    def test_validation(self):
        with pytest.raises(ValueError):
            distance_scan(REF_SYSTEM, [])
        with pytest.raises(ValueError):
            distance_scan(REF_SYSTEM, [10.0, 5.0])
        with pytest.raises(ValueError):
            distance_scan(REF_SYSTEM, [-1.0])

    def test_fixed_intensity_scan(self):
        pts = distance_scan(REF_SYSTEM, [0.0, 50.0], fixed_intensities=(0.1, 0.1))
        assert [p.mu_a for p in pts] == [0.1, 0.1]
        assert pts[0].key_rate > pts[1].key_rate

    def test_degenerate_lossless_scan(self):
        pts = distance_scan(IDEAL_SYSTEM, [0.0])
        assert len(pts) == 1
        assert pts[0].key_rate > 0.0

    def test_rates_non_increasing_while_positive(self):
        # Raw rates decrease monotonically through the positive region; the
        # clamped rate is non-increasing along the whole scan.  (Beyond the
        # cutoff the raw value creeps back up toward its dark-count floor, so
        # the blanket raw-value claim holds only up to the first zero.)
        distances = [25.0 * i for i in range(11)]
        pts = distance_scan(REF_SYSTEM, distances)
        clamped = [p.key_rate for p in pts]
        assert all(b <= a + 1e-15 for a, b in zip(clamped, clamped[1:]))
        raw = [p.key_rate_raw for p in pts]
        first_zero = next(i for i, r in enumerate(raw) if r <= 0.0)
        positive_part = raw[: first_zero + 1]
        assert all(b < a for a, b in zip(positive_part, positive_part[1:]))

    def test_q_rect_underflow_is_numerical_failure(self):
        # Without dark counts, q_rect rounds to 0 at 15,000 km while q11_rect
        # is still about 5e-304: that is no rate, and no zero of one either.
        dark_free = dataclasses.replace(REF_SYSTEM, detector=DetectorModel(efficiency=0.145))
        with pytest.raises(NumericalFailure, match="q_rect underflows to 0 at 15000 km"):
            distance_scan(dark_free, [0.0, 15000.0], fixed_intensities=(0.3, 0.3))

    def test_clamp_bookkeeping(self):
        pts = distance_scan(REF_SYSTEM, [0.0, 250.0])
        for p in pts:
            assert p.key_rate >= 0.0
            if p.key_rate_raw >= 0.0:
                assert p.key_rate == p.key_rate_raw
            else:
                assert p.key_rate == 0.0


def sequential_cutoff(system, placement=0.5, *, lo_km=0.0, hi_km=500.0,
                      tol_km=0.25, fixed_intensities=None):
    """Bisection with one probe at a time, each a one-distance scan."""
    def positive(d):
        (point,) = distance_scan(system, [d], placement, fixed_intensities=fixed_intensities)
        return point.key_rate > 0.0

    if not positive(lo_km):
        return lo_km
    hi = hi_km
    while hi <= lo_km or positive(hi):
        hi *= 2.0
        if hi > 20000.0:
            raise NumericalFailure("no cutoff found below 20000 km")
    lo = lo_km
    while hi - lo > tol_km:
        mid = 0.5 * (lo + hi)
        if positive(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# Fixed unequal intensities with the relay at Alice: no rate at 0 km, a
# positive one from 12.5 to 75 km.
RISING_SYSTEM = SystemModel(
    network=NetworkConfig.from_misalignment(0.02998),
    detector=DetectorModel(efficiency=0.1523, dark_prob=8.913e-06),
)
RISING_MU = (0.06302, 0.5925)


class TestCutoff:
    @pytest.mark.parametrize("placement,kwargs", [
        (0.5, {}),
        (0.0, {}),
        (0.5, {"fixed_intensities": (0.3, 0.3)}),
        (0.5, {"lo_km": 150.0, "hi_km": 100.0, "fixed_intensities": (0.3, 0.3)}),
        (0.5, {"lo_km": 150.0, "hi_km": 100.0}),
        (0.5, {"tol_km": 1e-3, "fixed_intensities": (0.2, 0.2)}),
    ], ids=placement_id)
    def test_speculative_bisection_matches_sequential(self, placement, kwargs):
        assert find_cutoff(REF_SYSTEM, placement, **kwargs) == \
            sequential_cutoff(REF_SYSTEM, placement, **kwargs)

    def test_speculative_bisection_from_farthest_positive_distance(self):
        scan = distance_scan(RISING_SYSTEM, [12.5 * i for i in range(25)], 0.0,
                             fixed_intensities=RISING_MU)
        assert scan[0].key_rate == 0.0
        farthest = max(p.distance_km for p in scan if p.key_rate > 0.0)
        got = find_cutoff(RISING_SYSTEM, 0.0, lo_km=farthest,
                          fixed_intensities=RISING_MU)
        assert got == sequential_cutoff(RISING_SYSTEM, 0.0, lo_km=farthest,
                                        fixed_intensities=RISING_MU)
        assert farthest < got < farthest + 12.5

    def test_reference_cutoffs(self):
        cut_mid = find_cutoff(REF_SYSTEM, 0.5)
        assert 200.0 < cut_mid < 300.0
        assert cut_mid == pytest.approx(204.2, abs=1.0)
        cut_alice = find_cutoff(REF_SYSTEM, 0.0)
        # Shorter than half the midpoint reach: the unattenuated pulse meets
        # the relay misalignment leakage head on (see the doubling analysis
        # in the acceptance suite).
        assert cut_alice == pytest.approx(74.3, abs=1.0)

    def test_lo_km_beyond_hi_km(self):
        # The upper bracket is doubled until it lies beyond lo_km.
        cut = find_cutoff(REF_SYSTEM, 0.5, lo_km=150.0, hi_km=100.0,
                          fixed_intensities=(0.3, 0.3))
        assert cut == pytest.approx(find_cutoff(REF_SYSTEM, 0.5,
                                                fixed_intensities=(0.3, 0.3)), abs=0.25)

    def test_zero_rate_at_lo_km_returns_lo_km(self):
        assert find_cutoff(REF_SYSTEM, 0.5, lo_km=400.0,
                           fixed_intensities=(0.3, 0.3)) == 400.0

    def test_lossless_channel_is_numerical_failure(self):
        lossless = dataclasses.replace(REF_SYSTEM, attenuation_db_per_km=0.0)
        with pytest.raises(NumericalFailure, match="no cutoff"):
            find_cutoff(lossless, 0.5, fixed_intensities=(0.3, 0.3))


class TestSerialization:
    # The scan file's layout is written by the CLI; these check it against
    # the scan of the same configuration.
    ARGV = ["keyrate", "--intensity-mode=fixed", "--fixed-mu-a=0.1", "--fixed-mu-b=0.1",
            "--distances-km=0,12.5"]

    def run_scan(self, argv, out):
        assert main(argv + [f"--out={out}"]) == 0
        config = resolve_config(build_parser(argv).parse_args(argv))
        pts = distance_scan(config.system(), [0.0, 12.5], config.placement(),
                            fixed_intensities=(0.1, 0.1))
        return config, pts

    def test_csv_shape(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        config, pts = self.run_scan(self.ARGV, out)
        lines = out.read_text().splitlines()
        n_comments = len(config.resolved_items())
        assert lines[:n_comments] == [f"# {k} = {v}" for k, v in config.resolved_items()]
        assert lines[n_comments] == ",".join(KEYRATE_COLUMNS)
        assert len(lines) == n_comments + 3
        row = lines[n_comments + 1].split(",")
        assert len(row) == 9
        assert row[0] == "0"
        # full-precision floats round-trip exactly
        assert float(row[3]) == pts[0].q11_rect
        assert float(lines[n_comments + 2].split(",")[8]) == pts[1].key_rate

    def test_json_obj(self, tmp_path, capsys):
        out = tmp_path / "scan.json"
        config, pts = self.run_scan(self.ARGV + ["--format=json"], out)
        back = json.loads(out.read_text())
        assert back["config"] == config.resolved_dict()
        assert back["points"][0]["distance_km"] == 0.0
        assert back["points"][0]["key_rate"] == pts[0].key_rate
        assert back["points"][1]["q11_rect"] == pts[1].q11_rect


def test_default_keyrate_kernel_calls(tmp_path, monkeypatch, capsys):
    # Every coherent-kernel call goes through optics._coherent_success_probs;
    # the lockstep optimizer and the speculative bisection keep a default
    # keyrate run at 387 of them (1,677 with one golden-section probe per
    # call), and the transfer matrix is checked once per build, not per call.
    import mdiqkd
    from mdiqkd import cli, optics

    counts = {"kernel": 0, "unitary": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for attr, name in (("_coherent_success_probs", "kernel"), ("assert_unitary", "unitary")):
        original = getattr(optics, attr)
        for module in (mdiqkd.optics, mdiqkd.keyrate, mdiqkd.protocol):
            if getattr(module, attr, None) is original:
                monkeypatch.setattr(module, attr, counted(name, original))
    assert cli.main(["keyrate", f"--out={tmp_path / 'scan.csv'}"]) == 0
    assert "cutoff_km = 204.22" in capsys.readouterr().out
    assert 0 < counts["kernel"] <= 400
    assert counts["unitary"] <= 20
