import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mdiqkd.decoy import (
    CLAMP_TOL,
    DEFAULT_INTENSITIES,
    YIELD_EPS,
    ClampEvent,
    IntensityGrid,
    ObservedStats,
    estimate_table,
    invert_poisson,
    observed_from_model,
    observed_from_table,
    poisson_pmf,
    poisson_weights,
    q11,
)
from mdiqkd.errors import InversionError
from mdiqkd.optics import DetectorModel, NetworkConfig, build_network
from mdiqkd.protocol import Basis, YieldErrorTable, build_yield_error_table

GRID = IntensityGrid()
U_REF = build_network(NetworkConfig.from_misalignment(0.015))
REF_DET = DetectorModel(efficiency=0.145, dark_prob=6.02e-6)
IDEAL = build_network(NetworkConfig())
DET0 = DetectorModel()


NEARLY_EQUAL = (0.1, 0.1 + 1e-9, 0.1 + 2e-9, 0.1 + 3e-9, 0.1 + 4e-9)
# n_max 3 from 8 and 7 intensities: both stages overdetermined.
WIDE_8_7 = IntensityGrid(alice=(0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9),
                         bob=(0.03, 0.06, 0.12, 0.25, 0.4, 0.6, 0.8))


def make_table(yields, errors, basis=Basis.RECT):
    y = np.asarray(yields, dtype=float)
    return YieldErrorTable(basis=basis, n_max=y.shape[0] - 1, yields=y,
                           errors=np.asarray(errors, dtype=float))


def per_column_estimate(obs, n_max):
    """The estimator as two stages of one least-squares solve per column.

    Alice's stage solves each Bob setting separately and Bob's stage each
    photon number n, with the design matrix rebuilt for every solve; clamping
    and error-rate division as in the estimator.  Returns the yields, the
    error rates and the clamp events.
    """
    events = []

    def solve(values, mus):
        design = np.stack([poisson_weights(mu, n_max) for mu in mus])
        coeffs, *_ = np.linalg.lstsq(design, values, rcond=None)
        return coeffs

    def clamp(values, lo, hi, quantity, stage):
        lo = np.broadcast_to(np.asarray(lo, dtype=float), values.shape)
        hi = np.broadcast_to(np.asarray(hi, dtype=float), values.shape)
        for idx in zip(*np.nonzero((values < lo - CLAMP_TOL) | (values > hi + CLAMP_TOL))):
            events.append(ClampEvent(quantity=quantity, stage=stage,
                                     index=tuple(int(i) for i in idx), raw=float(values[idx])))
        return np.clip(values, lo, hi)

    def two_stage(matrix, quantity):
        marginals = np.empty((n_max + 1, len(obs.grid.bob)))
        for j in range(len(obs.grid.bob)):
            marginals[:, j] = solve(matrix[:, j], obs.grid.alice)
        marginals = clamp(marginals, 0.0, 1.0, f"marginal_{quantity}", "alice-inversion")
        table = np.empty((n_max + 1, n_max + 1))
        for n in range(n_max + 1):
            table[n, :] = solve(marginals[n, :], obs.grid.bob)
        return table

    yields = clamp(two_stage(obs.gains, "yield"), 0.0, 1.0, "yield", "bob-inversion")
    weighted = clamp(two_stage(obs.error_weighted_gains(), "error_weight"), 0.0, yields,
                     "error_weight", "bob-inversion")
    defined = yields > YIELD_EPS
    errors = np.where(defined, weighted / np.where(defined, yields, 1.0), np.nan)
    return yields, errors, events


def inconsistent_observations(grid, seed=3):
    """Gains and error rates drawn at random: no yield table produces them."""
    rng = np.random.default_rng(seed)
    shape = (len(grid.alice), len(grid.bob))
    return ObservedStats(basis=Basis.RECT, grid=grid, gains=rng.uniform(0.0, 0.1, shape),
                         qbers=rng.uniform(0.0, 0.5, shape))


class TestPoissonHelpers:
    def test_pmf_normalizes(self):
        assert sum(poisson_pmf(0.3, n) for n in range(60)) == pytest.approx(1.0, abs=1e-15)
        assert poisson_pmf(0.0, 0) == 1.0
        assert poisson_pmf(0.0, 2) == 0.0


class TestInvertPoisson:
    def test_zero_values_give_zero_coefficients(self):
        res = invert_poisson(np.zeros(6), GRID.alice, 4)
        assert np.all(res.coefficients == 0.0)
        assert res.residual == 0.0

    def test_single_term_system(self):
        # values v * exp(-mu) are the pure vacuum column, so c0 = v.
        v = 0.37
        values = v * np.exp(-np.array(GRID.alice))
        res = invert_poisson(values, GRID.alice, 4)
        assert res.coefficients[0] == pytest.approx(v, rel=1e-10)
        assert np.allclose(res.coefficients[1:], 0.0, atol=1e-10)

    def test_synthesize_then_invert(self):
        rng = np.random.default_rng(7)
        coeffs = rng.uniform(0.0, 1.0, size=5)
        design = np.stack([poisson_weights(mu, 4) for mu in GRID.alice])
        res = invert_poisson(design @ coeffs, GRID.alice, 4)
        assert np.allclose(res.coefficients, coeffs, rtol=1e-8, atol=1e-10)
        assert res.residual < 1e-12

    def test_reports_condition(self):
        res = invert_poisson(np.zeros(6), GRID.alice, 4)
        assert 1e4 < res.condition < 1e6

    def test_insufficient_intensities_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            invert_poisson(np.zeros(4), (0.05, 0.1, 0.2, 0.3), 4)

    def test_ill_conditioned_rejected_with_estimate(self):
        with pytest.raises(InversionError) as err:
            invert_poisson(np.zeros(5), NEARLY_EQUAL, 4)
        assert err.value.condition is not None
        assert err.value.condition > 1e10

    def test_columns_equal_one_dimensional_solves(self):
        # One right-hand side per column: every column's coefficients equal a
        # 1-d solve bit for bit, and the residual is the largest column misfit.
        rng = np.random.default_rng(11)
        values = rng.uniform(0.0, 1.0, size=(len(WIDE_8_7.alice), 5))
        res = invert_poisson(values, WIDE_8_7.alice, 3)
        assert res.coefficients.shape == (4, 5)
        singles = [invert_poisson(values[:, k], WIDE_8_7.alice, 3) for k in range(5)]
        for k, single in enumerate(singles):
            assert np.array_equal(res.coefficients[:, k], single.coefficients)
            assert single.condition == res.condition
        assert res.residual == max(single.residual for single in singles)
        assert res.residual > 1e-3

    def test_values_need_one_row_per_intensity(self):
        with pytest.raises(ValueError, match="one row per intensity"):
            invert_poisson(np.zeros((5, 6)), GRID.alice, 4)


class TestGridAndStats:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            IntensityGrid(alice=(0.2, 0.1))
        with pytest.raises(ValueError):
            IntensityGrid(alice=(0.1, 0.1))
        with pytest.raises(ValueError):
            IntensityGrid(alice=())

    def test_default_grid(self):
        assert GRID.alice == DEFAULT_INTENSITIES
        assert GRID.bob == DEFAULT_INTENSITIES

    def test_observed_stats_json_round_trip(self):
        table = build_yield_error_table(Basis.DIAG, IDEAL, DET0, 2)
        grid = IntensityGrid(alice=(0.1, 0.2, 0.3), bob=(0.1, 0.2, 0.3))
        obs = observed_from_table(table, grid)
        back = ObservedStats.from_json(obs.to_json())
        assert back.basis is Basis.DIAG
        assert np.allclose(back.gains, obs.gains)
        nan_mask = np.isnan(obs.qbers)
        assert np.array_equal(np.isnan(back.qbers), nan_mask)
        assert np.allclose(back.qbers[~nan_mask], obs.qbers[~nan_mask])


# Tables with yields bounded away from zero exercise the generic round trip;
# errors are defined everywhere there.
table_strategy = arrays(
    float, (5, 5), elements=st.floats(0.01, 1.0)).flatmap(
    lambda y: arrays(float, (5, 5), elements=st.floats(0.0, 1.0)).map(
        lambda e: make_table(y, e)))

# The two inversion stages compound the design-matrix condition number, so
# the generic any-table round trip uses a wide, well-conditioned grid
# (condition ~1e3 instead of the default grid's ~1e5).
WIDE_GRID = IntensityGrid(alice=tuple(np.geomspace(0.02, 2.5, 9)),
                          bob=tuple(np.geomspace(0.02, 2.5, 9)))


class TestEstimation:
    @settings(max_examples=15, deadline=None)
    @given(table_strategy)
    def test_round_trip_identity(self, table):
        obs = observed_from_table(table, WIDE_GRID)
        est = estimate_table(obs, n_max=4)
        assert np.allclose(est.table.yields, table.yields, rtol=1e-6, atol=1e-9)
        both = est.table.error_defined & table.error_defined
        assert np.allclose(est.table.errors[both], table.errors[both],
                           rtol=1e-6, atol=1e-6)

    def test_all_zero_observations(self):
        zero = make_table(np.zeros((5, 5)), np.full((5, 5), np.nan))
        est = estimate_table(observed_from_table(zero, GRID), n_max=4)
        assert np.allclose(est.table.yields, 0.0, atol=1e-12)
        assert not est.table.error_defined.any()

    def test_consistent_data_triggers_no_clamps(self):
        table = build_yield_error_table(Basis.RECT, U_REF, REF_DET, 4)
        est = estimate_table(observed_from_table(table, GRID), n_max=4)
        assert est.clamp_events == []
        # estimation is idempotent: re-synthesizing from the estimate and
        # estimating again changes nothing and still clamps nothing
        again = estimate_table(observed_from_table(est.table, GRID), n_max=4)
        assert again.clamp_events == []
        assert np.allclose(again.table.yields, est.table.yields, atol=1e-9)

    def test_ideal_round_trip_recovers_model_values(self):
        truth = build_yield_error_table(Basis.RECT, IDEAL, DET0, 4)
        est = estimate_table(observed_from_table(truth, GRID), n_max=4)
        assert est.table.yields[1, 1] == pytest.approx(0.5, rel=1e-6)
        assert est.table.errors[1, 1] == pytest.approx(0.0, abs=1e-9)
        truth_d = build_yield_error_table(Basis.DIAG, IDEAL, DET0, 4)
        est_d = estimate_table(observed_from_table(truth_d, GRID), n_max=4)
        assert est_d.table.errors[1, 1] == pytest.approx(0.0, abs=1e-9)

    def test_zero_yield_marks_error_undefined(self):
        yields = np.zeros((5, 5))
        yields[1, 1] = 0.5
        errors = np.full((5, 5), np.nan)
        errors[1, 1] = 0.25
        table = make_table(yields, errors)
        est = estimate_table(observed_from_table(table, GRID), n_max=4)
        assert est.table.error_defined[1, 1]
        assert est.table.errors[1, 1] == pytest.approx(0.25, rel=1e-6)
        assert not est.table.error_defined[0, 0]

    def test_error_stage_requires_yields(self):
        # Error rates are the error-weighted yields divided by the estimated
        # yields: defined exactly where those exceed YIELD_EPS.  Without dark
        # counts fewer than two photons never succeed, so Y00, Y01 and Y10
        # are zero and their estimates mere solver noise.
        table = build_yield_error_table(Basis.DIAG, U_REF, DET0, 4)
        est = estimate_table(observed_from_table(table, GRID), n_max=4)
        assert np.array_equal(est.table.error_defined, est.table.yields > YIELD_EPS)
        for n, m in ((0, 0), (0, 1), (1, 0)):
            assert not est.table.error_defined[n, m]
        assert est.table.error_defined.sum() == 22
        assert np.allclose(est.table.error_weighted(), table.error_weighted(), atol=1e-9)

    @pytest.mark.parametrize("stage", ["alice-inversion", "bob-inversion"])
    def test_condition_failure_carries_stage_context(self, stage):
        good = (0.05, 0.1, 0.2, 0.3, 0.4)
        bad_grid = (IntensityGrid(alice=NEARLY_EQUAL, bob=good) if stage == "alice-inversion"
                    else IntensityGrid(alice=good, bob=NEARLY_EQUAL))
        truth = make_table(np.full((5, 5), 0.25), np.full((5, 5), 0.1))
        obs = observed_from_table(truth, bad_grid)
        with pytest.raises(InversionError) as err:
            estimate_table(obs, n_max=4)
        assert err.value.stage == stage
        assert err.value.condition > 1e10
        assert str(err.value).endswith(f"(stage {stage})")

    @pytest.mark.parametrize("obs, n_max", [
        (observed_from_table(build_yield_error_table(Basis.DIAG, U_REF, REF_DET, 4), GRID), 4),
        (observed_from_model(WIDE_8_7, Basis.RECT, U_REF, REF_DET), 3),
        (inconsistent_observations(GRID), 4),
    ], ids=["default-grid", "overdetermined", "inconsistent"])
    def test_equals_per_column_solves(self, obs, n_max):
        # One solve per stage gives the tables and clamp events of one solve
        # per column, bit for bit.
        yields, errors, events = per_column_estimate(obs, n_max)
        est = estimate_table(obs, n_max=n_max)
        assert np.array_equal(est.table.yields, yields)
        assert np.array_equal(est.table.errors, errors, equal_nan=True)
        assert est.clamp_events == events

    def test_inconsistent_data_clamps_in_both_stages(self):
        est = estimate_table(inconsistent_observations(GRID), n_max=4)
        seen = {(e.quantity, e.stage) for e in est.clamp_events}
        assert seen == {("marginal_yield", "alice-inversion"), ("yield", "bob-inversion"),
                        ("marginal_error_weight", "alice-inversion"),
                        ("error_weight", "bob-inversion")}

    def test_more_decoys_recover_better(self):
        # Truth tabulated to 8 photons; inverting with deeper truncation on a
        # larger, wider grid must approach it monotonically (the asymptotic
        # solvable-for-all-n regime).
        truth = build_yield_error_table(Basis.RECT, U_REF, REF_DET, 8)
        y11_true = truth.yields[1, 1]
        errors = []
        for span_hi, size, n_max in ((0.5, 5, 4), (0.9, 7, 6), (2.5, 9, 8)):
            grid = IntensityGrid(alice=tuple(np.geomspace(0.05, span_hi, size)),
                                 bob=tuple(np.geomspace(0.05, span_hi, size)))
            est = estimate_table(observed_from_table(truth, grid), n_max=n_max)
            errors.append(abs(est.table.yields[1, 1] - y11_true) / y11_true)
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-9

    def test_model_route_carries_truncation_bias(self):
        # Synthesizing from the full coherent model and inverting at a 4-photon
        # truncation leaves a small but visible bias; this is why exact round
        # trips synthesize from the truncated table instead.
        obs = observed_from_model(GRID, Basis.RECT, IDEAL, DET0)
        est = estimate_table(obs, n_max=4)
        rel = abs(est.table.yields[1, 1] - 0.5) / 0.5
        assert 1e-6 < rel < 1e-3


class TestQ11:
    def test_zero_intensity(self):
        assert q11(0.0, 0.3, 1.0) == 0.0

    def test_unit_values(self):
        assert q11(1.0, 1.0, 1.0) == pytest.approx(math.exp(-2.0), rel=1e-15)

    def test_ideal_single_photon_value(self):
        assert q11(0.1, 0.1, 0.5) == pytest.approx(0.01 * math.exp(-0.2) / 2, rel=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            q11(-0.1, 0.1, 0.5)
        with pytest.raises(ValueError):
            q11(0.1, 0.1, 1.5)
