import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdiqkd.errors import UndefinedCoincidenceError
from mdiqkd.hom import (
    HomParams,
    coincidence_point,
    hom_scan,
    mode_overlap,
)


def bessel_oracle(tau, mu, fwhm, eta=1.0, dark=0.0, ceiling=1.0):
    """Closed form for the phase-averaged click statistics.

    With intensities mu*(1 +/- O*cos(theta)) on the two detectors, the
    uniform phase average of exp(-eta*mu*O*cos(theta)) is the modified
    Bessel function I0(eta*mu*O), and the coincidence cross term is constant
    because the two intensities sum to 2*mu for every phase.
    """
    o = ceiling * mode_overlap(tau, fwhm)
    single = 1.0 - (1.0 - dark) * math.exp(-eta * mu) * np.i0(eta * mu * o)
    coinc = (1.0 - 2.0 * (1.0 - dark) * math.exp(-eta * mu) * np.i0(eta * mu * o)
             + (1.0 - dark) ** 2 * math.exp(-2.0 * eta * mu))
    return float(single), float(coinc / single ** 2)


class TestModeOverlap:
    def test_zero_delay(self):
        assert mode_overlap(0.0, 200.0) == 1.0

    def test_large_delay_vanishes(self):
        assert mode_overlap(1e5, 200.0) == 0.0

    def test_half_at_one_fwhm(self):
        # tau = FWHM makes the exponent exactly ln 2.
        assert mode_overlap(200.0, 200.0) == pytest.approx(0.5, abs=1e-15)

    def test_against_quadrature(self):
        sigma = 200.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        ts = np.linspace(-2500.0, 2500.0, 200001)
        env = np.exp(-(ts ** 2) / (4.0 * sigma ** 2))
        shifted = np.exp(-((ts - 200.0) ** 2) / (4.0 * sigma ** 2))
        numeric = np.trapezoid(env * shifted, ts) / np.trapezoid(env * env, ts)
        assert mode_overlap(200.0, 200.0) == pytest.approx(numeric, abs=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            mode_overlap(0.0, 0.0)


class TestCoincidence:
    def test_dip_value_at_default_intensity(self):
        # Frozen; cross-checked against the Bessel closed form below.
        pt = coincidence_point(0.0, HomParams())
        assert pt.c_norm == pytest.approx(0.5247713352009635, abs=1e-12)
        assert 0.50 <= pt.c_norm <= 0.54

    @pytest.mark.parametrize("tau", [0.0, 50.0, 150.0, 400.0])
    @pytest.mark.parametrize("eta,dark", [(1.0, 0.0), (0.3, 1e-5)])
    def test_matches_bessel_oracle(self, tau, eta, dark):
        params = HomParams(efficiency=eta, dark_prob=dark)
        pt = coincidence_point(tau, params)
        p1_ref, c_ref = bessel_oracle(tau, 0.1, 200.0, eta, dark)
        assert pt.p1 == pytest.approx(p1_ref, abs=1e-12)
        assert pt.p2 == pytest.approx(p1_ref, abs=1e-12)
        assert pt.c_norm == pytest.approx(c_ref, abs=1e-11)

    def test_distinguishable_pulses_are_independent(self):
        far = coincidence_point(5 * 200.0, HomParams())
        assert far.c_norm == pytest.approx(1.0, abs=1e-3)
        assert far.pc == pytest.approx(far.p1 * far.p2, rel=1e-6)

    def test_weak_pulse_floor_is_half(self):
        pt = coincidence_point(0.0, HomParams(mean_photon_number=1e-3))
        assert pt.c_norm == pytest.approx(0.5, abs=1e-3)

    def test_overlap_ceiling_raises_dip(self):
        base = coincidence_point(0.0, HomParams()).c_norm
        capped = coincidence_point(0.0, HomParams(overlap_ceiling=0.96)).c_norm
        assert capped > base

    def test_measured_dip_reachable_with_ceiling(self):
        # In the weak-pulse limit C(0) = 1 - O^2/2, so a ceiling near 0.9654
        # lands on the measured 0.534.
        pt = coincidence_point(0.0, HomParams(mean_photon_number=1e-3,
                                              overlap_ceiling=0.9654))
        assert pt.c_norm == pytest.approx(0.534, abs=0.002)

    def test_undefined_coincidence_raises(self):
        with pytest.raises(UndefinedCoincidenceError):
            coincidence_point(0.0, HomParams(mean_photon_number=0.0))
        # dark counts keep the ratio defined even without light
        pt = coincidence_point(0.0, HomParams(mean_photon_number=0.0, dark_prob=1e-3))
        assert pt.c_norm == pytest.approx(1.0, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 2000.0))
    def test_even_in_delay(self, tau):
        params = HomParams()
        assert (coincidence_point(tau, params).c_norm
                == coincidence_point(-tau, params).c_norm)


class TestScan:
    def test_single_delay(self):
        points = hom_scan(HomParams(delays_ps=(0.0,)))
        assert len(points) == 1
        assert points[0].delay_ps == 0.0

    def test_default_sweep_shape(self):
        points = hom_scan(HomParams())
        cs = [p.c_norm for p in points]
        # symmetric, unimodal dip with shoulders at 1
        assert cs == cs[::-1]
        half = cs[len(cs) // 2:]
        assert all(b >= a - 1e-12 for a, b in zip(half, half[1:]))
        assert min(cs) == pytest.approx(0.52477, abs=1e-4)
        assert max(cs) == pytest.approx(1.0, abs=1e-9)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            HomParams(mean_photon_number=-0.1)
        with pytest.raises(ValueError):
            HomParams(delays_ps=())
        with pytest.raises(ValueError):
            HomParams(overlap_ceiling=0.0)
        with pytest.raises(ValueError):
            HomParams(fwhm_ps=0.0)
