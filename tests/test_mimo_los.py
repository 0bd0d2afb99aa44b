import dataclasses
import math

import numpy as np
import pytest

from nearfield.config import RADIO
from nearfield.mimo_los import (
    RadioParams,
    SPEED_OF_LIGHT,
    build_los_mimo,
    capacity_bandwidth_sweep,
    capacity_frequency_sweep,
    capacity_waterfilling,
    equal_eigenvalue_capacity,
    free_space_gain,
    mode_analysis,
    num_streams_for_area,
    offdiag_magnitude,
    optimal_spacing,
    spatial_dof,
)


class TestRadioParams:
    def test_derived_quantities(self):
        r = RadioParams(carrier_frequency=3e9, power_over_noise_db=100.0)
        assert r.power_over_noise == pytest.approx(1e10)
        assert r.wavelength() == pytest.approx(SPEED_OF_LIGHT / 3e9)
        assert r.bandwidth() == pytest.approx(0.03 * 3e9)
        assert r.bandwidth(10e9) == pytest.approx(0.03 * 10e9)

    def test_fixed_bandwidth(self):
        r = RadioParams(carrier_frequency=3e9, power_over_noise_db=90.0,
                        bandwidth_fraction=None, bandwidth_hz=20e6)
        assert r.bandwidth() == 20e6
        assert r.bandwidth(50e9) == 20e6

    def test_fields_are_the_radio_block(self):
        # one field per key of the radio block, whose `frequency` is the
        # carrier
        keys = ["carrier_frequency" if key == "frequency" else key
                for key in RADIO.keys]
        assert [f.name for f in dataclasses.fields(RadioParams)] == keys

    def test_validation(self):
        with pytest.raises(ValueError):
            RadioParams(carrier_frequency=-1.0, power_over_noise_db=90.0)
        with pytest.raises(ValueError):
            RadioParams(carrier_frequency=3e9, power_over_noise_db=90.0,
                        bandwidth_fraction=0.03, bandwidth_hz=1e6)
        # a power ratio or a bandwidth beyond the float range
        for db in (1e300, -1e300):
            with pytest.raises(ValueError, match="^power_over_noise_db: "):
                RadioParams(carrier_frequency=3e9, power_over_noise_db=db)
        with pytest.raises(ValueError, match="^bandwidth_fraction: "):
            RadioParams(carrier_frequency=3e9, power_over_noise_db=90.0,
                        bandwidth_fraction=1e300)


class TestChannelConstruction:
    def test_exact_matrix_entries(self):
        lam = 0.1
        link = build_los_mimo(3, 0.25, 8.0, lam)
        idx = np.arange(1, 4)
        d = np.sqrt(8.0**2 + ((idx[:, None] - idx[None, :]) * 0.25) ** 2)
        expected = (lam / (4 * np.pi * d)) * np.exp(
            -2j * np.pi * (d - 8.0) / lam)
        np.testing.assert_allclose(link.h_exact, expected, rtol=1e-12)

    def test_fresnel_matches_exact_phases_paraxially(self):
        # with delta^2/(2 d) << lambda the two phase conventions agree
        lam = 0.1
        d = 50.0
        spacing = optimal_spacing(4, d, lam)
        link = build_los_mimo(4, spacing, d, lam)
        ph_exact = np.angle(link.h_exact / np.abs(link.h_exact))
        ph_fresnel = np.angle(link.h_fresnel / np.abs(link.h_fresnel))
        err = np.angle(np.exp(1j * (ph_exact - ph_fresnel)))
        assert np.abs(err).max() < 0.02

    def test_beta(self):
        # unit antenna gains: beta is the Friis path gain; directive gain
        # enters only through capacity_frequency_sweep
        link = build_los_mimo(2, 0.3, 10.0, 0.1)
        assert link.beta == pytest.approx((0.1 / (4 * np.pi * 10)) ** 2)
        np.testing.assert_allclose(np.abs(link.h_fresnel),
                                   math.sqrt(link.beta), rtol=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_los_mimo(2, 0.0, 1.0, 0.1)
        # the path gain or the antenna distances leave the float range
        for spacing, distance in ((0.3, 1e-300), (0.3, 1e300), (1e300, 10.0)):
            with pytest.raises(ValueError, match="float range|overflow"):
                build_los_mimo(2, spacing, distance, 0.1)


class TestOptimalSpacing:
    def test_value(self):
        assert optimal_spacing(4, 10.0, 0.1) == pytest.approx(0.5)

    def test_gram_is_scaled_identity(self):
        lam = 0.0999308
        d = 10.0
        for k in (2, 4, 10):
            spacing = optimal_spacing(k, d, lam)
            link = build_los_mimo(k, spacing, d, lam)
            gram = link.h_fresnel.conj().T @ link.h_fresnel
            np.testing.assert_allclose(
                gram, link.beta * k * np.eye(k), atol=1e-12 * link.beta * k)

    def test_offdiag_closed_form_matches_brute_force(self):
        lam = 0.1
        d = 12.0
        k_ant = 5
        for spacing in (0.21, 0.4, optimal_spacing(k_ant, d, lam) * 1.3):
            link = build_los_mimo(k_ant, spacing, d, lam)
            gram = link.h_fresnel.conj().T @ link.h_fresnel
            for (i, j) in ((0, 1), (0, 4), (2, 3)):
                expected = abs(gram[i, j])
                got = offdiag_magnitude(k_ant, spacing, d, lam,
                                        i + 1, j + 1, beta=link.beta)
                assert got == pytest.approx(expected, rel=1e-10, abs=1e-18)

    def test_offdiag_vanishes_at_optimal_spacing(self):
        lam = 0.1
        d = 12.0
        spacing = optimal_spacing(5, d, lam)
        val = offdiag_magnitude(5, spacing, d, lam, 1, 2)
        beta = (lam / (4 * np.pi * d)) ** 2
        assert val < 1e-10 * beta

    def test_offdiag_requires_distinct_indices(self):
        with pytest.raises(ValueError):
            offdiag_magnitude(4, 0.2, 5.0, 0.1, 2, 2)


class TestWaterfilling:
    def test_single_eigenvalue(self):
        res = capacity_waterfilling([2.0], snr=10.0)
        assert res.k_used == 1
        assert res.powers[0] == pytest.approx(1.0)
        assert res.capacity == pytest.approx(math.log2(1 + 20.0))

    def test_equal_eigenvalues_equal_power(self):
        k = 6
        res = capacity_waterfilling(np.full(k, 3.0), snr=5.0)
        np.testing.assert_allclose(res.powers, 1.0 / k, rtol=1e-12)
        assert res.capacity == pytest.approx(k * math.log2(1 + 5 * 3 / k))

    def test_matches_closed_form_for_optimal_spacing(self):
        # optimally spaced ULAs: eigenvalues all beta K, equal power split,
        # capacity B K log2(1 + P beta / (B N0))
        beta = 2.3e-9
        k = 4
        p_over_n0 = 1e10
        b = 90e6
        snr = p_over_n0 / b
        res = capacity_waterfilling(np.full(k, beta * k), snr=snr, bandwidth=b)
        closed = equal_eigenvalue_capacity(k, p_over_n0 * beta / b, b)
        assert res.capacity == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("snr", [1e-10, 1e-20, 1e-300])
    def test_rate_below_eps(self, snr):
        # log2(1 + x) rounds 1 + x, so it lost x below eps: 0 at snr 1e-20,
        # a relative error near 1e-7 at 1e-10; ln(1 + x) = x (1 - x/2) to x^3
        rate = snr * (1.0 - 0.5 * snr) / math.log(2.0)
        assert equal_eigenvalue_capacity(3, snr, 2.0) \
            == pytest.approx(6.0 * rate, rel=1e-15, abs=0)

    def test_waterfilling_rate_at_low_snr(self):
        # two equal streams at half power each: x = 5e-11 per stream
        res = capacity_waterfilling([1.0, 1.0], snr=1e-10)
        x = 5e-11
        assert res.capacity == pytest.approx(
            2.0 * x * (1.0 - 0.5 * x) / math.log(2.0), rel=1e-15, abs=0)

    @pytest.mark.parametrize("snr", [1e-17, 1e-100, 1e-300])
    def test_single_stream_floor_above_inverse_eps(self, snr):
        # the floor 1/snr is far above 1/eps, where 1 + 1/snr rounds to
        # 1/snr: the one stream still takes the whole power
        res = capacity_waterfilling([1.0], snr=snr)
        assert res.k_used == 1 and res.powers[0] == 1.0
        assert res.capacity == pytest.approx(snr / math.log(2.0), rel=1e-15,
                                             abs=0)

    def test_floors_above_inverse_eps(self):
        # floors 1e17 and 2e17: the level 1 + 1e17 stays below the second
        # floor, so the strongest stream takes the whole power
        res = capacity_waterfilling([2.0, 1.0], snr=5e-18)
        assert res.k_used == 1
        np.testing.assert_array_equal(res.powers, [1.0, 0.0])
        assert res.capacity == pytest.approx(1e-17 / math.log(2.0),
                                             rel=1e-15, abs=0)
        # equal floors of 1e20 share it equally
        res = capacity_waterfilling([1.0, 1.0, 1.0, 0.0], snr=1e-20)
        assert res.k_used == 3
        np.testing.assert_array_equal(res.powers, [1 / 3, 1 / 3, 1 / 3, 0.0])
        assert res.capacity == pytest.approx(1e-20 / math.log(2.0),
                                             rel=1e-15, abs=0)

    def test_against_grid_search_oracle(self):
        rng = np.random.default_rng(3)
        lam = np.sort(rng.uniform(0.1, 5.0, 4))[::-1]
        snr = 2.0
        res = capacity_waterfilling(lam, snr)
        # dense simplex grid over 4 non-negative powers summing to 1
        n = 40
        best = 0.0
        fracs = np.linspace(0, 1, n + 1)
        for p1 in fracs:
            for p2 in fracs:
                if p1 + p2 > 1:
                    continue
                for p3 in fracs:
                    if p1 + p2 + p3 > 1:
                        continue
                    p4 = 1 - p1 - p2 - p3
                    c = np.sum(np.log2(1 + snr * lam * np.array([p1, p2, p3, p4])))
                    best = max(best, c)
        assert res.capacity >= best - 1e-9
        assert res.capacity == pytest.approx(best, rel=2e-3)

    def test_kkt_conditions(self):
        lam = np.array([4.0, 1.0, 0.2, 0.01])
        snr = 3.0
        res = capacity_waterfilling(lam, snr)
        assert np.sum(res.powers) == pytest.approx(1.0)
        active = res.powers > 0
        levels = res.powers[active] + 1.0 / (snr * lam[active])
        np.testing.assert_allclose(levels, levels[0], rtol=1e-10)
        if np.any(~active):
            assert np.all(1.0 / (snr * lam[~active]) >= levels[0] - 1e-12)

    def test_weak_modes_dropped(self):
        res = capacity_waterfilling([1.0, 1e-9], snr=1.0)
        assert res.k_used == 1
        assert res.powers[1] == 0.0

    def test_zero_eigenvalues(self):
        res = capacity_waterfilling([0.0, 0.0], snr=1.0)
        assert res.capacity == 0.0
        assert res.k_used == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            capacity_waterfilling([-1.0], snr=1.0)
        with pytest.raises(ValueError):
            capacity_waterfilling([1.0], snr=0.0)


class TestBandwidthSweep:
    def test_monotone_and_below_limit(self):
        sweep = capacity_bandwidth_sweep(1e10, 4e-9, np.geomspace(1e6, 1e12, 60))
        rates = np.asarray(sweep.rates)
        assert np.all(np.diff(rates) > 0)
        assert np.all(rates < sweep.rate_limit * (1 + 1e-12))
        assert sweep.rate_limit == pytest.approx(math.log2(math.e) * 40.0)

    def test_b80_self_consistent(self):
        s = 1e10 * 4e-9
        sweep = capacity_bandwidth_sweep(1e10, 4e-9, [1e6])
        b = sweep.bandwidth_80pct
        assert b * math.log2(1 + s / b) == pytest.approx(0.8 * sweep.rate_limit,
                                                         rel=1e-6)

    @pytest.mark.parametrize("s", [
        1e-200, 3.7e-5, 1.0, 4e1, 2.2e7, 1e250,
        # fig1: 110 dB and the Friis gain at 10 m and 3 GHz
        1e11 * free_space_gain(SPEED_OF_LIGHT / 3e9, 10.0)])
    def test_b80_closed_form(self, s):
        # y80, the root of log1p(y) = 0.8 y, to 40 digits with mpmath:
        # 0.5385527622303237960
        b80 = capacity_bandwidth_sweep(s, 1.0, [1.0]).bandwidth_80pct
        assert b80 == pytest.approx(s / 0.5385527622303237960, rel=1e-14,
                                    abs=0)

    def test_large_bandwidth_approaches_limit(self):
        sweep = capacity_bandwidth_sweep(1e10, 4e-9, [1e5 * 1e10 * 4e-9])
        assert sweep.rates[0] == pytest.approx(sweep.rate_limit, rel=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            capacity_bandwidth_sweep(1e10, 4e-9, [])
        with pytest.raises(ValueError, match="float range"):
            capacity_bandwidth_sweep(1e11, 1e300, [1e6])


class TestAreaAndDof:
    def test_num_streams_small_area(self):
        lam = SPEED_OF_LIGHT / 3e9
        # a 0.5 m^2 desk array at 10 m cannot fit two optimally spaced antennas
        assert num_streams_for_area(0.5, 10.0, lam, lam / 2) == 1

    def test_num_streams_grows_with_area(self):
        lam = 0.01
        k_small = num_streams_for_area(1.0, 5.0, lam, lam / 2)
        k_large = num_streams_for_area(25.0, 5.0, lam, lam / 2)
        assert k_large > k_small >= 1
        # constraint holds at the returned K and fails at K + 1
        side = 5.0
        k = k_large
        assert math.sqrt(lam * 5.0 / k) * (k - 1) + lam / 2 <= side
        k1 = k + 1
        assert math.sqrt(lam * 5.0 / k1) * (k1 - 1) + lam / 2 > side

    @pytest.mark.parametrize("area,distance,wavelength", [
        # lambda d is a subnormal
        (1e-310, 1e-162, SPEED_OF_LIGHT / 1.5e170),
        # lambda d is normal, but lambda d / K, with K near 1e12, is not
        (1e-296, 3e-154, 1e-154),
    ], ids=["lambda-d", "lambda-d-per-stream"])
    def test_num_streams_underflow_raises(self, time_limit, area, distance,
                                          wavelength):
        # the fit test cannot tell K from K + 1 there; it stepped for
        # seconds, or for ever, before these raised
        with time_limit(10):
            with pytest.raises(ValueError, match="underflows"):
                num_streams_for_area(area, distance, wavelength,
                                     wavelength / 2)

    def test_spatial_dof(self):
        assert spatial_dof(1.0, 0.1) == pytest.approx(math.pi * 100)
        # desk array at 3 GHz: about 157 orthogonal channels per m^2 of 0.5
        lam = SPEED_OF_LIGHT / 3e9
        assert spatial_dof(0.5, lam) == pytest.approx(157.3, abs=0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            spatial_dof(0.0, 0.1)
        # pi A / lambda^2 beyond the float range, or underflowing to 0
        for lam in (1e-200, 1e-160, 1e300):
            with pytest.raises(ValueError, match="float range"):
                spatial_dof(0.5, lam)
        with pytest.raises(ValueError):
            num_streams_for_area(1.0, -1.0, 0.1, 0.05)


AREA = 0.01      # m^2, fixed array area for the frequency sweep
DIST = 10.0      # m
PN0_DB = 189.03  # P/N0 in dB


class TestFrequencySweep:
    def test_single_stream_for_small_area(self):
        radio = RadioParams(carrier_frequency=3e9, power_over_noise_db=PN0_DB)
        freqs = np.linspace(1e9, 100e9, 34)
        points = capacity_frequency_sweep(AREA, DIST, freqs, radio)
        assert all(p.num_streams == 1 for p in points)

    def test_num_streams_nondecreasing(self):
        radio = RadioParams(carrier_frequency=3e9, power_over_noise_db=PN0_DB)
        freqs = np.linspace(1e9, 1000e9, 80)
        points = capacity_frequency_sweep(AREA, DIST, freqs, radio)
        ks = [p.num_streams for p in points]
        assert all(b >= a for a, b in zip(ks, ks[1:]))
        assert ks[-1] > 1  # the constraint does eventually admit more streams

    def test_isotropic_peak_location(self):
        radio = RadioParams(carrier_frequency=3e9, power_over_noise_db=PN0_DB)
        freqs = np.linspace(1e9, 100e9, 400)
        points = capacity_frequency_sweep(AREA, DIST, freqs, radio)
        caps = np.array([p.capacity for p in points])
        f_peak = freqs[np.argmax(caps)]
        assert 30e9 < f_peak < 50e9

    def test_directive_gain_grows_with_frequency(self):
        radio = RadioParams(carrier_frequency=3e9, power_over_noise_db=PN0_DB)
        freqs = np.linspace(1e9, 100e9, 50)
        c_iso = [p.capacity for p in
                 capacity_frequency_sweep(AREA, DIST, freqs, radio)]
        c_dir = [p.capacity for p in capacity_frequency_sweep(
            AREA, DIST, freqs, radio, directive=True)]
        assert all(d > i for d, i in zip(c_dir, c_iso))
        ratio = np.array(c_dir) / np.array(c_iso)
        assert np.all(np.diff(ratio) > 0)  # directivity pays off more at high f

    def test_point_value(self):
        radio = RadioParams(carrier_frequency=3e9, power_over_noise_db=PN0_DB)
        [point] = capacity_frequency_sweep(AREA, DIST, [3e9], radio)
        lam = SPEED_OF_LIGHT / 3e9
        beta = (lam / (4 * math.pi * DIST)) ** 2
        b = 0.03 * 3e9
        expected = b * math.log2(1 + radio.power_over_noise * beta / b)
        assert point.capacity == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("f", [3e9, 70e9])
    def test_directive_point_value(self, f):
        # K = 1 and aperture gain 4 pi AREA / lambda^2 per end: Friis'
        # beta = AREA^2 / (lambda d)^2
        radio = RadioParams(carrier_frequency=3e9, power_over_noise_db=PN0_DB)
        [point] = capacity_frequency_sweep(AREA, DIST, [f], radio,
                                           directive=True)
        assert point.num_streams == 1
        lam = SPEED_OF_LIGHT / f
        b = 0.03 * f
        expected = b * math.log2(
            1 + radio.power_over_noise * AREA**2 / (lam * DIST) ** 2 / b)
        assert point.capacity == pytest.approx(expected, rel=1e-12)

    def test_directive_aperture_split(self):
        # at 300 GHz two streams share the area, so each end has the
        # aperture gain of AREA / 2, and beta is a quarter of Friis' value
        radio = RadioParams(carrier_frequency=3e9, power_over_noise_db=PN0_DB)
        f = 300e9
        [point] = capacity_frequency_sweep(AREA, DIST, [f], radio,
                                           directive=True)
        assert point.num_streams == 2
        lam = SPEED_OF_LIGHT / f
        gain = 4 * math.pi * (AREA / 2) / lam**2
        beta = gain**2 * (lam / (4 * math.pi * DIST)) ** 2
        assert beta == pytest.approx(AREA**2 / (lam * DIST) ** 2 / 4,
                                     rel=1e-12)
        b = 0.03 * f
        expected = 2 * b * math.log2(1 + radio.power_over_noise * beta / b)
        assert point.capacity == pytest.approx(expected, rel=1e-12)


class TestModeAnalysis:
    def test_near_field_equal_split(self):
        lam = 0.0999308
        d = 10.0
        k = 4
        link = build_los_mimo(k, optimal_spacing(k, d, lam), d, lam)
        analysis = mode_analysis(link, num_angles=256)
        # Fresnel-optimal spacing: eigenvalues nearly equal (1/K each)
        np.testing.assert_allclose(analysis.eigenvalue_fractions, 1.0 / k,
                                   atol=0.01)

    def test_far_field_single_dominant_mode(self):
        lam = 0.0999308
        k = 10
        spacing = lam / 2
        d = 1e4  # far beyond the array's Fraunhofer distance
        link = build_los_mimo(k, spacing, d, lam)
        analysis = mode_analysis(link, num_angles=256)
        assert analysis.eigenvalue_fractions[0] > 0.95

    def test_patterns_shape_and_normalization(self):
        lam = 0.1
        link = build_los_mimo(3, optimal_spacing(3, 5.0, lam), 5.0, lam)
        analysis = mode_analysis(link, num_angles=128)
        assert analysis.patterns.shape == (3, 128)
        assert analysis.angles[0] == pytest.approx(-math.pi / 2)
        assert np.all(analysis.patterns >= 0)
        assert np.all(analysis.patterns <= 1 + 1e-12)
        assert analysis.eigenvalue_fractions.sum() == pytest.approx(1.0)

    def test_near_field_modes_span_angles(self):
        # distinct transmit modes point at distinct angles in the near field
        lam = 0.0999308
        k = 4
        d = 10.0
        link = build_los_mimo(k, optimal_spacing(k, d, lam), d, lam)
        analysis = mode_analysis(link, num_angles=1024)
        peaks = analysis.angles[np.argmax(analysis.patterns, axis=1)]
        assert len(np.unique(np.round(peaks, 3))) == k
