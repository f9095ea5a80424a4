"""The optional fluid-model knobs: diurnal load and M/G/1 burstiness."""

from dataclasses import replace

import numpy as np
import pytest

from repro.fastpath.loadmodel import DAY_S, CrossLoadProcess
from repro.fastpath.queueing import pollaczek_khinchine_factor
from repro.paths.config import may_2004_catalog
from tests.fastpath.oracle import engine_trace


def config(**overrides):
    return replace(may_2004_catalog()[11], **overrides)  # p12


class TestPkFactor:
    def test_exponential_baseline_is_one(self):
        assert pollaczek_khinchine_factor(1.0) == 1.0

    def test_deterministic_service_halves_wait(self):
        assert pollaczek_khinchine_factor(0.0) == 0.5

    def test_bursty_traffic_waits_longer(self):
        assert pollaczek_khinchine_factor(3.0) == 2.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pollaczek_khinchine_factor(-0.1)


class TestBurstinessKnob:
    def test_default_neutral(self):
        """scv = 1 must not change any measurement (calibration safety)."""
        base = config()
        explicit = config(burstiness_scv=1.0)
        for cfg in (base, explicit):
            assert cfg.burstiness_scv == 1.0
        ea = engine_trace(base, 1).epochs[0]
        eb = engine_trace(explicit, 1).epochs[0]
        assert ea.that_s == eb.that_s

    def test_burstier_traffic_longer_rtt(self):
        smooth = config(burstiness_scv=1.0, base_util=0.8, ar_sigma=1e-4,
                        shift_rate_per_hour=0.0, outlier_rate=0.0, util_spread=0.0)
        bursty = replace(smooth, burstiness_scv=4.0)
        rtts = {}
        for label, cfg in (("smooth", smooth), ("bursty", bursty)):
            epochs = engine_trace(cfg, 20, seed=1).epochs
            rtts[label] = float(np.median([e.that_s for e in epochs]))
        assert rtts["bursty"] > rtts["smooth"]

    def test_validation(self):
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            config(burstiness_scv=0.0)


class TestDiurnalLoad:
    def test_default_off(self):
        assert config().diurnal_amplitude == 0.0

    def test_modulates_regime_over_a_day(self):
        cfg = config(
            diurnal_amplitude=0.2, ar_sigma=1e-4, ar_phi=0.0,
            shift_rate_per_hour=0.0, outlier_rate=0.0, util_spread=0.0,
        )
        process = CrossLoadProcess(
            cfg, np.random.default_rng(2), regime_mean=cfg.base_util
        )
        # Sample quarter-day steps: utilization must swing with the sine.
        utils = [process.advance(DAY_S / 4).util_pre for _ in range(4)]
        assert max(utils) - min(utils) > 0.2

    def test_zero_amplitude_time_invariant(self):
        cfg = config(
            diurnal_amplitude=0.0, ar_sigma=1e-4, ar_phi=0.0,
            shift_rate_per_hour=0.0, outlier_rate=0.0, util_spread=0.0,
        )
        process = CrossLoadProcess(
            cfg, np.random.default_rng(3), regime_mean=0.5
        )
        utils = [process.advance(DAY_S / 4).util_pre for _ in range(4)]
        assert max(utils) - min(utils) < 0.01

    def test_validation(self):
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            config(diurnal_amplitude=-0.1)
