"""The fluid engine against its per-epoch oracle: the bit-identity contract.

The engine (:func:`repro.fastpath.vector.run_fluid_trace`) must produce
the same epochs as the per-epoch reference loop in
``tests/fastpath/oracle.py``, and byte-identical datasets at every
worker count.  These tests pin that contract at four levels: the numpy
fill contract the site streams rely on, the array forms of the scalar
formulas, random path configurations epoch by epoch, and whole
campaigns hashed through the CSV writer.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fastpath.sites import SITE_NAMES, FluidSites
from repro.formulas.params import TcpParameters
from repro.paths.config import (
    march_2006_catalog,
    may_2004_catalog,
    scaled_catalog,
)
from repro.testbed.campaign import Campaign, CampaignSettings
from repro.testbed.io import save_dataset
from tests.fastpath.oracle import (
    engine_trace,
    oracle_campaign,
    oracle_run_trace,
    oracle_trace,
)
from tests.integration.test_fuzz import fluid_configs

#: sha256 of the default-catalog campaign CSV (35 paths x 7 traces x
#: 150 epochs, seed 0).  Pins the engine's numeric output: any change
#: to accumulation order, stream layout, or formula expression trees
#: shows up here before it silently invalidates the paper's committed
#: analysis numbers.  ``make vector-parity`` checks the same digest at
#: workers 1, 2 and 4.
DEFAULT_CATALOG_SHA256 = (
    "3487ff2c0fa965927088df86f6ea7709283d9dfeea54dd88ffbde4e376fd097b"
)

MAY_SETTINGS = CampaignSettings(n_traces=2, epochs_per_trace=25)
MARCH_SETTINGS = CampaignSettings(
    n_traces=2,
    epochs_per_trace=25,
    transfer_duration_s=120.0,
    run_small_window=False,
    checkpoint_fractions=(0.25, 0.5, 1.0),
)


def csv_bytes(tmp_path, name, dataset):
    path = tmp_path / name
    save_dataset(dataset, path)
    return path.read_bytes()


def engine_and_oracle_csv(tmp_path, catalog, settings, seed=0, **kwargs):
    """CSV bytes of ``Campaign.run(**kwargs)`` and of the oracle campaign."""
    engine = Campaign(catalog, seed=seed).run(settings, **kwargs)
    oracle = oracle_campaign(Campaign(catalog, seed=seed), settings)
    return (
        csv_bytes(tmp_path, "engine.csv", engine),
        csv_bytes(tmp_path, "oracle.csv", oracle),
    )


class TestFillContract:
    """The numpy batching property every site stream relies on."""

    def test_batched_normal_fill_matches_scalar_calls(self):
        batched = np.random.default_rng(5).standard_normal((7, 3))
        scalar = np.random.default_rng(5)
        for row in batched:
            assert row.tolist() == scalar.standard_normal(3).tolist()

    def test_batched_uniform_fill_matches_scalar_calls(self):
        batched = np.random.default_rng(5).uniform(150.0, 190.0, 9)
        scalar = np.random.default_rng(5)
        assert batched.tolist() == [
            scalar.uniform(150.0, 190.0) for _ in range(9)
        ]

    def test_site_bundle_uses_one_stream_per_site(self):
        from repro.core.rng import RngStreams

        streams = RngStreams(3)
        sites = FluidSites.from_streams(streams, "p01", 2)
        reference = {
            site: RngStreams(3).get(f"p01/trace2/fluid/{site}")
            for site in SITE_NAMES
        }
        for site in SITE_NAMES:
            assert (
                getattr(sites, site).random() == reference[site].random()
            ), site


class TestFormulaArrayTwins:
    """Array variants must be bitwise equal to the scalar formulas the
    oracle calls."""

    RHO = np.concatenate(
        [np.linspace(0.01, 0.97, 41), [0.0, 0.999, 1.0, 1.2]]
    )

    def test_mm1k_loss_probability(self):
        from repro.fastpath.queueing import (
            mm1k_loss_probability,
            mm1k_loss_probability_array,
        )

        for k in (10, 83, 400):
            batch = mm1k_loss_probability_array(self.RHO, k)
            for rho, value in zip(self.RHO, batch):
                assert value == mm1k_loss_probability(float(rho), k)

    def test_mm1k_mean_queue_delay(self):
        from repro.fastpath.queueing import (
            mm1k_mean_queue_delay_s,
            mm1k_mean_queue_delay_s_array,
        )

        for k, mu in ((10, 850.0), (83, 8300.0)):
            batch = mm1k_mean_queue_delay_s_array(self.RHO, k, mu)
            for rho, value in zip(self.RHO, batch):
                assert value == mm1k_mean_queue_delay_s(float(rho), k, mu)

    def test_pftk_throughput(self):
        from repro.formulas.params import TcpParameters
        from repro.formulas.pftk import pftk_throughput, pftk_throughput_array

        tcp = TcpParameters.congestion_limited()
        rtt = np.linspace(0.01, 0.4, 23)
        loss = np.geomspace(1e-6, 0.4, 23)
        rto = np.maximum(1.0, 2.0 * rtt)
        batch = pftk_throughput_array(rtt, loss, rto, tcp)
        for i in range(rtt.size):
            assert batch[i] == pftk_throughput(
                float(rtt[i]), float(loss[i]), float(rto[i]), tcp
            )

    def test_pftk_loss_inversion(self):
        """The bisection's compressed-subset rewrite stays bit-exact —
        including targets above the lossless ceiling and below the
        bottom of the bracket, which exit before the loop."""
        from repro.formulas.params import TcpParameters
        from repro.formulas.pftk import (
            pftk_loss_for_throughput,
            pftk_loss_for_throughput_array,
        )

        tcp = TcpParameters.congestion_limited()
        rtt = np.linspace(0.01, 0.4, 29)
        rto = np.maximum(1.0, 2.0 * rtt)
        target = np.geomspace(1e-4, 5e3, 29)
        batch = pftk_loss_for_throughput_array(target, rtt, rto, tcp)
        for i in range(rtt.size):
            assert batch[i] == pftk_loss_for_throughput(
                float(target[i]), float(rtt[i]), float(rto[i]), tcp
            )


class TestEngineParity:
    """Whole campaigns: ``Campaign.run`` == the oracle, byte for byte."""

    def test_trace_equality(self):
        config = may_2004_catalog()[0]
        engine = Campaign([config], seed=3).run_trace(config, 1, MAY_SETTINGS)
        oracle = oracle_run_trace(
            Campaign([config], seed=3), config, 1, MAY_SETTINGS
        )
        assert engine == oracle

    def test_may_style_csv_identical(self, tmp_path):
        catalog = scaled_catalog(may_2004_catalog(), 3)
        engine, oracle = engine_and_oracle_csv(tmp_path, catalog, MAY_SETTINGS)
        assert engine == oracle

    def test_march_style_csv_identical(self, tmp_path):
        """The checkpoint-fraction path draws extra z columns."""
        catalog = scaled_catalog(march_2006_catalog(), 3)
        engine, oracle = engine_and_oracle_csv(
            tmp_path, catalog, MARCH_SETTINGS, seed=1
        )
        assert engine == oracle

    @pytest.mark.parametrize("n_workers", [2])
    def test_parallel_vector_matches_serial_scalar(self, tmp_path, n_workers):
        """The engine in worker processes == the oracle run serially."""
        catalog = scaled_catalog(may_2004_catalog(), 3)
        engine, oracle = engine_and_oracle_csv(
            tmp_path, catalog, MAY_SETTINGS, n_workers=n_workers
        )
        assert engine == oracle


class TestOracleParity:
    """Random path configurations, off the catalog, epoch by epoch."""

    @given(
        config=fluid_configs,
        seed=st.integers(min_value=0, max_value=10**6),
        small_tcp=st.sampled_from([None, TcpParameters.window_limited()]),
        checkpoint_fractions=st.sampled_from([(), (0.25, 0.5, 1.0)]),
    )
    @settings(max_examples=250, deadline=None)
    def test_random_configs_match_oracle(
        self, config, seed, small_tcp, checkpoint_fractions
    ):
        kwargs = dict(
            seed=seed,
            small_tcp=small_tcp,
            checkpoint_fractions=checkpoint_fractions,
        )
        engine = engine_trace(config, 8, **kwargs)
        assert engine.epochs == oracle_trace(config, 8, **kwargs).epochs


@pytest.mark.slow
class TestDefaultCatalogDigest:
    """The regression pin: the full default-catalog sha256."""

    def test_default_catalog_sha256(self, tmp_path):
        dataset = Campaign(may_2004_catalog(), seed=0).run(CampaignSettings())
        digest = hashlib.sha256(
            csv_bytes(tmp_path, "default.csv", dataset)
        ).hexdigest()
        assert digest == DEFAULT_CATALOG_SHA256
