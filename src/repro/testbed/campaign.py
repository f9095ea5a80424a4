"""The measurement campaign runner (paper Section 4.1).

Reproduces the paper's structure: on each path, several traces of
back-to-back epochs; each epoch produces the full measurement tuple.
The paper's first set is 35 paths x 7 traces x 150 epochs at 2-3 minute
intervals; the second set is 24 paths with 120 s transfers and
30/60/120 s checkpoints.

Each (path, trace) pair gets its own named RNG stream, so any subset of
the campaign reproduces identically regardless of execution order.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.errors import ConfigurationError
from repro.formulas.params import TcpParameters
from repro.paths.config import PathConfig

if TYPE_CHECKING:  # pragma: no cover - types only: a cache hit loads no numpy
    from repro.core.rng import RngStreams
    from repro.paths.records import Dataset, Trace

#: Epoch spacing: the paper reports 2-3 minutes between transfers.
EPOCH_INTERVAL_RANGE_S = (150.0, 190.0)

#: Traces on the same path were collected at different times; six hours
#: of trace duration plus a gap puts them in different load regimes.
TRACE_GAP_S = 8 * 3600.0


@dataclass(frozen=True)
class CampaignSettings:
    """Knobs of a campaign run.

    Attributes:
        n_traces: traces per path (the paper: 7).
        epochs_per_trace: epochs per trace (the paper: 150).
        transfer_duration_s: target transfer length (50 s or 120 s).
        run_small_window: also run the W = 20 KB companion transfer.
        checkpoint_fractions: sub-duration cuts, as fractions of the
            transfer duration (Fig. 11 uses (0.25, 0.5, 1.0) on 120 s).
    """

    n_traces: int = 7
    epochs_per_trace: int = 150
    transfer_duration_s: float = 50.0
    run_small_window: bool = True
    checkpoint_fractions: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.n_traces < 1:
            raise ConfigurationError(f"n_traces must be >= 1, got {self.n_traces}")
        if self.epochs_per_trace < 1:
            raise ConfigurationError(
                f"epochs_per_trace must be >= 1, got {self.epochs_per_trace}"
            )
        if self.transfer_duration_s <= 0:
            raise ConfigurationError("transfer_duration_s must be positive")


class Campaign:
    """Runs the measurement campaign over a path catalog.

    Args:
        catalog: the paths to measure.
        seed: root seed for all randomness.
        label: dataset label ("may-2004").
        tcp: main transfer parameters (default: the paper's W = 1 MB).
        small_tcp: companion transfer parameters (default: W = 20 KB).
    """

    def __init__(
        self,
        catalog: list[PathConfig],
        seed: int = 0,
        label: str = "campaign",
        tcp: TcpParameters | None = None,
        small_tcp: TcpParameters | None = None,
    ) -> None:
        if not catalog:
            raise ConfigurationError("catalog must contain at least one path")
        self.catalog = list(catalog)
        #: the root seed, as a plain int (the cache key reads it).
        self.seed = operator.index(seed)
        self.label = label
        self.tcp = tcp or TcpParameters.congestion_limited()
        self.small_tcp = small_tcp or TcpParameters.window_limited()

    @functools.cached_property
    def streams(self) -> RngStreams:
        """The named RNG streams of :attr:`seed`, built on first use so
        that keying a campaign (a dataset-cache hit) loads no numpy."""
        from repro.core.rng import RngStreams

        return RngStreams(self.seed)

    def run(
        self,
        settings: CampaignSettings | None = None,
        n_workers: int = 1,
        progress=None,
        *,
        retry=None,
        checkpoint=None,
        run_key: str | None = None,
        resume: bool = False,
    ) -> Dataset:
        """Execute the campaign and return the collected dataset.

        Args:
            settings: campaign knobs (defaults to the paper's).
            n_workers: worker processes for the (path, trace) work
                units; 1 runs serially, 0 uses all CPUs.  Because each
                trace draws from its own named RNG stream, the result is
                bit-identical for every worker count.
            progress: optional callback receiving a
                :class:`repro.testbed.executor.CampaignProgress`
                snapshot after each finished trace.
            retry: a :class:`repro.testbed.executor.RetryPolicy`
                governing retry/backoff/timeout behaviour for failing
                jobs (default: two retries, no job timeout).
            checkpoint: a
                :class:`repro.testbed.checkpoint.CheckpointStore`; when
                given, every finished trace is persisted so a crashed
                run can be resumed.
            run_key: checkpoint namespace override (defaults to the
                campaign's content fingerprint).
            resume: skip traces already checkpointed under ``run_key``;
                the result is bit-identical to an uninterrupted run.
        """
        # Import the engine before run_campaign can fork a pool, so
        # forked workers inherit it instead of each importing it.
        import repro.fastpath.vector  # noqa: F401
        from repro.testbed.executor import run_campaign

        settings = settings or CampaignSettings()
        return run_campaign(
            self,
            settings,
            n_workers=n_workers,
            progress=progress,
            retry=retry,
            checkpoint=checkpoint,
            run_key=run_key,
            resume=resume,
        )

    def run_trace(
        self,
        config: PathConfig,
        trace_index: int,
        settings: CampaignSettings | None = None,
    ) -> Trace:
        """Collect one trace on one path.

        The trace draws from its own named site streams
        (``{path}/trace{i}/fluid/{site}``), so it is the same whether
        simulated alone or inside a whole campaign.
        """
        # Imported here, not at module level, so a dataset-cache hit
        # never loads the engine; it is looked up on its module per call.
        from repro.fastpath import sites as fluid_sites, vector

        settings = settings or CampaignSettings()
        sites = fluid_sites.FluidSites.from_streams(
            self.streams, config.path_id, trace_index
        )
        dt_s = sites.dt.uniform(*EPOCH_INTERVAL_RANGE_S, settings.epochs_per_trace)
        return vector.run_fluid_trace(
            config,
            sites,
            trace_index,
            dt_s,
            tcp=self.tcp,
            small_tcp=self.small_tcp if settings.run_small_window else None,
            checkpoint_fractions=settings.checkpoint_fractions,
            transfer_duration_s=settings.transfer_duration_s,
            start_time_s=trace_index * TRACE_GAP_S,
        )


def run_may_2004(
    seed: int = 0,
    n_traces: int = 7,
    epochs_per_trace: int = 150,
    run_small_window: bool = True,
) -> Dataset:
    """Convenience: the first measurement set at the requested scale."""
    from repro.paths.config import may_2004_catalog

    campaign = Campaign(may_2004_catalog(), seed=seed, label="may-2004")
    return campaign.run(
        CampaignSettings(
            n_traces=n_traces,
            epochs_per_trace=epochs_per_trace,
            run_small_window=run_small_window,
        )
    )


def run_march_2006(
    seed: int = 1,
    n_traces: int = 3,
    epochs_per_trace: int = 150,
) -> Dataset:
    """Convenience: the second set — 120 s transfers, 30/60/120 s cuts."""
    from repro.paths.config import march_2006_catalog

    campaign = Campaign(march_2006_catalog(), seed=seed, label="march-2006")
    return campaign.run(
        CampaignSettings(
            n_traces=n_traces,
            epochs_per_trace=epochs_per_trace,
            transfer_duration_s=120.0,
            run_small_window=False,
            checkpoint_fractions=(0.25, 0.5, 1.0),
        )
    )
