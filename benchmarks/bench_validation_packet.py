"""Validation — a packet-level mini-campaign against the fluid model.

Runs a short trace of *packet-granularity* epochs (real TCP Reno, real
queues, real ping/pathload) on two representative paths, applies the FB
predictor of Eq. (3) to both this and the matching fluid-model trace,
and compares the error signatures.  This is the end-to-end check that
the fluid substrate running the full campaign produces the same
qualitative FB behaviour as the packet physics.

Epoch segments are shortened (8 s) to keep the default benchmark run
fast; set ``REPRO_PACKET_VALIDATION=1`` for paper-length 50 s epochs.
"""

import os

import numpy as np

from benchmarks.conftest import run_once
from repro.analysis.fb_eval import predict_epoch
from repro.analysis.report import render_bar_table
from repro.core.metrics import rmsre
from repro.formulas.fb_predictor import FormulaBasedPredictor
from repro.fastpath.sites import FluidSites
from repro.fastpath.vector import run_fluid_trace
from repro.formulas.params import TcpParameters
from repro.paths.config import may_2004_catalog
from repro.testbed.packet_epoch import PacketTraceRunner

FULL = os.environ.get("REPRO_PACKET_VALIDATION", "") == "1"
SEGMENT_S = 50.0 if FULL else 8.0
N_EPOCHS = 12 if FULL else 6

#: A congested mid-capacity path and a DSL path — the two FB stories.
VALIDATION_PATHS = ("p12", "p01")


def _mini_campaigns():
    fb = FormulaBasedPredictor(tcp=TcpParameters.congestion_limited())
    rows = []
    for path_id in VALIDATION_PATHS:
        config = next(c for c in may_2004_catalog() if c.path_id == path_id)

        # Pin both engines to the path's long-run load level so they
        # sample the same regime (their short-term draws still differ).
        packet_trace = PacketTraceRunner(
            config, np.random.default_rng(77), regime_mean=config.base_util
        ).run_trace(
            N_EPOCHS,
            transfer_duration_s=SEGMENT_S,
            pre_probe_duration_s=SEGMENT_S,
        )
        fluid_trace = run_fluid_trace(
            config,
            FluidSites.from_generator(np.random.default_rng(78)),
            0,
            np.full(N_EPOCHS, 170.0),
            tcp=TcpParameters.congestion_limited(),
            small_tcp=None,
            checkpoint_fractions=(),
            transfer_duration_s=SEGMENT_S,
            start_time_s=0.0,
            regime_mean=config.base_util,
        )

        stats = {}
        for label, trace in (("packet", packet_trace), ("fluid", fluid_trace)):
            errors = [predict_epoch(e, fb).error for e in trace]
            throughputs = [e.throughput_mbps for e in trace]
            stats[f"{label} medR"] = float(np.median(throughputs))
            stats[f"{label} RMSRE"] = rmsre(errors)
            stats[f"{label} overest"] = float(np.mean([e > 0 for e in errors]))
        rows.append((path_id, stats))
    return rows


def test_validation_packet_vs_fluid(benchmark, report_sink):
    rows = run_once(benchmark, _mini_campaigns)
    table = render_bar_table(
        rows,
        title=(
            "Validation: FB behaviour on packet-level vs fluid mini-campaigns "
            f"({N_EPOCHS} epochs x {SEGMENT_S:.0f}s segments)"
        ),
    )
    report_sink("validation_packet", table)
    by_path = dict(rows)
    for path_id, stats in rows:
        # Throughputs in the same ballpark and real FB errors in both.
        ratio = stats["packet medR"] / stats["fluid medR"]
        assert 0.3 < ratio < 3.0, (path_id, ratio)
        assert stats["packet RMSRE"] > 0.2, path_id
        assert stats["fluid RMSRE"] > 0.15, path_id
    # The DSL path shows the paper's signature in both engines: heavy,
    # overestimation-dominant errors at low throughput.  The fractions
    # are quantized to 6 (or 12) epochs, so "dominant" here is a clear
    # majority, not the campaign-scale ~0.8.
    dsl = by_path["p01"]
    assert dsl["packet overest"] >= 0.6
    assert dsl["fluid overest"] >= 0.6
    assert dsl["packet medR"] < 0.6 and dsl["fluid medR"] < 0.6
