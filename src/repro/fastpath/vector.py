"""The fluid path engine: one whole trace as (epoch,) arrays.

:func:`run_fluid_trace` simulates one (path, trace) work unit following
the paper's epoch timeline (Fig. 1) — avail-bw measurement, 60 s of
pre-transfer probing, the 50 s target transfer with concurrent probing,
plus the companion small-window transfer — and batches every per-epoch
quantity of the trace into NumPy arrays, so ~150 epochs cost a handful
of array kernels instead of ~150 Python iterations with a dozen formula
calls each.

The transfer model distinguishes the three regimes that bound a bulk
TCP flow:

* **window-limited** — ``W/T`` below the available bandwidth: the flow
  never saturates the path; its throughput is ``W/T`` with the mild
  queueing the flow itself adds (the paper's most predictable case);
* **loss-limited** — inherent random loss caps the flow below its
  bandwidth share (PFTK applied to the true loss process);
* **congestion-limited** — the flow saturates the bottleneck: it gets
  its share of the capacity (avail-bw plus whatever elastic cross
  traffic yields, discounted by buffer adequacy), fills the buffer
  (RTT inflation), and *drives the loss process itself* — the loss
  event rate is the one at which the TCP model equals the achieved
  share (AIMD loss-throughput duality, computed by inverting PFTK).

**Determinism.**  The output is a pure function of the trace's site
streams, pinned by the default-catalog CSV sha256
(``tests/fastpath/test_vector.py``, ``make vector-parity``) and held to
the per-epoch reference loop kept in ``tests/fastpath/oracle.py``.
Three mechanisms make the batched arithmetic equal that loop's:

* every draw site has its own named stream with a fixed per-epoch width
  (:mod:`repro.fastpath.sites`), so one batched ``rng.random((E, k))``
  consumes exactly the bits of ``E`` per-epoch ``rng.random(k)`` calls;
* the serial AR(1) load recursion runs one Python call per epoch
  (:func:`~repro.fastpath.loadmodel.load_step`) — it is inherently
  sequential, and at one call per epoch it is not the bottleneck;
* everything else is NumPy ufunc expressions (``np.exp`` and friends
  round identically for scalars and arrays), with branch-dependent work
  computed on ``np.nonzero``-compressed index subsets so each element
  sees exactly its branch's arithmetic.

Telemetry: the engine times its array kernels once per trace and
records one ``trace`` event (phase totals and regime counts) and one
sample per phase timer — each trace's per-epoch mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.fastpath.loadmodel import init_load_state, load_step
from repro.fastpath.queueing import (
    mm1k_loss_probability_array,
    mm1k_mean_queue_delay_s_array,
    packets_for_buffer,
    pollaczek_khinchine_factor,
    service_rate_pps,
)
from repro.fastpath.sampling import pathload_sample, probe_rtt_sample
from repro.fastpath.sites import (
    U_WIDTH,
    FluidSites,
    Z_AR,
    Z_DRIFT,
    Z_FILL,
    Z_PATHLOAD,
    Z_PROBE_MISMATCH,
    Z_RTT_DURING_JITTER,
    Z_RTT_DURING_STDERR,
    Z_RTT_PRE_JITTER,
    Z_RTT_PRE_STDERR,
    Z_SMALL_FILL,
    Z_SMALL_VARIABILITY,
    Z_VARIABILITY,
    z_checkpoint_base,
    z_width,
)
from repro.formulas.params import TcpParameters
from repro.formulas.pftk import pftk_loss_for_throughput_array, pftk_throughput_array
from repro.obs import get_telemetry
from repro.obs.spans import record_trace_phase_spans
from repro.paths.config import PathConfig
from repro.paths.records import Trace

#: Probe counts of the paper's methodology: 600 before (60 s at 10 Hz),
#: 500 during the 50 s transfer.
N_PROBES_PRE = 600
N_PROBES_DURING = 500

#: A flow is called window-limited when its window ceiling stays below
#: this fraction of the available bandwidth.
WINDOW_LIMITED_MARGIN = 0.92

#: Epoch-to-epoch lognormal spread of the probe-vs-TCP loss sampling
#: mismatch (Goyal et al. report order-of-magnitude discrepancies).
PROBE_LOSS_LOGNORMAL_SIGMA = 1.5

#: Physical envelope for a measured transfer rate: an epoch-level iperf
#: measurement can exceed the bottleneck capacity only by measurement
#: noise (clock granularity, buffered bytes draining into the sample
#: window), never by the unbounded tail of the lognormal variability
#: draw.  The loss- and congestion-limited branches scale a mean rate
#: near capacity by that draw, so the raw sample must be clamped here.
CAPACITY_MEASUREMENT_SLACK = 1.2

#: Regime codes used internally; indices into this tuple.
_REGIMES = ("window", "loss", "congestion")
_WINDOW, _LOSS, _CONGESTION = 0, 1, 2


def draw_elastic_rtts(
    config: PathConfig, rng: np.random.Generator
) -> tuple[float, ...]:
    """The elastic cross flows' RTTs, drawn once per trace.

    One vectorized ``uniform(0.5, 2.5, n)`` call on the ``elastic``
    site stream.
    """
    n_elastic = int(round(config.elasticity * config.n_cross_flows))
    if n_elastic == 0:
        return ()
    draws = config.base_rtt_s * rng.uniform(0.5, 2.5, n_elastic)
    return tuple(float(rtt) for rtt in draws)


def elastic_cross_weight(elastic_rtts_s: tuple[float, ...]) -> float:
    """``sum(1/rtt)`` over the elastic flows, in a *fixed* order.

    The bandwidth-share formula reduces over the elastic RTTs; NumPy's
    pairwise summation would regroup that reduction and move the last
    bits with the flow count, so the sum is an explicit left-to-right
    accumulation, computed once per trace.
    """
    total = 0.0
    for rtt in elastic_rtts_s:
        total += 1.0 / rtt
    return total


@dataclass(frozen=True)
class _TraceContext:
    """Per-trace path constants shared by the transfer kernels."""

    k_packets: int
    mu_pps: float
    pk_factor: float
    elastic_rtts_s: tuple[float, ...]
    cross_weight: float


@dataclass(frozen=True)
class _TransferArrays:
    """Per-epoch transfer results over one trace."""

    throughput_mbps: np.ndarray
    loss_event_rate: np.ndarray
    rtt_during_s: np.ndarray
    queue_delay_during_s: np.ndarray
    regime: np.ndarray  # uint8 codes into _REGIMES


def run_fluid_trace(
    config: PathConfig,
    sites: FluidSites,
    trace_index: int,
    dt_s: np.ndarray,
    *,
    tcp: TcpParameters,
    small_tcp: TcpParameters | None,
    checkpoint_fractions: tuple[float, ...],
    transfer_duration_s: float,
    start_time_s: float,
    regime_mean: float | None = None,
) -> Trace:
    """Simulate one whole trace and return it as columns.

    Args:
        config: the path's static parameters.
        sites: the (path, trace)'s site streams.
        trace_index: which trace on the path.
        dt_s: the per-epoch intervals, already drawn from the ``dt``
            site; epoch ``e`` starts ``dt_s[:e + 1].sum()`` after
            ``start_time_s``.
        tcp: the main transfer's parameters (the paper's W = 1 MB).
        small_tcp: when given, a companion small-window transfer is
            simulated under the same load (the paper's W = 20 KB).
        checkpoint_fractions: fractions of the transfer duration at
            which cumulative throughput snapshots are reported
            (Fig. 11's 30/60/120 s cuts, as fractions of 120 s).
        transfer_duration_s: the transfer length (accepted for the
            campaign settings; the fractions carry the scale).
        start_time_s: the trace's absolute start time, also forwarded
            to the load process (only observable when the config
            enables a diurnal cycle).
        regime_mean: optional starting regime mean for the load
            process (default: drawn from the ``init`` site).

    Raises:
        ValueError: a checkpoint fraction outside ``(0, 1]``.
    """
    telemetry = get_telemetry()
    clock = telemetry.phase_clock()
    cfg = config
    path_id = cfg.path_id
    n_epochs = int(dt_s.size)
    has_small = small_tcp is not None
    for fraction in checkpoint_fractions:
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"checkpoint fraction {fraction} outside (0, 1]")

    elastic_rtts_s = draw_elastic_rtts(cfg, sites.elastic)
    ctx = _TraceContext(
        k_packets=packets_for_buffer(cfg.buffer_bytes),
        mu_pps=service_rate_pps(cfg.capacity_mbps),
        pk_factor=pollaczek_khinchine_factor(cfg.burstiness_scv),
        elastic_rtts_s=elastic_rtts_s,
        cross_weight=elastic_cross_weight(elastic_rtts_s),
    )
    z_init = sites.init.standard_normal(2)
    state = init_load_state(
        cfg, float(z_init[0]), float(z_init[1]), regime_mean, start_time_s=start_time_s
    )

    # One batched fill per site == one fixed-width draw per epoch.
    u_block = sites.u.random((n_epochs, U_WIDTH))
    z_block = sites.z.standard_normal(
        (n_epochs, z_width(has_small, len(checkpoint_fractions)))
    )

    # --- the load recursion (serial: one call per epoch) ----------------
    util_pre = np.empty(n_epochs)
    util_during = np.empty(n_epochs)
    outliers: list[bool] = []
    u_rows = u_block.tolist()
    z_ar_col = z_block[:, Z_AR].tolist()
    z_drift_col = z_block[:, Z_DRIFT].tolist()
    dt_list = dt_s.tolist()
    for e in range(n_epochs):
        pre, during, outlier, _shifted = load_step(
            cfg, state, dt_list[e], u_rows[e], z_ar_col[e], z_drift_col[e]
        )
        util_pre[e] = pre
        util_during[e] = during
        outliers.append(outlier)
    clock.lap("load")

    # --- pre-transfer measurements ------------------------------------
    dq_pre = ctx.pk_factor * mm1k_mean_queue_delay_s_array(
        util_pre, ctx.k_packets, ctx.mu_pps
    )
    that_s = probe_rtt_sample(
        cfg.base_rtt_s,
        dq_pre,
        N_PROBES_PRE,
        z_block[:, Z_RTT_PRE_STDERR],
        z_block[:, Z_RTT_PRE_JITTER],
    )
    loss_pre = np.minimum(
        0.5, cfg.random_loss + mm1k_loss_probability_array(util_pre, ctx.k_packets)
    )
    phat = sites.phat.binomial(N_PROBES_PRE, loss_pre) / N_PROBES_PRE
    clock.lap("ping")
    availbw_pre = cfg.capacity_mbps * (1.0 - util_pre)
    ahat_mbps = pathload_sample(
        availbw_pre,
        cfg.capacity_mbps,
        cfg.pathload_bias,
        cfg.pathload_noise,
        z_block[:, Z_PATHLOAD],
    )
    clock.lap("pathload")

    # --- the target transfer ------------------------------------------
    outcome = _transfer_arrays(
        ctx, cfg, util_during, tcp, z_block[:, Z_FILL], z_block[:, Z_VARIABILITY]
    )
    clock.lap("iperf")

    # --- probing during the transfer ----------------------------------
    ttilde_s = probe_rtt_sample(
        cfg.base_rtt_s,
        outcome.queue_delay_during_s,
        N_PROBES_DURING,
        z_block[:, Z_RTT_DURING_STDERR],
        z_block[:, Z_RTT_DURING_JITTER],
    )
    observed = _probe_observed_loss_arrays(
        cfg, outcome, z_block[:, Z_PROBE_MISMATCH]
    )
    ptilde = sites.ptilde.binomial(N_PROBES_DURING, observed) / N_PROBES_DURING
    clock.lap("ping")

    # --- companion small-window transfer + checkpoints ----------------
    smallw = None
    if has_small:
        # Only the throughput column of the companion transfer is kept,
        # so the (expensive, RNG-free) loss-rate inversion is skipped.
        smallw = _transfer_arrays(
            ctx,
            cfg,
            util_during,
            small_tcp,
            z_block[:, Z_SMALL_FILL],
            z_block[:, Z_SMALL_VARIABILITY],
            need_loss_event=False,
        ).throughput_mbps
    checkpoint_cols = []
    if checkpoint_fractions:
        # A shorter averaging window sees more of the flow's short-term
        # variability: the deviation from the full-transfer throughput
        # shrinks with the square root of the cut length.
        base = z_checkpoint_base(has_small)
        for offset, fraction in enumerate(checkpoint_fractions):
            rel_std = 0.08 / math.sqrt(fraction)
            value = outcome.throughput_mbps * np.exp(
                min(rel_std, 0.5) * z_block[:, base + offset]
            )
            checkpoint_cols.append(np.maximum(value, 1e-3))
    del transfer_duration_s  # documented knob; the fractions carry the scale
    clock.lap("iperf")

    trace = _assemble_trace(
        path_id,
        trace_index,
        start_time_s,
        dt_s,
        ahat_mbps,
        phat,
        that_s,
        ptilde,
        ttilde_s,
        outcome,
        smallw,
        checkpoint_cols,
        util_pre,
        util_during,
        outliers,
    )
    if clock.enabled:
        # The engine times its array kernels once per trace, so the
        # trace is the unit it records: one event and one sample per
        # phase timer, plus one child span per phase under the open
        # unit span.
        regime_counts = np.bincount(outcome.regime, minlength=len(_REGIMES))
        telemetry.record_phases(
            "trace",
            clock.phases,
            n_epochs,
            path=path_id,
            trace=trace_index,
            epochs=n_epochs,
            regimes=dict(zip(_REGIMES, regime_counts.tolist())),
        )
        record_trace_phase_spans(telemetry, clock.phases, n_epochs)
    return trace


def _bandwidth_share_arrays(
    ctx: _TraceContext, cfg: PathConfig, util: np.ndarray, target_rtt_s: float
) -> np.ndarray:
    """The saturating flow's bandwidth share.

    The flow gets the available bandwidth plus whatever the elastic
    share of the cross traffic yields; the yield shrinks with the
    number of elastic competitors and their RTT advantage
    (Section 3.4).

    The share is floored at 10% of capacity: even against a heavy
    inelastic aggregate, a persistent Reno flow keeps pushing and
    claims buffer slots, so full starvation does not happen on a
    drop-tail bottleneck.
    """
    availbw = cfg.capacity_mbps * (1.0 - util)
    if not ctx.elastic_rtts_s:
        return np.maximum(availbw, 0.10 * cfg.capacity_mbps)
    elastic_cross_mbps = util * cfg.elasticity * cfg.capacity_mbps
    target_weight = 1.0 / target_rtt_s
    yielded = (
        elastic_cross_mbps * target_weight / (target_weight + ctx.cross_weight)
    )
    return np.maximum(availbw + yielded, 0.10 * cfg.capacity_mbps)


def _transfer_arrays(
    ctx: _TraceContext,
    cfg: PathConfig,
    util: np.ndarray,
    tcp: TcpParameters,
    z_fill: np.ndarray,
    z_var: np.ndarray,
    need_loss_event: bool = True,
) -> _TransferArrays:
    """The transfer model: each epoch's regime, rate, loss and RTT.

    Branch selection is computed for the whole trace at once; each
    branch's arithmetic then runs on its compressed index subset, so
    every element sees exactly its own branch's expression tree.

    ``need_loss_event=False`` skips the congestion branch's PFTK loss
    inversion (a pure function of already-computed columns — no RNG)
    and leaves ``loss_event_rate`` meaningless; callers that only read
    the throughput column use this to avoid the dominant bisection
    cost.
    """
    n = util.size
    capacity = cfg.capacity_mbps
    base_rtt = cfg.base_rtt_s
    availbw = capacity * (1.0 - util)
    dq_light = ctx.pk_factor * mm1k_mean_queue_delay_s_array(
        util, ctx.k_packets, ctx.mu_pps
    )
    window_cap = tcp.max_window_bytes * 8.0 / (base_rtt + dq_light) / 1e6
    window_mask = window_cap < WINDOW_LIMITED_MARGIN * availbw

    throughput = np.empty(n)
    loss_event = np.empty(n)
    rtt_during = np.empty(n)
    dq_during = np.empty(n)
    regime = np.empty(n, dtype=np.uint8)
    out = _TransferArrays(throughput, loss_event, rtt_during, dq_during, regime)

    index_w = np.nonzero(window_mask)[0]
    if index_w.size:
        _window_limited_arrays(out, index_w, ctx, cfg, util[index_w], tcp, z_var[index_w])

    index_nw = np.nonzero(~window_mask)[0]
    if index_nw.size:
        share = _bandwidth_share_arrays(ctx, cfg, util[index_nw], base_rtt)
        rto_guess = max(1.0, 2.0 * base_rtt)
        if cfg.random_loss > 0:
            loss_cap = pftk_throughput_array(
                base_rtt + dq_light[index_nw], cfg.random_loss, rto_guess, tcp
            )
            loss_mask = loss_cap < share
        else:
            loss_cap = np.empty(0)
            loss_mask = np.zeros(index_nw.size, dtype=bool)
        index_l = index_nw[loss_mask]
        if index_l.size:
            _loss_limited_arrays(
                out, index_l, ctx, cfg, util[index_l], loss_cap[loss_mask], z_var[index_l]
            )
        index_c = index_nw[~loss_mask]
        if index_c.size:
            _congestion_limited_arrays(
                out,
                index_c,
                ctx,
                cfg,
                util[index_c],
                tcp,
                share[~loss_mask],
                z_fill[index_c],
                z_var[index_c],
                need_loss_event,
            )
    return out


def _window_limited_arrays(
    out: _TransferArrays,
    index: np.ndarray,
    ctx: _TraceContext,
    cfg: PathConfig,
    util: np.ndarray,
    tcp: TcpParameters,
    z_var: np.ndarray,
) -> None:
    # The flow adds its own (small) load; recompute the queue with it.
    window_mbps = tcp.max_window_bytes * 8.0 / cfg.base_rtt_s / 1e6
    util_total = np.minimum(0.98, util + window_mbps / cfg.capacity_mbps)
    dq = ctx.pk_factor * mm1k_mean_queue_delay_s_array(
        util_total, ctx.k_packets, ctx.mu_pps
    )
    rtt_d = cfg.base_rtt_s + dq
    mean_rate = tcp.max_window_bytes * 8.0 / rtt_d / 1e6

    loss = np.minimum(
        0.4, cfg.random_loss + mm1k_loss_probability_array(util_total, ctx.k_packets)
    )
    lossy = np.nonzero(loss > 0)[0]
    if lossy.size:
        rto = np.maximum(1.0, 2.0 * rtt_d[lossy])
        mean_rate[lossy] = np.minimum(
            mean_rate[lossy], pftk_throughput_array(rtt_d[lossy], loss[lossy], rto, tcp)
        )

    sigma = 0.03 + 1.5 * np.sqrt(loss)
    sample = mean_rate * np.exp(np.minimum(sigma, 0.35) * z_var)
    sample = np.minimum(sample, window_mbps)
    sample = np.minimum(sample, CAPACITY_MEASUREMENT_SLACK * cfg.capacity_mbps)
    out.throughput_mbps[index] = np.maximum(sample, 1e-3)
    out.loss_event_rate[index] = loss
    out.rtt_during_s[index] = rtt_d
    out.queue_delay_during_s[index] = dq
    out.regime[index] = _WINDOW


def _loss_limited_arrays(
    out: _TransferArrays,
    index: np.ndarray,
    ctx: _TraceContext,
    cfg: PathConfig,
    util: np.ndarray,
    loss_cap_mbps: np.ndarray,
    z_var: np.ndarray,
) -> None:
    util_total = np.minimum(0.99, util + loss_cap_mbps / cfg.capacity_mbps)
    dq = ctx.pk_factor * mm1k_mean_queue_delay_s_array(
        util_total, ctx.k_packets, ctx.mu_pps
    )
    rtt_d = cfg.base_rtt_s + dq
    # Loss-limited flows have high throughput variance: the loss
    # process, not the capacity, sets the pace.
    sigma = 0.07 + 0.5 * np.sqrt(cfg.random_loss)
    sample = loss_cap_mbps * np.exp(min(sigma, 0.4) * z_var)
    sample = np.minimum(sample, CAPACITY_MEASUREMENT_SLACK * cfg.capacity_mbps)
    out.throughput_mbps[index] = np.maximum(sample, 1e-3)
    out.loss_event_rate[index] = cfg.random_loss
    out.rtt_during_s[index] = rtt_d
    out.queue_delay_during_s[index] = dq
    out.regime[index] = _LOSS


def _congestion_limited_arrays(
    out: _TransferArrays,
    index: np.ndarray,
    ctx: _TraceContext,
    cfg: PathConfig,
    util: np.ndarray,
    tcp: TcpParameters,
    share_mbps: np.ndarray,
    z_fill: np.ndarray,
    z_var: np.ndarray,
    need_loss_event: bool = True,
) -> None:
    # Buffer adequacy: an AIMD sawtooth needs roughly a BDP of
    # buffering to keep the link busy through window halvings.  The
    # base efficiency sits well below 1 even with ample buffering:
    # classic Reno loses whole RTO periods (1 s minimum) whenever a
    # drop-tail overflow claims several segments of one window —
    # calibrated against the packet-level simulator (see
    # tests/integration/test_fluid_vs_packet.py).
    bdp_bytes = share_mbps * 1e6 * cfg.base_rtt_s / 8.0
    eta = 0.55 + 0.35 * np.minimum(1.0, cfg.buffer_bytes / np.maximum(bdp_bytes, 1.0))
    mean_rate = share_mbps * eta

    # Saturation keeps the buffer partially full; the fill level rises
    # with how loaded the path already was.
    fill = np.minimum(0.9, np.maximum(0.15, 0.25 + 0.35 * util + 0.08 * z_fill))
    dq = fill * ctx.k_packets / ctx.mu_pps
    rtt_d = cfg.base_rtt_s + dq
    mean_rate = np.minimum(mean_rate, tcp.max_window_bytes * 8.0 / rtt_d / 1e6)

    # Short-term throughput variability: grows with utilization,
    # shrinks with statistical multiplexing (the paper's queueing
    # analysis, Section 6.1.4).
    sigma = 0.03 + 0.35 * util * util / math.sqrt(max(1, cfg.n_cross_flows))
    sample = mean_rate * np.exp(np.minimum(sigma, 0.5) * z_var)
    sample = np.minimum(sample, CAPACITY_MEASUREMENT_SLACK * cfg.capacity_mbps)
    sample = np.maximum(sample, 1e-3)

    if need_loss_event:
        # AIMD duality: the loss event rate is whatever makes the TCP
        # model deliver the achieved rate at the experienced RTT.
        rto = np.maximum(1.0, 2.0 * rtt_d)
        p_event = pftk_loss_for_throughput_array(sample, rtt_d, rto, tcp)
        p_event = np.maximum(p_event, cfg.random_loss)
        out.loss_event_rate[index] = p_event
    else:
        out.loss_event_rate[index] = 0.0

    out.throughput_mbps[index] = sample
    out.rtt_during_s[index] = rtt_d
    out.queue_delay_during_s[index] = dq
    out.regime[index] = _CONGESTION


def _probe_observed_loss_arrays(
    cfg: PathConfig, outcome: _TransferArrays, z_mismatch: np.ndarray
) -> np.ndarray:
    """Loss rate periodic probes see during the transfer.

    In the congestion-limited regime the flow's own losses cluster in
    its AIMD bursts; probes observe only a fraction, with large
    epoch-to-epoch spread (Section 3.3).
    """
    observed = outcome.loss_event_rate.copy()
    index_c = np.nonzero(outcome.regime == _CONGESTION)[0]
    if index_c.size:
        packet_loss = outcome.loss_event_rate[index_c] * cfg.burst_factor
        mismatch = np.exp(PROBE_LOSS_LOGNORMAL_SIGMA * z_mismatch[index_c])
        observed[index_c] = (
            cfg.random_loss + cfg.probe_loss_factor * mismatch * packet_loss
        )
    return np.minimum(0.5, np.maximum(0.0, observed))


def _assemble_trace(
    path_id: str,
    trace_index: int,
    start_time_s: float,
    dt_s: np.ndarray,
    ahat_mbps: np.ndarray,
    phat: np.ndarray,
    that_s: np.ndarray,
    ptilde: np.ndarray,
    ttilde_s: np.ndarray,
    outcome: _TransferArrays,
    smallw: np.ndarray | None,
    checkpoint_cols: list[np.ndarray],
    util_pre: np.ndarray,
    util_during: np.ndarray,
    outliers: list[bool],
) -> Trace:
    """Build the Trace from the column arrays.

    Epoch ``e`` starts at ``start_time_s + dt_s[0] + ... + dt_s[e]``,
    summed left to right: ``np.add.accumulate`` over
    ``[start_time_s, *dt_s]`` is that sequential fold, bit for bit,
    where ``start_time_s + np.cumsum(dt_s)`` would group the sum
    differently.
    """
    n_epochs = int(dt_s.size)
    start_times = np.add.accumulate(np.concatenate(([start_time_s], dt_s)))[1:]
    small = {}
    if smallw is not None:
        small = {
            "smallw_throughput_mbps": smallw,
            "smallw_present": np.ones(n_epochs, dtype=bool),
        }
    return Trace(
        path_id,
        trace_index,
        start_time_s=start_times,
        ahat_mbps=ahat_mbps,
        phat=phat,
        that_s=that_s,
        throughput_mbps=outcome.throughput_mbps,
        ptilde=ptilde,
        ttilde_s=ttilde_s,
        **small,
        duration_throughputs_mbps=(
            np.column_stack(checkpoint_cols)
            if checkpoint_cols
            else np.empty((n_epochs, 0))
        ),
        truth_present=np.ones(n_epochs, dtype=bool),
        truth_utilization_pre=util_pre,
        truth_utilization_during=util_during,
        truth_loss_event_rate=outcome.loss_event_rate,
        truth_regime=[_REGIMES[code] for code in outcome.regime.tolist()],
        truth_outlier=outliers,
    )
