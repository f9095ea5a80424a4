"""The paper's figures as ``repro-analyze`` prints them: one renderer each.

An FB renderer takes the dataset.  An HB renderer declares next to
itself the units it reads (:class:`~repro.analysis.evalcache.EvalUnit`:
a predictor's :class:`~repro.hb.spec.PredictorSpec`, a series shape and
an outlier exclusion) and takes the dataset and the walks by unit
(:class:`~repro.analysis.evalcache.UnitResults`); called with the
dataset alone it walks its units in memory.  :func:`plan` is the union
of the requested figures' units, what the warm phase
(:func:`repro.analysis.parallel.warm_eval_cache`) walks.

``repro-analyze`` imports this module on a miss only: a run served from
its stored report renders nothing.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.analysis import fb_eval, hb_eval
from repro.analysis.evalcache import EvalUnit, UnitResults
from repro.analysis.report import (
    render_bar_table,
    render_cdf_table,
    render_quantile_table,
    render_scatter_summary,
)
from repro.paths.records import Dataset

#: figure number -> its renderer.  An FB renderer takes the dataset; an
#: HB renderer also takes the walks it reads, by unit, and walks its
#: units in memory when called with the dataset alone.
FIGURES: dict[int, Callable[..., str]] = {}

#: figure number -> the units its HB renderer reads, declared with it.
#: The warm phase walks the union of the requested figures' units.
UNITS: dict[int, tuple[EvalUnit, ...]] = {}


def _figure(number: int, *units: EvalUnit):
    """Register the decorated renderer as figure ``number``'s, reading ``units``."""

    def register(renderer: Callable[..., str]) -> Callable[..., str]:
        FIGURES[number] = renderer
        if units:
            UNITS[number] = units
        return renderer

    return register


def plan(figures: list[int]) -> tuple[EvalUnit, ...]:
    """The units the warm phase walks for ``figures``: the union of their
    renderers' units, each once, in figure then declaration order."""
    return tuple(
        dict.fromkeys(unit for number in figures for unit in UNITS.get(number, ()))
    )


#: The HB predictor of every HB figure but 16, 17 and 21.
_HW_LSO = hb_eval.with_lso(hb_eval.hw())


@_figure(2)
def _fig2(ds: Dataset) -> str:
    cdfs = fb_eval.error_cdfs(ds)
    return render_cdf_table(
        {"all": cdfs.all, "lossy": cdfs.lossy, "lossless": cdfs.lossless},
        thresholds=(-1.0, 0.0, 1.0, 2.0, 5.0, 9.0),
        title="Fig. 2: FB error CDFs",
    ) + "\n" + cdfs.summary()


@_figure(3)
def _fig3(ds: Dataset) -> str:
    inc = fb_eval.increase_cdfs(ds)
    return (
        render_cdf_table(
            {"RTT incr (s)": inc.rtt_absolute_s, "loss incr": inc.loss_absolute},
            thresholds=(0.0, 0.005, 0.02, 0.1),
            title="Fig. 3: absolute increases during flow",
        )
        + f"\nmean RTT ratio {inc.mean_rtt_ratio:.2f}, "
        + f"mean loss ratio {inc.mean_loss_ratio:.2f}"
    )


@_figure(6)
def _fig6(ds: Dataset) -> str:
    comp = fb_eval.during_flow_prediction(ds)
    return render_cdf_table(
        {"prior": comp.with_prior, "during": comp.with_during},
        thresholds=(-3.0, -1.0, 0.0, 1.0, 3.0),
        title="Fig. 6: prior vs during-flow inputs",
    )


@_figure(7)
def _fig7(ds: Dataset) -> str:
    rows = [
        (s.path_id, {"p10": s.p10, "median": s.median, "p90": s.p90})
        for s in fb_eval.per_path_percentiles(ds)
    ]
    return render_bar_table(rows, title="Fig. 7: per-path FB error", value_format="{:+.2f}")


@_figure(8)
def _fig8(ds: Dataset) -> str:
    sc = fb_eval.throughput_vs_error(ds)
    return "Fig. 8: R vs E\n" + render_scatter_summary(sc.x, sc.errors, "R", "E")


@_figure(11)
def _fig11(ds: Dataset) -> str:
    effect = fb_eval.duration_effect(ds)
    return render_cdf_table(
        effect.cdfs, thresholds=(-1.0, 0.0, 1.0, 3.0), title="Fig. 11: duration cuts"
    )


@_figure(12)
def _fig12(ds: Dataset) -> str:
    rows = [
        (c.path_id, {"W=1MB": c.rmsre_large_window, "W=20KB": c.rmsre_small_window})
        for c in fb_eval.window_limited(ds)
        if c.window_limited
    ]
    return render_bar_table(rows, title="Fig. 12: FB RMSRE by window")


@_figure(16, *map(EvalUnit, hb_eval.ma_family().values()))
def _fig16(ds: Dataset, results: UnitResults | None = None) -> str:
    cdfs = hb_eval.predictor_cdfs(ds, hb_eval.ma_family(), results)
    return render_quantile_table(cdfs, title="Fig. 16: MA family RMSRE")


@_figure(17, *map(EvalUnit, hb_eval.hw_family().values()))
def _fig17(ds: Dataset, results: UnitResults | None = None) -> str:
    cdfs = hb_eval.predictor_cdfs(ds, hb_eval.hw_family(), results)
    return render_quantile_table(cdfs, title="Fig. 17: HW family RMSRE")


@_figure(19, EvalUnit(_HW_LSO))
def _fig19(ds: Dataset, results: UnitResults | None = None) -> str:
    comp = hb_eval.fb_vs_hb(ds, _HW_LSO, results)
    return (
        render_quantile_table(
            {"FB": comp.fb, "HB": comp.hb}, title="Fig. 19: FB vs HB RMSRE"
        )
        + "\n"
        + comp.summary()
    )


@_figure(20, EvalUnit(_HW_LSO, exclusion=hb_eval.FIG20_EXCLUSION))
def _fig20(ds: Dataset, results: UnitResults | None = None) -> str:
    rel = hb_eval.cov_correlation(ds, _HW_LSO, results)
    return (
        "Fig. 20: CoV vs RMSRE\n"
        + render_scatter_summary(rel.covs, rel.rmsres, "CoV", "RMSRE")
        + f"\ncorrelation: {rel.correlation():.2f}"
    )


@_figure(21, *map(EvalUnit, hb_eval.FIG21_PREDICTORS.values()))
def _fig21(ds: Dataset, results: UnitResults | None = None) -> str:
    rows = [
        (
            f"{c.path_id} [{c.label}]",
            {n: sum(v) / len(v) for n, v in c.rmsres_by_predictor.items()},
        )
        for c in hb_eval.path_classes(ds, hb_eval.FIG21_PREDICTORS, results)
    ]
    return render_bar_table(rows, title="Fig. 21: path classes")


@_figure(22, EvalUnit(_HW_LSO), EvalUnit(_HW_LSO, small_window=True))
def _fig22(ds: Dataset, results: UnitResults | None = None) -> str:
    rows = [
        (c.path_id, {"W=1MB": c.rmsre_large_window, "W=20KB": c.rmsre_small_window})
        for c in hb_eval.window_limited_hb(ds, _HW_LSO, results)
    ]
    return render_bar_table(rows, title="Fig. 22: HB RMSRE by window")


@_figure(
    23,
    *(EvalUnit(_HW_LSO, downsample=f) for f in hb_eval.INTERVALS.values()),
)
def _fig23(ds: Dataset, results: UnitResults | None = None) -> str:
    cdfs = hb_eval.interval_effect(ds, hb_eval.INTERVALS, _HW_LSO, results)
    return render_quantile_table(cdfs, title="Fig. 23: transfer intervals")
