"""Text renderings of telemetry: progress lines and manifest reports.

Everything here is pure — it takes snapshots/manifests and returns
strings — so the CLI layer stays a thin shell and the renderings are
unit-testable without capturing stdout.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "progress_line",
    "summary_report",
    "slowest_report",
    "compare_report",
    "quality_report",
]


def progress_line(snapshot: Any) -> str:
    """One live progress line for a ``CampaignProgress`` snapshot.

    The rate/ETA math lives on the snapshot itself (guarded against
    ``elapsed_s <= 0``); this only formats it.
    """
    eta = snapshot.eta_s
    eta_text = f"{eta:5.0f}s" if eta != float("inf") else "    ?s"
    return (
        f"[{snapshot.traces_done}/{snapshot.traces_total} traces] "
        f"{snapshot.epochs_done}/{snapshot.epochs_total} epochs, "
        f"{snapshot.epochs_per_s:6.1f} epochs/s, ETA {eta_text}"
    )


def _series_label(entry: dict[str, Any]) -> str:
    tags = entry.get("tags") or {}
    if not tags:
        return entry["name"]
    inner = ",".join(f"{k}={v}" for k, v in sorted(tags.items()))
    return f"{entry['name']}{{{inner}}}"


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.0f}us"


def _counters_by_label(manifest: dict[str, Any]) -> dict[str, int]:
    return {
        _series_label(entry): entry["value"]
        for entry in manifest.get("counters", ())
    }


def summary_report(manifest: dict[str, Any]) -> str:
    """The ``repro-obs summary`` rendering of one manifest."""
    lines = []
    counts = manifest.get("counts", {})
    cache = manifest.get("cache", {})
    kind = manifest.get("kind", "campaign")
    kind_note = "" if kind == "campaign" else f" kind={kind}"
    lines.append(
        f"run {manifest.get('run_id', '?')} {kind_note} "
        f"label={manifest.get('label', '?')} seed={manifest.get('seed', '?')} "
        f"workers={manifest.get('workers', '?')}"
    )
    catalog_hash = manifest.get("catalog_hash", "")
    if catalog_hash:
        lines.append(f"catalog {catalog_hash[:16]}  cache_key "
                     f"{str(manifest.get('cache_key', ''))[:16]}")
    lines.append(
        f"dataset: {counts.get('paths', 0)} paths x "
        f"{counts.get('traces', 0)} traces, {counts.get('epochs', 0)} epochs"
    )
    analysis = manifest.get("analysis")
    if analysis:
        rendered = ", ".join(str(f) for f in analysis.get("figures", ()))
        lines.append(f"analyzed: {analysis.get('dataset', '?')}  "
                     f"figures: {rendered or '-'}")
        skipped = analysis.get("skipped", ())
        if skipped:
            lines.append(
                "skipped (not derivable): "
                + ", ".join(str(f) for f in skipped)
            )
    if kind == "analysis":
        lines.append(f"wall time: {manifest.get('wall_time_s', 0.0):.2f}s")
    else:
        source = "cache hit" if cache.get("hit") else "simulated"
        lines.append(
            f"wall time: {manifest.get('wall_time_s', 0.0):.2f}s ({source})"
        )

    timers = manifest.get("timers", ())
    if timers:
        lines.append("")
        lines.append(f"{'timer':<34} {'count':>7} {'total':>10} "
                     f"{'p50':>9} {'p95':>9} {'p99':>9}")
        for entry in timers:
            lines.append(
                f"{_series_label(entry):<34} {entry['count']:>7} "
                f"{_fmt_seconds(entry['sum']):>10} "
                f"{_fmt_seconds(entry['p50']):>9} "
                f"{_fmt_seconds(entry['p95']):>9} "
                f"{_fmt_seconds(entry['p99']):>9}"
            )

    counters = manifest.get("counters", ())
    if counters:
        lines.append("")
        lines.append(f"{'counter':<34} {'value':>12}")
        for entry in counters:
            lines.append(f"{_series_label(entry):<34} {entry['value']:>12}")

    by_kind = manifest.get("events", {}).get("by_kind", {})
    if by_kind:
        lines.append("")
        rendered = ", ".join(f"{kind}={n}" for kind, n in sorted(by_kind.items()))
        lines.append(f"events: {rendered}")
    return "\n".join(lines)


def slowest_report(events: list[dict[str, Any]], n: int = 10) -> str:
    """Top-``n`` slowest timed events by wall time.

    Every event carrying ``elapsed_s`` is ranked: a fluid campaign's
    ``trace`` events (a whole trace's phases) and the packet-level
    runner's ``packet_epoch`` events (one epoch's).
    """
    timed = [event for event in events if "elapsed_s" in event]
    if not timed:
        return "no trace or epoch events recorded"
    ranked = sorted(timed, key=lambda e: e["elapsed_s"], reverse=True)[:n]
    phase_keys = sorted(
        {
            key
            for event in ranked
            for key in event
            if key.endswith("_s") and key != "elapsed_s"
        }
    )
    header = (
        f"{'kind':<12} {'path':<10} {'trace':>5} {'epoch':>5} {'elapsed':>10}"
    )
    for key in phase_keys:
        header += f" {key[:-2]:>10}"
    lines = [header]
    for event in ranked:
        row = (
            f"{str(event.get('kind', '?')):<12} "
            f"{str(event.get('path', '?')):<10} "
            f"{event.get('trace', 0):>5} {event.get('epoch', '-'):>5} "
            f"{_fmt_seconds(event['elapsed_s']):>10}"
        )
        for key in phase_keys:
            value = event.get(key)
            row += f" {_fmt_seconds(value):>10}" if value is not None else f" {'-':>10}"
        lines.append(row)
    return "\n".join(lines)


def _fmt_error(value: float | None) -> str:
    """An |E| statistic as text (``-`` when the series never scored)."""
    return f"{value:.4f}" if value is not None else "-"


def quality_report(doc: dict[str, Any]) -> str:
    """The ``repro-obs quality`` rendering of one quality document.

    ``doc`` is a :meth:`~repro.obs.quality.QualityTracker.summary`
    document — from a live server's ``GET /quality`` or the ``quality``
    section of a ``kind: "serve"`` manifest.
    """
    totals = doc.get("totals", {})
    config = doc.get("config", {})
    slo = config.get("slo_abs_error")
    slo_note = f"slo |E|>{slo}" if slo is not None else "no slo"
    lines = [
        f"quality: {totals.get('paths', 0)} path(s), "
        f"{totals.get('scored', 0)} scored, "
        f"{totals.get('not_ready', 0)} warm-up, "
        f"{totals.get('invalid', 0)} invalid ({slo_note}, "
        f"window {config.get('window', '?')})",
        f"drift alerts: {totals.get('drift_alerts', 0)}  "
        f"slo breaches: {totals.get('slo_breaches', 0)}  "
        f"level-shift resets: {totals.get('level_shift_resets', 0)}",
    ]
    predictors = doc.get("predictors", {})
    if predictors:
        lines.append("")
        lines.append(
            f"{'predictor':<12} {'scored':>8} {'mean|E|':>9} {'worst ewma':>11} "
            f"{'drift':>6} {'slo':>5} {'shifts':>7}  worst path"
        )
        for name in sorted(predictors):
            agg = predictors[name]
            lines.append(
                f"{name:<12} {agg.get('scored', 0):>8} "
                f"{_fmt_error(agg.get('mean_abs_error')):>9} "
                f"{_fmt_error(agg.get('worst_ewma_abs_error')):>11} "
                f"{agg.get('drift_alerts', 0):>6} {agg.get('slo_breaches', 0):>5} "
                f"{agg.get('level_shift_resets', 0):>7}  "
                f"{agg.get('worst_path') or '-'}"
            )
    paths = doc.get("paths")
    if paths:
        lines.append("")
        lines.append(
            f"{'path x predictor':<34} {'scored':>8} {'p50|E|':>8} "
            f"{'p95|E|':>8} {'ewma|E|':>8} {'last E':>8}"
        )
        for key in sorted(paths):
            for name in sorted(paths[key]):
                series = paths[key][name]
                last = series.get("last_error")
                last_text = f"{last:+.4f}" if last is not None else "-"
                lines.append(
                    f"{key + ' ' + name:<34} {series.get('scored', 0):>8} "
                    f"{_fmt_error(series.get('p50_abs_error')):>8} "
                    f"{_fmt_error(series.get('p95_abs_error')):>8} "
                    f"{_fmt_error(series.get('ewma_abs_error')):>8} "
                    f"{last_text:>8}"
                )
    return "\n".join(lines)


def _delta(a: float | None, b: float | None) -> str:
    """Relative change of ``b`` against baseline ``a``, as text.

    Degenerate baselines never divide: a series absent on one side is
    ``n/a``, a zero baseline gaining a value is ``new`` (the relative
    change is undefined), and equal values (including 0 -> 0) are ``=``.
    """
    if a is None or b is None:
        return "n/a"
    if a == b:
        return "="
    if a == 0:
        return "new"
    change = (b - a) / abs(a) * 100.0
    return f"{change:+.1f}%"


def compare_report(a: dict[str, Any], b: dict[str, Any]) -> str:
    """The ``repro-obs compare RUN_A RUN_B`` rendering.

    Counters and timer aggregates side by side with relative deltas
    (B relative to A).
    """
    lines = [
        f"A: run {a.get('run_id', '?')}  label={a.get('label', '?')} "
        f"seed={a.get('seed', '?')}  wall={a.get('wall_time_s', 0.0):.2f}s",
        f"B: run {b.get('run_id', '?')}  label={b.get('label', '?')} "
        f"seed={b.get('seed', '?')}  wall={b.get('wall_time_s', 0.0):.2f}s",
    ]
    if a.get("catalog_hash") and a.get("catalog_hash") == b.get("catalog_hash"):
        lines.append("same catalog")
    wall_a = a.get("wall_time_s", 0.0)
    wall_b = b.get("wall_time_s", 0.0)
    lines.append(f"wall time: {wall_a:.2f}s -> {wall_b:.2f}s "
                 f"({_delta(wall_a, wall_b)})")

    counters_a = _counters_by_label(a)
    counters_b = _counters_by_label(b)
    labels = sorted(set(counters_a) | set(counters_b))
    if labels:
        lines.append("")
        lines.append(f"{'counter':<34} {'A':>12} {'B':>12} {'delta':>8}")
        for label in labels:
            va = counters_a.get(label, 0)
            vb = counters_b.get(label, 0)
            lines.append(f"{label:<34} {va:>12} {vb:>12} {_delta(va, vb):>8}")

    timers_a = {_series_label(t): t for t in a.get("timers", ())}
    timers_b = {_series_label(t): t for t in b.get("timers", ())}
    labels = sorted(set(timers_a) | set(timers_b))
    if labels:
        lines.append("")
        lines.append(f"{'timer (p50)':<34} {'A':>10} {'B':>10} {'delta':>8}")
        for label in labels:
            pa = timers_a[label].get("p50", 0.0) if label in timers_a else None
            pb = timers_b[label].get("p50", 0.0) if label in timers_b else None
            fa = _fmt_seconds(pa) if pa is not None else "-"
            fb = _fmt_seconds(pb) if pb is not None else "-"
            lines.append(f"{label:<34} {fa:>10} {fb:>10} {_delta(pa, pb):>8}")

    quality_a = (a.get("quality") or {}).get("predictors", {})
    quality_b = (b.get("quality") or {}).get("predictors", {})
    names = sorted(set(quality_a) | set(quality_b))
    if names:
        lines.append("")
        lines.append(
            f"{'quality (mean|E|)':<34} {'A':>10} {'B':>10} {'delta':>8}"
        )
        for name in names:
            ea = quality_a.get(name, {}).get("mean_abs_error")
            eb = quality_b.get(name, {}).get("mean_abs_error")
            lines.append(
                f"{name:<34} {_fmt_error(ea):>10} {_fmt_error(eb):>10} "
                f"{_delta(ea, eb):>8}"
            )
        for field, title in (
            ("scored", "quality (scored)"),
            ("drift_alerts", "quality (drift alerts)"),
            ("slo_breaches", "quality (slo breaches)"),
        ):
            lines.append("")
            lines.append(f"{title:<34} {'A':>10} {'B':>10} {'delta':>8}")
            for name in names:
                va = quality_a.get(name, {}).get(field)
                vb = quality_b.get(name, {}).get(field)
                fa = str(va) if va is not None else "-"
                fb = str(vb) if vb is not None else "-"
                lines.append(
                    f"{name:<34} {fa:>10} {fb:>10} {_delta(va, vb):>8}"
                )
    return "\n".join(lines)
