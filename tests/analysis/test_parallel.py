"""The warm-phase planner and its run on the engine behind
``repro-analyze --workers``."""

import shutil
from pathlib import Path

import numpy as np
import pytest

import repro.hb
from repro.analysis import evalcache
from repro.analysis.evalcache import (
    EvaluationCache,
    evaluation_key,
    spec_factory,
)
from repro.analysis.hb_eval import hw, ma_family, predictor_cdfs, with_lso
from repro.analysis.parallel import plan_units, warm_eval_cache
from repro.cli.analyze import FIGURES
from repro.core.errors import ExecutionError
from repro.hb.lso import LsoConfig, LsoKernel
from repro.paths.config import may_2004_catalog
from repro.testbed.campaign import Campaign, CampaignSettings
from repro.testbed.io import load_dataset, save_dataset
from tests.faults import (  # noqa: F401
    counter_value,
    inject,
    normalized,
    telemetry,
)
from tests.hb import oracle

#: Every figure with HB walks.
HB_FIGURES = [16, 17, 19, 20, 21, 22, 23]


def test_plan_covers_requested_figures_only(dataset):
    none = plan_units(dataset, [2, 3, 7])
    assert none == []
    fig19 = plan_units(dataset, [19])
    assert len(fig19) == len(dataset.traces)
    assert all(u.spec[0] == "lso" for u in fig19)
    fig20 = plan_units(dataset, [20])
    assert all(u.lso == LsoConfig() for u in fig20)
    fig22 = plan_units(dataset, [22])
    assert {u.small_window for u in fig22} == {False, True}
    fig23 = plan_units(dataset, [23])
    assert {u.downsample for u in fig23} == {1, 2, 8, 15}


def test_plan_is_trace_major_and_deduplicated(dataset):
    units = plan_units(dataset, [19, 21, 23])
    ordinals = [u.trace_ordinal for u in units]
    assert ordinals == sorted(ordinals)
    assert len(set(units)) == len(units)
    # Fig. 19's HW-LSO walk and Fig. 23's factor-1 walk are one unit.
    per_trace = [u for u in units if u.trace_ordinal == 0]
    hw_lso_plain = [
        u for u in per_trace if u.spec[0] == "lso" and u.downsample == 1 and not u.lso
    ]
    assert len(hw_lso_plain) == 1


def test_warm_then_figures_equal_cold(dataset, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_EVAL_CACHE_DIR", str(tmp_path / "unused"))
    subset = type(dataset)(label=dataset.label, traces=dataset.traces[:4])
    cold = predictor_cdfs(subset, ma_family((1, 10)))

    cache = EvaluationCache(tmp_path / "cache")
    stats = warm_eval_cache(subset, [16], cache, n_workers=1)
    assert stats.planned == 4 * len(ma_family((1, 5, 10, 20)))
    assert stats.computed == stats.planned
    assert stats.cached == 0
    with cache.activated():
        warm = predictor_cdfs(subset, ma_family((1, 10)))
    for name in cold:
        assert cold[name].sorted_values.tobytes() == warm[name].sorted_values.tobytes()

    again = warm_eval_cache(subset, [16], cache, n_workers=1)
    assert again.computed == 0
    assert again.cached == again.planned


def test_memory_only_cache_still_shares_walks(dataset):
    subset = type(dataset)(label=dataset.label, traces=dataset.traces[:2])
    cache = EvaluationCache(memory_only=True)
    stats = warm_eval_cache(subset, [19], cache, n_workers=1)
    assert stats.computed == len(subset.traces)
    with cache.activated():
        warm = predictor_cdfs(subset, {"HW-LSO": with_lso(hw())})
    assert warm


@pytest.fixture()
def subset(dataset):
    return type(dataset)(label=dataset.label, traces=dataset.traces[:3])


def _pack_entries(path):
    """A pack's index and array bytes (zip timestamps left out)."""
    with np.load(path) as pack:
        return {name: pack[name].tobytes() for name in pack.files}


def test_full_warm_phase_leaves_one_pack(subset, tmp_path):
    cache_dir = tmp_path / "cache"
    stats = warm_eval_cache(subset, HB_FIGURES, EvaluationCache(cache_dir))
    assert stats.computed == stats.planned > len(subset.traces)
    assert [p.name for p in cache_dir.iterdir()] == [
        f"{evalcache.pack_key(subset)}.npz"
    ]


def test_rerun_computes_nothing_and_leaves_pack_untouched(subset, tmp_path):
    cache_dir = tmp_path / "cache"
    warm_eval_cache(subset, HB_FIGURES, EvaluationCache(cache_dir))
    (pack,) = cache_dir.iterdir()
    before = (pack.read_bytes(), pack.stat().st_mtime_ns)
    again = warm_eval_cache(subset, HB_FIGURES, EvaluationCache(cache_dir))
    assert again.computed == 0
    assert again.cached == again.planned
    assert (pack.read_bytes(), pack.stat().st_mtime_ns) == before
    assert list(cache_dir.iterdir()) == [pack]


def test_figure_runs_accumulate_in_one_pack(subset, tmp_path):
    cache_dir = tmp_path / "cache"
    first = warm_eval_cache(subset, [16], EvaluationCache(cache_dir))
    second = warm_eval_cache(subset, [17], EvaluationCache(cache_dir))
    assert first.computed == len(plan_units(subset, [16]))
    assert second.computed == len(plan_units(subset, [17]))
    assert second.cached == 0
    both = warm_eval_cache(subset, [16, 17], EvaluationCache(cache_dir))
    assert both.computed == 0
    assert both.cached == first.computed + second.computed
    assert len(list(cache_dir.iterdir())) == 1


def test_parallel_warm_stores_what_serial_stores(subset, tmp_path):
    packs = []
    for workers in (1, 2):
        cache_dir = tmp_path / f"cache-w{workers}"
        stats = warm_eval_cache(
            subset, HB_FIGURES, EvaluationCache(cache_dir), n_workers=workers
        )
        assert stats.workers == workers
        (pack,) = cache_dir.iterdir()
        packs.append(_pack_entries(pack))
    assert packs[0] == packs[1]


def test_code_change_recomputes_every_unit(subset, tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache"
    warm_eval_cache(subset, HB_FIGURES, EvaluationCache(cache_dir))
    monkeypatch.setattr(evalcache, "code_fingerprint", lambda: "edited")
    again = warm_eval_cache(subset, HB_FIGURES, EvaluationCache(cache_dir))
    assert again.cached == 0
    assert again.computed == again.planned


def test_code_fingerprint_covers_hb_sources(tmp_path, monkeypatch):
    copy = tmp_path / "hb"
    shutil.copytree(Path(repro.hb.__file__).parent, copy)
    monkeypatch.setattr(repro.hb, "__file__", str(copy / "__init__.py"))
    fingerprint = evalcache.code_fingerprint.__wrapped__
    assert fingerprint() == evalcache.code_fingerprint()
    source = copy / "holt_winters.py"
    source.write_text(source.read_text() + "\n# edited\n")
    assert fingerprint() != evalcache.code_fingerprint()


def _series(trace, small_window, downsample):
    series = trace.throughput_series(small_window=small_window)
    return series.downsample(downsample) if downsample > 1 else series


def _oracle_factory(spec):
    """The oracle's predictor for a spec: the LSO replay for LSO specs."""
    if spec[0] != "lso":
        return spec_factory(spec)
    _, inner, chi, psi, harden = spec
    return lambda: oracle.ReplayLso(spec_factory(inner), LsoConfig(chi, psi), harden)


def test_each_series_takes_one_kernel_pass_per_config(tmp_path, monkeypatch):
    """A cold warm phase over the CLI figure set feeds each distinct
    (series, LsoConfig) of a trace to one kernel, once; and every stored
    entry is the oracle's walk of its unit, bit for bit."""
    dataset = Campaign(may_2004_catalog()[:2], seed=7).run(
        CampaignSettings(n_traces=1, epochs_per_trace=150)
    )
    samples = []
    add = LsoKernel.add

    def counting_add(kernel, value):
        samples.append(value)
        return add(kernel, value)

    monkeypatch.setattr(LsoKernel, "add", counting_add)
    cache = EvaluationCache(tmp_path / "cache")
    units = plan_units(dataset, sorted(FIGURES))
    stats = warm_eval_cache(dataset, sorted(FIGURES), cache, n_workers=1)
    monkeypatch.undo()
    assert stats.computed == stats.planned == len(units)

    kernels = set()  # (trace, small_window, downsample, LsoConfig)
    for unit in units:
        configs = {unit.lso} - {None}
        if unit.spec[0] == "lso":
            configs.add(LsoConfig(unit.spec[2], unit.spec[3]))
        shape = (unit.trace_ordinal, unit.small_window, unit.downsample)
        kernels.update((*shape, config) for config in configs)
    expected = sum(
        len(_series(dataset.traces[ordinal], small_window, downsample))
        for ordinal, small_window, downsample, _ in kernels
    )
    # Per trace: the main and W=20 KB series, and 1/2, 1/8 and 1/15 of
    # the main one: 150 + 150 + 75 + 19 + 10.
    assert expected == 404 * len(dataset.traces)
    assert len(samples) == expected

    for unit in units:
        trace = dataset.traces[unit.trace_ordinal]
        series = _series(trace, unit.small_window, unit.downsample)
        stored = cache.get(evaluation_key(series, unit.spec, unit.lso))
        predictions, errors = oracle.walk(series.values, _oracle_factory(unit.spec)())
        assert stored.predictions.tobytes() == predictions.tobytes(), unit
        assert stored.errors.tobytes() == errors.tobytes(), unit
        outliers = set()
        if unit.lso is not None:
            outliers = set(oracle.rescan_segmentation(series.values, unit.lso)[0])
        assert stored.outlier_indices == outliers, unit


def _warm_pack(dataset, cache_dir, workers=1):
    """Warm every HB figure into a fresh cache; the pack's entries."""
    warm_eval_cache(dataset, HB_FIGURES, EvaluationCache(cache_dir), n_workers=workers)
    (pack,) = cache_dir.glob("*.npz")
    return _pack_entries(pack)


def test_workers_walk_the_keyed_series_not_the_file(subset, tmp_path):
    """Regression: pool workers re-loaded the dataset file, so a file
    rewritten after the parent loaded it had its walks stored under the
    loaded dataset's pack key, where a later run served them."""
    path = tmp_path / "a.csv"
    save_dataset(subset, path)
    loaded = load_dataset(path)
    other = Campaign(may_2004_catalog()[:2], seed=99).run(
        CampaignSettings(n_traces=2, epochs_per_trace=80)
    )
    save_dataset(other, path)
    assert _warm_pack(loaded, tmp_path / "w2", workers=2) == _warm_pack(
        subset, tmp_path / "w1"
    )


class TestFaultTolerance:
    """The warm phase runs on the campaign's engine: the same retries,
    pool rebuilds, aborts and span tree, counted as ``analysis.*``."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_transient_failure_retried(self, subset, tmp_path, telemetry, inject, workers):
        clean = _warm_pack(subset, tmp_path / "clean")
        telemetry.drain()
        inject("p01/0:raise:1")
        assert _warm_pack(subset, tmp_path / "faulty", workers) == clean
        assert counter_value(telemetry, "analysis.retries") == 1

    def test_worker_crash_rebuilds_the_pool(self, subset, tmp_path, telemetry, inject):
        clean = _warm_pack(subset, tmp_path / "clean")
        telemetry.drain()
        inject("p01/0:exit:1")
        assert _warm_pack(subset, tmp_path / "crashed", workers=2) == clean
        assert counter_value(telemetry, "analysis.pool_rebuilds") >= 1

    def test_exhausted_retries_name_the_trace(self, subset, tmp_path, telemetry, inject):
        inject("p01/0:raise", counted=False)  # fails every attempt
        cache_dir = tmp_path / "cache"
        with pytest.raises(ExecutionError, match=r"'p01', trace 0"):
            warm_eval_cache(subset, [19], EvaluationCache(cache_dir), n_workers=2)
        aborted = [e for e in telemetry.events if e["kind"] == "analysis.aborted"]
        assert len(aborted) == 1
        assert (aborted[0]["path"], aborted[0]["trace"]) == ("p01", 0)
        assert list(tmp_path.glob("cache/*.npz")) == []

    def test_span_tree_is_the_same_at_any_worker_count(self, subset, telemetry):
        trees = []
        for workers in (1, 2):
            cache = EvaluationCache(memory_only=True)
            warm_eval_cache(subset, [19], cache, n_workers=workers)
            trees.append(normalized(telemetry.drain()["events"]))
        assert trees[0] == trees[1]
        ((root_tags, units),) = trees[0]
        assert ("name", "analysis") in root_tags
        assert len(units) == len(subset.traces)
        for unit_tags, _children in units:
            assert ("name", "trace") in unit_tags
