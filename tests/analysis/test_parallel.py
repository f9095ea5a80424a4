"""The warm-phase plan, its run on the engine behind ``repro-analyze
--workers``, and the figures reading its results by unit."""

import importlib
import shutil
import tempfile
from importlib.util import spec_from_file_location
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hb
import repro.hb.evaluate
from repro.analysis import evalcache
from repro.analysis.evalcache import (
    EvaluationCache,
    UnitResults,
    UnplannedUnitError,
    entry_key,
)
from repro.analysis.hb_eval import hw, ma_family, predictor_cdfs, with_lso
from repro.analysis.parallel import warm_eval_cache
from repro.cli import analyze
from repro.cli.analyze import FIGURES, UNITS, plan
from repro.core.errors import ExecutionError
from repro.hb.evaluate import lso_segmentation
from repro.hb.lso import LsoConfig, LsoKernel
from repro.paths.config import may_2004_catalog
from repro.paths.records import Dataset, Trace
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


def test_plan_covers_requested_figures_only():
    assert plan([2, 3, 7]) == ()
    (fig19,) = plan([19])
    assert fig19.predictor == with_lso(hw())
    (fig20,) = plan([20])
    assert fig20.exclusion == LsoConfig()
    assert {u.small_window for u in plan([22])} == {False, True}
    assert {u.downsample for u in plan([23])} == {1, 2, 8, 15}
    assert set(plan(sorted(FIGURES))) == {u for units in UNITS.values() for u in units}


def test_plan_is_trace_major_and_deduplicated(dataset, tmp_path):
    units = plan([19, 22, 21, 23])
    assert len(set(units)) == len(units)
    # Fig. 19's HW-LSO walk, Fig. 22's W = 1 MB walk and Fig. 23's
    # factor-1 walk are one unit.
    hw_lso_plain = [
        u for u in units
        if u.predictor.lso is not None and u.shape == (False, 1) and u.exclusion is None
    ]
    assert len(hw_lso_plain) == 1
    # The pack keeps the walks trace by trace, each trace's in plan
    # order, though each trace walks them series by series.
    subset = type(dataset)(label=dataset.label, traces=dataset.traces[:3])
    warm_eval_cache(subset, units, EvaluationCache(tmp_path))
    cache = EvaluationCache(tmp_path)
    cache.open_pack(evalcache.pack_key(subset))
    assert [(key[0], key[3]) for key in cache._pack] == [
        (ordinal, unit) for ordinal in range(len(subset.traces)) for unit in units
    ]


def test_warm_then_figures_equal_cold(dataset, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_EVAL_CACHE_DIR", str(tmp_path / "unused"))
    subset = type(dataset)(label=dataset.label, traces=dataset.traces[:4])
    cold = predictor_cdfs(subset, ma_family((1, 10)))

    cache = EvaluationCache(tmp_path / "cache")
    results = warm_eval_cache(subset, plan([16]), cache, n_workers=1)
    assert results.planned == 4 * len(ma_family((1, 5, 10, 20)))
    assert results.computed == results.planned
    assert results.cached == 0
    warm = predictor_cdfs(subset, ma_family((1, 10)), results)
    for name in cold:
        assert cold[name].sorted_values.tobytes() == warm[name].sorted_values.tobytes()

    again = warm_eval_cache(subset, plan([16]), cache, n_workers=1)
    assert again.computed == 0
    assert again.cached == again.planned


def test_memory_only_cache_still_shares_walks(dataset):
    subset = type(dataset)(label=dataset.label, traces=dataset.traces[:2])
    cache = EvaluationCache(memory_only=True)
    results = warm_eval_cache(subset, plan([19]), cache, n_workers=1)
    assert results.computed == len(subset.traces)
    warm = predictor_cdfs(subset, {"HW-LSO": with_lso(hw())}, results)
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
    stats = warm_eval_cache(subset, plan(HB_FIGURES), EvaluationCache(cache_dir))
    assert stats.computed == stats.planned > len(subset.traces)
    assert [p.name for p in cache_dir.iterdir()] == [
        f"{evalcache.pack_key(subset)}.npz"
    ]


def test_rerun_computes_nothing_and_leaves_pack_untouched(subset, tmp_path):
    cache_dir = tmp_path / "cache"
    warm_eval_cache(subset, plan(HB_FIGURES), EvaluationCache(cache_dir))
    (pack,) = cache_dir.iterdir()
    before = (pack.read_bytes(), pack.stat().st_mtime_ns)
    again = warm_eval_cache(subset, plan(HB_FIGURES), EvaluationCache(cache_dir))
    assert again.computed == 0
    assert again.cached == again.planned
    assert (pack.read_bytes(), pack.stat().st_mtime_ns) == before
    assert list(cache_dir.iterdir()) == [pack]


def test_figure_runs_accumulate_in_one_pack(subset, tmp_path):
    cache_dir = tmp_path / "cache"
    first = warm_eval_cache(subset, plan([16]), EvaluationCache(cache_dir))
    second = warm_eval_cache(subset, plan([17]), EvaluationCache(cache_dir))
    assert first.computed == len(plan([16])) * len(subset.traces)
    assert second.computed == len(plan([17])) * len(subset.traces)
    assert second.cached == 0
    both = warm_eval_cache(subset, plan([16, 17]), EvaluationCache(cache_dir))
    assert both.computed == 0
    assert both.cached == first.computed + second.computed
    assert len(list(cache_dir.iterdir())) == 1


def test_parallel_warm_stores_what_serial_stores(subset, tmp_path):
    packs = []
    for workers in (1, 2):
        cache_dir = tmp_path / f"cache-w{workers}"
        stats = warm_eval_cache(
            subset, plan(HB_FIGURES), EvaluationCache(cache_dir), n_workers=workers
        )
        assert stats.workers == workers
        (pack,) = cache_dir.iterdir()
        packs.append(_pack_entries(pack))
    assert packs[0] == packs[1]


def test_code_change_recomputes_every_unit(subset, tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache"
    warm_eval_cache(subset, plan(HB_FIGURES), EvaluationCache(cache_dir))
    monkeypatch.setattr(evalcache, "code_fingerprint", lambda: "edited")
    again = warm_eval_cache(subset, plan(HB_FIGURES), EvaluationCache(cache_dir))
    assert again.cached == 0
    assert again.computed == again.planned


@pytest.mark.parametrize(
    "name, edited", [("repro.hb", "holt_winters.py"), ("repro.core.store", None)]
)
def test_code_fingerprint_covers_hb_sources(tmp_path, monkeypatch, name, edited):
    """The fingerprint finds a module's source through its spec, so the
    spec is pointed at an edited copy: of the package, for ``repro.hb``
    (``edited`` names the file), or of the plain module."""
    module = importlib.import_module(name)
    source = Path(module.__spec__.origin)
    if edited is None:
        target = tmp_path / source.name
        shutil.copy(source, target)
        spec = spec_from_file_location(name, target)
    else:
        copy = tmp_path / source.parent.name
        shutil.copytree(source.parent, copy)
        target = copy / edited
        spec = spec_from_file_location(
            name, copy / "__init__.py", submodule_search_locations=[str(copy)]
        )
    monkeypatch.setattr(module, "__spec__", spec)
    fingerprint = evalcache.code_fingerprint.__wrapped__
    assert fingerprint() == evalcache.code_fingerprint()
    target.write_text(target.read_text() + "\n# edited\n")
    assert fingerprint() != evalcache.code_fingerprint()


@pytest.mark.parametrize(
    "name", ["repro.core.timeseries", "repro.paths.records", "repro.analysis.evalcache"]
)
def test_pack_key_covers_unit_sources(subset, tmp_path, monkeypatch, name):
    """Editing a module that derives a unit's series or lays out the pack
    moves the pack key: the module's spec is pointed at an edited copy."""
    module = importlib.import_module(name)
    copy = tmp_path / Path(module.__file__).name
    copy.write_text(Path(module.__file__).read_text())
    monkeypatch.setattr(module, "__spec__", spec_from_file_location(name, copy))
    # The uncached fingerprint, so the key reads the sources again.
    monkeypatch.setattr(evalcache, "code_fingerprint", evalcache.code_fingerprint.__wrapped__)
    before = evalcache.pack_key(subset)
    copy.write_text(copy.read_text() + "\n# edited\n")
    assert evalcache.pack_key(subset) != before


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
    units = plan(sorted(FIGURES))
    results = warm_eval_cache(dataset, units, cache, n_workers=1)
    monkeypatch.undo()
    assert results.computed == results.planned == len(units) * len(dataset.traces)

    kernels = set()  # (trace, small_window, downsample, LsoConfig)
    for unit in units:
        configs = {unit.exclusion, unit.predictor.lso} - {None}
        for ordinal in range(len(dataset.traces)):
            kernels.update((ordinal, *unit.shape, config) for config in configs)
    expected = sum(
        len(dataset.traces[ordinal].throughput_series(small_window)[::downsample])
        for ordinal, small_window, downsample, _ in kernels
    )
    # Per trace: the main and W=20 KB series, and 1/2, 1/8 and 1/15 of
    # the main one: 150 + 150 + 75 + 19 + 10.
    assert expected == 404 * len(dataset.traces)
    assert len(samples) == expected

    for unit in units:
        for ordinal, trace in enumerate(dataset.traces):
            series = evalcache.unit_series(trace, unit)
            stored = cache.get(entry_key(ordinal, trace, unit))
            assert results[unit][ordinal] is stored
            predictions, errors = oracle.walk(
                series.values, oracle.replay_factory(unit.predictor)()
            )
            assert stored.predictions.tobytes() == predictions.tobytes(), unit
            assert stored.errors.tobytes() == errors.tobytes(), unit
            outliers, shifts = set(), ()
            if unit.exclusion is not None:
                outliers, shifts, _ = oracle.rescan_segmentation(
                    series.values, unit.exclusion
                )
            assert stored.outlier_indices == set(outliers), unit
            assert sorted(set(stored.shift_indices)) == sorted(set(shifts)), unit


def _warm_pack(dataset, cache_dir, workers=1):
    """Warm every HB figure into a fresh cache; the pack's entries."""
    warm_eval_cache(
        dataset, plan(HB_FIGURES), EvaluationCache(cache_dir), n_workers=workers
    )
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
            warm_eval_cache(subset, plan([19]), EvaluationCache(cache_dir), n_workers=2)
        aborted = [e for e in telemetry.events if e["kind"] == "analysis.aborted"]
        assert len(aborted) == 1
        assert (aborted[0]["path"], aborted[0]["trace"]) == ("p01", 0)
        assert list(tmp_path.glob("cache/*.npz")) == []

    def test_span_tree_is_the_same_at_any_worker_count(self, subset, telemetry):
        trees = []
        for workers in (1, 2):
            cache = EvaluationCache(memory_only=True)
            warm_eval_cache(subset, plan([19]), cache, n_workers=workers)
            trees.append(normalized(telemetry.drain()["events"]))
        assert trees[0] == trees[1]
        ((root_tags, units),) = trees[0]
        assert ("name", "analysis") in root_tags
        assert len(units) == len(subset.traces)
        for unit_tags, _children in units:
            assert ("name", "trace") in unit_tags


class TestFiguresReadByUnit:
    """The renderers read the warm phase's results by unit: each reads
    only the units it declares, and a fully cached analysis walks
    nothing and runs no LSO kernel."""

    def test_each_figure_reads_only_its_declared_units(self, subset):
        results = warm_eval_cache(
            subset, plan(sorted(FIGURES)), EvaluationCache(memory_only=True)
        )
        assert results.computed == results.planned
        for number, units in UNITS.items():
            own = UnitResults((unit, results[unit]) for unit in units)
            assert FIGURES[number](subset, own) == FIGURES[number](subset), number

    def test_reading_an_unplanned_unit_raises(self, subset):
        results = warm_eval_cache(subset, plan([19]), EvaluationCache(memory_only=True))
        with pytest.raises(UnplannedUnitError):
            FIGURES[20](subset, results)
        with pytest.raises(UnplannedUnitError):
            results[plan([22])[1]]

    def test_fully_cached_analysis_walks_nothing(self, tmp_path, monkeypatch, capsys):
        dataset = Campaign(may_2004_catalog()[:3], seed=3).run(
            CampaignSettings(n_traces=2, epochs_per_trace=80)
        )
        csv = tmp_path / "ds.csv"
        save_dataset(dataset, csv)
        monkeypatch.setenv("REPRO_EVAL_CACHE_DIR", str(tmp_path / "evals"))
        monkeypatch.setenv("REPRO_OBS", "0")
        assert analyze.main([str(csv)]) == 0
        cold = capsys.readouterr()
        assert "0 cached" in cold.err

        adds, passes = [], []
        add, walk = LsoKernel.add, repro.hb.evaluate.vector_walk

        def counting_add(kernel, value):
            adds.append(value)
            return add(kernel, value)

        def counting_walk(*args, **kwargs):
            passes.append(args)
            return walk(*args, **kwargs)

        monkeypatch.setattr(LsoKernel, "add", counting_add)
        monkeypatch.setattr(repro.hb.evaluate, "vector_walk", counting_walk)
        # Without its report, the rerun takes every walk from the pack.
        for report in (tmp_path / "evals").glob("*.report.json"):
            report.unlink()
        assert analyze.main([str(csv)]) == 0
        warm = capsys.readouterr()
        assert "warm phase: 0 evaluations computed" in warm.err
        assert (len(adds), len(passes)) == (0, 0)
        assert warm.out == cold.out


def _fig20_results(dataset, cache_dir):
    """Fig. 20's unit warmed into ``cache_dir``, then read back from its pack."""
    warm_eval_cache(dataset, plan([20]), EvaluationCache(cache_dir))
    results = warm_eval_cache(dataset, plan([20]), EvaluationCache(cache_dir))
    assert results.computed == 0
    return results[plan([20])[0]]


def _assert_stored_segmentations(dataset, cache_dir):
    stored = _fig20_results(dataset, cache_dir)
    for trace, result in zip(dataset.traces, stored):
        values = trace.throughput_series().values
        assert result.segmentation(values) == lso_segmentation(values), trace.path_id
    return stored


def test_fig20_segmentation_comes_from_the_pack(tmp_path):
    """The seed-0 benchmark catalog: every trace's stored segmentation is
    the one ``lso_segmentation`` computes."""
    dataset = Campaign(may_2004_catalog(), seed=0).run(
        CampaignSettings(n_traces=1, epochs_per_trace=150)
    )
    stored = _assert_stored_segmentations(dataset, tmp_path)
    assert sum(len(result.shift_indices) for result in stored) > 0


@st.composite
def shifting_datasets(draw):
    """1-3 paths of 1-2 traces whose throughput has noise, level shifts
    and isolated outliers."""
    traces = []
    for path in range(draw(st.integers(1, 3))):
        for trace_index in range(draw(st.integers(1, 2))):
            n = draw(st.integers(1, 60))
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            values = draw(st.floats(1.0, 100.0)) * (1.0 + rng.normal(0.0, 0.1, n))
            for _ in range(draw(st.integers(0, 3))):
                values[draw(st.integers(0, n - 1)) :] *= draw(st.floats(0.3, 3.0))
            for _ in range(draw(st.integers(0, 3))):
                values[draw(st.integers(0, n - 1))] *= draw(st.sampled_from([0.2, 4.0]))
            traces.append(
                Trace(
                    f"p{path:02d}",
                    trace_index,
                    start_time_s=np.arange(n) * 180.0,
                    ahat_mbps=np.full(n, 10.0),
                    phat=np.zeros(n),
                    that_s=np.full(n, 0.05),
                    throughput_mbps=np.abs(values) + 0.1,
                    ptilde=np.zeros(n),
                    ttilde_s=np.full(n, 0.05),
                )
            )
    return Dataset("drawn", traces)


@settings(max_examples=40, deadline=None)
@given(dataset=shifting_datasets())
def test_fig20_segmentation_of_drawn_datasets(dataset):
    with tempfile.TemporaryDirectory() as cache_dir:
        _assert_stored_segmentations(dataset, Path(cache_dir))


def _truncate_shifts(path):
    with np.load(path) as pack:
        arrays = {name: pack[name] for name in pack.files}
    arrays["shifts"] = arrays["shifts"][:-1]
    with path.open("wb") as handle:
        np.savez(handle, **arrays)


def _drop_shifts(path):
    with np.load(path) as pack:
        arrays = {name: pack[name] for name in pack.files if name != "shifts"}
    with path.open("wb") as handle:
        np.savez(handle, **arrays)


@pytest.mark.parametrize("damage", [_truncate_shifts, _drop_shifts])
def test_damaged_shift_member_is_quarantined_and_recomputed(
    subset, tmp_path, telemetry, damage
):
    stored = _fig20_results(subset, tmp_path)
    (pack,) = tmp_path.glob("*.npz")
    damage(pack)
    corrupt = counter_value(telemetry, "evalcache.corrupt")
    results = warm_eval_cache(subset, plan([20]), EvaluationCache(tmp_path))
    assert results.computed == results.planned == len(subset.traces)
    assert counter_value(telemetry, "evalcache.corrupt") == corrupt + 1
    assert pack.with_name(pack.name + ".corrupt").is_file()
    for before, after in zip(stored, results[plan([20])[0]]):
        assert after.shift_indices == before.shift_indices
        assert after.outlier_indices == before.outlier_indices
