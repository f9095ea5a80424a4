"""Epoch records, traces, datasets."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import DataError
from repro.paths.records import (
    MEASUREMENT_COLUMNS,
    Dataset,
    EpochMeasurement,
    EpochTruth,
    Trace,
    concat_datasets,
)


def epoch(path_id="p01", trace_index=0, epoch_index=0, throughput=1.0, **overrides):
    fields = dict(
        path_id=path_id,
        trace_index=trace_index,
        epoch_index=epoch_index,
        start_time_s=epoch_index * 180.0,
        ahat_mbps=5.0,
        phat=0.001,
        that_s=0.05,
        throughput_mbps=throughput,
        ptilde=0.01,
        ttilde_s=0.08,
    )
    fields.update(overrides)
    return EpochMeasurement(**fields)


class TestEpochMeasurement:
    def test_lossless_flag(self):
        assert epoch(phat=0.0).lossless
        assert not epoch(phat=0.001).lossless

    def test_non_positive_throughput_rejected(self):
        with pytest.raises(DataError):
            epoch(throughput=0.0)

    def test_bad_loss_rejected(self):
        with pytest.raises(DataError):
            epoch(phat=1.0)

    def test_truth_optional(self):
        assert epoch().truth is None
        truth = EpochTruth(0.5, 0.6, 0.01, "congestion", False)
        assert epoch(truth=truth).truth is truth


class TestTrace:
    def test_from_epochs_validates_identity(self):
        Trace.from_epochs("p01", 0, [epoch()])
        with pytest.raises(DataError):
            Trace.from_epochs("p01", 0, [epoch(), epoch(path_id="p02")])
        with pytest.raises(DataError):
            Trace.from_epochs("p01", 0, [epoch(), epoch(trace_index=1)])

    def test_throughput_series(self):
        epochs = [
            epoch(epoch_index=i, throughput=value)
            for i, value in enumerate([1.0, 2.0, 3.0])
        ]
        trace = Trace.from_epochs("p01", 0, epochs)
        series = trace.throughput_series()
        assert series.values.tolist() == [1.0, 2.0, 3.0]
        assert "p01" in series.name

    def test_small_window_series(self):
        trace = Trace.from_epochs("p01", 0, [epoch(smallw_throughput_mbps=0.5)])
        series = trace.throughput_series(small_window=True)
        assert series.values.tolist() == [0.5]

    def test_small_window_missing_raises(self):
        trace = Trace.from_epochs("p01", 0, [epoch()])
        with pytest.raises(DataError):
            trace.throughput_series(small_window=True)
        with pytest.raises(DataError):
            trace.throughput_series(small_window=True)

    def test_series_built_once_per_window(self):
        epochs = [
            epoch(epoch_index=i, throughput=v, smallw_throughput_mbps=v / 2)
            for i, v in enumerate([1.0, 2.0, 3.0])
        ]
        trace = Trace.from_epochs("p01", 0, epochs)
        main = trace.throughput_series()
        small = trace.throughput_series(small_window=True)
        assert trace.throughput_series() is main
        assert trace.throughput_series(small_window=False) is main
        assert trace.throughput_series(small_window=True) is small
        assert small is not main

        restored = pickle.loads(pickle.dumps(trace))
        assert restored == trace
        rebuilt = restored.throughput_series()
        assert rebuilt is not main
        assert rebuilt == main and rebuilt.name == main.name
        assert restored.throughput_series(small_window=True) == small
        # The memo takes no part in equality.
        assert Trace.from_epochs("p01", 0, epochs) == trace

    def test_len_and_iter(self):
        trace = Trace.from_epochs("p01", 0, [epoch(epoch_index=i) for i in range(2)])
        assert len(trace) == 2
        assert [e.epoch_index for e in trace] == [0, 1]


class TestTraceColumns:
    def test_from_epochs_requires_epoch_indices_in_sequence(self):
        epochs = [epoch(epoch_index=0), epoch(epoch_index=2)]
        with pytest.raises(DataError) as excinfo:
            Trace.from_epochs("p01", 0, epochs)
        assert str(excinfo.value) == "epoch_index 2 of trace ('p01', 0), expected 1"

    def test_column_of_wrong_length_rejected(self):
        columns = {name: [1.0, 2.0] for name in MEASUREMENT_COLUMNS}
        columns.update(phat=[0.0, 0.0], ptilde=[0.0, 0.0], ahat_mbps=[1.0])
        with pytest.raises(DataError, match="column ahat_mbps has shape"):
            Trace("p01", 0, **columns)

    def test_pickled_trace_keeps_read_only_columns(self):
        trace = Trace.from_epochs("p01", 0, [epoch(smallw_throughput_mbps=0.5)])
        restored = pickle.loads(pickle.dumps(trace))
        assert restored == trace
        assert not restored.phat.flags.writeable
        assert not restored.duration_throughputs_mbps.flags.writeable

    def test_equality_compares_column_bytes(self):
        a = Trace.from_epochs("p01", 0, [epoch(phat=0.0)])
        assert a == Trace.from_epochs("p01", 0, [epoch(phat=0.0)])
        assert a != Trace.from_epochs("p01", 0, [epoch(phat=-0.0)])
        assert a != Trace.from_epochs("p01", 1, [epoch(trace_index=1, phat=0.0)])

    @given(
        st.lists(
            st.tuples(
                st.floats(),
                st.floats(-0.5, 1.5) | st.just(float("nan")),
                st.floats(-0.5, 1.5) | st.just(float("nan")),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_column_checks_raise_what_the_first_bad_record_raises(self, rows):
        expected = None
        for index, (throughput, phat, ptilde) in enumerate(rows):
            try:
                epoch(
                    epoch_index=index, throughput=throughput, phat=phat, ptilde=ptilde
                )
            except DataError as exc:
                expected = str(exc)
                break
        columns = {name: [1.0] * len(rows) for name in MEASUREMENT_COLUMNS}
        columns["throughput_mbps"], columns["phat"], columns["ptilde"] = (
            list(column) for column in zip(*rows)
        )
        if expected is None:
            Trace("p01", 0, **columns)
        else:
            with pytest.raises(DataError) as excinfo:
                Trace("p01", 0, **columns)
            assert str(excinfo.value) == expected


class TestDataset:
    def make(self):
        ds = Dataset(label="test")
        for path_id in ("p01", "p02"):
            for t in range(2):
                epochs = [
                    epoch(path_id=path_id, trace_index=t, epoch_index=i)
                    for i in range(3)
                ]
                ds.traces.append(Trace.from_epochs(path_id, t, epochs))
        return ds

    def test_path_ids_in_order(self):
        assert self.make().path_ids == ["p01", "p02"]

    def test_traces_for(self):
        assert len(self.make().traces_for("p01")) == 2

    def test_epochs_filtered(self):
        ds = self.make()
        assert len(ds.epochs()) == 12
        assert len(ds.epochs("p02")) == 6

    def test_throughputs_array(self):
        assert self.make().throughputs().shape == (12,)

    def test_summary(self):
        text = self.make().summary()
        assert "2 paths" in text and "4 traces" in text and "12 epochs" in text

    def test_concat(self):
        a, b = self.make(), self.make()
        merged = concat_datasets("merged", [a, b])
        assert len(merged) == 8
        assert merged.label == "merged"
