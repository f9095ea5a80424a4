"""Dataset CSV serialization."""

import csv

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import DataError
from repro.paths.config import may_2004_catalog, scaled_catalog
from repro.paths.records import Dataset, EpochMeasurement, EpochTruth, Trace
from repro.testbed.campaign import Campaign, CampaignSettings
from repro.testbed.io import _LEGACY_COLUMNS, load_dataset, save_dataset


@pytest.fixture(scope="module")
def dataset():
    campaign = Campaign(scaled_catalog(may_2004_catalog(), 3), seed=1, label="io-test")
    return campaign.run(CampaignSettings(n_traces=2, epochs_per_trace=5))


class TestRoundTrip:
    def test_roundtrip_preserves_structure(self, dataset, tmp_path):
        path = tmp_path / "ds.csv"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        assert loaded.label == dataset.label
        assert loaded.path_ids == dataset.path_ids
        assert len(loaded.traces) == len(dataset.traces)

    def test_roundtrip_preserves_values_exactly(self, dataset, tmp_path):
        path = tmp_path / "ds.csv"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        for original, restored in zip(dataset.epochs(), loaded.epochs()):
            assert restored == original

    def test_truth_roundtrip(self, dataset, tmp_path):
        path = tmp_path / "ds.csv"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        first = loaded.epochs()[0].truth
        assert first is not None
        assert first.regime in {"window", "loss", "congestion"}


class TestErrorHandling:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            load_dataset(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not,a,dataset\n")
        with pytest.raises(DataError):
            load_dataset(path)

    def test_wrong_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# dataset,x\ncol1,col2\n")
        with pytest.raises(DataError):
            load_dataset(path)

    def test_short_row_rejected(self, dataset, tmp_path):
        path = tmp_path / "ds.csv"
        save_dataset(dataset, path)
        lines = path.read_text().splitlines()
        lines.append("p01,0,99")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError):
            load_dataset(path)

    @pytest.mark.parametrize(
        "column, value",
        [
            ("ahat_mbps", "abc"),
            ("epoch_index", "1.5"),
            ("smallw_throughput_mbps", "x"),
            ("duration_throughputs_mbps", "1.0;y"),
            ("truth_loss_event_rate", ""),
        ],
    )
    def test_unparsable_number_named_by_line_and_column(
        self, dataset, tmp_path, column, value
    ):
        path = tmp_path / "ds.csv"
        save_dataset(dataset, path)
        rows = list(csv.reader(path.open(newline="")))
        rows[4][rows[1].index(column)] = value  # the third epoch, line 5
        with path.open("w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        with pytest.raises(DataError) as excinfo:
            load_dataset(path)
        assert str(excinfo.value) == (
            f"{path}, line 5: column {column!r}: "
            f"{value.split(';')[-1]!r} is not a number"
        )


def _epoch(epoch_index: int, truth: EpochTruth | None) -> EpochMeasurement:
    return EpochMeasurement(
        path_id="p01",
        trace_index=0,
        epoch_index=epoch_index,
        start_time_s=100.0 * (epoch_index + 1),
        ahat_mbps=5.0,
        phat=0.01,
        that_s=0.05,
        throughput_mbps=4.5,
        ptilde=0.02,
        ttilde_s=0.06,
        truth=truth,
    )


def _single_trace_dataset(truths: list[EpochTruth | None]) -> Dataset:
    trace = Trace(path_id="p01", trace_index=0)
    for index, truth in enumerate(truths):
        trace.append(_epoch(index, truth))
    return Dataset(label="truth-test", traces=[trace])


class TestTruthPresence:
    """Truth-presence is serialized explicitly, not inferred from regime."""

    def test_empty_regime_truth_survives_roundtrip(self, tmp_path):
        truth = EpochTruth(
            utilization_pre=0.4,
            utilization_during=0.5,
            loss_event_rate=0.001,
            regime="",
            outlier=False,
        )
        dataset = _single_trace_dataset([truth])
        save_dataset(dataset, tmp_path / "ds.csv")
        loaded = load_dataset(tmp_path / "ds.csv")
        assert loaded.epochs()[0].truth == truth

    def test_none_truth_survives_roundtrip(self, tmp_path):
        dataset = _single_trace_dataset([None])
        save_dataset(dataset, tmp_path / "ds.csv")
        assert load_dataset(tmp_path / "ds.csv").epochs()[0].truth is None

    def test_mixed_truth_preserved_exactly(self, tmp_path):
        truths = [
            None,
            EpochTruth(0.1, 0.2, 0.0, "", True),
            EpochTruth(0.3, 0.4, 0.002, "congestion", False),
        ]
        dataset = _single_trace_dataset(truths)
        save_dataset(dataset, tmp_path / "ds.csv")
        loaded = load_dataset(tmp_path / "ds.csv")
        assert [e.truth for e in loaded.epochs()] == truths

    def test_legacy_v1_files_still_load(self, dataset, tmp_path):
        """A v1 file (no truth_present column) loads via the old heuristic."""
        path = tmp_path / "v1.csv"
        save_dataset(dataset, path)
        lines = path.read_text().splitlines()
        header, columns, *rows = lines
        present_at = columns.split(",").index("truth_present")
        legacy_rows = []
        for row in rows:
            fields = row.split(",")
            del fields[present_at]
            legacy_rows.append(",".join(fields))
        path.write_text("\n".join([header, ",".join(_LEGACY_COLUMNS), *legacy_rows]) + "\n")
        loaded = load_dataset(path)
        assert loaded.epochs() == dataset.epochs()


finite_rates = st.floats(min_value=0.0, max_value=0.99, allow_nan=False)
truths = st.one_of(
    st.none(),
    st.builds(
        EpochTruth,
        utilization_pre=st.floats(0.0, 1.0, allow_nan=False),
        utilization_during=st.floats(0.0, 1.0, allow_nan=False),
        loss_event_rate=finite_rates,
        regime=st.sampled_from(["", "window", "loss", "congestion"]),
        outlier=st.booleans(),
    ),
)


@given(st.lists(truths, min_size=1, max_size=8))
def test_roundtrip_preserves_every_truth_record(tmp_path_factory, truth_list):
    """Property: load(save(ds)) is the identity, truth records included."""
    dataset = _single_trace_dataset(truth_list)
    path = tmp_path_factory.mktemp("io-prop") / "ds.csv"
    save_dataset(dataset, path)
    loaded = load_dataset(path)
    assert loaded.epochs() == dataset.epochs()
    assert [e.truth for e in loaded.epochs()] == truth_list
