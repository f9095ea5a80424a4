"""Dataset files: the CSV and the stores' ``.npz`` entries."""

import csv
import math
import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import DataError
from repro.paths.config import may_2004_catalog, scaled_catalog
from repro.paths.records import (
    MEASUREMENT_COLUMNS,
    TRUTH_COLUMNS,
    Dataset,
    EpochMeasurement,
    EpochTruth,
    Trace,
)
from repro.testbed.cache import DatasetCache
from repro.testbed.campaign import Campaign, CampaignSettings
from repro.testbed.checkpoint import CheckpointStore
from repro.testbed.io import (
    _COLUMNS,
    _LEGACY_COLUMNS,
    dataset_csv,
    load_dataset,
    save_dataset,
)
from tests.testbed.csv_oracle import oracle_csv_bytes


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

    @pytest.mark.parametrize(
        "edit, reason",
        [
            # The quote is never closed: the row runs to the end of the file.
            (lambda row: '"' + row, f"row has 1 fields, expected {len(_COLUMNS)}"),
            (lambda row: "p" * 131_073 + row, "field larger than field limit (131072)"),
        ],
        ids=["unterminated-quote", "oversize-field"],
    )
    def test_malformed_row_named_by_line(self, dataset, tmp_path, edit, reason):
        path = tmp_path / "ds.csv"
        save_dataset(dataset, path)
        rows = path.read_text().splitlines(keepends=True)
        rows[4] = edit(rows[4])  # the third epoch, line 5
        path.write_text("".join(rows))
        with pytest.raises(DataError) as excinfo:
            load_dataset(path)
        assert str(excinfo.value) == f"{path}, line 5: {reason}"


@pytest.fixture(scope="module")
def cut_dataset():
    """A dataset with every optional column present: small-window
    transfers, truth and two duration cuts."""
    campaign = Campaign(scaled_catalog(may_2004_catalog(), 2), seed=3, label="cuts")
    return campaign.run(
        CampaignSettings(
            n_traces=1,
            epochs_per_trace=5,
            transfer_duration_s=120.0,
            checkpoint_fractions=(0.5, 1.0),
        )
    )


def _edit_cells(dataset, path, edits):
    """Save ``dataset`` to ``path`` with ``{column: text}`` set on line 5."""
    save_dataset(dataset, path)
    rows = list(csv.reader(path.open(newline="")))
    for column, text in edits.items():
        rows[4][rows[1].index(column)] = text  # the third epoch, line 5
    with path.open("w", newline="") as handle:
        csv.writer(handle).writerows(rows)


class TestNonFiniteCells:
    """A present number must be finite: the engine never writes NaN or
    ±inf, and every consumer downstream would otherwise have to re-check."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "column",
        [
            *MEASUREMENT_COLUMNS,
            "smallw_throughput_mbps",
            "duration_throughputs_mbps",
            *TRUTH_COLUMNS,
        ],
    )
    def test_rejected_naming_line_and_column(self, cut_dataset, tmp_path, column, value):
        path = tmp_path / "ds.csv"
        text = f"1.0;{value}" if column == "duration_throughputs_mbps" else value
        _edit_cells(cut_dataset, path, {column: text})
        with pytest.raises(DataError) as excinfo:
            load_dataset(path)
        assert str(excinfo.value) == f"{path}, line 5: {column} must be finite, got {value}"

    def test_first_cell_in_file_order_is_named(self, cut_dataset, tmp_path):
        path = tmp_path / "ds.csv"
        save_dataset(cut_dataset, path)
        rows = list(csv.reader(path.open(newline="")))
        rows[3][rows[1].index("truth_loss_event_rate")] = "inf"  # line 4
        rows[3][rows[1].index("ttilde_s")] = "nan"
        rows[2][rows[1].index("ptilde")] = "-inf"  # line 3, another column
        with path.open("w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        with pytest.raises(DataError, match=r"line 3: ptilde must be finite, got -inf$"):
            load_dataset(path)

    def test_absent_truth_and_small_window_cells_load(self, cut_dataset, tmp_path):
        path = tmp_path / "ds.csv"
        absent = dict.fromkeys(
            ["smallw_throughput_mbps", "truth_present", *TRUTH_COLUMNS,
             "truth_regime", "truth_outlier"],
            "",
        )
        _edit_cells(cut_dataset, path, absent)
        trace = load_dataset(path).traces[0]
        assert not trace.smallw_present[2] and not trace.truth_present[2]
        assert trace.smallw_present.sum() == trace.truth_present.sum() == 4


class TestEpochSequence:
    """Each trace's ``epoch_index`` must run 0, 1, ..., n-1 in file order."""

    @pytest.mark.parametrize(
        "edit, line, found, expected",
        [("duplicated", 7, 3, 4), ("missing", 6, 4, 3), ("swapped", 6, 4, 3)],
    )
    def test_out_of_sequence_epoch_rejected(
        self, dataset, tmp_path, edit, line, found, expected
    ):
        path = tmp_path / "ds.csv"
        save_dataset(dataset, path)
        lines = path.read_text().splitlines(keepends=True)
        at = 2 + 3  # the first trace's epoch 3, on line 6
        if edit == "duplicated":
            lines.insert(at + 1, lines[at])
        elif edit == "missing":
            del lines[at]
        else:
            lines[at], lines[at + 1] = lines[at + 1], lines[at]
        path.write_text("".join(lines))
        with pytest.raises(DataError) as excinfo:
            load_dataset(path)
        first = dataset.traces[0]
        assert str(excinfo.value) == (
            f"{path}, line {line}: epoch_index {found} of trace "
            f"{(first.path_id, first.trace_index)!r}, expected {expected}"
        )


    def test_interleaved_traces_load(self, dataset, tmp_path):
        """The rows of two traces may alternate: each keeps its epochs in
        file order."""
        path = tmp_path / "ds.csv"
        save_dataset(dataset, path)
        header, columns, *rows = path.read_text().splitlines(keepends=True)
        n = len(dataset.traces[0])
        first, second, rest = rows[:n], rows[n : 2 * n], rows[2 * n :]
        mixed = [row for pair in zip(first, second) for row in pair]
        path.write_text("".join([header, columns, *mixed, *rest]))
        assert load_dataset(path) == dataset

    def test_ragged_duration_cuts_rejected(self, tmp_path):
        """One trace's epochs must all carry the same number of cuts."""
        path = tmp_path / "ds.csv"
        rows = [
            f"p01,0,{index},{180.0 * (index + 1)},5.0,0.0,0.05,4.5,0.0,0.06,,"
            f"{cuts},,,,,,"
            for index, cuts in enumerate(["1.0;2.0", "1.0;2.0", "3.0"])
        ]
        path.write_text("\n".join(["# dataset,x", ",".join(_COLUMNS), *rows, ""]))
        with pytest.raises(DataError) as excinfo:
            load_dataset(path)
        assert str(excinfo.value) == (
            f"{path}, line 5: 1 duration_throughputs_mbps values in trace "
            "('p01', 0), expected 2"
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
    trace = Trace.from_epochs(
        "p01", 0, [_epoch(index, truth) for index, truth in enumerate(truths)]
    )
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


#: Any float, NaN as the one NaN the CSV text can carry: ``repr`` writes
#: every NaN as ``nan``, which parses back as ``math.nan``.
any_float = st.floats(allow_nan=False) | st.just(math.nan)
#: What the CSV loader accepts in a present cell.
finite_float = st.floats(allow_nan=False, allow_infinity=False)
#: What EpochMeasurement accepts: loss rates in [0, 1) (-0.0 included),
#: and throughputs not <= 0 (NaN and +inf included).
loss_rates = st.floats(0.0, 1.0, exclude_max=True) | st.just(-0.0)
throughputs = st.floats(min_value=0.0, exclude_min=True) | st.just(math.nan)
finite_throughputs = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def datasets(draw, finite: bool = False) -> Dataset:
    """1-3 paths of 1-2 traces, 1-4 epochs each, 0 or 3 duration cuts;
    every present number finite when ``finite``."""
    number = finite_float if finite else any_float
    epoch_truths = st.none() | st.builds(
        EpochTruth,
        utilization_pre=number,
        utilization_during=number,
        loss_event_rate=number,
        regime=st.sampled_from(["", "window", "congestion"]),
        outlier=st.booleans(),
    )
    traces = []
    for path_number in range(draw(st.integers(1, 3))):
        path_id = f"p{path_number:02d}"
        for trace_index in range(draw(st.integers(1, 2))):
            n_cuts = draw(st.sampled_from([0, 3]))
            epochs = [
                EpochMeasurement(
                    path_id,
                    trace_index,
                    epoch_index,
                    start_time_s=draw(number),
                    ahat_mbps=draw(number),
                    phat=draw(loss_rates),
                    that_s=draw(number),
                    throughput_mbps=draw(finite_throughputs if finite else throughputs),
                    ptilde=draw(loss_rates),
                    ttilde_s=draw(number),
                    smallw_throughput_mbps=draw(st.none() | number),
                    duration_throughputs_mbps=tuple(
                        draw(number) for _ in range(n_cuts)
                    ),
                    truth=draw(epoch_truths),
                )
                for epoch_index in range(draw(st.integers(1, 4)))
            ]
            traces.append(Trace.from_epochs(path_id, trace_index, epochs))
    label = draw(st.text(string.ascii_letters + string.digits + ' ,"-', max_size=8))
    return Dataset(label=label, traces=traces)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(datasets(finite=True))
def test_every_store_round_trips_column_bytes(tmp_path_factory, dataset):
    """The CSV (byte-equal to the per-record writer), the dataset cache
    and the checkpoints each give back the same column bytes."""
    _assert_stores_round_trip(tmp_path_factory.mktemp("round-trip"), dataset)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(datasets())
def test_entries_round_trip_non_finite_columns(tmp_path_factory, dataset):
    """The ``.npz`` entries keep NaN and ±inf bits, and the CSV writer
    still writes them; only the CSV loader rejects them
    (:class:`TestNonFiniteCells`)."""
    _assert_stores_round_trip(
        tmp_path_factory.mktemp("round-trip"), dataset, load_csv=False
    )


def _assert_stores_round_trip(root, dataset, load_csv: bool = True) -> None:
    path = root / "ds.csv"
    save_dataset(dataset, path)
    assert path.read_bytes() == oracle_csv_bytes(dataset)
    if load_csv:
        assert load_dataset(path) == dataset

    cache = DatasetCache(root / "cache")
    cache.store("key", dataset)
    assert cache.load("key").dataset() == dataset

    checkpoints = CheckpointStore(root / "checkpoints")
    for trace in dataset.traces:
        checkpoints.store_trace("run", trace)
        assert checkpoints.load_trace("run", trace.path_id, trace.trace_index) == trace


#: Strings ``csv.writer`` must quote, and some it must not: separators,
#: quotes, line breaks, spaces and the empty string.
awkward_text = st.text(alphabet=' ,"\r\na;', max_size=6)


@st.composite
def quoted_datasets(draw) -> Dataset:
    """Datasets whose label, path ids and regimes are awkward text."""
    truths = st.none() | st.builds(
        EpochTruth,
        utilization_pre=st.just(0.5),
        utilization_during=st.just(0.75),
        loss_event_rate=st.just(0.0),
        regime=awkward_text,
        outlier=st.booleans(),
    )
    traces = []
    for path_id in draw(st.lists(awkward_text, min_size=1, max_size=3, unique=True)):
        epochs = [
            EpochMeasurement(
                path_id,
                0,
                epoch_index,
                start_time_s=150.0 * epoch_index,
                ahat_mbps=2.5,
                phat=0.01,
                that_s=0.1,
                throughput_mbps=3.0,
                ptilde=0.02,
                ttilde_s=0.125,
                smallw_throughput_mbps=draw(st.none() | st.just(1.5)),
                truth=draw(truths),
            )
            for epoch_index in range(draw(st.integers(1, 3)))
        ]
        traces.append(Trace.from_epochs(path_id, 0, epochs))
    return Dataset(label=draw(awkward_text), traces=traces)


@settings(max_examples=200, deadline=None)
@given(quoted_datasets())
def test_writer_quotes_strings_as_csv_writer_does(dataset):
    """The joined rows quote the label, path ids and regimes exactly as
    ``csv.writer`` does (``QUOTE_MINIMAL``): the bytes are the oracle's."""
    assert dataset_csv(dataset) == oracle_csv_bytes(dataset)


@pytest.mark.parametrize(
    "text", ["", " ", "a b", "a,b", 'a"b', '"', "a\rb", "a\nb", "\r\n", ",\"\n"]
)
def test_writer_quotes_each_awkward_field(text, tmp_path):
    dataset = Dataset(
        label=text,
        traces=[
            Trace.from_epochs(
                text,
                0,
                [
                    EpochMeasurement(
                        text, 0, 0, 0.0, 2.5, 0.01, 0.1, 3.0, 0.02, 0.125,
                        truth=EpochTruth(0.5, 0.75, 0.0, text, False),
                    )
                ],
            )
        ],
    )
    path = tmp_path / "ds.csv"
    assert save_dataset(dataset, path) == path.read_bytes() == oracle_csv_bytes(dataset)
    assert load_dataset(path) == dataset
