"""CSV serialization of datasets.

One row per epoch, with the hidden truth columns included (prefixed
``truth_``) so saved campaigns remain fully analysable.  The format is
deliberately flat CSV: easy to load into any analysis tool.

Format history:

* v1 had no ``truth_present`` column; loaders inferred truth-presence
  from ``truth_regime`` being non-empty, which silently dropped truth
  records whose regime was the empty string.  v1 files still load.
* v2 (current) records truth-presence explicitly in ``truth_present``,
  so ``load_dataset(save_dataset(ds))`` preserves every truth record.
"""

from __future__ import annotations

import csv
from pathlib import Path

from repro.core.errors import DataError
from repro.paths.records import Dataset, EpochMeasurement, EpochTruth, Trace

#: Bumped when the on-disk layout changes; part of the dataset cache key.
FORMAT_VERSION = 2

_COLUMNS = [
    "path_id",
    "trace_index",
    "epoch_index",
    "start_time_s",
    "ahat_mbps",
    "phat",
    "that_s",
    "throughput_mbps",
    "ptilde",
    "ttilde_s",
    "smallw_throughput_mbps",
    "duration_throughputs_mbps",
    "truth_present",
    "truth_utilization_pre",
    "truth_utilization_during",
    "truth_loss_event_rate",
    "truth_regime",
    "truth_outlier",
]

#: The v1 layout, accepted on load for files saved by older releases.
_LEGACY_COLUMNS = [c for c in _COLUMNS if c != "truth_present"]


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset to CSV at ``path``."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["# dataset", dataset.label])
        writer.writerow(_COLUMNS)
        for epoch in dataset.epochs():
            writer.writerow(_epoch_row(epoch))


def _epoch_row(epoch: EpochMeasurement) -> list[str]:
    truth = epoch.truth
    return [
        epoch.path_id,
        str(epoch.trace_index),
        str(epoch.epoch_index),
        repr(epoch.start_time_s),
        repr(epoch.ahat_mbps),
        repr(epoch.phat),
        repr(epoch.that_s),
        repr(epoch.throughput_mbps),
        repr(epoch.ptilde),
        repr(epoch.ttilde_s),
        "" if epoch.smallw_throughput_mbps is None else repr(epoch.smallw_throughput_mbps),
        ";".join(repr(v) for v in epoch.duration_throughputs_mbps),
        "" if truth is None else "1",
        "" if truth is None else repr(truth.utilization_pre),
        "" if truth is None else repr(truth.utilization_during),
        "" if truth is None else repr(truth.loss_event_rate),
        "" if truth is None else truth.regime,
        "" if truth is None else str(truth.outlier),
    ]


def load_dataset(path: str | Path) -> Dataset:
    """Read a dataset previously written by :func:`save_dataset`.

    Accepts both the current format and the legacy (v1) one without a
    ``truth_present`` column.

    Raises:
        DataError: on malformed files.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration as exc:
            raise DataError(f"{path} is empty") from exc
        if len(header) != 2 or header[0] != "# dataset":
            raise DataError(f"{path} missing dataset header row")
        label = header[1]
        columns = next(reader, None)
        if columns == _COLUMNS:
            legacy = False
        elif columns == _LEGACY_COLUMNS:
            legacy = True
        else:
            raise DataError(f"{path} has unexpected columns: {columns}")

        dataset = Dataset(label=label)
        traces: dict[tuple[str, int], Trace] = {}
        for row in reader:
            try:
                epoch = _parse_row(row, path, legacy)
            except ValueError:
                raise DataError(
                    f"{path}, line {reader.line_num}: {_unparsable_field(row, legacy)}"
                ) from None
            key = (epoch.path_id, epoch.trace_index)
            if key not in traces:
                traces[key] = Trace(path_id=epoch.path_id, trace_index=epoch.trace_index)
                dataset.traces.append(traces[key])
            traces[key].append(epoch)
    return dataset


#: The columns :func:`_parse_row` converts with ``int`` and ``float``
#: (the truth ones only when the row carries truth).
_INT_COLUMNS = ("trace_index", "epoch_index")
_FLOAT_COLUMNS = (
    "start_time_s", "ahat_mbps", "phat", "that_s", "throughput_mbps", "ptilde",
    "ttilde_s",
)
_TRUTH_FLOAT_COLUMNS = (
    "truth_utilization_pre", "truth_utilization_during", "truth_loss_event_rate",
)


def _unparsable_field(row: list[str], legacy: bool) -> str:
    """Name the field of a row :func:`_parse_row` failed to convert.

    Only called once parsing has failed, so loading pays nothing for it.
    """
    fields = dict(zip(_LEGACY_COLUMNS if legacy else _COLUMNS, row))
    has_truth = fields["truth_regime"] if legacy else fields["truth_present"]
    checks = [(name, int, [fields[name]]) for name in _INT_COLUMNS]
    checks += [(name, float, [fields[name]]) for name in _FLOAT_COLUMNS]
    smallw = fields["smallw_throughput_mbps"]
    checks.append(("smallw_throughput_mbps", float, [smallw] if smallw else []))
    durations = fields["duration_throughputs_mbps"]
    checks.append(
        ("duration_throughputs_mbps", float, [v for v in durations.split(";") if v])
    )
    if has_truth:
        checks += [(name, float, [fields[name]]) for name in _TRUTH_FLOAT_COLUMNS]
    for name, convert, values in checks:
        for value in values:
            try:
                convert(value)
            except ValueError:
                return f"column {name!r}: {value!r} is not a number"
    return "a field is not a number"  # pragma: no cover - checks mirror _parse_row


def _parse_row(row: list[str], path: Path, legacy: bool) -> EpochMeasurement:
    expected = _LEGACY_COLUMNS if legacy else _COLUMNS
    if len(row) != len(expected):
        raise DataError(f"{path}: row has {len(row)} fields, expected {len(expected)}")
    if legacy:
        (
            path_id, trace_index, epoch_index, start_time_s,
            ahat, phat, that, throughput, ptilde, ttilde,
            smallw, durations, t_upre, t_udur, t_loss, t_regime, t_outlier,
        ) = row
        # v1 files could only signal truth-presence through the regime.
        t_present = "1" if t_regime else ""
    else:
        (
            path_id, trace_index, epoch_index, start_time_s,
            ahat, phat, that, throughput, ptilde, ttilde,
            smallw, durations, t_present, t_upre, t_udur, t_loss,
            t_regime, t_outlier,
        ) = row
    truth = None
    if t_present:
        truth = EpochTruth(
            utilization_pre=float(t_upre),
            utilization_during=float(t_udur),
            loss_event_rate=float(t_loss),
            regime=t_regime,
            outlier=t_outlier == "True",
        )
    return EpochMeasurement(
        path_id=path_id,
        trace_index=int(trace_index),
        epoch_index=int(epoch_index),
        start_time_s=float(start_time_s),
        ahat_mbps=float(ahat),
        phat=float(phat),
        that_s=float(that),
        throughput_mbps=float(throughput),
        ptilde=float(ptilde),
        ttilde_s=float(ttilde),
        smallw_throughput_mbps=float(smallw) if smallw else None,
        duration_throughputs_mbps=tuple(
            float(v) for v in durations.split(";") if v
        ),
        truth=truth,
    )
