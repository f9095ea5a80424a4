"""The dataset CSV written one epoch record at a time: the byte oracle.

This is the writer ``repro.testbed.io.save_dataset`` used while traces
were lists of :class:`~repro.paths.records.EpochMeasurement` records.
``save_dataset`` now writes from a trace's columns; its bytes must equal
these, since the pinned output digests are of them.
"""

import csv
import io

from repro.paths.records import Dataset, EpochMeasurement
from repro.testbed.io import _COLUMNS


def _epoch_row(epoch: EpochMeasurement) -> list[str]:
    truth = epoch.truth
    smallw = epoch.smallw_throughput_mbps
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
        "" if smallw is None else repr(smallw),
        ";".join(repr(v) for v in epoch.duration_throughputs_mbps),
        "" if truth is None else "1",
        "" if truth is None else repr(truth.utilization_pre),
        "" if truth is None else repr(truth.utilization_during),
        "" if truth is None else repr(truth.loss_event_rate),
        "" if truth is None else truth.regime,
        "" if truth is None else str(truth.outlier),
    ]


def oracle_csv_bytes(dataset: Dataset) -> bytes:
    """The CSV of ``dataset``, from its epoch records."""
    handle = io.StringIO(newline="")
    writer = csv.writer(handle)
    writer.writerow(["# dataset", dataset.label])
    writer.writerow(_COLUMNS)
    for epoch in dataset.epochs():
        writer.writerow(_epoch_row(epoch))
    return handle.getvalue().encode()
