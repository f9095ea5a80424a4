"""Measurement records: epochs, traces, datasets.

One epoch of the paper's methodology (Fig. 1) yields a fixed row: the a
priori estimates (``ahat/phat/that``), the actual transfer throughput
``R``, the during-flow probe estimates (``ptilde/ttilde``), the
companion small-window transfer, and optional sub-duration throughputs
for the second (March 2006) measurement set.  A :class:`Trace` holds
those rows as columns, one array per quantity, from the engine that
simulates them to the figures that read them; a :class:`Dataset` is a
list of traces.

An :class:`EpochMeasurement` is one such row as a record, for callers
that work one epoch at a time: the packet engine builds traces with
:meth:`Trace.from_epochs`, and :attr:`Trace.epochs` and
:meth:`Dataset.epochs` build the records on each call.

The truth columns hold the hidden simulator state (true utilization, the
loss rate the flow experienced).  They exist for diagnostics and tests;
the predictors never read them.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import DataError
from repro.core.timeseries import TimeSeries


@dataclass(frozen=True)
class EpochTruth:
    """Hidden per-epoch simulator state (diagnostics only).

    Attributes:
        utilization_pre: true bottleneck utilization before the transfer.
        utilization_during: true utilization during it (cross traffic
            only, excluding the target flow).
        loss_event_rate: the congestion-event rate the flow experienced.
        regime: 'window', 'loss', or 'congestion' — which constraint
            bound the transfer.
        outlier: whether the epoch carried an injected transient burst.
    """

    utilization_pre: float
    utilization_during: float
    loss_event_rate: float
    regime: str
    outlier: bool


@dataclass(frozen=True)
class EpochMeasurement:
    """One measurement epoch (paper Fig. 1).

    All throughputs are Mbps, times are seconds, loss rates are
    fractions.

    Attributes:
        path_id: which path this epoch belongs to.
        trace_index: which trace on the path (0-based).
        epoch_index: position within the trace (0-based).
        start_time_s: absolute (simulated) epoch start time.
        ahat_mbps: a priori avail-bw estimate (pathload).
        phat: a priori loss rate estimate (ping, 600 probes).
        that_s: a priori RTT estimate (ping).
        throughput_mbps: the target transfer's actual throughput ``R``.
        ptilde: loss rate measured by ping during the transfer.
        ttilde_s: RTT measured by ping during the transfer.
        smallw_throughput_mbps: throughput of the companion W=20 KB
            transfer, or None when not run.
        duration_throughputs_mbps: cumulative throughput after each
            requested checkpoint (the 2006 set's 30/60/120 s cuts).
        truth: hidden simulator state (never used by predictors).
    """

    path_id: str
    trace_index: int
    epoch_index: int
    start_time_s: float
    ahat_mbps: float
    phat: float
    that_s: float
    throughput_mbps: float
    ptilde: float
    ttilde_s: float
    smallw_throughput_mbps: float | None = None
    duration_throughputs_mbps: tuple[float, ...] = ()
    truth: EpochTruth | None = None

    def __post_init__(self) -> None:
        if self.throughput_mbps <= 0:
            raise DataError(
                f"epoch throughput must be positive, got {self.throughput_mbps}"
            )
        if not 0.0 <= self.phat < 1.0 or not 0.0 <= self.ptilde < 1.0:
            raise DataError("loss rates must lie in [0, 1)")

    @property
    def lossless(self) -> bool:
        """True when the a priori probing saw no losses (``phat == 0``)."""
        return self.phat == 0.0


#: The float64 columns every epoch fills, in CSV order.
MEASUREMENT_COLUMNS = (
    "start_time_s",
    "ahat_mbps",
    "phat",
    "that_s",
    "throughput_mbps",
    "ptilde",
    "ttilde_s",
)

#: The hidden-state float64 columns; NaN where ``truth_present`` is False.
TRUTH_COLUMNS = (
    "truth_utilization_pre",
    "truth_utilization_during",
    "truth_loss_event_rate",
)

#: Every one-dimensional column of a :class:`Trace` and its dtype.
ARRAY_COLUMNS: dict[str, type] = {
    **dict.fromkeys(MEASUREMENT_COLUMNS, np.float64),
    "smallw_throughput_mbps": np.float64,
    "smallw_present": np.bool_,
    "truth_present": np.bool_,
    **dict.fromkeys(TRUTH_COLUMNS, np.float64),
    "truth_outlier": np.bool_,
}

#: Every column a :class:`Trace` takes.
_ALL_COLUMNS = (*ARRAY_COLUMNS, "duration_throughputs_mbps", "truth_regime")

#: What an omitted optional column holds in every epoch.
_ABSENT = {
    "smallw_throughput_mbps": np.nan,
    "smallw_present": False,
    "truth_present": False,
    **dict.fromkeys(TRUTH_COLUMNS, np.nan),
    "truth_outlier": False,
}


class Trace:
    """One trace: consecutive epochs on one path (the paper's 150), as columns.

    Epoch ``e`` of the trace is row ``e`` of every column, so epoch
    indices are implied by position.  The columns are the
    :data:`MEASUREMENT_COLUMNS` plus:

    * ``smallw_throughput_mbps`` with the mask ``smallw_present``: the
      companion W = 20 KB transfer, NaN where it was not run;
    * ``duration_throughputs_mbps``: an (epochs, cuts) array of the
      cumulative throughputs at the duration cuts (no columns when the
      campaign took none);
    * ``truth_present`` with the :data:`TRUTH_COLUMNS`, ``truth_regime``
      (a tuple of strings) and ``truth_outlier``: the hidden simulator
      state, NaN, ``""`` and False where absent.

    Omitted optional columns are absent in every epoch.  The constructor
    copies each column into a read-only array and runs the checks of
    :class:`EpochMeasurement` on whole columns, with the same
    predicates and messages.  :attr:`epochs` and iteration build
    :class:`EpochMeasurement` rows for callers that work per epoch.

    Raises:
        DataError: a column of the wrong length or shape, a non-positive
            throughput, or a loss rate outside ``[0, 1)``.
    """

    __slots__ = ("path_id", "trace_index", *_ALL_COLUMNS)

    def __init__(self, path_id: str, trace_index: int, **columns) -> None:
        unknown = columns.keys() - _ALL_COLUMNS
        if unknown:
            raise TypeError(f"unknown trace columns: {sorted(unknown)}")
        self.path_id = path_id
        self.trace_index = trace_index
        n = len(columns.get("throughput_mbps", ()))
        where = f"trace ({path_id}, {trace_index})"
        for name, dtype in ARRAY_COLUMNS.items():
            value = columns.get(name)
            if value is None:
                if name in MEASUREMENT_COLUMNS and n:
                    raise DataError(f"{where} has no column {name}")
                array = np.full(n, _ABSENT.get(name, np.nan), dtype=dtype)
            else:
                array = np.array(value, dtype=dtype)
            if array.shape != (n,):
                raise DataError(
                    f"{where}: column {name} has shape {array.shape}, expected ({n},)"
                )
            array.setflags(write=False)
            setattr(self, name, array)
        cuts = columns.get("duration_throughputs_mbps")
        cuts = np.empty((n, 0)) if cuts is None else np.array(cuts, dtype=np.float64)
        if cuts.ndim != 2 or cuts.shape[0] != n:
            raise DataError(
                f"{where}: duration_throughputs_mbps has shape {cuts.shape}, "
                f"expected ({n}, cuts)"
            )
        cuts.setflags(write=False)
        self.duration_throughputs_mbps = cuts
        regime = columns.get("truth_regime")
        self.truth_regime = ("",) * n if regime is None else tuple(regime)
        if len(self.truth_regime) != n:
            raise DataError(
                f"{where}: truth_regime has {len(self.truth_regime)} entries, "
                f"expected {n}"
            )
        self._check_epochs()

    def _check_epochs(self) -> None:
        """:meth:`EpochMeasurement.__post_init__`, on every epoch at once.

        The first failing epoch raises, with the error it would raise.
        """
        bad_throughput = self.throughput_mbps <= 0
        bad = bad_throughput | ~(
            (0.0 <= self.phat)
            & (self.phat < 1.0)
            & (0.0 <= self.ptilde)
            & (self.ptilde < 1.0)
        )
        if bad.any():
            first = int(np.argmax(bad))
            if bad_throughput[first]:
                raise DataError(
                    "epoch throughput must be positive, got "
                    f"{float(self.throughput_mbps[first])}"
                )
            raise DataError("loss rates must lie in [0, 1)")

    @classmethod
    def from_epochs(
        cls, path_id: str, trace_index: int, epochs: Iterable[EpochMeasurement]
    ) -> "Trace":
        """The trace of ``epochs``, for callers that build it one epoch at a time.

        Raises:
            DataError: an epoch of another trace, an ``epoch_index`` out
                of sequence, or epochs with different numbers of
                duration cuts.
        """
        epochs = list(epochs)
        for position, epoch in enumerate(epochs):
            if epoch.path_id != path_id or epoch.trace_index != trace_index:
                raise DataError(
                    f"epoch ({epoch.path_id}, {epoch.trace_index}) does not belong "
                    f"to trace ({path_id}, {trace_index})"
                )
            if epoch.epoch_index != position:
                raise DataError(
                    f"epoch_index {epoch.epoch_index} of trace "
                    f"{(path_id, trace_index)!r}, expected {position}"
                )
        n_cuts = {len(e.duration_throughputs_mbps) for e in epochs}
        if len(n_cuts) > 1:
            raise DataError(
                f"trace ({path_id}, {trace_index}) mixes epochs with "
                f"{sorted(n_cuts)} duration cuts"
            )
        truths = [e.truth for e in epochs]
        smallw = [e.smallw_throughput_mbps for e in epochs]

        def truth_column(field: str) -> list:
            return [np.nan if t is None else getattr(t, field) for t in truths]

        return cls(
            path_id,
            trace_index,
            **{n: [getattr(e, n) for e in epochs] for n in MEASUREMENT_COLUMNS},
            smallw_throughput_mbps=[np.nan if v is None else v for v in smallw],
            smallw_present=[v is not None for v in smallw],
            duration_throughputs_mbps=np.array(
                [e.duration_throughputs_mbps for e in epochs], dtype=np.float64
            ).reshape(len(epochs), n_cuts.pop() if n_cuts else 0),
            truth_present=[t is not None for t in truths],
            truth_utilization_pre=truth_column("utilization_pre"),
            truth_utilization_during=truth_column("utilization_during"),
            truth_loss_event_rate=truth_column("loss_event_rate"),
            truth_regime=["" if t is None else t.regime for t in truths],
            truth_outlier=[t is not None and t.outlier for t in truths],
        )

    def __len__(self) -> int:
        return int(self.throughput_mbps.size)

    def __iter__(self) -> Iterator[EpochMeasurement]:
        return iter(self._epoch_rows())

    @property
    def epochs(self) -> list[EpochMeasurement]:
        """The epochs as :class:`EpochMeasurement` rows, built on each call."""
        return self._epoch_rows()

    def _epoch_rows(self) -> list[EpochMeasurement]:
        """One :class:`EpochMeasurement` per epoch, holding Python floats."""
        smallw = [
            value if present else None
            for value, present in zip(
                self.smallw_throughput_mbps.tolist(), self.smallw_present.tolist()
            )
        ]
        truths = [
            EpochTruth(pre, during, loss, regime, outlier) if present else None
            for present, pre, during, loss, regime, outlier in zip(
                self.truth_present.tolist(),
                *(getattr(self, name).tolist() for name in TRUTH_COLUMNS),
                self.truth_regime,
                self.truth_outlier.tolist(),
            )
        ]
        rows = zip(
            *(getattr(self, name).tolist() for name in MEASUREMENT_COLUMNS),
            smallw,
            map(tuple, self.duration_throughputs_mbps.tolist()),
            truths,
        )
        return [
            EpochMeasurement(self.path_id, self.trace_index, index, *row)
            for index, row in enumerate(rows)
        ]

    def __eq__(self, other: object) -> bool:
        """Equal ids, regimes and column bytes (NaN equals itself)."""
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.path_id, self.trace_index, self.truth_regime) == (
            other.path_id,
            other.trace_index,
            other.truth_regime,
        ) and all(
            mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()
            for mine, theirs in (
                (getattr(self, name), getattr(other, name))
                for name in (*ARRAY_COLUMNS, "duration_throughputs_mbps")
            )
        )

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        # Unpickling (a trace from a worker process) goes through the
        # constructor too, so the columns come back read-only and checked.
        columns = {name: getattr(self, name) for name in _ALL_COLUMNS}
        return (_rebuild_trace, (self.path_id, self.trace_index, columns))

    def __repr__(self) -> str:
        return f"Trace({self.path_id!r}, {self.trace_index}, {len(self)} epochs)"

    def throughput_series(self, small_window: bool = False) -> TimeSeries:
        """The trace's throughput time series (for HB prediction).

        Args:
            small_window: use the companion W=20 KB transfers instead of
                the main transfers.

        Raises:
            DataError: if ``small_window`` is requested but the trace has
                no small-window measurements.
        """
        values = self.throughput_mbps
        if small_window:
            if not self.smallw_present.all():
                raise DataError(
                    f"trace ({self.path_id}, {self.trace_index}) has no "
                    "small-window measurements"
                )
            values = self.smallw_throughput_mbps
        name = f"{self.path_id}/t{self.trace_index}" + ("/W20K" if small_window else "")
        return TimeSeries(self.start_time_s, values, name=name)


def _rebuild_trace(path_id: str, trace_index: int, columns: dict) -> Trace:
    return Trace(path_id, trace_index, **columns)


@dataclass
class Dataset:
    """A full measurement campaign: traces across paths.

    Attributes:
        label: dataset name (e.g. "may-2004").
        traces: all collected traces.
    """

    label: str
    traces: list[Trace] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self) -> Iterator[Trace]:
        return iter(self.traces)

    @property
    def path_ids(self) -> list[str]:
        """Distinct path ids, in first-appearance order."""
        seen: dict[str, None] = {}
        for trace in self.traces:
            seen.setdefault(trace.path_id, None)
        return list(seen)

    def traces_for(self, path_id: str) -> list[Trace]:
        """All traces collected on one path."""
        return [t for t in self.traces if t.path_id == path_id]

    @property
    def n_epochs(self) -> int:
        """The number of epochs over all traces."""
        return sum(len(t) for t in self.traces)

    def epochs(self, path_id: str | None = None) -> list[EpochMeasurement]:
        """All epochs as records, optionally restricted to one path."""
        return [
            e
            for t in self.traces
            if path_id is None or t.path_id == path_id
            for e in t._epoch_rows()
        ]

    def column(self, name: str) -> np.ndarray:
        """One column of every trace, concatenated in trace order."""
        if not self.traces:
            return np.empty(0)
        return np.concatenate([getattr(trace, name) for trace in self.traces])

    def throughputs(self) -> np.ndarray:
        """All transfer throughputs as one array (Mbps)."""
        return self.column("throughput_mbps")

    def extend(self, traces: Iterable[Trace]) -> None:
        """Append traces from another run."""
        self.traces.extend(traces)

    def summary(self) -> str:
        """One-line description of the dataset's size."""
        return (
            f"Dataset {self.label!r}: {len(self.path_ids)} paths, "
            f"{len(self.traces)} traces, {self.n_epochs} epochs"
        )


def concat_datasets(label: str, datasets: Sequence[Dataset]) -> Dataset:
    """Merge several datasets into one (traces concatenated)."""
    merged = Dataset(label=label)
    for ds in datasets:
        merged.extend(ds.traces)
    return merged
