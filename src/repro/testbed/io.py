"""Dataset files: the user-facing CSV and the stores' ``.npz`` entries.

**CSV.**  One row per epoch, with the hidden truth columns included
(prefixed ``truth_``) so saved campaigns remain fully analysable.  The
format is deliberately flat CSV: easy to load into any analysis tool.
:func:`save_dataset` writes it from a trace's columns, every number as
the ``repr`` of a Python float (the pinned output digests are of these
bytes); :func:`load_dataset` parses it straight back into columns.

Format history:

* v1 had no ``truth_present`` column; loaders inferred truth-presence
  from ``truth_regime`` being non-empty, which silently dropped truth
  records whose regime was the empty string.  v1 files still load.
* v2 (current) records truth-presence explicitly in ``truth_present``,
  so ``load_dataset(save_dataset(ds))`` preserves every truth record.

**Entries.**  The dataset cache and the checkpoints keep the same
columns as ``.npz`` files (:func:`write_entry`, :func:`read_entry`):
exact float64, nothing formatted or parsed.  One member per column,
concatenated over the traces, plus an ``index`` member — UTF-8 JSON of
the label, each trace's ``[path_id, trace_index, epochs, cuts]`` and
every epoch's regime.  A caller may add plain members beside them (the
dataset cache stores the CSV bytes and their counts; see
:mod:`repro.testbed.cache`).  Inspect one with ``np.load(path)``.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import zipfile
import zlib
from collections.abc import Mapping
from io import BytesIO, TextIOWrapper
from pathlib import Path
from typing import NoReturn

import numpy as np

from repro.core.errors import DataError
from repro.paths.records import (
    ARRAY_COLUMNS,
    MEASUREMENT_COLUMNS,
    TRUTH_COLUMNS,
    Dataset,
    Trace,
)

#: The CSV format version (see the format history above).
FORMAT_VERSION = 2

_COLUMNS = [
    "path_id",
    "trace_index",
    "epoch_index",
    *MEASUREMENT_COLUMNS,
    "smallw_throughput_mbps",
    "duration_throughputs_mbps",
    "truth_present",
    *TRUTH_COLUMNS,
    "truth_regime",
    "truth_outlier",
]

#: The v1 layout, accepted on load for files saved by older releases.
_LEGACY_COLUMNS = [c for c in _COLUMNS if c != "truth_present"]


def save_dataset(dataset: Dataset, path: str | Path) -> bytes:
    """Write a dataset to CSV at ``path``; returns the bytes written."""
    data = dataset_csv(dataset)
    Path(path).write_bytes(data)
    return data


def dataset_csv(dataset: Dataset) -> bytes:
    """The CSV text of ``dataset``, UTF-8 encoded: what :func:`save_dataset`
    writes.

    Rows end in ``\\r\\n`` and string fields are quoted exactly as
    ``csv.writer`` quotes them by default (``QUOTE_MINIMAL``): the bytes
    are those ``csv.writer`` would write.
    """
    head = f"# dataset,{_quote(dataset.label)}\r\n{','.join(_COLUMNS)}\r\n"
    return "".join([head, *map(_trace_text, dataset.traces)]).encode()


#: The characters that make ``csv.writer`` quote a field.
_NEEDS_QUOTES = frozenset(',"\r\n')


def _quote(field: str) -> str:
    """``field`` as ``csv.writer`` writes it under ``QUOTE_MINIMAL``."""
    if _NEEDS_QUOTES.isdisjoint(field):
        return field
    return '"' + field.replace('"', '""') + '"'


def _trace_text(trace: Trace) -> str:
    """One trace's CSV rows, each number the ``repr`` of a Python float."""
    prefix = f"{_quote(trace.path_id)},{trace.trace_index},"
    columns = (getattr(trace, name).tolist() for name in MEASUREMENT_COLUMNS)
    measured = map(",".join, zip(*(map(repr, column) for column in columns)))
    smallw = (
        repr(value) if present else ""
        for value, present in zip(
            trace.smallw_throughput_mbps.tolist(), trace.smallw_present.tolist()
        )
    )
    cuts = (
        ";".join(map(repr, row)) for row in trace.duration_throughputs_mbps.tolist()
    )
    truths = (
        f"1,{pre!r},{during!r},{loss!r},{_quote(regime)},{outlier}"
        if present
        else ",,,,,"
        for present, pre, during, loss, regime, outlier in zip(
            trace.truth_present.tolist(),
            *(getattr(trace, name).tolist() for name in TRUTH_COLUMNS),
            trace.truth_regime,
            trace.truth_outlier.tolist(),
        )
    )
    return "".join(
        f"{prefix}{index},{values},{small},{cut},{truth}\r\n"
        for index, (values, small, cut, truth) in enumerate(
            zip(measured, smallw, cuts, truths)
        )
    )


def load_dataset(path: str | Path, data: bytes | None = None) -> Dataset:
    """Read a dataset previously written by :func:`save_dataset`.

    Accepts both the current format and the legacy (v1) one without a
    ``truth_present`` column.  Each trace's ``epoch_index`` must run
    0, 1, ..., n-1 in file order, and every present number must be
    finite: ``nan``, ``inf`` and ``-inf`` are rejected in measurement,
    small-window, duration-cut and truth cells alike.

    Args:
        path: the CSV file.
        data: the file's bytes, when the caller has read them already:
            they are parsed instead of reading ``path`` again, which
            then only names the file in errors.

    Raises:
        DataError: on malformed files, naming the line and column.
    """
    # Imported here: reading a stored entry (read_entry) parses no CSV.
    import csv

    path = Path(path)
    handle = (
        path.open(newline="", encoding="utf-8")
        if data is None
        else TextIOWrapper(BytesIO(data), encoding="utf-8", newline="")
    )
    with handle:
        reader = csv.reader(handle)
        # The line the next row starts on: a quoted field may span lines.
        line = 1
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path} is empty")
            if len(header) != 2 or header[0] != "# dataset":
                raise DataError(f"{path} missing dataset header row")
            label = header[1]
            line = reader.line_num + 1
            columns = next(reader, None)
            if columns == _COLUMNS:
                legacy = False
            elif columns == _LEGACY_COLUMNS:
                legacy = True
            else:
                raise DataError(f"{path} has unexpected columns: {columns}")
            line = reader.line_num + 1

            width = len(columns)
            # (path_id, trace_index) -> the trace's runs of consecutive
            # rows, each converted to columns as soon as it ends, so the
            # text of one run at most is held at a time.
            runs: dict[tuple[str, int], list[tuple[int, dict]]] = {}
            counts: dict[tuple[str, int], int] = {}
            key, rows, lines = None, [], []
            for row in reader:
                if len(row) != width:
                    raise DataError(
                        f"{path}, line {line}: row has {len(row)} fields, "
                        f"expected {width}"
                    )
                try:
                    row_key = (row[0], int(row[1]))
                    epoch_index = int(row[2])
                except ValueError:
                    raise DataError(
                        f"{path}, line {reader.line_num}: "
                        f"{_unparsable_field(row, legacy)}"
                    ) from None
                if row_key != key:
                    if rows:
                        runs.setdefault(key, []).append(
                            _parse_run(key, rows, lines, path, columns, legacy)
                        )
                    key, rows, lines = row_key, [], []
                expected = counts.get(key, 0)
                if epoch_index != expected:
                    raise DataError(
                        f"{path}, line {reader.line_num}: epoch_index {epoch_index} "
                        f"of trace {key!r}, expected {expected}"
                    )
                counts[key] = expected + 1
                rows.append(row)
                lines.append(reader.line_num)
                line = reader.line_num + 1
        except csv.Error as exc:
            raise DataError(f"{path}, line {line}: {exc}") from None
        if rows:
            runs.setdefault(key, []).append(
                _parse_run(key, rows, lines, path, columns, legacy)
            )
    return Dataset(
        label=label,
        traces=[_join_runs(key, parts, path) for key, parts in runs.items()],
    )


def _parse_run(
    key: tuple[str, int],
    rows: list[list[str]],
    lines: list[int],
    path: Path,
    columns: list[str],
    legacy: bool,
) -> tuple[int, dict]:
    """Consecutive rows of one trace as :class:`Trace` columns, with the
    line the run starts on."""
    n = len(rows)
    text = dict(zip(columns, zip(*rows)))
    smallw = text["smallw_throughput_mbps"]
    smallw_present = [bool(v) for v in smallw]
    # v1 files could only signal truth-presence through the regime.
    present = [bool(v) for v in text["truth_regime" if legacy else "truth_present"]]

    def numbers(cells: tuple[str, ...], where: list[bool] | None = None):
        """The cells as floats; NaN where ``where`` is False."""
        if where is None or all(where):
            return np.fromiter(map(float, cells), np.float64, n)
        return np.array([float(v) if p else np.nan for v, p in zip(cells, where)])

    try:
        measured = {name: numbers(text[name]) for name in MEASUREMENT_COLUMNS}
        smallw = numbers(smallw, smallw_present)
        truth = {name: numbers(text[name], present) for name in TRUTH_COLUMNS}
        cuts = [
            [float(v) for v in cell.split(";") if v]
            for cell in text["duration_throughputs_mbps"]
        ]
    except ValueError:
        for row, line in zip(rows, lines):
            reason = _unparsable_field(row, legacy)
            if reason is not None:
                raise DataError(f"{path}, line {line}: {reason}") from None
        raise  # pragma: no cover - _unparsable_field mirrors the conversions
    for values, line in zip(cuts, lines):
        if len(values) != len(cuts[0]):
            raise DataError(
                f"{path}, line {line}: {len(values)} duration_throughputs_mbps "
                f"values in trace {key!r}, expected {len(cuts[0])}"
            )
    cuts = np.array(cuts, dtype=np.float64).reshape(n, len(cuts[0]))
    smallw_mask, present_mask = np.array(smallw_present), np.array(present)
    # A present cell must be finite: NaN slips through every comparison
    # downstream.  Absent cells hold NaN by construction.
    finite = {name: np.isfinite(values) for name, values in measured.items()}
    finite["smallw_throughput_mbps"] = np.isfinite(smallw) | ~smallw_mask
    finite["duration_throughputs_mbps"] = np.isfinite(cuts).all(axis=1)
    for name in TRUTH_COLUMNS:
        finite[name] = np.isfinite(truth[name]) | ~present_mask
    if not all(ok.all() for ok in finite.values()):
        _reject_non_finite(finite, text, columns, lines, path)
    return lines[0], {
        **measured,
        "smallw_throughput_mbps": smallw,
        "smallw_present": smallw_mask,
        "duration_throughputs_mbps": cuts,
        "truth_present": present_mask,
        **truth,
        "truth_regime": [r if p else "" for r, p in zip(text["truth_regime"], present)],
        "truth_outlier": np.array(
            [o == "True" and p for o, p in zip(text["truth_outlier"], present)]
        ),
    }


def _reject_non_finite(
    finite: dict[str, np.ndarray],
    text: dict[str, tuple[str, ...]],
    columns: list[str],
    lines: list[int],
    path: Path,
) -> NoReturn:
    """Raise for the first cell, in file order, that ``finite`` flags.

    Only called once a check has failed, so loading pays nothing for it.
    """
    row = min(int(np.argmin(ok)) for ok in finite.values() if not ok.all())
    name = next(c for c in columns if c in finite and not finite[c][row])
    cell = text[name][row]
    if name == "duration_throughputs_mbps":
        cell = next(v for v in cell.split(";") if v and not math.isfinite(float(v)))
    raise DataError(f"{path}, line {lines[row]}: {name} must be finite, got {cell}")


def _join_runs(
    key: tuple[str, int], runs: list[tuple[int, dict]], path: Path
) -> Trace:
    """One trace from its runs of rows, in file order."""
    (_, columns), *later = runs
    for line, more in later:
        n_cuts = columns["duration_throughputs_mbps"].shape[1]
        if more["duration_throughputs_mbps"].shape[1] != n_cuts:
            raise DataError(
                f"{path}, line {line}: "
                f"{more['duration_throughputs_mbps'].shape[1]} "
                f"duration_throughputs_mbps values in trace {key!r}, "
                f"expected {n_cuts}"
            )
        columns = {
            name: value + more[name]
            if isinstance(value, list)
            else np.concatenate((value, more[name]))
            for name, value in columns.items()
        }
    return Trace(*key, **columns)


#: The columns :func:`load_dataset` converts with ``int``.
_INT_COLUMNS = ("trace_index", "epoch_index")


def _unparsable_field(row: list[str], legacy: bool) -> str | None:
    """Name the first field of a row that does not convert, if any.

    Only called once parsing has failed, so loading pays nothing for it.
    """
    fields = dict(zip(_LEGACY_COLUMNS if legacy else _COLUMNS, row))
    has_truth = fields["truth_regime"] if legacy else fields["truth_present"]
    checks = [(name, int, [fields[name]]) for name in _INT_COLUMNS]
    checks += [(name, float, [fields[name]]) for name in MEASUREMENT_COLUMNS]
    smallw = fields["smallw_throughput_mbps"]
    checks.append(("smallw_throughput_mbps", float, [smallw] if smallw else []))
    durations = fields["duration_throughputs_mbps"]
    checks.append(
        ("duration_throughputs_mbps", float, [v for v in durations.split(";") if v])
    )
    if has_truth:
        checks += [(name, float, [fields[name]]) for name in TRUTH_COLUMNS]
    for name, convert, values in checks:
        for value in values:
            try:
                convert(value)
            except ValueError:
                return f"column {name!r}: {value!r} is not a number"
    return None


# -- the stores' entries -----------------------------------------------

#: The ``.npz`` members holding columns, each concatenated over the
#: traces (the duration cuts flattened row by row).
_ENTRY_COLUMNS = {**ARRAY_COLUMNS, "duration_throughputs_mbps": np.float64}


def write_entry(
    dataset: Dataset, path: Path, extra: Mapping[str, bytes] | None = None
) -> Path:
    """Store ``dataset`` at ``path`` as ``.npz`` columns; returns ``path``.

    ``extra`` maps further member names to bytes, stored as they are
    (uncompressed, like the columns).  The write is atomic (temp file +
    ``os.replace``), so a concurrent reader, or one after a crash, never
    sees half an entry.
    """
    index = {
        "label": dataset.label,
        "traces": [
            [
                t.path_id,
                int(t.trace_index),
                len(t),
                t.duration_throughputs_mbps.shape[1],
            ]
            for t in dataset.traces
        ],
        "regimes": [regime for t in dataset.traces for regime in t.truth_regime],
    }
    members = {"index": np.frombuffer(json.dumps(index).encode(), dtype=np.uint8)}
    for name, dtype in _ENTRY_COLUMNS.items():
        members[name] = np.concatenate(
            [np.empty(0, dtype), *(getattr(t, name).ravel() for t in dataset.traces)]
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name[:16]}-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle, zipfile.ZipFile(handle, "w") as archive:
            # What np.savez writes, one stored ``<name>.npy`` per column.
            for name, array in members.items():
                with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                    np.lib.format.write_array(member, array, allow_pickle=False)
            for name, data in (extra or {}).items():
                archive.writestr(name, data)
        os.replace(tmp_name, path)
    finally:
        if os.path.exists(tmp_name):  # pragma: no cover - error path
            os.unlink(tmp_name)
    return path


def read_entry(path: Path) -> Dataset:
    """The dataset :func:`write_entry` stored at ``path``.

    Reads each member with ``allow_pickle=False``: an entry holds plain
    arrays or nothing is read from it.

    Raises:
        OSError: the file cannot be read.
        DataError: it is not an entry: not a zip archive, a member
            missing or of the wrong dtype, or columns whose lengths
            disagree with the index.
    """
    try:
        with zipfile.ZipFile(path) as archive:
            index = json.loads(_entry_member(archive, "index", np.uint8).tobytes())
            arrays = {
                name: _entry_member(archive, name, dtype)
                for name, dtype in _ENTRY_COLUMNS.items()
            }
        return _entry_dataset(index, arrays)
    except (
        KeyError, TypeError, ValueError, EOFError, zipfile.BadZipFile, zlib.error
    ) as exc:
        raise DataError(f"{path} is not a dataset entry: {exc}") from exc


def _entry_member(archive: zipfile.ZipFile, name: str, dtype: type) -> np.ndarray:
    array = np.lib.format.read_array(
        BytesIO(archive.read(f"{name}.npy")), allow_pickle=False
    )
    if array.dtype != dtype or array.ndim != 1:
        raise ValueError(f"member {name!r} is {array.dtype} of shape {array.shape}")
    return array


def _entry_dataset(index: dict, arrays: dict[str, np.ndarray]) -> Dataset:
    """Split the concatenated columns back into traces."""
    label, traces, regimes = index["label"], index["traces"], index["regimes"]
    if not isinstance(label, str):
        raise ValueError(f"bad label {label!r}")
    for path_id, trace_index, n, n_cuts in traces:
        if not (
            isinstance(path_id, str)
            and all(type(v) is int for v in (trace_index, n, n_cuts))
            and n >= 0
            and n_cuts >= 0
        ):
            raise ValueError(f"bad trace entry {[path_id, trace_index, n, n_cuts]}")
    n_epochs = sum(n for _, _, n, _ in traces)
    n_cut_values = sum(n * n_cuts for _, _, n, n_cuts in traces)
    if (
        any(arrays[name].size != n_epochs for name in ARRAY_COLUMNS)
        or arrays["duration_throughputs_mbps"].size != n_cut_values
        or len(regimes) != n_epochs
    ):
        raise ValueError("column lengths disagree with the trace offsets")
    if not set(map(type, regimes)) <= {str}:
        raise ValueError("a regime is not a string")
    result, epoch, cut = [], 0, 0
    for path_id, trace_index, n, n_cuts in traces:
        rows = slice(epoch, epoch + n)
        result.append(
            Trace(
                path_id,
                trace_index,
                **{name: arrays[name][rows] for name in ARRAY_COLUMNS},
                duration_throughputs_mbps=arrays["duration_throughputs_mbps"][
                    cut : cut + n * n_cuts
                ].reshape(n, n_cuts),
                truth_regime=regimes[rows],
            )
        )
        epoch, cut = epoch + n, cut + n * n_cuts
    return Dataset(label=label, traces=result)
