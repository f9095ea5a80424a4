"""The reports ``repro-analyze`` keeps, so a rerun prints instead of renders.

``repro-analyze``'s stdout is a pure function of the dataset's bytes,
the figures asked for and the code that reads them.  A run that exits 0
having written its whole stdout keeps it as a :class:`Report`, one JSON
file per key in the evaluation cache's root,
``<root>/<report key>.report.json``, with what the run's manifest and
stderr say besides: the warm phase's counts, the rendered and skipped
figures and the dataset's counts.  A later run with the same key writes
the stored text and renders nothing.

The key (:func:`report_key`) covers the sha256 of the dataset's bytes,
the ``--figures`` list as given (order kept; ``None`` when none was
given, meaning every figure), every ``*.py`` file of the ``repro``
package (:func:`~repro.core.cachekey.package_fingerprint`), the
Python version and numpy's version, read from its ``version.py``
without importing it.  The worker count is left out: the output is the
same at any.  A report that does not read back as one
(:func:`read_report`) is quarantined (:mod:`repro.core.store`) and the
run renders again.

This module imports no numpy, and nothing it imports does, so a hit
loads none.  It is also where the evaluation cache's root is decided
(:func:`default_eval_cache_dir`), which a hit needs before anything
heavy is imported.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from dataclasses import dataclass
from importlib.util import find_spec
from pathlib import Path

from repro.core.cachekey import package_fingerprint, stable_fingerprint
from repro.core.errors import DataError
from repro.core.store import atomic_write, quarantine, read_json, store_root
from repro.obs.telemetry import get_telemetry

#: Environment variable overriding the evaluation-cache location.
ENV_EVAL_CACHE_DIR = "REPRO_EVAL_CACHE_DIR"


def default_eval_cache_dir() -> Path:
    """The cache root: ``$REPRO_EVAL_CACHE_DIR`` or ``~/.cache/repro/evals``."""
    return store_root(ENV_EVAL_CACHE_DIR, "evals")


@dataclass(frozen=True)
class Report:
    """What one ``repro-analyze`` run printed, and what its manifest says.

    Attributes:
        stdout: the run's whole stdout.
        planned: the unit-trace walks its warm phase planned.
        walks: those it took from the pack or computed; a rerun takes
            them all from the report.
        figures: the figures rendered, in order.
        skipped: the figures not derivable from the dataset, in order.
        paths: distinct paths in the dataset.
        traces: traces in the dataset.
        epochs: epochs over all traces.
    """

    stdout: str
    planned: int
    walks: int
    figures: list[int]
    skipped: list[int]
    paths: int
    traces: int
    epochs: int


def _numpy_version() -> str:
    """The installed numpy's version, as its ``version.py`` states it."""
    spec = find_spec("numpy")
    if spec is None or spec.origin is None:
        raise ModuleNotFoundError("no module named 'numpy'")
    text = Path(spec.origin).with_name("version.py").read_text(encoding="utf-8")
    match = re.search(r"^version\s*=\s*['\"]([^'\"]+)['\"]", text, re.MULTILINE)
    if match is None:
        raise ValueError(f"no version in {spec.origin}")
    return match.group(1)


def report_key(digest: str, figures: list[int] | None) -> str:
    """The key of the report of a run over the dataset whose bytes hash
    to ``digest`` (sha256, hex), asked for ``figures`` (``None``: every
    figure), by this code on this interpreter."""
    return stable_fingerprint(
        {
            "dataset": digest,
            "figures": figures,
            "code": package_fingerprint("repro"),
            "python": sys.version,
            "numpy": _numpy_version(),
        }
    )


def report_path(root: Path, key: str) -> Path:
    """The file the report with ``key`` is (or would be) stored at."""
    return root / f"{key}.report.json"


def _is_count(value: object) -> bool:
    return type(value) is int and value >= 0


def _checked(doc: object, path: Path) -> Report:
    """``doc`` as a :class:`Report`; a ``DataError`` naming ``path`` for
    anything but an object holding every field with its type."""
    if not isinstance(doc, dict):
        raise DataError(f"{path} is not a report: not a JSON object")
    report = Report(**{f.name: doc.get(f.name) for f in dataclasses.fields(Report)})
    counts = (report.planned, report.walks, report.paths, report.traces, report.epochs)
    if not (
        isinstance(report.stdout, str)
        and all(map(_is_count, counts))
        and all(
            isinstance(numbers, list) and all(map(_is_count, numbers))
            for numbers in (report.figures, report.skipped)
        )
    ):
        raise DataError(f"{path} is not a report: a field is missing or mistyped")
    return report


def read_report(root: Path, key: str) -> Report | None:
    """The report stored under ``key``, or ``None`` on a miss.

    One that is not a report (not JSON, not an object, a field missing
    or of another type, or a file that cannot be read) is quarantined
    under ``evalcache.corrupt`` and reads as a miss.
    """
    path = report_path(root, key)
    try:
        return _checked(read_json(path), path)
    except FileNotFoundError:
        return None
    except (DataError, OSError):
        quarantine(path, "evalcache", key=key)
        return None


def write_report(root: Path, key: str, report: Report) -> None:
    """Keep ``report`` under ``key``, in one atomic write.

    A root the run cannot write to (say, a read-only shared cache) is an
    ``evalcache`` event with ``outcome="unwritable"``, not an error.
    """
    data = json.dumps(dataclasses.asdict(report)).encode()
    try:
        atomic_write(report_path(root, key), lambda handle: handle.write(data))
    except OSError as exc:
        get_telemetry().emit(
            "evalcache", outcome="unwritable", key=key, reason=str(exc)
        )
