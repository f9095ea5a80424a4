"""The mechanics every on-disk store shares.

The dataset cache, the checkpoints, the evaluation cache's packs and
columns entries, run manifests and ``repro-serve`` snapshots keep their
files through this module.  :func:`store_root` places a store,
:func:`atomic_write` writes a file, :func:`open_archive` and
:func:`read_json` read one and turn whatever damage raises into one
:class:`~repro.core.errors.DataError` naming the file, and
:func:`quarantine` sets a damaged file aside.  The ``.npz`` stores share
one container, a zip of stored flat 1-D ``.npy`` members plus any plain
members: :func:`write_container` streams it, :class:`FlatArray` reads a
member in runs and :func:`read_flat` whole; ``np.load`` opens it too.

No numpy is imported at module level: a dataset-cache hit reads plain
members only.  Every key that covers a store's layout covers this
module's source.
"""

from __future__ import annotations

import json
import lzma
import os
import tempfile
import zipfile
import zlib
from collections.abc import Callable, Iterator, Mapping, Sequence
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import TYPE_CHECKING, Any, BinaryIO

from repro.core.errors import DataError
from repro.obs.telemetry import get_telemetry

if TYPE_CHECKING:  # pragma: no cover - types only: a hit loads no numpy
    import numpy as np


def store_root(env: str, leaf: str) -> Path:
    """A store's root: ``$env`` (``~`` expanded) when set and not blank,
    else ``~/.cache/repro/<leaf>``."""
    value = os.environ.get(env, "").strip()
    return Path(value).expanduser() if value else Path.home() / ".cache/repro" / leaf


def atomic_write(path: Path, write: Callable[[BinaryIO], object]) -> Path:
    """Write ``path`` through ``write(handle)`` on a temp file in its
    directory (made if missing), then replace it; returns ``path``.  If
    ``write`` raises, the temp file goes and the previous file stays."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name[:16]}-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
        os.replace(tmp_name, path)
    except BaseException:
        os.unlink(tmp_name)
        raise
    return path


#: What reading a damaged archive can raise.  ``RuntimeError`` covers an
#: unsupported compression method or flag (``NotImplementedError``) and
#: the encrypted flag; ``OSError`` an unreadable file or bzip2 stream.
DAMAGE_ERRORS = (
    OSError, EOFError, LookupError, TypeError, ValueError, RuntimeError,
    zipfile.BadZipFile, zlib.error, lzma.LZMAError,
)


@contextmanager
def open_archive(path: Path, what: str) -> Iterator[zipfile.ZipFile]:
    """``path`` as a zip archive, read in the ``with`` body.

    Raises:
        FileNotFoundError: there is no file at ``path``.
        DataError: ``path`` is not ``what`` (say, "a dataset entry"):
            anything in :data:`DAMAGE_ERRORS` that opening it or the
            body raised, with the file named.
    """
    try:
        with zipfile.ZipFile(path) as archive:
            yield archive
    except FileNotFoundError:
        raise
    except DAMAGE_ERRORS as exc:
        raise DataError(f"{path} is not {what}: {exc}") from exc


def read_json(path: Path) -> Any:
    """The JSON document in the file ``path``: a ``DataError`` if it is
    not UTF-8, not one document, nested deeper than the decoder recurses
    or holds an integer longer than Python converts."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from exc


def quarantine(path: Path, kind: str, /, **fields: Any) -> None:
    """Rename the damaged file ``path`` to ``<name>.corrupt`` (best
    effort), kept for inspection where it cannot shadow the fresh file
    about to be written; counted under ``<kind>.corrupt`` and recorded as
    a ``<kind>`` event with ``outcome="corrupt"`` and ``fields``."""
    telemetry = get_telemetry()
    telemetry.counter(f"{kind}.corrupt").inc()
    telemetry.emit(kind, outcome="corrupt", **fields)
    with suppress(OSError):
        os.replace(path, path.with_name(path.name + ".corrupt"))


# -- the container -----------------------------------------------------


def write_container(
    handle: BinaryIO,
    members: Mapping[str, tuple[Any, Sequence[Sequence[Any]]]],
    extra: Mapping[str, bytes] | None = None,
) -> None:
    """Write a container to ``handle``.

    ``members`` maps a name to ``(dtype, parts)``: the member
    ``<name>.npy`` is the flat ``dtype`` array of the parts (1-D arrays
    or sequences of numbers) laid end to end, written part by part.
    ``extra`` maps further member names to bytes, stored as they are.
    Every member carries zip's fixed default date, not the clock, so
    equal members write equal bytes.
    """
    import numpy as np

    with zipfile.ZipFile(handle, "w", allowZip64=True) as archive:
        for name, (dtype, parts) in members.items():
            dtype = np.dtype(dtype)
            header = {
                "descr": np.lib.format.dtype_to_descr(dtype),
                "fortran_order": False,
                "shape": (sum(len(part) for part in parts),),
            }
            with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(member, header)
                for part in parts:
                    member.write(np.ascontiguousarray(part, dtype=dtype))
        for name, data in (extra or {}).items():
            archive.writestr(zipfile.ZipInfo(name), data)


class FlatArray:
    """The flat ``dtype`` array of an open container member (else
    ``ValueError``), read in runs.

    Each run is copied into an array of its own, so a reader holds no
    copy of the whole member; the member itself is read in chunks of at
    least :attr:`CHUNK` bytes, not once per run.
    """

    CHUNK = 1 << 16

    def __init__(self, member: BinaryIO, dtype: Any) -> None:
        import numpy as np

        self._member = member
        if np.lib.format.read_magic(member) != (1, 0):
            raise ValueError("member has an unknown array format")
        shape, _, self._dtype = np.lib.format.read_array_header_1_0(member)
        if len(shape) != 1 or self._dtype != np.dtype(dtype):
            raise ValueError(
                f"member is {self._dtype} of shape {shape}, not a flat "
                f"{np.dtype(dtype)} array"
            )
        #: items not yet read.
        self.remaining = shape[0]
        self._chunk, self._offset = b"", 0

    def take(self, n: int) -> np.ndarray:
        """The next ``n`` items."""
        import numpy as np

        if not 0 <= n <= self.remaining:
            raise ValueError("index and arrays disagree in length")
        self.remaining -= n
        size = n * self._dtype.itemsize
        if len(self._chunk) - self._offset < size:
            rest = self._chunk[self._offset :]
            self._chunk = rest + self._member.read(max(size - len(rest), self.CHUNK))
            self._offset = 0
            if len(self._chunk) < size:
                raise ValueError("member is truncated")
        start, self._offset = self._offset, self._offset + size
        return np.frombuffer(self._chunk, self._dtype, n, start).copy()


def read_flat(archive: zipfile.ZipFile, name: str, dtype: Any) -> np.ndarray:
    """The whole member ``<name>.npy`` of an open container, a flat
    ``dtype`` array (``ValueError`` for anything else)."""
    with archive.open(f"{name}.npy") as member:
        array = FlatArray(member, dtype)
        return array.take(array.remaining)
