"""Ways to damage a dataset-cache or checkpoint ``.npz`` entry.

Each function of :data:`DAMAGE` rewrites a good entry in place, so the
stores' tests can require every kind to be quarantined, counted and
re-simulated; :data:`CACHE_DAMAGE` adds the kinds that only a
dataset-cache entry, with its ``dataset.csv`` and ``dataset.json``
members, can suffer.  The object-dtype member holds :class:`Tripwire`
instances, whose unpickling sets :attr:`Tripwire.tripped`: a store that
unpickled an entry would trip it.
"""

import struct
import zipfile
from io import BytesIO
from pathlib import Path

import numpy as np


class Tripwire:
    """A pickled object that records being unpickled."""

    tripped = False

    def __reduce__(self):
        return (_trip, ())


def _trip() -> None:
    Tripwire.tripped = True


def _rewrite(path: Path, change) -> None:
    """Rewrite an entry through ``change(members)``: ``.npy`` members as
    arrays under their stem, any other member as its bytes."""
    members = {}
    with zipfile.ZipFile(path) as archive:
        for name in archive.namelist():
            data = archive.read(name)
            if name.endswith(".npy"):
                members[name[: -len(".npy")]] = np.lib.format.read_array(
                    BytesIO(data), allow_pickle=False
                )
            else:
                members[name] = data
    change(members)
    with zipfile.ZipFile(path, "w") as archive:
        for name, value in members.items():
            if isinstance(value, bytes):
                archive.writestr(name, value)
                continue
            with archive.open(f"{name}.npy", "w") as member:
                np.lib.format.write_array(member, value, allow_pickle=True)


def replace_member(path: Path, name: str, data: bytes) -> None:
    """Replace (or add) the plain member ``name`` of an entry."""
    _rewrite(path, lambda members: members.update({name: data}))


def truncate(path: Path) -> None:
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def drop_member(path: Path) -> None:
    _rewrite(path, lambda members: members.pop("phat"))


def shorten_column(path: Path) -> None:
    """A column one epoch shorter than the index's offsets say."""
    _rewrite(path, lambda members: members.update(phat=members["phat"][:-1]))


def object_member(path: Path) -> None:
    _rewrite(
        path,
        lambda members: members.update(
            ahat_mbps=np.array([Tripwire()] * members["ahat_mbps"].size, dtype=object)
        ),
    )


def text_member(path: Path) -> None:
    """An ``ahat_mbps`` column of strings, one of them not a number."""
    _rewrite(
        path,
        lambda members: members.update(
            ahat_mbps=np.array(["abc", *members["ahat_mbps"][1:].astype(str)])
        ),
    )


def flip_csv_byte(path: Path) -> None:
    """Flip one byte in the middle of the stored ``dataset.csv``, in
    place: the archive stays whole, the member's CRC-32 no longer
    matches."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo("dataset.csv")
    data = bytearray(path.read_bytes())
    # A local file header is 30 fixed bytes, then the name and the extra
    # field, whose lengths are its last two 16-bit fields.
    header = info.header_offset
    name_len, extra_len = struct.unpack("<HH", data[header + 26 : header + 30])
    data[header + 30 + name_len + extra_len + info.file_size // 2] ^= 0xFF
    path.write_bytes(bytes(data))


def drop_csv(path: Path) -> None:
    _rewrite(path, lambda members: members.pop("dataset.csv"))


def malformed_counts(path: Path) -> None:
    """A ``dataset.json`` cut off mid-document."""
    with zipfile.ZipFile(path) as archive:
        counts = archive.read("dataset.json")
    replace_member(path, "dataset.json", counts[:-2])


DAMAGE = {
    "truncated-zip": truncate,
    "missing-member": drop_member,
    "lengths-disagree-with-offsets": shorten_column,
    "object-dtype-member": object_member,
}

CACHE_DAMAGE = {
    **DAMAGE,
    "flipped-csv-byte": flip_csv_byte,
    "missing-csv": drop_csv,
    "malformed-counts": malformed_counts,
}
