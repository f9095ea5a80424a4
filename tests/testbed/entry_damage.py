"""Ways to damage a dataset-cache or checkpoint ``.npz`` entry.

Each function of :data:`DAMAGE` rewrites a good entry in place, so the
stores' tests can require every kind to be quarantined, counted and
re-simulated.  The object-dtype member holds :class:`Tripwire`
instances, whose unpickling sets :attr:`Tripwire.tripped`: a store that
unpickled an entry would trip it.
"""

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
    with np.load(path, allow_pickle=False) as archive:
        members = {name: archive[name] for name in archive.files}
    change(members)
    with path.open("wb") as handle:
        np.savez(handle, **members)


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


DAMAGE = {
    "truncated-zip": truncate,
    "missing-member": drop_member,
    "lengths-disagree-with-offsets": shorten_column,
    "object-dtype-member": object_member,
}
