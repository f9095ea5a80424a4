"""Command-line interface.

Five commands, installed as console scripts:

* ``repro-campaign`` — run a measurement campaign over a catalog and
  save the dataset to CSV.
* ``repro-analyze`` — regenerate the paper's figures (or a subset) from
  a saved dataset.
* ``repro-predict`` — one-off Formula-Based prediction from measured
  path characteristics.
* ``repro-obs`` — inspect run manifests and gate bench regressions.
* ``repro-serve`` — the long-running online prediction service (HB
  streaming state per path + stateless FB predictions over HTTP).

Each is also reachable as ``python -m repro.cli.<name>``.
"""

from __future__ import annotations

import os
from pathlib import Path


def store_dir_error(root: Path, option: str, given: str | None, env: str) -> str | None:
    """Make ``root``, a store's directory; the error line if it cannot be made.

    The line names where the directory came from: ``option`` when it was
    given (``given`` is its value), else ``env`` when that is set, else
    ``option`` again, the way to choose another.
    """
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        from_env = given is None and os.environ.get(env, "").strip()
        source = env if from_env else f"argument {option}"
        return f"{source}: cannot make directory {root}: {exc.strerror or exc}"
    return None
