"""Worker-count requests, shared by the engine and the analysis warm phase.

Kept apart from :mod:`repro.testbed.executor` so a run that starts no
job (a fully cached ``repro-analyze``) can report its worker count
without loading the engine.
"""

from __future__ import annotations

import os

from repro.core.errors import ConfigurationError


def resolve_workers(n_workers: int) -> int:
    """Normalize a worker-count request.

    ``0`` (or any non-positive value) means "use all CPUs".

    Raises:
        ConfigurationError: for non-integer values.
    """
    if not isinstance(n_workers, int) or isinstance(n_workers, bool):
        raise ConfigurationError(
            f"n_workers must be an int, got {type(n_workers).__name__}"
        )
    if n_workers <= 0:
        return os.cpu_count() or 1
    return n_workers
