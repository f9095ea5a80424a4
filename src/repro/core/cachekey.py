"""Stable content fingerprints for cache keys.

The dataset cache (:mod:`repro.testbed.cache`) needs a key that changes
whenever anything that influences a campaign's output changes — the
path catalog, the seed, the settings, the TCP parameters, the source of
the simulating code (:func:`source_fingerprint`) — and never changes
otherwise.  Python's built-in ``hash`` is salted per process and
``pickle`` output is not guaranteed stable, so the key is a SHA-256
over a canonical text encoding instead.

The encoding is defined for the value shapes the package actually
caches on: dataclasses (encoded as ``ClassName(field=value, ...)`` in
field order), mappings (sorted by key), sequences, and scalars.  Floats
use ``repr``, which round-trips exactly in Python 3.
"""

from __future__ import annotations

import dataclasses
import hashlib
from importlib.util import find_spec
from pathlib import Path
from typing import Any


def canonical_encoding(obj: Any) -> str:
    """Encode ``obj`` as a deterministic, type-discriminating string.

    Raises:
        TypeError: for values with no canonical encoding (e.g. open
            files, arbitrary objects) — better to fail loudly than to
            cache under an unstable key.
    """
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return repr(obj)
    if isinstance(obj, float):
        # repr() round-trips floats exactly and is stable across runs.
        return f"float:{obj!r}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        body = ", ".join(
            f"{field.name}={canonical_encoding(getattr(obj, field.name))}"
            for field in dataclasses.fields(obj)
        )
        return f"{type(obj).__qualname__}({body})"
    if isinstance(obj, dict):
        body = ", ".join(
            f"{canonical_encoding(key)}: {canonical_encoding(obj[key])}"
            for key in sorted(obj, key=repr)
        )
        return f"{{{body}}}"
    if isinstance(obj, (list, tuple)):
        tag = "list" if isinstance(obj, list) else "tuple"
        return f"{tag}[{', '.join(canonical_encoding(item) for item in obj)}]"
    if isinstance(obj, (set, frozenset)):
        return f"set[{', '.join(sorted(canonical_encoding(item) for item in obj))}]"
    raise TypeError(
        f"no canonical encoding for {type(obj).__name__!r}; "
        "cache keys must be built from dataclasses, mappings, sequences, "
        "and scalars"
    )


def stable_fingerprint(obj: Any) -> str:
    """SHA-256 hex digest of :func:`canonical_encoding` of ``obj``.

    Equal values give equal fingerprints in every process and on every
    platform; any change to a nested field changes the fingerprint.
    """
    return hashlib.sha256(canonical_encoding(obj).encode("utf-8")).hexdigest()


def source_fingerprint(*names: str) -> str:
    """:func:`stable_fingerprint` of the source code of the modules ``names``.

    Each dotted name is looked up with :func:`importlib.util.find_spec`,
    which reads an imported module's ``__spec__`` and imports no module
    but the parent package of one that is not.  A package stands for
    every ``*.py`` file in its directory, taken in name order; a plain
    module for its own file.  Each source is paired with its dotted
    module name, so moving code between modules changes the fingerprint
    too.  The files are read on every call (~150 KB take a few
    milliseconds), so callers cache the result per process.
    """
    sources = []
    for name in names:
        spec = find_spec(name)
        if spec is None or spec.origin is None:
            raise ModuleNotFoundError(f"no source for module {name!r}")
        path = Path(spec.origin)
        if spec.submodule_search_locations is not None:
            sources.extend(
                (f"{name}.{file.stem}", file.read_text(encoding="utf-8"))
                for file in sorted(path.parent.glob("*.py"))
            )
        else:
            sources.append((name, path.read_text(encoding="utf-8")))
    return stable_fingerprint(sources)


def package_fingerprint(name: str) -> str:
    """SHA-256 (hex) over every ``*.py`` file of the package ``name``.

    The package is found as :func:`source_fingerprint` finds a module,
    and its files are taken at any depth, in path order.  Each file's
    path relative to the package directory, its length and its bytes go
    into one running hash, one file at a time, so no canonical string of
    the whole source is ever built.  Editing, adding, removing or
    renaming any of them changes the fingerprint.
    """
    spec = find_spec(name)
    if spec is None or not spec.submodule_search_locations:
        raise ModuleNotFoundError(f"no package {name!r}")
    root = Path(spec.submodule_search_locations[0])
    digest = hashlib.sha256()
    for file in sorted(root.rglob("*.py")):
        data = file.read_bytes()
        digest.update(f"{file.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()
