"""Damaged snapshots restore with counted skips, or fail with a typed error.

``ShardedStateStore.restore`` is best effort per path: a path whose
entry is damaged is skipped and counted under ``serve.snapshot_skipped``,
and every other path restores and continues bit-exactly.  A document
it cannot use at all raises :class:`~repro.core.errors.DataError`.  No
other exception may escape, whatever the damage.  Both committed
fixtures are mutated: the version-2 document and the 1.22.0 version-1
one.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import DataError
from repro.obs.telemetry import ENV_OBS, get_telemetry
from repro.serve.state import ShardedStateStore
from tests.serve.test_bundle import (
    FIXTURE_PATHS,
    FIXTURE_SPECS,
    FIXTURE_V1,
    FIXTURE_V2,
    Twins,
    stream,
    text,
)

DOCUMENTS = {1: json.loads(FIXTURE_V1.read_text()), 2: json.loads(FIXTURE_V2.read_text())}
HUGE = 10**400  # a 401-digit integer: beyond float range
LSO = sorted(name for name, spec in FIXTURE_SPECS.items() if spec.lso is not None)
BARE = sorted(name for name, spec in FIXTURE_SPECS.items() if spec.lso is None)
ALL = sorted(FIXTURE_SPECS)


def on_entry(change):
    """A damage to one predictor's entry of a path.

    Skipped where an earlier damage already removed what it changes: the
    path is damaged either way.
    """

    def damage(paths, key, name, version):
        entry = paths[key][name] if isinstance(paths[key], dict) else None
        try:
            change(entry, version)
        except (LookupError, TypeError):
            pass

    return damage


def lso_holder(entry, version):
    """The part of an LSO predictor's spec that holds its thresholds."""
    return entry["spec"] if version == 1 else entry["spec"]["lso"]


def set_param(value):
    def change(entry, version):
        params = entry["spec"]["params"]
        params[next(iter(params))] = value

    return on_entry(change)


def set_threshold(value):
    def change(entry, version):
        lso_holder(entry, version)["level_shift_threshold"] = value

    return on_entry(change)


def set_in(part, key, value):
    """Set ``entry[part][key]``, or ``entry[key]`` when ``part`` is None."""

    def change(entry, version):
        (entry if part is None else entry[part])[key] = value

    return on_entry(change)


def drop(*keys):
    def change(entry, version):
        for key in keys[:-1]:
            entry = entry[key]
        del entry[keys[-1]]

    return on_entry(change)


def huge_history_value(entry, version):
    entry["state"]["history"][0] = HUGE


def entry_list(paths, key, name, version):
    if isinstance(paths[key], dict):
        paths[key][name] = [paths[key][name]]


def path_list(paths, key, name, version):
    paths[key] = [paths[key]]


#: damage -> (the damage, the versions and predictors it applies to).  Each
#: makes the path unusable: dropped keys, wrong types, 401-digit integers,
#: unknown families, out-of-range parameters, non-object specs.
DAMAGES = {
    # Dropped keys.
    "drop-spec": (drop("spec"), (1, 2), ALL),
    "drop-state": (drop("state"), (1, 2), ALL),
    "drop-family": (drop("spec", "family"), (2,), ALL),
    "drop-params": (drop("spec", "params"), (2,), ALL),
    "drop-lso": (drop("spec", "lso"), (2,), ALL),
    "drop-harden": (drop("spec", "harden"), (2,), ALL),
    "drop-predictor": (drop("spec", "predictor"), (1,), ALL),
    "drop-history": (drop("state", "history"), (1, 2), LSO),
    "drop-count": (drop("state", "count"), (1, 2), ALL),
    "drop-estimate": (drop("state", "estimate"), (1, 2), BARE),
    # Wrong types.
    "params-list": (set_in("spec", "params", [0.8]), (2,), ALL),
    "param-string": (set_param("x"), (2,), ALL),
    "harden-string": (set_in("spec", "harden", "yes"), (2,), ALL),
    "lso-list": (set_in("spec", "lso", [0.3, 0.4]), (2,), LSO),
    "threshold-string": (set_threshold("x"), (1, 2), LSO),
    "history-string": (set_in("state", "history", "abc"), (1, 2), LSO),
    "history-number": (set_in("state", "history", 5), (1, 2), LSO),
    "count-string": (set_in("state", "count", "x"), (1, 2), ALL),
    "count-null": (set_in("state", "count", None), (1, 2), ALL),
    "estimate-string": (set_in("state", "estimate", "x"), (1, 2), BARE),
    "state-list": (set_in(None, "state", []), (1, 2), ALL),
    "state-null": (set_in(None, "state", None), (1, 2), ALL),
    "entry-list": (entry_list, (1, 2), ALL),
    "path-list": (path_list, (1, 2), ALL),
    # 401-digit integers.
    "huge-threshold": (set_threshold(HUGE), (1, 2), LSO),
    "huge-param": (set_param(HUGE), (2,), ALL),
    "huge-history-value": (on_entry(huge_history_value), (1, 2), LSO),
    "huge-estimate": (set_in("state", "estimate", HUGE), (1, 2), BARE),
    # Unknown families.
    "unknown-family": (set_in("spec", "family", "nope"), (2,), ALL),
    "unknown-predictor": (set_in("spec", "predictor", "nope"), (1,), ALL),
    # Out-of-range parameters.
    "param-out-of-range": (set_param(0), (2,), ALL),
    "threshold-zero": (set_threshold(0), (1, 2), LSO),
    "threshold-negative": (set_threshold(-0.1), (1, 2), LSO),
    # Non-object specs.
    "spec-null": (set_in(None, "spec", None), (1, 2), ALL),
    "spec-list": (set_in(None, "spec", ["hw"]), (1, 2), ALL),
    "spec-string": (set_in(None, "spec", "hw"), (1, 2), ALL),
    "spec-number": (set_in(None, "spec", 3), (1, 2), ALL),
}


@st.composite
def damaged_documents(draw):
    """A fixture document with some of its paths damaged, and those paths."""
    version = draw(st.sampled_from(sorted(DOCUMENTS)))
    doc = copy.deepcopy(DOCUMENTS[version])
    usable = sorted(kind for kind, (_, versions, _) in DAMAGES.items() if version in versions)
    damaged = draw(st.lists(st.sampled_from(sorted(FIXTURE_PATHS)), unique=True))
    for key in damaged:
        for kind in draw(st.lists(st.sampled_from(usable), min_size=1, max_size=3)):
            damage, _, names = DAMAGES[kind]
            damage(doc["paths"], key, draw(st.sampled_from(names)), version)
    return doc, set(damaged)


@pytest.fixture(autouse=True)
def _telemetry(monkeypatch):
    monkeypatch.delenv(ENV_OBS, raising=False)
    get_telemetry().reset()
    yield
    get_telemetry().reset()


@settings(max_examples=200, deadline=None)
@given(case=damaged_documents())
def test_each_damaged_path_is_one_counted_skip(case):
    doc, damaged = case
    store = ShardedStateStore(specs=FIXTURE_SPECS)
    skipped = get_telemetry().counter("serve.snapshot_skipped")
    before = skipped.value
    assert store.restore(doc) == len(FIXTURE_PATHS) - len(damaged)
    assert skipped.value - before == len(damaged)
    for key, (seed, n) in FIXTURE_PATHS.items():
        if key in damaged:
            assert key not in store
            continue
        values = stream(seed, n + 40)
        summary = store.ingest(key, values[n:])
        twin = Twins(FIXTURE_SPECS, key=key).feed(values)
        assert text(summary["predictions"]) == twin.predictions()
        assert text(store.snapshot()["paths"][key]) == twin.documents()[2]


def _versioned(value):
    doc = copy.deepcopy(DOCUMENTS[2])
    doc["snapshot_version"] = value
    return doc


def _paths(value):
    doc = copy.deepcopy(DOCUMENTS[2])
    doc["paths"] = value
    return doc


@pytest.mark.parametrize(
    "doc",
    [
        None,
        [],
        "snapshot",
        _versioned(None),
        _versioned("2"),
        _versioned(0),
        _versioned(3),
        _versioned(HUGE),
        _versioned(2.0),
        _paths(None),
        _paths([]),
        {k: v for k, v in DOCUMENTS[2].items() if k != "paths"},
    ],
)
def test_an_unusable_document_is_a_data_error(doc):
    with pytest.raises(DataError):
        ShardedStateStore(specs=FIXTURE_SPECS).restore(doc)


@pytest.mark.parametrize(
    "text_",
    [
        "{",
        '{"snapshot_version": ' + "9" * 5000 + "}",
        "[" * 100_000 + "]" * 100_000,
        "\ud800",
    ],
    ids=["truncated", "overlong-integer", "deep-nesting", "lone-surrogate"],
)
def test_an_unreadable_file_is_a_data_error(tmp_path, text_):
    path = tmp_path / "state.json"
    path.write_text(text_, encoding="utf-8", errors="surrogatepass")
    with pytest.raises(DataError):
        ShardedStateStore(specs=FIXTURE_SPECS).load(path)
