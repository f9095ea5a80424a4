"""Fixtures and helpers shared by the engine's fault and span-parity suites.

Faults are injected through the engine's crash-injection hook
(``REPRO_FAULT_SPEC`` / ``REPRO_FAULT_DIR``), which runs at the start of
every unit attempt — in worker processes and in the serial path alike —
so the suites exercise the real retry/rebuild/resume machinery against
real process crashes, not mocks.  Import the fixtures into a test
module to use them.
"""

import pytest

from repro.obs import get_telemetry

#: Fields stripped before span-tree comparison: identity and timing
#: differ between runs by construction; everything else must not.
_VOLATILE = frozenset(
    ("trace_id", "span_id", "parent_id", "ts", "dur_s", "run")
)


@pytest.fixture()
def telemetry(monkeypatch):
    """The live telemetry singleton, drained before and after the test."""
    monkeypatch.delenv("REPRO_OBS", raising=False)
    monkeypatch.delenv("REPRO_TRACE_SAMPLE", raising=False)
    instance = get_telemetry()
    instance.drain()
    yield instance
    instance.drain()


@pytest.fixture()
def inject(monkeypatch, tmp_path):
    """Arm the crash-injection hook with a spec string.

    ``counted`` (the default) gives the hook a trigger directory, so an
    entry fires at most its count of times; uncounted, it fires on every
    attempt.
    """

    def arm(spec: str, counted: bool = True) -> None:
        monkeypatch.setenv("REPRO_FAULT_SPEC", spec)
        if counted:
            monkeypatch.setenv("REPRO_FAULT_DIR", str(tmp_path / "faults"))

    yield arm
    monkeypatch.delenv("REPRO_FAULT_SPEC", raising=False)
    monkeypatch.delenv("REPRO_FAULT_DIR", raising=False)


def counter_value(telemetry, name):
    return telemetry.metrics.counter(name).value


def normalized(events):
    """Span events as a canonical nested tuple: ids and times stripped,
    children sorted structurally (not by wall time)."""
    spans = [e for e in events if e.get("kind") == "span"]
    by_id = {e["span_id"]: e for e in spans}
    children: dict[str, list[dict]] = {}
    roots = []
    for event in spans:
        parent = event.get("parent_id")
        if parent in by_id:
            children.setdefault(parent, []).append(event)
        else:
            roots.append(event)

    def node(event):
        tags = tuple(
            sorted(
                (k, v) for k, v in event.items()
                if k not in _VOLATILE and k != "kind"
            )
        )
        kids = tuple(
            sorted(
                (node(c) for c in children.get(event["span_id"], ())),
                key=repr,
            )
        )
        return (tags, kids)

    return tuple(sorted((node(r) for r in roots), key=repr))


def spans_named(events, name):
    return [
        e for e in events
        if e.get("kind") == "span" and e.get("name") == name
    ]
