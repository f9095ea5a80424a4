"""Named, reproducible random-number streams.

Every stochastic component in the package draws from its own named stream
derived from a single root seed. Two properties follow:

* a campaign is reproducible bit-for-bit given its seed, and
* adding a new consumer of randomness does not perturb the draws seen by
  existing consumers (streams are independent, keyed by name).

Streams are derived with :class:`numpy.random.SeedSequence` spawned from a
hash of the stream name, which is the mechanism NumPy documents for
constructing independent generators.
"""

from __future__ import annotations

from binascii import crc32

import numpy as np


class RngStreams:
    """A factory of independent, named :class:`numpy.random.Generator` s.

    Example::

        streams = RngStreams(seed=42)
        load_rng = streams.get("path3/load")
        probe_rng = streams.get("path3/probe-noise")

    Repeated calls with the same name return the *same* generator object,
    so a component can re-fetch its stream instead of threading it through
    every call.
    """

    def __init__(self, seed: int) -> None:
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The root seed this collection was built from."""
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        if name not in self._streams:
            # Key the child sequence on a stable hash of the name so the
            # stream does not depend on creation order.
            name_key = crc32(name.encode("utf-8"))
            seq = np.random.SeedSequence(entropy=self._seed, spawn_key=(name_key,))
            self._streams[name] = np.random.default_rng(seq)
        return self._streams[name]

    def child(self, prefix: str) -> "ScopedRngStreams":
        """Return a view that prefixes every stream name with ``prefix/``."""
        return ScopedRngStreams(self, prefix)

    def __repr__(self) -> str:
        return f"RngStreams(seed={self._seed}, streams={sorted(self._streams)})"


class PredrawnExponentials:
    """Batched standard-exponential draws, bit-identical to scalar calls.

    The packet simulator's Poisson sources draw one exponential per
    simulated packet — hundreds of thousands of scalar
    ``Generator.standard_exponential()`` calls per epoch, each paying
    the numpy call dispatch.  This helper pre-draws a vectorized batch
    and hands the values out one at a time.

    **Bit-identity contract.**  NumPy fills
    ``standard_exponential(n)`` by running the same ziggurat routine
    ``n`` times against the bit stream, so a batched fill consumes the
    generator's bits in exactly the order ``n`` sequential scalar calls
    would, producing identical values.  Two consequences:

    * the sequence of :meth:`next` values is bitwise equal to the
      scalar call sequence it replaces, for any ``batch_size``; and
    * :meth:`finalize` rewinds the generator to the state it would
      have after only the *consumed* draws — it restores the
      bit-generator state saved before the batch fill and replays just
      the consumed count — so a shared generator's later consumers see
      the same bits whether or not batching was on.

    The one thing batching cannot preserve is *interleaving*: if some
    other consumer draws from the same generator while a batch is
    outstanding, the scalar code would have given it different bits.
    Callers therefore only enable ``batch_size > 1`` when they own the
    generator exclusively for the batch's lifetime (see
    ``PacketEpochRunner``); the default of 1 is exactly the scalar
    call sequence.
    """

    __slots__ = ("_rng", "_batch", "_buf", "_pos", "_saved_state")

    def __init__(self, rng: np.random.Generator, batch_size: int = 1) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self._rng = rng
        self._batch = batch_size
        self._buf: np.ndarray | None = None
        self._pos = 0
        self._saved_state: dict | None = None

    def next(self) -> float:
        """The next standard-exponential draw, as a Python float."""
        if self._batch == 1:
            # Scalar fast path: literally the call being replaced; no
            # buffer bookkeeping, nothing for finalize() to rewind.
            return self._rng.standard_exponential()
        buf = self._buf
        pos = self._pos
        if buf is None or pos >= len(buf):
            # Snapshot the state so finalize() can rewind to "only the
            # consumed draws happened" if the batch ends up partial.
            self._saved_state = self._rng.bit_generator.state
            buf = self._buf = self._rng.standard_exponential(self._batch)
            pos = 0
        self._pos = pos + 1
        return buf.item(pos)

    def finalize(self) -> None:
        """Resync the generator as if only the consumed draws happened.

        A no-op when the batch was fully consumed (or never filled).
        Call before any *other* consumer next touches a shared
        generator.
        """
        buf = self._buf
        if buf is not None and self._pos < len(buf):
            self._rng.bit_generator.state = self._saved_state
            self._rng.standard_exponential(self._pos)
        self._buf = None
        self._pos = 0
        self._saved_state = None


class ScopedRngStreams:
    """A view of :class:`RngStreams` under a fixed name prefix.

    Lets a subsystem hand each component a namespaced stream factory
    without the component knowing the full path.
    """

    def __init__(self, parent: RngStreams, prefix: str) -> None:
        self._parent = parent
        self._prefix = prefix.rstrip("/")

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``prefix/name``."""
        return self._parent.get(f"{self._prefix}/{name}")

    def child(self, prefix: str) -> "ScopedRngStreams":
        """Return a further-nested scoped view."""
        return ScopedRngStreams(self._parent, f"{self._prefix}/{prefix}")

    def __repr__(self) -> str:
        return f"ScopedRngStreams(prefix={self._prefix!r})"
