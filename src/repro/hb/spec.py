"""The one description of an HB predictor, :class:`PredictorSpec`: the HB
figures' units, their evaluation pack, and ``repro-serve``'s predictors
and snapshots all name a predictor by it."""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import asdict, dataclass
from functools import partial
from inspect import signature
from typing import Any

from repro.core.errors import ConfigurationError, DataError
from repro.hb.autoregressive import AutoRegressive
from repro.hb.base import HistoryPredictor
from repro.hb.ewma import Ewma
from repro.hb.holt_winters import HoltWinters
from repro.hb.lso import LsoConfig
from repro.hb.moving_average import MovingAverage
from repro.hb.wrappers import LsoPredictor

__all__ = ["FAMILIES", "PredictorSpec"]

#: family name -> the predictor class it builds.  A family's parameters
#: are its class's constructor arguments; each has a default, whose type
#: (``int`` or ``float``) is the parameter's.
FAMILIES: dict[str, type[HistoryPredictor]] = {
    "ma": MovingAverage,
    "ewma": Ewma,
    "hw": HoltWinters,
    "ar": AutoRegressive,
}

#: family name -> its parameters and their defaults, in constructor order.
_PARAMETERS = {
    family: tuple((p.name, p.default) for p in signature(cls).parameters.values())
    for family, cls in FAMILIES.items()
}


def _canonical(value: Any, default: int | float, what: str) -> int | float:
    """``value`` as the type of ``default``: an int, or a finite float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{what} must be a number, got {type(value).__name__}")
    if isinstance(default, int):
        return operator.index(value)  # a TypeError for a float
    number = float(value)  # an OverflowError for an integer beyond float range
    if not math.isfinite(number):
        raise ValueError(f"{what} must be finite")
    return number


@dataclass(frozen=True)
class PredictorSpec:
    """One HB predictor: a registered family, its constructor arguments,
    an optional LSO wrapper and the wrapper's ``harden`` setting.  Calling
    it builds a fresh predictor, so a spec is a
    :data:`~repro.hb.base.PredictorFactory`.

    A spec is canonical: every constructor argument present, ints as
    ``int`` and floats as ``float``, the LSO thresholds as floats, and
    ``harden`` ``True`` without a wrapper (nothing reads it then).  So
    equal predictors have equal specs, which hash alike, pickle to equal
    specs and round-trip through :meth:`to_dict` and :meth:`from_dict`.
    An unknown family or parameter, or a value of the wrong type,
    non-finite or out of range, is a ``ConfigurationError``.

    Attributes:
        family: a key of :data:`FAMILIES`.
        params: ``(name, value)`` pairs in constructor order; give a
            mapping (or pairs) of any of them, and the rest take the
            class's defaults.
        lso: the LSO wrapper's thresholds, or ``None`` for the bare
            predictor.
        harden: the wrapper's hardenings (see
            :class:`~repro.hb.wrappers.LsoPredictor`).
    """

    family: str
    params: tuple[tuple[str, int | float], ...] = ()
    lso: LsoConfig | None = None
    harden: bool = True

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ConfigurationError(
                f"unknown predictor family {self.family!r}; choose from {sorted(FAMILIES)}"
            )
        if not isinstance(self.harden, bool):
            raise ConfigurationError(f"harden must be a bool, got {self.harden!r}")
        given = dict(self.params)
        lso = self.lso
        try:
            params = tuple(
                (name, _canonical(given.pop(name, default), default, name))
                for name, default in _PARAMETERS[self.family]
            )
            # Out-of-range values raise, and so do the unknown names left.
            FAMILIES[self.family](*(value for _, value in params), **given)
            if lso is not None:
                thresholds = asdict(lso).items()
                lso = LsoConfig(**{k: _canonical(v, 0.0, k) for k, v in thresholds})
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigurationError(f"bad {self.family} spec: {exc}") from None
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "lso", lso)
        object.__setattr__(self, "harden", self.harden or lso is None)

    def __call__(self) -> HistoryPredictor:
        """A fresh predictor: the family's, LSO-wrapped when ``lso`` is set."""
        base = partial(FAMILIES[self.family], *(value for _, value in self.params))
        if self.lso is None:
            return base()
        return LsoPredictor(base, self.lso, self.harden)

    def to_dict(self) -> dict[str, Any]:
        """The spec as a JSON-able dict, which :meth:`from_dict` reads."""
        return {
            "family": self.family,
            "params": dict(self.params),
            "lso": None if self.lso is None else asdict(self.lso),
            "harden": self.harden,
        }

    @classmethod
    def from_dict(cls, doc: Any) -> PredictorSpec:
        """The spec a :meth:`to_dict` document describes.

        Raises:
            DataError: for anything but such a document with valid values.
        """
        try:
            if not isinstance(doc["params"], dict):
                raise TypeError("params must be a JSON object")
            lso = None if doc["lso"] is None else LsoConfig(**doc["lso"])
            return cls(doc["family"], doc["params"], lso, doc["harden"])
        except (ConfigurationError, LookupError, TypeError, ValueError) as exc:
            raise DataError(f"malformed predictor spec: {exc}") from exc
