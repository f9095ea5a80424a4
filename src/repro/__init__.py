"""Reproduction of *On the predictability of large transfer TCP throughput*.

He, Dovrolis, Ammar — ACM SIGCOMM 2005; extended version in Computer
Networks 51 (2007) 3959-3977.

The package is organised around the paper's two predictor families and the
measurement substrate they were evaluated on:

``repro.formulas``
    Formula-Based (FB) prediction: the Mathis square-root model, the PFTK
    model, the revised PFTK model, the Cardwell slow-start model, and the
    combined FB predictor of the paper's Eq. (3).

``repro.hb``
    History-Based (HB) prediction: Moving Average, EWMA, non-seasonal
    Holt-Winters, and the paper's Level-Shift/Outlier (LSO) heuristics.

``repro.simnet`` / ``repro.tcp`` / ``repro.apps``
    A discrete-event packet-level network simulator with a TCP Reno
    implementation and the measurement tools the paper used (an IPerf-like
    bulk transfer app, a ping-like periodic prober, a pathload-like
    available-bandwidth estimator, and cross-traffic generators).

``repro.fastpath``
    A mechanistic fluid model of a wide-area path used to run the paper's
    full-scale measurement campaign (36 750 transfers) in seconds.

``repro.testbed``
    A RON-like testbed emulation: path catalogs, the epoch/trace/campaign
    measurement structure of the paper's Section 4.1.

``repro.analysis``
    The computations behind every figure of the paper's evaluation.

Quickstart::

    from repro.testbed import Campaign, may_2004_catalog
    from repro.testbed.campaign import CampaignSettings
    from repro.analysis import fb_eval

    campaign = Campaign(may_2004_catalog(), seed=1)
    dataset = campaign.run(CampaignSettings(n_traces=2, epochs_per_trace=50))
    print(fb_eval.error_cdfs(dataset).summary())

Package-level names load on first use.  Each subpackage ``__init__``
lists its exports in one table, public name -> defining module, and
installs the PEP 562 ``__getattr__``/``__dir__`` that
:func:`lazy_exports` builds from it, so ``from repro.testbed import
Campaign`` imports :mod:`repro.testbed.campaign` then, and only then: a
command imports only the modules its run executes.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable
from typing import Any

from repro._version import __version__

__all__ = ["__version__"]


def lazy_exports(
    namespace: dict[str, Any], table: dict[str, str]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package ``namespace``.

    Used as::

        __all__, __getattr__, __dir__ = lazy_exports(globals(), {
            "Campaign": ".campaign",
            "PathConfig": "repro.paths.config",
        })

    A module path that starts with a dot is relative to the package.  A
    name whose module is the package's own submodule of that name
    (``"fb_eval": ".fb_eval"``) exports the submodule.  The first access
    to a name imports its module and binds the value in ``namespace``,
    so every later access is a plain attribute read.

    Args:
        namespace: the package's ``globals()``.
        table: public name -> module that defines it, in ``__all__``
            order.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        try:
            source = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module = importlib.import_module(source, package)
        if module.__name__ == f"{package}.{name}":
            value: Any = module
        else:
            value = getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *table})

    return list(table), __getattr__, __dir__
