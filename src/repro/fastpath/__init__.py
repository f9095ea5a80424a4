"""The fluid (epoch-level) path model.

The paper's campaign comprises 36 750 fifty-second TCP transfers —
infeasible at packet granularity in-process.  ``fastpath`` models each
epoch analytically but *mechanistically*: the same causes that produce
FB prediction errors on real paths produce them here.

* :mod:`repro.fastpath.queueing` — finite-buffer queueing formulas
  (M/M/1/K) giving queueing delay and overflow loss from utilization.
* :mod:`repro.fastpath.loadmodel` — the stochastic cross-traffic load
  process: per-trace regimes, AR(1) epoch dynamics, Poisson level
  shifts, transient outlier bursts.
* :mod:`repro.fastpath.sampling` — how periodic probes (ping, pathload)
  observe the path: finite-sample binomial loss estimates, sample-mean
  RTT noise, the probe-vs-TCP loss sampling mismatch.
* :mod:`repro.fastpath.sites` — the named per-trace RNG site streams
  and their fixed per-epoch draw layout.
* :mod:`repro.fastpath.vector` — :func:`run_fluid_trace`, the engine:
  one whole trace of the paper's measurement tuples as array kernels.

The packet-level simulator (``repro.simnet``) validates this model; see
``tests/integration/test_fluid_vs_packet.py``.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "CrossLoadProcess": ".loadmodel",
        "EpochLoad": ".loadmodel",
        "mm1k_loss_probability": ".queueing",
        "mm1k_mean_queue_delay_s": ".queueing",
        "mm1k_mean_system_occupancy": ".queueing",
        "probe_loss_estimate": ".sampling",
        "probe_rtt_estimate": ".sampling",
        "run_fluid_trace": ".vector",
    },
)
