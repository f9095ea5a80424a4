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

from repro.fastpath.loadmodel import CrossLoadProcess, EpochLoad
from repro.fastpath.queueing import (
    mm1k_loss_probability,
    mm1k_mean_queue_delay_s,
    mm1k_mean_system_occupancy,
)
from repro.fastpath.sampling import (
    probe_loss_estimate,
    probe_rtt_estimate,
)
from repro.fastpath.vector import run_fluid_trace

__all__ = [
    "CrossLoadProcess",
    "EpochLoad",
    "mm1k_loss_probability",
    "mm1k_mean_queue_delay_s",
    "mm1k_mean_system_occupancy",
    "probe_loss_estimate",
    "probe_rtt_estimate",
    "run_fluid_trace",
]
