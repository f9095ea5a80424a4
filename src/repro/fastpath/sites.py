"""Named per-trace RNG *site* streams for the fluid path engine.

The engine (:func:`repro.fastpath.vector.run_fluid_trace`) draws a
whole trace's noise up front, yet its output must equal the per-epoch
reference loop kept in ``tests/fastpath/oracle.py`` bit for bit.  The
only way to batch draws without perturbing them is to give every draw
*site* its own generator and a fixed-width, draw-and-discard layout:

* each site's draws then form one homogeneous sequence, and NumPy fills
  ``rng.random((E, k))`` / ``rng.standard_normal((E, k))`` /
  ``rng.uniform(a, b, E)`` by running the same scalar routine against
  the bit stream ``E`` (or ``E * k``) times, so a whole-trace batched
  fill consumes exactly the bits ``E`` per-epoch calls would (the
  :class:`~repro.core.rng.PredrawnExponentials` contract, extended
  from exponentials to every site the fluid path draws from);
* the per-epoch width of a site never depends on which branch an epoch
  takes — unused slots are drawn and discarded — so batched and
  per-epoch draws stay aligned even though the window/loss/congestion
  branches need different noise.

Streams are named ``{path_id}/trace{t}/fluid/{site}``, so any subset of
a campaign reproduces identically regardless of execution order, and a
retried trace re-derives exactly the draws of a never-failed run.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "FluidSites",
    "SITE_NAMES",
    "U_WIDTH",
    "U_SHIFT_TEST",
    "U_SHIFT_MAGNITUDE",
    "U_SHIFT_DIRECTION",
    "U_OUTLIER_TEST",
    "U_OUTLIER_EXTRA",
    "Z_AR",
    "Z_DRIFT",
    "Z_RTT_PRE_STDERR",
    "Z_RTT_PRE_JITTER",
    "Z_PATHLOAD",
    "Z_FILL",
    "Z_VARIABILITY",
    "Z_RTT_DURING_STDERR",
    "Z_RTT_DURING_JITTER",
    "Z_PROBE_MISMATCH",
    "Z_BASE_WIDTH",
    "Z_SMALL_FILL",
    "Z_SMALL_VARIABILITY",
    "z_width",
    "z_checkpoint_base",
]

#: The seven independent draw sites of one fluid trace, in a fixed
#: order (the order only matters for :meth:`FluidSites.from_generator`,
#: which spawns children positionally).
SITE_NAMES = ("dt", "init", "elastic", "u", "z", "phat", "ptilde")

# -- the per-epoch uniform block (site "u") ---------------------------------
#: Width of the per-epoch uniform block.
U_WIDTH = 5
#: ``u < shift_prob`` triggers a regime level shift.
U_SHIFT_TEST = 0
#: Shift magnitude: ``(1.5 + 2.5 u) * max(util_spread, 0.05)``.
U_SHIFT_MAGNITUDE = 1
#: ``u < 0.6`` shifts toward the long-run mean, else away.
U_SHIFT_DIRECTION = 2
#: ``u < outlier_rate`` marks the epoch's transfer as an outlier.
U_OUTLIER_TEST = 3
#: Outlier extra load: ``0.15 + 0.35 u``.
U_OUTLIER_EXTRA = 4

# -- the per-epoch standard-normal block (site "z") -------------------------
#: AR(1) innovation (used by both the shift and the AR branch).
Z_AR = 0
#: Within-epoch load drift between the probes and the transfer.
Z_DRIFT = 1
#: Pre-transfer RTT estimate: sample-mean standard error.
Z_RTT_PRE_STDERR = 2
#: Pre-transfer RTT estimate: timestamping jitter.
Z_RTT_PRE_JITTER = 3
#: Pathload estimator noise.
Z_PATHLOAD = 4
#: Congestion-branch buffer fill level (drawn in every branch).
Z_FILL = 5
#: Main transfer's lognormal throughput variability (every branch).
Z_VARIABILITY = 6
#: During-transfer RTT estimate: standard error.
Z_RTT_DURING_STDERR = 7
#: During-transfer RTT estimate: jitter.
Z_RTT_DURING_JITTER = 8
#: Probe-vs-TCP loss sampling mismatch (used in congestion only).
Z_PROBE_MISMATCH = 9
#: Width without the small-window transfer and without checkpoints.
Z_BASE_WIDTH = 10
#: Small-window transfer's buffer-fill draw (present when small runs).
Z_SMALL_FILL = 10
#: Small-window transfer's lognormal variability draw.
Z_SMALL_VARIABILITY = 11


def z_width(has_small: bool, n_checkpoints: int) -> int:
    """Per-epoch width of the ``z`` block for the given epoch shape.

    The small-window companion transfer adds two slots (its fill and
    variability draws); each checkpoint fraction adds one.
    """
    return Z_BASE_WIDTH + (2 if has_small else 0) + n_checkpoints


def z_checkpoint_base(has_small: bool) -> int:
    """Column of the first checkpoint draw in the ``z`` block."""
    return Z_BASE_WIDTH + (2 if has_small else 0)


class FluidSites:
    """The bundle of per-site generators driving one fluid trace.

    Attributes (one :class:`numpy.random.Generator` each):
        dt: epoch intervals — one ``uniform(150, 190)`` per epoch.
        init: trace initialization — one ``standard_normal(2)``
            (regime-mean draw, initial AR state).
        elastic: elastic cross-flow RTTs — one
            ``uniform(0.5, 2.5, n_elastic)`` per trace.
        u: the per-epoch ``random(U_WIDTH)`` block (shift/outlier).
        z: the per-epoch ``standard_normal(z_width(...))`` block.
        phat: pre-transfer probe-loss counts —
            one ``binomial(600, loss_pre)`` per epoch.
        ptilde: during-transfer probe-loss counts —
            one ``binomial(500, observed)`` per epoch.
    """

    __slots__ = SITE_NAMES

    def __init__(
        self,
        dt: np.random.Generator,
        init: np.random.Generator,
        elastic: np.random.Generator,
        u: np.random.Generator,
        z: np.random.Generator,
        phat: np.random.Generator,
        ptilde: np.random.Generator,
    ) -> None:
        self.dt = dt
        self.init = init
        self.elastic = elastic
        self.u = u
        self.z = z
        self.phat = phat
        self.ptilde = ptilde

    @classmethod
    def from_streams(cls, streams, path_id: str, trace_index: int) -> "FluidSites":
        """The campaign's named site streams of one (path, trace)."""
        base = f"{path_id}/trace{trace_index}/fluid"
        return cls(*(streams.get(f"{base}/{site}") for site in SITE_NAMES))

    @classmethod
    def from_generator(cls, rng: np.random.Generator) -> "FluidSites":
        """Derive a site bundle from a single generator (tests, ad hoc).

        The children are spawned, so the bundle is reproducible given
        the parent's seed but statistically independent site to site.
        """
        return cls(*rng.spawn(len(SITE_NAMES)))
