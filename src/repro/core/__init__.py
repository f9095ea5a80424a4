"""Shared foundations: units, errors, RNG streams, time series, metrics.

This subpackage holds everything that more than one subsystem needs and
that is not specific to either predictor family or to either simulator.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "BITS_PER_BYTE": ".units",
        "Bandwidth": ".units",
        "Cdf": ".metrics",
        "ConfigurationError": ".errors",
        "DataError": ".errors",
        "PredictionError": ".errors",
        "ReproError": ".errors",
        "RngStreams": ".rng",
        "SimulationError": ".errors",
        "TimeSeries": ".timeseries",
        "bits_to_mbps": ".units",
        "bytes_to_bits": ".units",
        "canonical_encoding": ".cachekey",
        "coefficient_of_variation": ".metrics",
        "kbit": ".units",
        "kbyte": ".units",
        "mbit": ".units",
        "mbps_to_bps": ".units",
        "mbyte": ".units",
        "pearson_correlation": ".metrics",
        "relative_error": ".metrics",
        "rmsre": ".metrics",
        "segmented_cov": ".metrics",
        "stable_fingerprint": ".cachekey",
    },
)
