"""Run one repro CLI with its layers' public functions timed from outside.

    python3 benchmarks/e2e/shim.py OUT.json MODULE [ARGS...]

Wraps every function named in :data:`LAYERS` (plus each figure renderer
in ``repro.cli.analyze.FIGURES``), then calls ``MODULE.main(ARGS)``.
A module-level function is re-bound in every ``repro.*`` module that
holds it, so ``repro.testbed.io.load_dataset`` and
``repro.cli.analyze.load_dataset`` are both timed; a method is replaced
on its class.

Self time is kept on a call stack: a wrapped call's self time is its
duration minus the durations of the wrapped calls it made.  Self times
are therefore disjoint, and wall time minus their sum is what no layer
accounts for (interpreter start-up, imports, CLI glue, the event loop).
Aggregates are kept for every call; spans only for the coarse calls in
:data:`SPANS`.  Everything is written to ``OUT.json`` when ``main``
returns.  Forked pool workers inherit the wrappers but never write.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from time import perf_counter

#: metric prefix -> (module, function or Class.method).
LAYERS = {
    "testbed.run_campaign": ("repro.testbed.executor", "run_campaign"),
    "testbed.io.save_dataset": ("repro.testbed.io", "save_dataset"),
    "testbed.io.load_dataset": ("repro.testbed.io", "load_dataset"),
    "testbed.checkpoint.store_trace": (
        "repro.testbed.checkpoint",
        "CheckpointStore.store_trace",
    ),
    "testbed.cache.store": ("repro.testbed.cache", "DatasetCache.store"),
    "testbed.cache.load": ("repro.testbed.cache", "DatasetCache.load"),
    "fastpath.run_fluid_trace": ("repro.fastpath.vector", "run_fluid_trace"),
    "obs.write_manifest": ("repro.obs.recorder", "write_manifest"),
    "obs.Telemetry.drain": ("repro.obs.telemetry", "Telemetry.drain"),
    "obs.Telemetry.merge": ("repro.obs.telemetry", "Telemetry.merge"),
    "obs.QualityTracker.score": ("repro.obs.quality", "QualityTracker.score"),
    "hb.evaluate_predictor": ("repro.hb.evaluate", "evaluate_predictor"),
    "hb.vector_walk": ("repro.hb.vector_eval", "vector_walk"),
    "hb.lso_segmentation": ("repro.hb.evaluate", "lso_segmentation"),
    "hb.StreamingPredictorState.ingest": (
        "repro.hb.streaming",
        "StreamingPredictorState.ingest",
    ),
    "analysis.warm_eval_cache": ("repro.analysis.parallel", "warm_eval_cache"),
    "analysis.evalcache.put": ("repro.analysis.evalcache", "EvaluationCache.put"),
    "analysis.evalcache.get": ("repro.analysis.evalcache", "EvaluationCache.get"),
    "analysis.fb_eval.predict_epoch": ("repro.analysis.fb_eval", "predict_epoch"),
    "formulas.fb_predict": (
        "repro.formulas.fb_predictor",
        "FormulaBasedPredictor.predict",
    ),
    "core.stable_fingerprint": ("repro.core.cachekey", "stable_fingerprint"),
    "paths.Trace.throughput_series": ("repro.paths.records", "Trace.throughput_series"),
    "serve.ShardedStateStore.ingest": ("repro.serve.state", "ShardedStateStore.ingest"),
    "serve.render_response": ("repro.serve.http", "render_response"),
    "serve.HttpRequest.json": ("repro.serve.http", "HttpRequest.json"),
}

#: The coarse calls that also get a span in the Chrome trace (figures
#: and the CLI's main always do).
SPANS = {
    "testbed.run_campaign",
    "testbed.io.save_dataset",
    "testbed.io.load_dataset",
    "testbed.checkpoint.store_trace",
    "testbed.cache.store",
    "testbed.cache.load",
    "fastpath.run_fluid_trace",
    "obs.write_manifest",
    "analysis.warm_eval_cache",
}


def _size(path) -> int:
    return os.path.getsize(path) if path is not None and os.path.exists(path) else 0


def _saved_path(args, kwargs):
    return kwargs.get("path", args[1] if len(args) > 1 else None)


def _manifest_paths(args, kwargs):
    return (
        kwargs.get("manifest_path", args[2] if len(args) > 2 else None),
        kwargs.get("events_path", args[3] if len(args) > 3 else None),
    )


def _put_path(args, kwargs):
    cache, key = args[0], kwargs.get("key", args[1] if len(args) > 1 else None)
    return None if cache.memory_only else cache.path_for(key)


#: What each call adds beyond calls and self time, read after it returns:
#: metric prefix -> (field, f(args, kwargs, result) -> increment).
PROBES = {
    "testbed.io.save_dataset": ("bytes", lambda a, k, r: _size(_saved_path(a, k))),
    "testbed.checkpoint.store_trace": ("bytes", lambda a, k, r: _size(r)),
    "testbed.cache.store": ("bytes", lambda a, k, r: _size(r)),
    "testbed.cache.load": ("hits", lambda a, k, r: r is not None),
    "fastpath.run_fluid_trace": ("items", lambda a, k, r: len(r)),
    "obs.write_manifest": (
        "bytes",
        lambda a, k, r: sum(_size(p) for p in _manifest_paths(a, k)),
    ),
    "analysis.evalcache.put": ("bytes", lambda a, k, r: _size(_put_path(a, k))),
    "analysis.evalcache.get": ("hits", lambda a, k, r: r is not None),
}


class Recorder:
    """Per-function aggregates and coarse spans of one process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.stats: dict[str, dict[str, float]] = {}
        self.spans: list[tuple[str, float, float]] = []
        #: child time accumulated by each open wrapped call.
        self._stack: list[float] = []

    def wrap(self, name: str, fn, span: bool):
        stat = self.stats.setdefault(
            name, {"calls": 0, "self_s": 0.0, "bytes": 0, "hits": 0, "items": 0}
        )
        stack, spans = self._stack, self.spans
        field, probe = PROBES.get(name, (None, None))
        # FB figures predict the same epochs again; count the distinct ones.
        seen: set[int] | None = set() if name == "analysis.fb_eval.predict_epoch" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat["calls"] += 1
                stat["self_s"] += elapsed - child
                if span:
                    spans.append((name, started, elapsed))
            if probe is not None:
                stat[field] += probe(args, kwargs, result)
            if seen is not None:
                seen.add(id(args[0]))
                stat["distinct"] = len(seen)
            return result

        return wrapper

    def install(self) -> None:
        repro_modules = [
            m for n, m in list(sys.modules.items()) if n.split(".")[0] == "repro"
        ]
        for name, (module_name, attr) in LAYERS.items():
            module = importlib.import_module(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[fn_name]
                setattr(owner, fn_name, self.wrap(name, original, name in SPANS))
                continue
            original = getattr(module, fn_name)
            wrapper = self.wrap(name, original, name in SPANS)
            for mod in repro_modules:
                for attr_name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr_name, wrapper)
        figures = importlib.import_module("repro.cli.analyze").FIGURES
        for number, renderer in figures.items():
            figures[number] = self.wrap(f"analysis.figure.{number}", renderer, True)

    def write(self, path: str) -> None:
        if os.getpid() != self.pid:
            return
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"functions": self.stats, "spans": self.spans}, handle)


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    out, module_name, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    # Import every layer first, so the scan in install() sees each
    # module that binds a wrapped function.
    for module in {m for m, _ in LAYERS.values()} | {"repro.cli.analyze", module_name}:
        importlib.import_module(module)
    recorder = Recorder()
    recorder.install()
    cli = importlib.import_module(module_name)
    sys.argv = [module_name, *argv]
    started = perf_counter()
    try:
        return cli.main(argv)
    finally:
        recorder.spans.append(
            (f"{module_name}.main", started, perf_counter() - started)
        )
        recorder.write(out)


if __name__ == "__main__":
    sys.exit(main())
