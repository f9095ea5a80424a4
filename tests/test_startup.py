"""Start-up: each CLI imports only the code its run executes.

Package exports load on first use (:func:`repro.lazy_exports`), the
process-pool machinery loads on the pool path only, and the fluid engine
loads on a dataset-cache miss, before any fork.  A dataset-cache hit
writes the stored CSV bytes, so it loads neither numpy nor the records,
the writer or the checkpoint store; a fully cached warm phase loads no
engine.  The footprint checks run in a fresh interpreter: this process
has imported everything already.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import analyze, campaign

SRC = Path(repro.__file__).resolve().parents[1]

LAZY_PACKAGES = [
    "repro.core",
    "repro.paths",
    "repro.formulas",
    "repro.fastpath",
    "repro.hb",
    "repro.obs",
    "repro.testbed",
    "repro.analysis",
]

#: Run a CLI's ``main`` and record the modules the process then holds.
PROBE = """
import importlib, json, sys
module, out, *argv = sys.argv[1:]
code = importlib.import_module(module).main(argv)
with open(out, "w") as handle:
    json.dump({"code": code, "modules": sorted(sys.modules)}, handle)
"""

CATALOG = ["--paths", "3", "--traces", "1", "--epochs", "20", "--seed", "4"]


def fresh_env(tmp_path: Path) -> dict[str, str]:
    """A child environment with every store under ``tmp_path``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(SRC),
        REPRO_CACHE_DIR=str(tmp_path / "cache"),
        REPRO_CHECKPOINT_DIR=str(tmp_path / "ckpt"),
        REPRO_EVAL_CACHE_DIR=str(tmp_path / "evals"),
    )
    return env


def run_fresh(tmp_path: Path, *argv: str) -> subprocess.CompletedProcess:
    done = subprocess.run(
        [sys.executable, *argv],
        env=fresh_env(tmp_path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done


def warm_modules(tmp_path: Path, module: str, *args: str) -> set[str]:
    """The modules a fresh interpreter holds after ``module``'s ``main``."""
    out = tmp_path / f"{module}.modules.json"
    run_fresh(tmp_path, "-c", PROBE, module, str(out), *args)
    result = json.loads(out.read_text())
    assert result["code"] == 0
    return set(result["modules"])


@pytest.fixture(scope="module")
def primed(tmp_path_factory):
    """Stores primed by one cold campaign and one cold analysis."""
    root = tmp_path_factory.mktemp("startup")
    csv = root / "may.csv"
    env = {k: v for k, v in fresh_env(root).items() if k.startswith("REPRO_")}
    with pytest.MonkeyPatch.context() as patch:
        for name, value in env.items():
            patch.setenv(name, value)
        assert campaign.main([*CATALOG, "--quiet", "-o", str(csv)]) == 0
        assert analyze.main([str(csv)]) == 0
    return root, csv


class TestWarmFootprint:
    def test_warm_campaign_imports_no_engine_pool_or_analysis(self, primed):
        root, csv = primed
        modules = warm_modules(
            root, "repro.cli.campaign", *CATALOG, "--quiet", "-o", str(csv)
        )
        manifest = json.loads(csv.with_suffix(".manifest.json").read_text())
        assert manifest["cache"]["hit"]
        loaded = modules & {
            "multiprocessing",
            "concurrent.futures.process",
            "repro.fastpath.vector",
            "repro.hb",
            "repro.analysis",
            "repro.serve",
            "repro.obs.regress",
            "repro.obs.traceview",
            "numpy",
            "repro.core.rng",
            "repro.paths.records",
            "repro.testbed.io",
            "repro.testbed.checkpoint",
        }
        assert not loaded

    def test_warm_analysis_imports_no_engine_pool_or_campaign(self, primed):
        root, csv = primed
        modules = warm_modules(root, "repro.cli.analyze", str(csv), "--workers", "1")
        loaded = modules & {
            "multiprocessing",
            "concurrent.futures.process",
            "repro.fastpath.vector",
            "repro.testbed.campaign",
            "repro.serve",
            "repro.hb.streaming",
            "repro.obs.regress",
            "repro.obs.traceview",
            "repro.testbed.executor",
            "repro.obs.spans",
        }
        assert not loaded


#: A 2-path x 2-trace x 10-epoch campaign, over a pool of 2 and then
#: serially; records whether the engine was loaded as each pool started.
POOL_PROBE = """
import json, sys
from repro.paths.config import may_2004_catalog, scaled_catalog
from repro.testbed import executor
from repro.testbed.campaign import Campaign, CampaignSettings

engine_at_pool = []
new_pool = executor._Engine._new_pool

def recording_new_pool(self, *args, **kwargs):
    engine_at_pool.append("repro.fastpath.vector" in sys.modules)
    return new_pool(self, *args, **kwargs)

executor._Engine._new_pool = recording_new_pool
before = "repro.fastpath.vector" in sys.modules
settings = CampaignSettings(n_traces=2, epochs_per_trace=10)
make = lambda: Campaign(scaled_catalog(may_2004_catalog(), 2), seed=11)
parallel = make().run(settings, n_workers=2)
serial = make().run(settings)
json.dump(
    {"before": before, "engine_at_pool": engine_at_pool, "equal": parallel == serial},
    sys.stdout,
)
"""


def test_pool_workers_inherit_the_engine(tmp_path):
    """The engine is imported in the parent before the pool forks, so
    workers inherit it instead of each importing it."""
    result = json.loads(run_fresh(tmp_path, "-c", POOL_PROBE).stdout)
    assert result == {"before": False, "engine_at_pool": [True], "equal": True}


def export_table(package: str) -> dict[str, str]:
    """The name -> module table a package ``__init__`` passes to
    :func:`repro.lazy_exports`, read from its source."""
    source = Path(importlib.import_module(package).__file__).read_text()
    (table,) = [
        node.args[1]
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "lazy_exports"
    ]
    return ast.literal_eval(table)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
class TestLazyExports:
    def test_all_equals_the_table(self, package):
        module = importlib.import_module(package)
        assert module.__all__ == list(export_table(package))

    def test_every_name_resolves_to_its_module_value(self, package):
        module = importlib.import_module(package)
        for name, source in export_table(package).items():
            defining = importlib.import_module(source, package)
            expected = (
                defining
                if defining.__name__ == f"{package}.{name}"
                else getattr(defining, name)
            )
            assert getattr(module, name) is expected, name
            assert name in dir(module)

    def test_star_import_binds_every_name(self, package):
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        module = importlib.import_module(package)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name)

    def test_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match=f"{package!r} has no attribute"):
            getattr(module, "no_such_export")
        assert not hasattr(module, "no_such_export")


#: Import every lazy package alone: no export's module loads with it.
IMPORT_PROBE = """
import importlib, json, sys
before = set(sys.modules)
for package in sys.argv[1:]:
    importlib.import_module(package)
json.dump(sorted(set(sys.modules) - before), sys.stdout)
"""


def test_importing_a_package_loads_none_of_its_exports(tmp_path):
    loaded = json.loads(run_fresh(tmp_path, "-c", IMPORT_PROBE, *LAZY_PACKAGES).stdout)
    ours = [name for name in loaded if name.split(".")[0] == "repro"]
    assert sorted(ours) == sorted(["repro", "repro._version", *LAZY_PACKAGES])
