"""``repro-campaign`` on a dataset-cache hit: the stored CSV bytes, as is.

A hit writes the entry's ``dataset.csv`` to ``-o`` without parsing or
formatting, so its output must be the miss's byte for byte, and the
summary line and manifest must say what the miss's say.  A damaged
entry is quarantined and re-simulated, and never leaves a partial
output behind.
"""

import pytest

from repro.cli import campaign
from repro.obs import load_manifest, sidecar_paths
from repro.paths.config import expanded_catalog, march_2006_catalog, may_2004_catalog
from repro.testbed.campaign import Campaign, CampaignSettings
from repro.testbed.io import save_dataset
from tests.testbed.entry_damage import CACHE_DAMAGE

#: catalog -> (CLI arguments, the library campaign and settings they mean).
CATALOGS = {
    "may2004": (
        ["--catalog", "may2004", "--paths", "3", "--traces", "2", "--epochs", "5"],
        lambda: Campaign(expanded_catalog(may_2004_catalog(), 3), label="may2004"),
        CampaignSettings(n_traces=2, epochs_per_trace=5),
    ),
    "march2006": (
        ["--catalog", "march2006", "--paths", "2", "--traces", "2", "--epochs", "4"],
        lambda: Campaign(expanded_catalog(march_2006_catalog(), 2), label="march2006"),
        CampaignSettings(
            n_traces=2,
            epochs_per_trace=4,
            transfer_duration_s=120.0,
            run_small_window=False,
            checkpoint_fractions=(0.25, 0.5, 1.0),
        ),
    ),
}

#: The damage a hit itself can meet: the CLI reads no column.
CSV_DAMAGE = ["truncated-zip", "flipped-csv-byte", "missing-csv", "malformed-counts"]


@pytest.fixture(autouse=True)
def _isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "dataset-cache"))
    monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "checkpoints"))
    monkeypatch.delenv("REPRO_OBS", raising=False)
    monkeypatch.delenv("REPRO_FAULT_SPEC", raising=False)


def run(tmp_path, capsys, args, name):
    """Run the CLI to ``tmp_path/name``; returns the output and stdout."""
    out = tmp_path / name
    assert campaign.main([*args, "-o", str(out)]) == 0
    return out, capsys.readouterr().out


def counters_of(path):
    manifest = load_manifest(sidecar_paths(path)[0])
    return manifest, {c["name"]: c["value"] for c in manifest["counters"]}


def the_entry(tmp_path):
    (entry,) = (tmp_path / "dataset-cache").glob("*.npz")
    return entry


@pytest.mark.parametrize("catalog", sorted(CATALOGS))
def test_hit_writes_the_miss_bytes(tmp_path, capsys, catalog):
    args, make_campaign, settings = CATALOGS[catalog]
    miss, miss_out = run(tmp_path, capsys, args, "miss.csv")
    hit, hit_out = run(tmp_path, capsys, args, "hit.csv")
    assert "simulated in" in miss_out and "cache hit" in hit_out
    simulated = save_dataset(make_campaign().run(settings), tmp_path / "lib.csv")
    assert hit.read_bytes() == miss.read_bytes() == simulated


@pytest.mark.parametrize("catalog", sorted(CATALOGS))
def test_hit_summary_and_manifest_match_the_miss(tmp_path, capsys, catalog):
    args = CATALOGS[catalog][0]
    miss, miss_out = run(tmp_path, capsys, args, "miss.csv")
    hit, hit_out = run(tmp_path, capsys, args, "hit.csv")
    assert hit_out.splitlines()[0] == miss_out.splitlines()[0]
    assert miss_out.splitlines()[0].startswith(f"Dataset '{catalog}': ")
    (miss_manifest, miss_counters), (hit_manifest, hit_counters) = (
        counters_of(miss),
        counters_of(hit),
    )
    assert (miss_manifest["cache"], hit_manifest["cache"]) == (
        {"hit": False},
        {"hit": True},
    )
    assert hit_manifest["counts"] == miss_manifest["counts"]
    assert (hit_counters["cache.hits"], hit_counters["cache.misses"]) == (1, 0)
    assert (miss_counters["cache.hits"], miss_counters["cache.misses"]) == (0, 1)


def test_hit_reads_no_column(tmp_path, capsys, monkeypatch):
    """The CLI serves the CSV member; the columns are for library calls."""
    from repro.testbed import io

    args = CATALOGS["may2004"][0]
    miss, _ = run(tmp_path, capsys, args, "miss.csv")

    def no_columns(path):
        raise AssertionError("a CLI hit read the entry's columns")

    monkeypatch.setattr(io, "read_entry", no_columns)
    hit, out = run(tmp_path, capsys, args, "hit.csv")
    assert "cache hit" in out
    assert hit.read_bytes() == miss.read_bytes()


@pytest.mark.parametrize("damage", CSV_DAMAGE)
def test_damaged_entry_is_quarantined_and_resimulated(tmp_path, capsys, damage):
    args = [*CATALOGS["may2004"][0], "--quiet"]
    first, _ = run(tmp_path, capsys, args, "first.csv")
    entry = the_entry(tmp_path)
    CACHE_DAMAGE[damage](entry)
    again, _ = run(tmp_path, capsys, [*CATALOGS["may2004"][0]], "again.csv")
    manifest, counters = counters_of(again)
    assert manifest["cache"] == {"hit": False}
    assert counters["cache.corrupt"] == 1
    assert counters["cache.misses"] == 1
    assert again.read_bytes() == first.read_bytes()
    assert entry.with_name(entry.name + ".corrupt").is_file()
    # The fresh entry serves the next run.
    third, out = run(tmp_path, capsys, args[:-1], "third.csv")
    assert "cache hit" in out
    assert third.read_bytes() == first.read_bytes()


def test_damaged_entry_leaves_no_partial_output(tmp_path, capsys, monkeypatch):
    """The CSV member is CRC-checked whole before ``-o`` is opened: when
    the re-simulation then aborts, no output file exists at all."""
    args = [*CATALOGS["may2004"][0], "--quiet"]
    run(tmp_path, capsys, args, "first.csv")
    CACHE_DAMAGE["flipped-csv-byte"](the_entry(tmp_path))
    monkeypatch.setenv("REPRO_FAULT_SPEC", "*:raise")
    out = tmp_path / "aborted.csv"
    assert campaign.main([*args, "--max-retries", "0", "-o", str(out)]) == 1
    assert not out.exists()


def test_bad_retry_option_fails_on_a_hit(tmp_path, capsys):
    """The retry policy is checked before the lookup, hit or miss."""
    args = [*CATALOGS["may2004"][0], "--quiet"]
    run(tmp_path, capsys, args, "first.csv")
    out = tmp_path / "bad.csv"
    assert campaign.main([*args, "--max-retries", "-1", "-o", str(out)]) == 2
    assert "argument --max-retries: max_retries" in capsys.readouterr().err
    assert not out.exists()
