"""Stable fingerprints for cache keys."""

import sys
from dataclasses import dataclass
from importlib.util import spec_from_file_location

import pytest

from repro.core.cachekey import (
    canonical_encoding,
    package_fingerprint,
    stable_fingerprint,
)
from repro.paths.config import may_2004_catalog
from repro.testbed.campaign import CampaignSettings


@dataclass(frozen=True)
class Point:
    x: float
    y: float


class TestCanonicalEncoding:
    def test_scalars(self):
        assert canonical_encoding(None) == "None"
        assert canonical_encoding(True) == "True"
        assert canonical_encoding(3) == "3"
        assert canonical_encoding("a") == "'a'"

    def test_float_discriminated_from_int(self):
        assert canonical_encoding(1.0) != canonical_encoding(1)

    def test_dataclass_uses_field_order(self):
        assert canonical_encoding(Point(1.0, 2.0)) == (
            "Point(x=float:1.0, y=float:2.0)"
        )

    def test_dict_sorted_by_key(self):
        assert canonical_encoding({"b": 1, "a": 2}) == canonical_encoding(
            dict([("a", 2), ("b", 1)])
        )

    def test_list_and_tuple_differ(self):
        assert canonical_encoding([1, 2]) != canonical_encoding((1, 2))

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            canonical_encoding(object())


class TestStableFingerprint:
    def test_deterministic(self):
        value = {"catalog": may_2004_catalog(), "settings": CampaignSettings()}
        again = {"catalog": may_2004_catalog(), "settings": CampaignSettings()}
        assert stable_fingerprint(value) == stable_fingerprint(again)

    def test_sensitive_to_nested_change(self):
        base = {"settings": CampaignSettings(n_traces=2)}
        other = {"settings": CampaignSettings(n_traces=3)}
        assert stable_fingerprint(base) != stable_fingerprint(other)

    def test_sensitive_to_catalog_change(self):
        catalog = may_2004_catalog()
        assert stable_fingerprint(catalog) != stable_fingerprint(catalog[:-1])

    def test_hex_sha256_shape(self):
        digest = stable_fingerprint({"a": 1})
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")


class TestPackageFingerprint:
    """Every ``*.py`` file of a package, at any depth, file by file."""

    @pytest.fixture
    def package(self, tmp_path, monkeypatch):
        """A package ``fpkg`` with a subpackage, importable from ``tmp_path``."""
        root = tmp_path / "fpkg"
        (root / "sub").mkdir(parents=True)
        (root / "__init__.py").write_text("")
        (root / "a.py").write_text("A = 1\n")
        (root / "sub" / "__init__.py").write_text("")
        (root / "sub" / "b.py").write_text("B = 2\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.delitem(sys.modules, "fpkg", raising=False)
        return root

    def test_deterministic_hex_sha256(self, package):
        first = package_fingerprint("fpkg")
        assert first == package_fingerprint("fpkg")
        assert len(first) == 64 and int(first, 16) >= 0

    @pytest.mark.parametrize(
        "change",
        [
            lambda root: (root / "sub" / "b.py").write_text("B = 3\n"),
            lambda root: (root / "sub" / "c.py").write_text(""),
            lambda root: (root / "sub" / "b.py").rename(root / "sub" / "c.py"),
            lambda root: (root / "a.py").rename(root / "sub" / "a.py"),
            lambda root: (root / "a.py").unlink(),
        ],
        ids=["edited", "added", "renamed", "moved", "removed"],
    )
    def test_any_source_file_moves_it(self, package, change):
        before = package_fingerprint("fpkg")
        change(package)
        assert package_fingerprint("fpkg") != before

    def test_other_files_do_not(self, package):
        before = package_fingerprint("fpkg")
        (package / "__pycache__").mkdir()
        (package / "__pycache__" / "a.cpython-311.pyc").write_bytes(b"\0")
        (package / "notes.txt").write_text("not source")
        assert package_fingerprint("fpkg") == before

    def test_follows_the_spec_of_an_imported_package(self, package, monkeypatch):
        """Found through the package's spec, as :func:`source_fingerprint`
        finds a module: pointing the spec at a copy reads the copy."""
        import fpkg

        before = package_fingerprint("fpkg")
        copy = package.parent / "copy"
        (copy / "sub").mkdir(parents=True)
        for file in package.rglob("*.py"):
            (copy / file.relative_to(package)).write_bytes(file.read_bytes())
        spec = spec_from_file_location(
            "fpkg", copy / "__init__.py", submodule_search_locations=[str(copy)]
        )
        monkeypatch.setattr(fpkg, "__spec__", spec)
        assert package_fingerprint("fpkg") == before
        (copy / "a.py").write_text("A = 2\n")
        assert package_fingerprint("fpkg") != before

    def test_a_plain_module_is_not_a_package(self):
        with pytest.raises(ModuleNotFoundError):
            package_fingerprint("repro.core.cachekey")
        with pytest.raises(ModuleNotFoundError):
            package_fingerprint("no_such_package_here")
