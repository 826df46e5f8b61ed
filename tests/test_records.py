"""Unit tests for the unified stat-record format (core/records.py)."""

import pytest

from repro.core.records import StatRecord


class TestStatRecord:
    def test_basic_access(self):
        r = StatRecord(1.5, "eth0", {"rx_bytes": 100.0, "tx_bytes": 40.0}, "m1")
        assert r["rx_bytes"] == 100.0
        assert r.get("tx_bytes") == 40.0
        assert r.timestamp == 1.5
        assert r.machine == "m1"

    def test_get_default_for_missing(self):
        r = StatRecord(0.0, "e", {})
        assert r.get("nope") == 0.0
        assert r.get("nope", -1.0) == -1.0

    def test_contains(self):
        r = StatRecord(0.0, "e", {"a": 1.0})
        assert "a" in r
        assert "b" not in r

    def test_getitem_missing_raises(self):
        r = StatRecord(0.0, "e", {})
        with pytest.raises(KeyError):
            r["missing"]

    def test_subset_keeps_only_present(self):
        r = StatRecord(2.0, "e", {"a": 1.0, "b": 2.0})
        sub = r.subset(["a", "zzz"])
        assert dict(sub.items()) == {"a": 1.0}
        assert sub.timestamp == 2.0
        assert sub.element_id == "e"

    def test_machine_defaults_empty(self):
        assert StatRecord(0.0, "e", {}).machine == ""
