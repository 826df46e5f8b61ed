"""Unit tests for the Table-1 rule book and the Section-5.2 state classifier."""

import pytest

from repro.core.counters import CounterSnapshot, CounterWindow
from repro.core.diagnosis.states import classify_window
from repro.core.rulebook import (
    CPU,
    INCOMING_BANDWIDTH,
    MEMORY_BANDWIDTH,
    MEMORY_SPACE,
    OUTGOING_BANDWIDTH,
    RuleBook,
    VM_BOTTLENECK,
    classify_location,
)


class TestClassifyLocation:
    @pytest.mark.parametrize(
        "location,expected",
        [
            ("tun-vm3", "tun"),
            ("tun-lb2", "tun"),
            ("pcpu_backlog", "pcpu_backlog"),
            ("pnic", "pnic"),
            ("pnic_txq", "pnic_txq"),
            ("vcpu_backlog-vm1", "vcpu_backlog"),
            ("app@vm1.sockbuf", "sockbuf"),
            ("weird-place", "weird-place"),
        ],
    )
    def test_classes(self, location, expected):
        assert classify_location(location) == expected


class TestRuleBook:
    def setup_method(self):
        self.book = RuleBook()

    def test_pnic_maps_to_incoming_bandwidth(self):
        v = self.book.diagnose("pnic")
        assert v.resources == [INCOMING_BANDWIDTH]
        assert v.scope == "shared"

    def test_backlog_maps_to_outgoing_or_memory_space(self):
        v = self.book.diagnose("pcpu_backlog")
        assert OUTGOING_BANDWIDTH in v.resources
        assert MEMORY_SPACE in v.resources

    def test_tun_aggregated_is_cpu_or_membw_contention(self):
        v = self.book.diagnose("tun-vm1", vms_affected=5)
        assert set(v.resources) == {CPU, MEMORY_BANDWIDTH}
        assert v.scope == "shared"
        assert v.secondary_signals  # operator disambiguation hints

    def test_tun_individual_is_vm_bottleneck(self):
        v = self.book.diagnose("tun-vm1", vms_affected=1)
        assert v.resources == [VM_BOTTLENECK]
        assert v.scope == "individual"

    def test_unknown_spread_treated_shared(self):
        v = self.book.diagnose("tun-vm1", vms_affected=None)
        assert v.scope == "shared"

    def test_guest_internal_individual(self):
        v = self.book.diagnose("vcpu_backlog-vm2", vms_affected=1)
        assert v.resources == [VM_BOTTLENECK]

    def test_guest_internal_spread_is_contention(self):
        v = self.book.diagnose("vcpu_backlog-vm2", vms_affected=6)
        assert CPU in v.resources

    def test_unmapped_location_flagged(self):
        v = self.book.diagnose("mystery")
        assert v.resources == []
        assert "extend" in v.secondary_signals[0]

    def test_diagnose_all_orders_by_volume_and_aggregates_vms(self):
        verdicts = self.book.diagnose_all(
            {
                "tun-vm1": 100.0,
                "tun-vm2": 150.0,
                "pnic": 20.0,
            }
        )
        assert verdicts[0].location_class == "tun"
        assert verdicts[0].scope == "shared"  # two VMs -> contention
        assert verdicts[1].resources == [INCOMING_BANDWIDTH]

    def test_diagnose_all_single_vm_is_bottleneck(self):
        verdicts = self.book.diagnose_all({"tun-vm1": 50.0})
        assert verdicts[0].scope == "individual"

    def test_diagnose_all_ignores_zero_drops(self):
        assert self.book.diagnose_all({"pnic": 0.0}) == []

    def test_describe_readable(self):
        text = self.book.diagnose("pnic").describe()
        assert "incoming-bandwidth" in text


def record(t, **attrs):
    return CounterSnapshot("mb", "", int(t), t, attrs)


class TestClassifyState:
    C = 100e6  # 100 Mbps vNIC

    def make(self, d_bi, d_ti, d_bo, d_to, theta=0.9):
        before = record(0.0, inBytes=0, inTime=0, outBytes=0, outTime=0)
        after = record(
            1.0, inBytes=d_bi, inTime=d_ti, outBytes=d_bo, outTime=d_to
        )
        return classify_window(CounterWindow(before, after), self.C, theta=theta)

    def test_read_blocked_when_input_rate_below_capacity(self):
        # 1 MB over 1 s of input time = 8 Mbps << 100 Mbps.
        st = self.make(1e6, 1.0, 50e6, 0.1)
        assert st.read_blocked
        assert not st.write_blocked

    def test_write_blocked(self):
        st = self.make(50e6, 0.1, 1e6, 1.0)
        assert st.write_blocked
        assert not st.read_blocked

    def test_unblocked_fast_io(self):
        st = self.make(50e6, 0.1, 50e6, 0.1)  # 4 Gbps per I/O second
        assert not st.blocked

    def test_no_activity_is_unclassified(self):
        st = self.make(0, 0, 0, 0)
        assert st.in_rate_bps is None
        assert st.out_rate_bps is None
        assert not st.blocked

    def test_pure_block_time_without_bytes_is_blocked(self):
        """A fully starved relay accrues input time but no bytes."""
        st = self.make(0, 1.0, 0, 0)
        assert st.read_blocked

    def test_theta_margin(self):
        # Exactly at capacity: paper's strict test (theta=1) would call it
        # blocked on any epsilon; theta=0.9 does not.
        st = self.make(100e6 / 8, 1.0, 0, 0, theta=0.9)
        assert not st.read_blocked
        st_strict = self.make(99e6 / 8, 1.0, 0, 0, theta=1.0)
        assert st_strict.read_blocked

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(1, 1, 1, 1, theta=0.0)
        before = record(0.0, inBytes=0, inTime=0, outBytes=0, outTime=0)
        after = record(1.0, inBytes=1, inTime=1, outBytes=1, outTime=1)
        with pytest.raises(ValueError):
            classify_window(CounterWindow(before, after), capacity_bps=0.0)

    def test_describe(self):
        st = self.make(1e6, 1.0, 0, 0)
        text = st.describe()
        assert "ReadBlocked" in text
        assert "C=100Mbps" in text
