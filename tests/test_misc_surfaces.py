"""Coverage for smaller public surfaces: element hooks, report objects,
operator VM migration, and transform-style elements."""

import pytest

from repro.cluster.placement import Placement
from repro.core.diagnosis.operator import OperatorConsole
from repro.core.diagnosis.report import MiddleboxVerdict, RootCauseReport
from repro.core.diagnosis.states import MiddleboxState
from repro.core.rulebook import Verdict
from repro.scenarios.common import Harness
from repro.simnet.buffers import Buffer
from repro.simnet.element import Element
from repro.simnet.packet import Flow, PacketBatch


class TestElementHooks:
    def test_transform_override(self, sim):
        """A NAT-style element rewriting flow metadata in transform."""

        rewritten = Flow("public", dst_vm="outside")

        class Rewriter(Element):
            def transform(self, batch):
                return [PacketBatch(rewritten, batch.pkts, batch.nbytes)]

        e = Rewriter(sim, "nat")
        buf = e.make_input("nat.q")
        out = []
        e.out = out.append
        buf.push(PacketBatch(Flow("private"), 3, 4500))
        sim.run(2e-3)
        assert all(b.flow.flow_id == "public" for b in out)
        assert sum(b.pkts for b in out) == pytest.approx(3)

    def test_transform_may_split_batches(self, sim):
        class Splitter(Element):
            def transform(self, batch):
                half = batch.split_pkts(batch.pkts / 2)
                return [half, batch]

        e = Splitter(sim, "split")
        buf = e.make_input("split.q")
        out = []
        e.out = out.append
        buf.push(PacketBatch(Flow("f"), 4, 6000))
        sim.run(2e-3)
        assert len(out) == 2
        assert sum(b.pkts for b in out) == pytest.approx(4)

    def test_route_override(self, sim):
        """Per-batch routing (e.g. a classifier steering by flow)."""
        fast, slow = [], []

        class Classifier(Element):
            def route(self, batch):
                return fast.append if batch.flow.flow_id == "vip" else slow.append

        e = Classifier(sim, "clf")
        buf = e.make_input("clf.q")
        buf.push(PacketBatch(Flow("vip"), 1, 1500))
        buf.push(PacketBatch(Flow("bulk"), 2, 3000))
        sim.run(2e-3)
        assert sum(b.pkts for b in fast) == pytest.approx(1)
        assert sum(b.pkts for b in slow) == pytest.approx(2)


class TestReports:
    def make_report(self):
        state = MiddleboxState("mb", True, False, 1e6, None, 100e6)
        return RootCauseReport(
            "t1", 2.0, [MiddleboxVerdict("mb", state, True, "overloaded")]
        )

    def test_verdict_lookup(self):
        report = self.make_report()
        assert report.verdict("mb").is_root_cause
        with pytest.raises(KeyError):
            report.verdict("ghost")

    def test_root_causes_property(self):
        assert self.make_report().root_causes == ["mb"]

    def test_summary_marks_root(self):
        assert "ROOT CAUSE" in self.make_report().summary()

    def test_rulebook_verdict_describe(self):
        v = Verdict("tun", ["host-cpu"], "shared")
        assert "contention" in v.describe()
        v2 = Verdict("tun", ["vm-bottleneck"], "individual")
        assert "bottleneck" in v2.describe()


class TestOperatorMigration:
    def test_migrate_vm_updates_placement_and_log(self):
        h = Harness()
        h.add_machine("m1")
        h.placement.place("vm1", "m1", tenant_id="t1")
        console = OperatorConsole(h.controller, h.advance, h.placement)
        console.migrate_vm("vm1", "m2")
        assert h.placement.machine_of("vm1") == "m2"
        assert ("migrate_vm", "vm1", "m1", "m2") in console.actions_log

    def test_console_builds_own_placement_if_missing(self):
        h = Harness()
        console = OperatorConsole(h.controller, h.advance)
        assert isinstance(console.placement, Placement)


class TestBufferEdgeCases:
    def test_peek_flows_groups_ready_only(self):
        b = Buffer("q")
        b.push(PacketBatch(Flow("a"), 2, 3000))
        b.commit()
        b.push(PacketBatch(Flow("b"), 1, 1500))  # staged, not peeked
        flows = b.peek_flows()
        assert set(flows) == {"a"}

    def test_space_infinite_without_caps(self):
        b = Buffer("q")
        assert b.space_pkts() == float("inf")
        assert b.space_bytes() == float("inf")

    def test_empty_property(self):
        b = Buffer("q")
        assert b.empty
        b.push(PacketBatch(Flow("f"), 1, 1500))
        assert not b.empty

    def test_crumbs_never_stall_pops(self):
        """A sub-representable crumb at the head is absorbed, not spun on."""
        b = Buffer("q")
        crumb = PacketBatch(Flow("f"), 1e-10, 1e-7)
        b._ready.append(crumb)  # bypass push's crumb filter deliberately
        b._ready_pkts += crumb.pkts
        b._ready_bytes += crumb.nbytes
        b.push(PacketBatch(Flow("g"), 2, 3000))
        b.commit()
        out = b.pop_budgeted([[1.0, 0.0, 1.0]])
        assert sum(x.pkts for x in out) == pytest.approx(1.0)


class TestEnvKnobTable:
    def test_design_table_lists_exactly_the_knobs_in_src(self):
        """A ``PERFSIGHT_*`` variable cannot land (or linger)
        undocumented: the names under ``src/`` are the rows of
        DESIGN.md's "Environment knobs" table, no more, no fewer."""
        import re
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        in_src = set()
        for path in (root / "src").rglob("*.py"):
            in_src.update(re.findall(r"PERFSIGHT_[A-Z_]+", path.read_text()))
        in_table = re.findall(
            r"^\| `(PERFSIGHT_[A-Z_]+)` \|", (root / "DESIGN.md").read_text(), re.M
        )
        assert len(in_table) == len(set(in_table)), "duplicate table rows"
        assert set(in_table) == in_src
