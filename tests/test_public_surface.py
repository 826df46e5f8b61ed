"""Guard: every public function and method under ``repro/core`` has a
caller outside ``tests/``, or a listed reason to exist without one.

A name counts as called when any Python file outside ``tests/`` names
it: as a variable, an attribute, an import, a keyword argument or an
exact string (``getattr(agent, "...")``, the benchmark's trace table).
The match is by bare name, so two methods that share a name share a
caller.  The list below can only shrink: a new public name nothing
calls fails the first test, and a listed name that was deleted or
gained a caller fails the second, so its line goes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORE = ROOT / "src" / "repro" / "core"

#: ``module.Class.method`` (or ``module.function``) -> why it stays.
UNCALLED = {
    "agent.Agent.channel_stats": "tests only: per-channel latency and CPU totals",
    "agent.Agent.fault_stats": "tests only: the agent's channel-fault counters",
    "concurrency.ConnectionPool.in_use": "tests only: checked-out connection count",
    "concurrency.ConnectionPool.reap_idle": "tests only: explicit idle sweep",
    "controller.RefreshReport.for_machine": "tests only: one machine's refresh row",
    "controller.ZoneController.get_attr": "Figure 6 GetAttr; README and tests",
    "counters.CounterOverheadModel.disabled": "tests only: the zero-cost model",
    "counters.CounterSnapshot.from_dict": "tests only: build a snapshot from a dict",
    "counters.diff_snapshots": "tests only: per-attr deltas of two snapshots",
    "diagnosis.report.FleetDiagnosis.report_for": "tests only: one machine's report",
    "diagnosis.tickets.DiagnosisStep.tenant_ids": "tests only: tenants in one step",
    "diagnosis.tickets.TicketAggregator.cost_estimate": "tests only: plan cost",
    "extensions.PacketSizeHistogram.fraction_below": "tests only: histogram CDF",
    "store.TimeSeriesStore.append_row": "tests only: columnar append",
    "store.TimeSeriesStore.changed_since": "tests only: snapshot-form delta read",
    "tiers.TierConfig.retention_slots": "tests only: slots across all tiers",
    "tiers.TieredWindowStore.coarse_buckets": "tests only: a series' coarse tiers",
    "tiers.TieredWindowStore.retention_span": "tests only: seconds of history kept",
}


def public_defs():
    """``qualified name -> bare name`` of public defs under ``repro/core``.

    Module-level functions and the methods of public classes; nested
    functions and underscore names are not surface.
    """
    defs = {}
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(CORE.rglob("*.py")):
        module = path.relative_to(CORE).with_suffix("").as_posix().replace("/", ".")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, funcs) and not node.name.startswith("_"):
                defs[f"{module}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, funcs) and not item.name.startswith("_"):
                        defs[f"{module}.{node.name}.{item.name}"] = item.name
    return defs


def named_outside_tests():
    """Every bare name the Python files outside ``tests/`` mention."""
    names = set()
    for path in sorted(ROOT.rglob("*.py")):
        parts = path.relative_to(ROOT).parts
        if parts[0] == "tests" or any(p.startswith(".") for p in parts):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.keyword) and node.arg:
                names.add(node.arg)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def uncalled():
    named = named_outside_tests()
    return {q for q, name in public_defs().items() if name not in named}


class TestPublicSurface:
    def test_no_new_public_name_without_a_caller(self):
        new = sorted(uncalled() - set(UNCALLED))
        assert new == [], (
            "public names under repro/core that nothing outside tests/ "
            f"calls: {new}; give them a caller, delete them, or make them "
            "private"
        )

    def test_listed_names_are_still_uncalled(self):
        gone = sorted(set(UNCALLED) - uncalled())
        assert gone == [], (
            f"deleted, or now called outside tests/: {gone}; drop their "
            "lines from UNCALLED"
        )
