"""Module summaries: the record codec over the real tree, and the
walk-order invariants of the one summary walk.

The summarizer visits every function body once, breadth-first, and
resolves whole-body lookups (the constructor behind a name, which
names a ``global`` statement declares) only when the walk is done.
The fixtures here put the deciding statement *later* in walk order
than the site that needs it, so a collector that resolved eagerly
would get them wrong.
"""

import json
import textwrap
from pathlib import Path

from repro.analysis.config import load_lint_config
from repro.analysis.context import ModuleContext
from repro.analysis.graph import ModuleSummary, summarize_module
from repro.analysis.linter import collect_files

REPO_ROOT = Path(__file__).resolve().parents[2]


def summarize(source, path="m.py"):
    return summarize_module(ModuleContext(path, textwrap.dedent(source)))


class TestRecordCodec:
    def test_every_default_lint_file_roundtrips_through_json(self):
        """Every file ``repro lint`` scans by default (src + tests)."""
        config = load_lint_config(REPO_ROOT)
        mismatched = []
        seen = {"async": False, "taint": False, "suppressions": False, "map": False}
        files = collect_files([REPO_ROOT / "src", REPO_ROOT / "tests"])
        for file_path in files:
            report_path = file_path.relative_to(REPO_ROOT).as_posix()
            ctx = ModuleContext(report_path, file_path.read_text("utf-8"), config=config)
            summary = summarize_module(ctx)
            clone = ModuleSummary.from_dict(json.loads(json.dumps(summary.to_dict())))
            if clone != summary:
                mismatched.append(report_path)
            functions = summary.functions.values()
            seen["async"] |= any(f.async_info.locks for f in functions)
            seen["taint"] |= any(f.taint_info.calls for f in functions)
            seen["suppressions"] |= bool(summary.suppressions)
            seen["map"] |= bool(summary.map_sites)
        assert len(files) > 100
        assert mismatched == []
        # The tree really exercises every record family.
        assert all(seen.values()), seen

    def test_defaults_are_omitted_and_int_keys_restored(self):
        summary = summarize(
            """
            def helper():
                return 1

            def pause():
                helper()  # reprolint: disable=R002
            """
        )
        data = summary.to_dict()
        assert "error" not in data
        pause = data["functions"]["pause"]
        assert "async_info" not in pause and "taint_info" not in pause
        assert pause["calls"] == [{"kind": "local", "target": "helper", "line": 6}]
        assert data["suppressions"] == {"6": ["R002"]}
        assert ModuleSummary.from_dict(data).suppressions == {6: ("R002",)}


class TestWalkOrder:
    def test_lock_assigned_after_its_with_keeps_its_ctor(self):
        """The ``with`` sits at depth 1, the assignment at depth 2 — the
        walk reaches the lock region first."""
        summary = summarize(
            """
            import threading

            def worker(flag):
                with guard:
                    pass
                if flag:
                    guard = threading.Lock()
            """
        )
        (site,) = summary.functions["worker"].async_info.locks
        assert (site.shape, site.name) == ("name", "guard")
        assert site.ctor is not None and site.ctor.target == "threading.Lock"

    def test_payload_name_takes_the_last_assignments_ctor(self):
        summary = summarize(
            """
            from res import Plain, Resource

            def task(r):
                return r

            def run_all(engine, path):
                item = Plain(path)
                item = Resource(path)
                return engine.map(task, [item])
            """
        )
        (site,) = summary.map_sites
        (item,) = site.payloads
        assert item.name == "item" and item.ctor.target == "res.Resource"

    def test_nested_global_declaration_covers_a_shallower_write(self):
        summary = summarize(
            """
            counter = 0

            def bump(flag):
                if flag:
                    global counter
                counter = 1
            """
        )
        writes = summary.functions["bump"].async_info.writes
        assert [(w.attr, w.line, w.is_global) for w in writes] == [("counter", 7, True)]

    def test_first_return_in_walk_order_names_the_lock_getter(self):
        """Breadth-first, the depth-1 ``return self._lock`` comes before
        the depth-2 ``return self._fast[key]`` written above it."""
        summary = summarize(
            """
            class Pool:
                def lock_for(self, key):
                    if key:
                        return self._fast[key]
                    return self._lock
            """
        )
        info = summary.functions["Pool.lock_for"].async_info
        assert (info.returns_lock_attr, info.returns_lock_item) == ("_lock", False)
