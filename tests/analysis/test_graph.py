"""reprograph: the whole-program layer (summaries, resolution, R007-R011).

The load-bearing tests here are the cross-module fixtures: each builds
a small multi-file project where the per-file rules (R001/R002/R003)
provably report nothing, and asserts the corresponding graph rule fires
with call-chain evidence.  That is the entire reason the layer exists.
"""

import textwrap

import pytest

from repro.analysis import LintConfig, analyze_source, lint_paths
from repro.analysis.graph import (
    SummaryCache,
    build_graph,
    module_name_for,
    summarize_module,
)
from repro.analysis.context import ModuleContext


def write_tree(tmp_path, files):
    for name, source in files.items():
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))


def graph_lint(tmp_path, **kwargs):
    return lint_paths([tmp_path], relative_to=tmp_path, graph=True, **kwargs)


def assert_per_file_clean(files):
    """The premise of every cross-module fixture: per-file rules miss."""
    for name, source in files.items():
        assert analyze_source(textwrap.dedent(source), path=name) == [], name


class TestModuleNaming:
    def test_src_root_is_stripped(self):
        assert module_name_for("src/repro/core/features.py") == (
            "repro.core.features",
            False,
        )

    def test_package_init(self):
        assert module_name_for("src/repro/obs/__init__.py") == ("repro.obs", True)

    def test_tests_keep_their_prefix(self):
        assert module_name_for("tests/core/test_roi.py") == (
            "tests.core.test_roi",
            False,
        )


class TestSummaries:
    def test_roundtrip_through_dict(self):
        source = textwrap.dedent(
            """
            import numpy as np

            __all__ = ["draw"]

            def draw(rng):
                return helper(rng)

            def helper(rng):
                return rng.normal()
            """
        )
        ctx = ModuleContext("src/repro/sampling.py", source)
        summary = summarize_module(ctx)
        from repro.analysis.graph import ModuleSummary

        clone = ModuleSummary.from_dict(summary.to_dict())
        assert clone == summary
        assert clone.exports == ("draw",)
        assert [c.target for c in clone.functions["draw"].calls] == ["helper"]

    def test_suppressed_effect_is_blessed(self):
        source = textwrap.dedent(
            """
            import numpy as np

            def noisy():
                return np.random.rand(3)  # reprolint: disable=R001
            """
        )
        summary = summarize_module(ModuleContext("m.py", source))
        assert summary.functions["noisy"].effects == ()

    def test_unsuppressed_effect_is_recorded(self):
        source = textwrap.dedent(
            """
            import numpy as np

            def noisy():
                return np.random.rand(3)
            """
        )
        summary = summarize_module(ModuleContext("m.py", source))
        (effect,) = summary.functions["noisy"].effects
        assert (effect.kind, effect.detail) == ("rng", "numpy.random.rand")


R007_FILES = {
    "util.py": """
        from random import random as draw
        """,
    "payload.py": """
        from util import draw

        def task(p):
            return draw()

        def run_batch(engine, tasks):
            return engine.map(task, tasks)
        """,
}


class TestR007TransitiveRandomness:
    def test_per_file_rules_miss_the_chain(self):
        assert_per_file_clean(R007_FILES)

    def test_graph_rule_fires_with_evidence(self, tmp_path):
        write_tree(tmp_path, R007_FILES)
        result = graph_lint(tmp_path)
        findings = [f for f in result.findings if f.rule == "R007"]
        assert findings, [f"{f.rule} {f.message}" for f in result.findings]
        chain = findings[0]
        assert "random.random" in chain.message
        assert chain.evidence  # one hop per entry, each with file:line
        assert any("payload.py:" in hop for hop in chain.evidence)
        assert "random.random()" in chain.evidence[-1]

    def test_inline_suppression_at_the_anchor_works(self, tmp_path):
        files = dict(R007_FILES)
        files["payload.py"] = """
            from util import draw

            def task(p):
                return draw()

            def build_batch(engine, tasks):
                return engine.map(task, tasks)  # reprolint: disable=R007
            """
        write_tree(tmp_path, files)
        result = graph_lint(tmp_path)
        assert [f for f in result.findings if f.rule == "R007"] == []


R008_FILES = {
    "clockutil.py": """
        from time import perf_counter as timer
        """,
    "report.py": """
        from clockutil import timer

        def elapsed():
            return timer()
        """,
    "caller.py": """
        from report import elapsed

        def measure():
            return elapsed()
        """,
}


class TestR008TransitiveWallClock:
    def test_per_file_rules_miss_the_chain(self):
        assert_per_file_clean(R008_FILES)

    def test_aliased_clock_read_is_found(self, tmp_path):
        write_tree(tmp_path, R008_FILES)
        result = graph_lint(tmp_path)
        findings = [f for f in result.findings if f.rule == "R008"]
        paths = {f.path for f in findings}
        # (a) the laundered read itself, (b) the cross-module call into it.
        assert "report.py" in paths
        assert "caller.py" in paths
        direct = next(f for f in findings if f.path == "report.py")
        assert "time.perf_counter" in direct.message

    def test_allowlisted_module_is_blessed(self, tmp_path):
        write_tree(tmp_path, R008_FILES)
        config = LintConfig(wall_clock_allowlist=("report.py",))
        result = graph_lint(tmp_path, config=config)
        findings = [f for f in result.findings if f.rule == "R008"]
        # Neither the read inside the allowlisted module nor calls into
        # it are flagged: clock taint does not propagate out of it.
        assert findings == []


R010_CONFIG = LintConfig(facade="pkg/api.py", project_packages=("pkg",))

R010_FILES = {
    "pkg/__init__.py": "",
    "pkg/core.py": """
        __all__ = ["good"]

        def good():
            return 1

        def hidden():
            return 2
        """,
    "pkg/api.py": """
        from pkg.core import good, hidden, missing

        __all__ = ["good", "ghost"]
        """,
}


class TestR010FacadeDrift:
    def test_per_file_rules_miss_the_drift(self):
        assert_per_file_clean(R010_FILES)

    def test_both_drift_directions_are_found(self, tmp_path):
        write_tree(tmp_path, R010_FILES)
        result = graph_lint(tmp_path, config=R010_CONFIG)
        messages = [f.message for f in result.findings if f.rule == "R010"]
        assert any("'missing'" in m and "no longer defines" in m for m in messages)
        assert any("'ghost'" in m and "never binds" in m for m in messages)
        assert any("'hidden'" in m and "__all__" in m for m in messages)
        assert all(f.path == "pkg/api.py" for f in result.findings if f.rule == "R010")

    def test_drift_free_facade_is_clean(self, tmp_path):
        files = dict(R010_FILES)
        files["pkg/api.py"] = """
            from pkg.core import good

            __all__ = ["good"]
            """
        write_tree(tmp_path, files)
        result = graph_lint(tmp_path, config=R010_CONFIG)
        assert [f for f in result.findings if f.rule == "R010"] == []


R011_FILES = {
    "res.py": """
        class Resource:
            def __init__(self, path):
                self.fh = open(path)

            def read(self):
                return self.fh.read()
        """,
    "driver.py": """
        from res import Resource

        def task(r):
            return r.read()

        def run_all(engine, path):
            item = Resource(path)
            return engine.map(task, [item])
        """,
}


class TestR011CrossModulePickleSafety:
    def test_per_file_rules_miss_the_hazard(self):
        assert_per_file_clean(R011_FILES)

    def test_open_file_in_payload_class_is_found(self, tmp_path):
        write_tree(tmp_path, R011_FILES)
        result = graph_lint(tmp_path)
        findings = [f for f in result.findings if f.rule == "R011"]
        assert findings, [f"{f.rule} {f.message}" for f in result.findings]
        finding = findings[0]
        assert finding.path == "driver.py"
        assert "open file" in finding.message
        assert any("res.py:" in hop for hop in finding.evidence)

    def test_map_batches_payload_is_checked(self, tmp_path):
        files = {
            "res.py": R011_FILES["res.py"],
            "driver.py": """
                from res import Resource

                def task(r):
                    return r.read()

                def run_all(engine, path):
                    item = Resource(path)
                    return engine.map_batches(task, [item], stage="read")
                """,
        }
        assert_per_file_clean(files)
        write_tree(tmp_path, files)
        result = graph_lint(tmp_path)
        findings = [f for f in result.findings if f.rule == "R011"]
        assert [(f.path, f.line) for f in findings] == [("driver.py", 9)]
        assert "open file" in findings[0].message

    def test_enabled_instrumentation_handle_is_found(self, tmp_path):
        files = {
            "obs_payload.py": """
                from repro.obs import Instrumentation

                def task(x):
                    return x

                def run_obs(engine, items):
                    instr = Instrumentation.enabled()
                    return engine.map(task, [(i, instr) for i in items])
                """,
        }
        assert_per_file_clean(files)
        write_tree(tmp_path, files)
        result = graph_lint(tmp_path)
        findings = [f for f in result.findings if f.rule == "R011"]
        assert any("Instrumentation" in f.message for f in findings)


class TestR009DeadSurface:
    def test_unreferenced_public_function_in_project_package(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                def used():
                    return 1

                def orphan():
                    return 2

                def _private_orphan():
                    return 3

                value = used()
                """,
        }
        write_tree(tmp_path, files)
        config = LintConfig(project_packages=("pkg",))
        result = graph_lint(tmp_path, config=config)
        names = [f.message for f in result.findings if f.rule == "R009"]
        assert any("orphan" in m for m in names)
        assert not any("used" in m for m in names)
        assert not any("_private_orphan" in m for m in names)

    def test_files_outside_project_packages_are_exempt(self, tmp_path):
        write_tree(tmp_path, {"scratch.py": "def orphan():\n    return 1\n"})
        result = graph_lint(tmp_path)  # default project-packages: repro
        assert [f for f in result.findings if f.rule == "R009"] == []

    def test_ignore_names_option(self, tmp_path):
        files = {"pkg/__init__.py": "", "pkg/mod.py": "def orphan():\n    return 1\n"}
        write_tree(tmp_path, files)
        config = LintConfig(
            project_packages=("pkg",),
            rule_options=(("R009", (("ignore-names", ("orphan",)),)),),
        )
        result = graph_lint(tmp_path, config=config)
        assert [f for f in result.findings if f.rule == "R009"] == []


class TestIncrementalCache:
    FILES = {
        "alpha.py": "def alpha():\n    return 1\n\nvalue = alpha()\n",
        "beta.py": "import alpha\n\nvalue = alpha.value\n",
        "gamma.py": "import beta\n\nvalue = beta.value\n",
    }

    @staticmethod
    def _counts(registry):
        snapshot = registry.snapshot()
        return (
            snapshot.counter_value("reprograph_summaries_total", result="hit"),
            snapshot.counter_value("reprograph_summaries_total", result="miss"),
        )

    def test_unchanged_tree_re_summarizes_nothing(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        write_tree(tmp_path, self.FILES)
        cache_file = tmp_path / "cache" / "summaries.json"

        first = MetricsRegistry()
        graph_lint(tmp_path, cache=SummaryCache(cache_file), metrics=first)
        assert self._counts(first) == (0.0, 3.0)

        second = MetricsRegistry()
        graph_lint(tmp_path, cache=SummaryCache(cache_file), metrics=second)
        assert self._counts(second) == (3.0, 0.0)

    def test_single_mutation_re_summarizes_only_that_module(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        write_tree(tmp_path, self.FILES)
        cache_file = tmp_path / "cache" / "summaries.json"
        graph_lint(tmp_path, cache=SummaryCache(cache_file))

        (tmp_path / "beta.py").write_text(
            "import alpha\n\nvalue = alpha.value + 1\n"
        )
        registry = MetricsRegistry()
        graph_lint(tmp_path, cache=SummaryCache(cache_file), metrics=registry)
        assert self._counts(registry) == (2.0, 1.0)

    def test_cached_run_produces_identical_findings(self, tmp_path):
        write_tree(tmp_path, R007_FILES)
        cache_file = tmp_path / "cache" / "summaries.json"
        fresh = graph_lint(tmp_path, cache=SummaryCache(cache_file))
        cached = graph_lint(tmp_path, cache=SummaryCache(cache_file))
        assert [(f.rule, f.path, f.line, f.message, f.evidence) for f in fresh.findings] == [
            (f.rule, f.path, f.line, f.message, f.evidence) for f in cached.findings
        ]

    def test_corrupt_cache_is_discarded_not_fatal(self, tmp_path):
        write_tree(tmp_path, self.FILES)
        cache_file = tmp_path / "cache" / "summaries.json"
        cache_file.parent.mkdir()
        cache_file.write_text("{not json")
        result = graph_lint(tmp_path, cache=SummaryCache(cache_file))
        assert result.graph is not None


class TestDeterminism:
    def test_graph_build_is_order_independent(self, tmp_path):
        write_tree(tmp_path, R007_FILES)
        result = graph_lint(tmp_path)
        summaries = list(result.graph.modules.values())
        forward = build_graph(summaries)
        backward = build_graph(list(reversed(summaries)))
        assert forward.transitive == backward.transitive
        assert forward.edges == backward.edges
