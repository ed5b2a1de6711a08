"""Each reprolint rule: one fixture that triggers it exactly once,
plus the nearest non-violation it must stay silent on."""

import textwrap

import pytest

from repro.analysis import analyze_source
from repro.analysis.rules import CONFIG_FIELDS

# One (rule id, offending snippet) pair per rule.  The CLI test reuses
# this table to assert a nonzero exit per rule.
RULE_FIXTURES = {
    "R001": """
        import numpy as np

        def sample():
            return np.random.rand(3)
        """,
    "R002": """
        import time

        def stamp():
            return time.time()
        """,
    "R003": """
        def run(engine, tasks):
            return engine.map(lambda t: t + 1, tasks)
        """,
    "R004": """
        def grade(coverage):
            return coverage == 1.0
        """,
    "R005": """
        def collect(item, bucket=[]):
            bucket.append(item)
            return bucket
        """,
    "R006": """
        def sweep(config):
            return config.with_overrides(lof_treshold=2.0)
        """,
}


def findings_for(source, path="fixture.py"):
    return analyze_source(textwrap.dedent(source), path=path)


class TestEachRuleFiresExactlyOnce:
    @pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
    def test_fixture_triggers_rule_once(self, rule_id):
        findings = findings_for(RULE_FIXTURES[rule_id])
        assert [f.rule for f in findings] == [rule_id]

    @pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
    def test_finding_carries_location_and_snippet(self, rule_id):
        (finding,) = findings_for(RULE_FIXTURES[rule_id])
        assert finding.path == "fixture.py"
        assert finding.line > 0 and finding.col > 0
        assert finding.snippet
        assert finding.fingerprint


class TestR001UnseededRandomness:
    def test_default_rng_is_allowed(self):
        assert not findings_for(
            """
            import numpy as np

            def sample(seed):
                return np.random.default_rng(seed).uniform()
            """
        )

    def test_seed_sequence_is_allowed(self):
        assert not findings_for(
            """
            import numpy as np

            def spawn(seed):
                return np.random.SeedSequence(seed).spawn(4)
            """
        )

    def test_numpy_alias_is_resolved(self):
        findings = findings_for(
            """
            import numpy

            def sample():
                return numpy.random.normal()
            """
        )
        assert [f.rule for f in findings] == ["R001"]

    def test_stdlib_random_from_import(self):
        findings = findings_for(
            """
            from random import choice

            def pick(xs):
                return choice(xs)
            """
        )
        assert [f.rule for f in findings] == ["R001"]

    def test_generator_methods_not_confused_with_module(self):
        assert not findings_for(
            """
            def draw(rng):
                return rng.random()
            """
        )


class TestR002WallClock:
    def test_engine_perf_is_the_blessed_site(self):
        source = """
            import time

            def stamp():
                return time.perf_counter()
            """
        assert findings_for(source, path="src/repro/other.py")
        assert not findings_for(source, path="src/repro/engine/perf.py")

    def test_datetime_now_flagged(self):
        findings = findings_for(
            """
            import datetime

            def stamp():
                return datetime.datetime.now()
            """
        )
        assert [f.rule for f in findings] == ["R002"]

    def test_obs_clock_is_the_other_blessed_site(self):
        source = """
            import time

            def now():
                return time.perf_counter()
            """
        assert not findings_for(source, path="src/repro/obs/clock.py")

    def test_rest_of_obs_is_not_blessed(self):
        # The allowlist names obs/clock.py alone, not obs/ wholesale:
        # every other obs module must go through the Clock abstraction.
        source = """
            import time

            def sneak():
                return time.monotonic()
            """
        findings = findings_for(source, path="src/repro/obs/metrics.py")
        assert [f.rule for f in findings] == ["R002"]
        assert "obs.clock" in findings[0].message


class TestR003UnpicklablePayload:
    def test_nested_def_flagged(self):
        findings = findings_for(
            """
            def run(engine, tasks):
                def work(task):
                    return task
                return engine.map(work, tasks)
            """
        )
        assert [f.rule for f in findings] == ["R003"]

    def test_module_level_function_ok(self):
        assert not findings_for(
            """
            def work(task):
                return task

            def run(engine, tasks):
                return engine.map(work, tasks)
            """
        )

    def test_map_batches_lambda_flagged(self):
        findings = findings_for(
            """
            def run(engine, clips):
                return engine.map_batches(lambda c: c, clips)
            """
        )
        assert [f.rule for f in findings] == ["R003"]
        assert "ExecutionEngine.map_batches" in findings[0].message

    def test_map_batches_keyword_task_function_flagged(self):
        findings = findings_for(
            """
            def run(engine, tasks):
                def work(task):
                    return task
                return engine.map_batches(fn=work, tasks=tasks)
            """
        )
        assert [f.rule for f in findings] == ["R003"]

    def test_non_engine_map_ignored(self):
        assert not findings_for(
            """
            def shift(values):
                return values.map(lambda v: v + 1)
            """
        )


class TestR004FloatEquality:
    def test_test_files_only_flag_computed_asserts(self):
        source = """
            from repro.core.config import PAPER_CONFIG

            def test_default():
                assert PAPER_CONFIG.sample_rate_hz == 10.0
            """
        assert not findings_for(source, path="test_fixture.py")

    def test_call_result_assert_flagged_in_tests(self):
        findings = findings_for(
            """
            def test_features(build):
                fx = build()
                assert fx.z1 == 1.0
            """,
            path="test_fixture.py",
        )
        assert [f.rule for f in findings] == ["R004"]

    def test_pytest_approx_is_the_fix(self):
        assert not findings_for(
            """
            import pytest

            def test_features(build):
                fx = build()
                assert fx.z1 == pytest.approx(1.0)
            """,
            path="test_fixture.py",
        )

    def test_integer_equality_untouched(self):
        assert not findings_for(
            """
            def count(xs):
                return len(xs) == 3
            """
        )


class TestR005MutableDefault:
    def test_dataclass_field_default(self):
        findings = findings_for(
            """
            import dataclasses

            @dataclasses.dataclass
            class Bucket:
                items: list = dataclasses.field(default=[])
            """
        )
        assert [f.rule for f in findings] == ["R005"]

    def test_default_factory_ok(self):
        assert not findings_for(
            """
            import dataclasses

            @dataclasses.dataclass
            class Bucket:
                items: list = dataclasses.field(default_factory=list)
            """
        )

    def test_none_default_ok(self):
        assert not findings_for(
            """
            def collect(item, bucket=None):
                bucket = bucket or []
                bucket.append(item)
                return bucket
            """
        )


class TestR006ConfigContract:
    def test_known_fields_pass(self):
        assert "lof_threshold" in CONFIG_FIELDS
        assert not findings_for(
            """
            def sweep(config):
                return config.with_overrides(lof_threshold=2.0)
            """
        )

    def test_deprecated_replace_with_config_fields(self):
        findings = findings_for(
            """
            def sweep(config):
                return config.replace(lof_threshold=2.0)
            """
        )
        assert [f.rule for f in findings] == ["R006"]
        assert "with_overrides" in findings[0].message

    def test_str_replace_not_confused(self):
        assert not findings_for(
            """
            def clean(name):
                return name.replace("a", "b")
            """
        )

    def test_dataclasses_replace_on_other_types_ok(self):
        assert not findings_for(
            """
            import dataclasses

            def tweak(env):
                return dataclasses.replace(env, fps=30.0)
            """
        )

    def test_getattr_string_typo_flagged(self):
        findings = findings_for(
            """
            def read(config):
                return getattr(config, "lof_treshold")
            """
        )
        assert [f.rule for f in findings] == ["R006"]

    def test_star_star_dict_keys_checked(self):
        findings = findings_for(
            """
            def sweep(config):
                return config.with_overrides(**{"lof_treshold": 2.0})
            """
        )
        assert [f.rule for f in findings] == ["R006"]
