"""Tests for the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import pathlib
import sys
import types

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

from benchkit.spans import CTX, SpanRecorder, covered_length, patch_all, self_times  # noqa: E402
from benchkit.stats import Tally, has_tail, iqr_spread, named_percentiles  # noqa: E402
from repro.obs.tracing import read_trace  # noqa: E402


class _TickClock:
    """Reads 0, 1, 2, ... seconds, one tick per reading."""

    def __init__(self) -> None:
        self._ticks = iter(range(1000))

    def now(self) -> float:
        return float(next(self._ticks))


# -- the percentile rule -------------------------------------------------


def test_named_percentiles_interpolate_linearly():
    values = [float(v) for v in range(1, 101)]
    named = named_percentiles(values)
    assert named == {"p50": pytest.approx(50.5), "p90": pytest.approx(90.1)}


@pytest.mark.parametrize(
    "count, q, named",
    [
        (99, 90, False),
        (100, 90, True),
        (999, 99, False),
        (1000, 99, True),
        (9999, 99.9, False),
        (10000, 99.9, True),
    ],
)
def test_a_percentile_needs_ten_samples_beyond_it(count, q, named):
    assert has_tail(count, q) is named


def test_named_percentiles_only_names_supported_tails():
    assert set(named_percentiles(list(range(99)))) == {"p50"}
    assert set(named_percentiles(list(range(100)))) == {"p50", "p90"}
    assert set(named_percentiles(list(range(1000)))) == {"p50", "p90", "p99"}
    assert set(named_percentiles(list(range(10000)))) == {"p50", "p90", "p99", "p99.9"}
    assert named_percentiles([]) == {}


def test_iqr_spread_is_relative_to_the_median():
    assert iqr_spread([10.0] * 10) == 0.0
    assert iqr_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


# -- self time over nested spans -------------------------------------------


def _span(span, start, end, parent=None):
    return {"span": span, "parent": parent, "start_s": start, "duration_s": end - start}


def test_covered_length_counts_overlaps_once():
    assert covered_length([]) == 0.0
    assert covered_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert covered_length([(0, 10), (2, 3)]) == pytest.approx(10.0)


def test_self_time_subtracts_children_not_grandchildren():
    # Children before parents, as a tracer emits them.
    spans = [
        _span(2, 1.0, 4.0, parent=1),
        _span(4, 6.0, 8.0, parent=3),
        _span(3, 5.0, 9.0, parent=1),
        _span(1, 0.0, 10.0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 2.0, 3.0])
    # Self times of a nested tree add up to the root's duration.
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_self_time_clips_children_to_the_parent_interval():
    spans = [_span(1, 0.0, 5.0), _span(2, 4.0, 7.0, parent=1)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_recorder_nests_spans_and_tags_the_call_id(tmp_path):
    rec = SpanRecorder(clock=_TickClock())

    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(x) * 2, note=lambda a, k, r: {"r": r})
    token = CTX.set("call-7")
    try:
        assert outer(1) == 4
    finally:
        CTX.reset(token)
    inner_rec, outer_rec = rec.records
    assert (inner_rec["name"], outer_rec["name"]) == ("inner", "outer")
    assert inner_rec["parent"] == outer_rec["span"] and outer_rec["parent"] is None
    assert outer_rec["attrs"] == {"ctx": "call-7", "r": 4}
    assert inner_rec["attrs"] == {"ctx": "call-7"}
    assert self_times(rec.records) == pytest.approx([1.0, 2.0])
    # The spans file is a trace the program's own reader accepts.
    path = tmp_path / "spans.jsonl"
    rec.write_jsonl(str(path))
    assert list(read_trace(str(path))) == rec.records


def test_recorder_closes_a_span_when_the_call_raises():
    rec = SpanRecorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap("boom", boom)()
    assert rec.records[0]["attrs"] == {"error": "KeyError"}
    assert rec.records[0]["duration_s"] >= 0


def test_session_context_stays_with_its_asyncio_task():
    import asyncio

    rec = SpanRecorder()
    work = rec.wrap("work", lambda: None)

    async def session(sid):
        CTX.set(sid)
        for _ in range(3):
            work()
            await asyncio.sleep(0)  # let the other session run in between

    async def main():
        await asyncio.gather(session("s1"), session("s2"))

    asyncio.run(main())
    assert [r["attrs"]["ctx"] for r in rec.records] == ["s1", "s2"] * 3
    assert CTX.get() is None


# -- failure accounting ------------------------------------------------------


def test_tally_counts_failures_against_everything_attempted():
    tally = Tally()
    tally.ok(90)
    tally.record("admission_refused", attempted=10, failed=2)
    tally.fail("mismatch")
    assert tally.attempted == 101
    assert tally.failed == 3
    assert tally.failures == {"admission_refused": 2, "mismatch": 1}
    assert tally.failed_frac == pytest.approx(3 / 101)


def test_tally_ignores_zero_failures_and_rejects_nonsense():
    tally = Tally()
    tally.fail("none", 0)
    tally.record("checks", attempted=5, failed=0)
    assert tally.failures == {} and tally.failed_frac == 0.0
    assert Tally().failed_frac == 0.0
    with pytest.raises(ValueError):
        tally.record("bad", attempted=1, failed=2)
    with pytest.raises(ValueError):
        tally.ok(-1)


# -- wrappers restore the originals -------------------------------------------


class _Target:
    def method(self):
        return "original"


def test_patches_restore_module_globals_and_class_attributes():
    module = types.ModuleType("fake")
    module.func = lambda: "original"
    original_func = module.func
    original_method = _Target.__dict__["method"]
    rec = SpanRecorder()
    with patch_all(
        [
            (module, "func", lambda f: rec.wrap("func", f)),
            (_Target, "method", lambda f: rec.wrap("method", f)),
        ]
    ):
        assert module.func is not original_func
        assert module.func() == "original" and _Target().method() == "original"
        assert [r["name"] for r in rec.records] == ["func", "method"]
    assert module.func is original_func
    assert _Target.__dict__["method"] is original_method


def test_a_failed_patch_undoes_the_ones_before_it():
    module = types.ModuleType("fake")
    module.func = lambda: "original"
    original_func = module.func
    with pytest.raises(AttributeError):
        patch_all([(module, "func", lambda f: None), (module, "missing", lambda f: None)])
    assert module.func is original_func


def test_layer_wrappers_restore_every_program_entry_point():
    pytest.importorskip("numpy")
    from benchkit import layers

    targets = [
        (layers.LandmarkDetector, "detect"),
        (layers.streaming_mod, "frame_mean_luminance"),
        (layers.streaming_mod, "roi_mean_luminance"),
        (layers.streaming_mod.StreamingVerifier, "push"),
        (layers.features_mod, "preprocess_batch"),
        (layers.features_mod, "features_from_signals_batch"),
        (layers.features_mod, "dtw_distance_batch"),
        (layers.LocalOutlierFactor, "fit"),
        (layers.LocalOutlierFactor, "score_samples"),
        (layers.ProtocolGate, "grade"),
        (layers.ProtocolProvisioner, "provision"),
        (layers.loadgen_mod, "build_scripts"),
        (layers.ExecutionEngine, "extract_features_batch"),
        (layers.VerificationServer, "_run_session"),
    ]
    before = [vars(owner)[name] for owner, name in targets]
    patches = layers.install(SpanRecorder())
    during = [vars(owner)[name] for owner, name in targets]
    assert not any(d is b for d, b in zip(during, before))
    patches.close()
    after = [vars(owner)[name] for owner, name in targets]
    assert all(a is b for a, b in zip(after, before))


# -- helper processes ----------------------------------------------------


def test_stop_helper_processes_reaps_the_resource_tracker():
    import os
    from multiprocessing import resource_tracker, shared_memory

    import run

    block = shared_memory.SharedMemory(create=True, size=16)  # starts the tracker
    block.close()
    block.unlink()
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None
    run._stop_helper_processes()
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ChildProcessError):  # already reaped, not a zombie
        os.waitpid(pid, os.WNOHANG)
