"""Per-layer tracing of the program, from the benchmark's own files.

:func:`install` wraps each layer's public entry point where its caller
looks it up and returns the :class:`~contextlib.ExitStack` that undoes
it.  :func:`layer_metrics` turns the recorded span records into the
per-layer metrics.  ``*_busy_s`` figures are self times (a span's duration minus
its children), except ``tenants.fit_busy_s``, which is inclusive: it is
the whole cost of bringing a tenant's bank into the cache.

Layer -> span names:

========================  ==============================================
vision.detect             ``LandmarkDetector.detect``
luminance.frame / .roi    ``frame_mean_luminance`` / ``roi_mean_luminance``
                          as the streaming verifier looks them up
streaming.push            ``StreamingVerifier.push``
preprocessing             ``preprocess_batch`` as feature extraction calls it
features.match            ``features_from_signals_batch`` (matching, trends)
dtw                       ``dtw_distance_batch`` as the matcher calls it
lof.fit / lof.score       ``LocalOutlierFactor.fit`` / ``.score_samples``
tenants.bank              the server's bank provider (enrollment store)
protocol.grade            ``ProtocolGate.grade``
protocol.provision        ``ProtocolProvisioner.provision``
loadgen.build_scripts     ``build_scripts`` as ``run_workload`` calls it
engine.extract            ``ExecutionEngine.extract_features_batch``
========================  ==============================================
"""

from __future__ import annotations

import contextlib
import functools
from collections import defaultdict
from collections.abc import Sequence

import repro.core.features as features_mod
import repro.core.streaming as streaming_mod
import repro.service.loadgen as loadgen_mod
from repro.core.lof import LocalOutlierFactor
from repro.engine import ExecutionEngine
from repro.protocol.gate import ProtocolGate
from repro.protocol.provision import ProtocolProvisioner
from repro.service.server import VerificationServer
from repro.vision.landmarks import LandmarkDetector

from .spans import CTX, SpanRecorder, patch_all, self_times

__all__ = ["PER_LAYER", "install", "layer_metrics"]

#: Every per-layer metric: name -> (unit, better).
PER_LAYER: dict[str, tuple[str, str]] = {
    "vision.detect_calls": ("count", "lower"),
    "vision.detect_busy_s": ("s", "lower"),
    "vision.detect_us_per_call": ("us", "lower"),
    "vision.hit_ratio": ("ratio", "higher"),
    "luminance.calls": ("count", "lower"),
    "luminance.busy_s": ("s", "lower"),
    "streaming.push_busy_s": ("s", "lower"),
    "streaming.attempts": ("count", "higher"),
    "streaming.conclusive_ratio": ("ratio", "higher"),
    "preprocessing.calls": ("count", "lower"),
    "preprocessing.signals": ("count", "lower"),
    "preprocessing.busy_s": ("s", "lower"),
    "features.clips": ("count", "lower"),
    "features.match_self_s": ("s", "lower"),
    "dtw.calls": ("count", "lower"),
    "dtw.pairs": ("count", "lower"),
    "dtw.shape_groups": ("count", "lower"),
    "dtw.cells": ("count", "lower"),
    "dtw.busy_s": ("s", "lower"),
    "dtw.ns_per_cell": ("ns", "lower"),
    "lof.fit_calls": ("count", "lower"),
    "lof.fit_busy_s": ("s", "lower"),
    "lof.score_calls": ("count", "lower"),
    "lof.score_busy_s": ("s", "lower"),
    "tenants.hit_ratio": ("ratio", "higher"),
    "tenants.misses": ("count", "lower"),
    "tenants.evictions": ("count", "lower"),
    "tenants.fit_busy_s": ("s", "lower"),
    "protocol.grade_calls": ("count", "lower"),
    "protocol.grade_busy_s": ("s", "lower"),
    "protocol.provision_busy_s": ("s", "lower"),
    "protocol.bound": ("count", "higher"),
    "protocol.replay": ("count", "higher"),
    "protocol.stale": ("count", "higher"),
    "service.rejected": ("count", "lower"),
    "service.frames_dropped": ("count", "lower"),
    "service.drop_ratio": ("ratio", "lower"),
    "service.peak_active": ("count", "lower"),
    "loadgen.build_scripts_s": ("s", "lower"),
    "service.other_s": ("s", "lower"),
    "engine.cache_hit_ratio": ("ratio", "higher"),
    "engine.busy_s": ("s", "lower"),
    "engine.pool_speedup": ("x", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _session_ctx(run_session):
    """``VerificationServer._run_session`` tagging its asyncio task with
    the session id, so every span the session causes carries it."""

    @functools.wraps(run_session)
    async def wrapper(self, handle):
        CTX.set(handle.session_id)
        return await run_session(self, handle)

    return wrapper


def _dtw_note(args, kwargs, result):
    xs, ys = args[0], args[1]
    shapes = [(len(x), len(y)) for x, y in zip(xs, ys)]
    return {
        "pairs": len(shapes),
        "groups": len(set(shapes)),
        "cells": sum(n * m for n, m in shapes),
    }


def install(rec: SpanRecorder) -> contextlib.ExitStack:
    """Wrap every layer entry point; closing the returned stack restores
    the originals.

    Spans carry the call or session id in ``attrs["ctx"]``: the session
    id in ``service_mixed`` (set per session task, or read off the
    provisioning call), the call index in ``stream_hd`` (set before each
    push by the workload).
    """
    w = rec.wrap
    return patch_all(
        [
            (LandmarkDetector, "detect",
             lambda f: w("vision.detect", f, note=lambda a, k, r: {"hit": r is not None})),
            (streaming_mod, "frame_mean_luminance", lambda f: w("luminance.frame", f)),
            (streaming_mod, "roi_mean_luminance", lambda f: w("luminance.roi", f)),
            (streaming_mod.StreamingVerifier, "push",
             lambda f: w("streaming.push", f,
                         note=lambda a, k, r: None if r is None
                         else {"attempt": True, "conclusive": r.conclusive})),
            (features_mod, "preprocess_batch",
             lambda f: w("preprocessing", f, note=lambda a, k, r: {"signals": len(a[0])})),
            (features_mod, "features_from_signals_batch",
             lambda f: w("features.match", f, note=lambda a, k, r: {"clips": len(r)})),
            (features_mod, "dtw_distance_batch", lambda f: w("dtw", f, note=_dtw_note)),
            (LocalOutlierFactor, "fit", lambda f: w("lof.fit", f)),
            (LocalOutlierFactor, "score_samples", lambda f: w("lof.score", f)),
            (ProtocolGate, "grade",
             lambda f: w("protocol.grade", f,
                         note=lambda a, k, r: {"outcome": r.outcome.value})),
            # Provisioned at submit, before the session's task exists.
            (ProtocolProvisioner, "provision",
             lambda f: w("protocol.provision", f, note=lambda a, k, r: {"ctx": a[2]})),
            (loadgen_mod, "build_scripts", lambda f: w("loadgen.build_scripts", f)),
            (ExecutionEngine, "extract_features_batch", lambda f: w("engine.extract", f)),
            (VerificationServer, "_run_session", _session_ctx),
        ]
    )


def layer_metrics(
    records: Sequence[dict], wall_s: float, passes: int
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics per pass, plus the self-time table by span name.

    ``wall_s`` is the traced wall time of all ``passes`` together;
    ``service.other_s`` is the part of it no layer span covers.
    """
    own = self_times(records)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    attr_sum: dict[tuple[str, str], float] = defaultdict(float)
    for record, s in zip(records, own):
        name = record["name"]
        self_s[name] += s
        total_s[name] += record["duration_s"]
        calls[name] += 1
        for key, value in record["attrs"].items():
            if key == "ctx":
                continue
            if isinstance(value, (bool, int, float)):
                attr_sum[(name, key)] += value
            else:
                attr_sum[(name, f"{key}={value}")] += 1
    per = 1.0 / max(passes, 1)
    detect_calls = calls["vision.detect"]
    attempts = attr_sum[("streaming.push", "attempt")]
    cells = attr_sum[("dtw", "cells")]
    out = {
        "vision.detect_calls": detect_calls * per,
        "vision.detect_busy_s": self_s["vision.detect"] * per,
        "vision.detect_us_per_call": 1e6 * self_s["vision.detect"] / max(detect_calls, 1),
        "vision.hit_ratio": attr_sum[("vision.detect", "hit")] / max(detect_calls, 1),
        "luminance.calls": (calls["luminance.frame"] + calls["luminance.roi"]) * per,
        "luminance.busy_s": (self_s["luminance.frame"] + self_s["luminance.roi"]) * per,
        "streaming.push_busy_s": self_s["streaming.push"] * per,
        "streaming.attempts": attempts * per,
        "streaming.conclusive_ratio": attr_sum[("streaming.push", "conclusive")]
        / max(attempts, 1),
        "preprocessing.calls": calls["preprocessing"] * per,
        "preprocessing.signals": attr_sum[("preprocessing", "signals")] * per,
        "preprocessing.busy_s": self_s["preprocessing"] * per,
        "features.clips": attr_sum[("features.match", "clips")] * per,
        "features.match_self_s": self_s["features.match"] * per,
        "dtw.calls": calls["dtw"] * per,
        "dtw.pairs": attr_sum[("dtw", "pairs")] * per,
        "dtw.shape_groups": attr_sum[("dtw", "groups")] * per,
        "dtw.cells": cells * per,
        "dtw.busy_s": self_s["dtw"] * per,
        "dtw.ns_per_cell": 1e9 * self_s["dtw"] / max(cells, 1),
        "lof.fit_calls": calls["lof.fit"] * per,
        "lof.fit_busy_s": self_s["lof.fit"] * per,
        "lof.score_calls": calls["lof.score"] * per,
        "lof.score_busy_s": self_s["lof.score"] * per,
        # Only the tenant cache fits banks inside a timed pass.
        "tenants.fit_busy_s": (total_s["tenants.bank"] + total_s["lof.fit"]) * per,
        "protocol.grade_calls": calls["protocol.grade"] * per,
        "protocol.grade_busy_s": self_s["protocol.grade"] * per,
        "protocol.provision_busy_s": self_s["protocol.provision"] * per,
        "protocol.bound": attr_sum[("protocol.grade", "outcome=bound")] * per,
        "protocol.replay": attr_sum[("protocol.grade", "outcome=replay")] * per,
        "protocol.stale": attr_sum[("protocol.grade", "outcome=stale")] * per,
        "loadgen.build_scripts_s": self_s["loadgen.build_scripts"] * per,
        "engine.busy_s": self_s["engine.extract"] * per,
        "service.other_s": (wall_s - sum(own)) * per,
    }
    table = {name: self_s[name] * per for name in sorted(self_s)}
    return out, table
