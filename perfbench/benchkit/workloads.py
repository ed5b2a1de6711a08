"""The three benchmark workloads, driven through ``repro.api``.

Each workload builds its inputs from the seed (:meth:`setup`), runs one
*pass* over them (:meth:`run_pass`, the timed unit, repeated unchanged
until the run's time is used up) and checks the pass's outputs against
a slower reference path (:meth:`check`, never timed).

* ``service_mixed`` - an open-loop multi-tenant session mix through
  :class:`VerificationServer` under a :class:`VirtualScheduler`.
* ``stream_hd`` - interleaved live calls pushed frame by frame into
  :class:`StreamingVerifier` at 120x160, each push timed on its own.
* ``batch_ragged`` - ragged offline clips through :func:`verify_clips`
  with a fresh two-worker :class:`ExecutionEngine` per pass.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any

import numpy as np

from repro.api import (
    CallStatus,
    ExecutionEngine,
    Instrumentation,
    LivenessDetector,
    ProtocolConfig,
    ServerConfig,
    StreamingVerifier,
    VerificationServer,
    VirtualScheduler,
    WorkloadConfig,
    make_tenant_bank_provider,
    run_workload,
    verify_clips,
)
from repro.service import build_scripts

from .spans import CTX, SpanRecorder
from .stats import Tally
from .synth import CallPlan, FramePainter, clip_pair, dropout_mask

__all__ = ["WORKLOADS", "PassResult", "Workload", "same_outputs"]

_CONDEMNED = frozenset({CallStatus.ATTACKER, CallStatus.REPLAY, CallStatus.STALE})
_CLIP_TICKS = 150  # 15 s at 10 Hz, the detector's clip length
_TICK_S = 0.1


@dataclasses.dataclass
class PassResult:
    """What one timed pass produced."""

    wall_s: float  # the whole pass, benchmark bookkeeping included
    busy_s: float  # the part spent inside the program
    frames: int
    clips: int
    #: Every output of the pass in comparable form; repeated passes
    #: over the same inputs must produce equal signatures.
    signature: Any
    tally: Tally
    push_ms: list[float] = dataclasses.field(default_factory=list)
    verdict_ms: list[float] = dataclasses.field(default_factory=list)
    extra: dict[str, float] = dataclasses.field(default_factory=dict)


def same_outputs(a: Any, b: Any) -> bool:
    """Equality of pass signatures; arrays compare bit for bit."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(same_outputs(x, y) for x, y in zip(a, b))
    return a == b


class Workload:
    name = ""
    why = ""

    def params(self) -> dict[str, Any]:
        raise NotImplementedError

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def run_pass(self, state: Any, rec: SpanRecorder | None = None) -> PassResult:
        raise NotImplementedError

    def traced_pass(self, state: Any, rec: SpanRecorder) -> PassResult:
        """One pass with the layer wrappers installed."""
        return self.run_pass(state, rec)

    def check(self, state: Any, first: PassResult, tally: Tally) -> dict[str, float]:
        """Compare ``first`` with the reference path; count every
        comparison into ``tally``.  Returns extra figures measured on
        the way (e.g. the reference path's wall time)."""
        raise NotImplementedError

    def outcomes(self, state: Any, first: PassResult) -> dict[str, float]:
        raise NotImplementedError


def _rates(
    roles: list[str], statuses: list[CallStatus]
) -> dict[str, float]:
    attack = [s for r, s in zip(roles, statuses) if r == "attack"]
    genuine = [s for r, s in zip(roles, statuses) if r != "attack"]
    return {
        "far": sum(s is CallStatus.LIVE for s in attack) / max(len(attack), 1),
        "frr": sum(s in _CONDEMNED for s in genuine) / max(len(genuine), 1),
        "inconclusive_frac": sum(
            s in (CallStatus.INCONCLUSIVE, CallStatus.GATHERING) for s in statuses
        )
        / max(len(statuses), 1),
    }


# ----------------------------------------------------------------------
# service_mixed
# ----------------------------------------------------------------------


class ServiceMixed(Workload):
    name = "service_mixed"
    why = (
        "every layer works: tenant-bank fits (write path) run beside "
        "per-clip scoring (read path) under admission, queues and protocol"
    )

    def params(self) -> dict[str, Any]:
        return {
            "sessions": 100,
            "tenants": 40,
            "small_tenant_fraction": 0.2,
            "tenant_cache_capacity": 16,
            "arrival_rate_hz": 4.0,
            "attack_fraction": 0.3,
            "chaos_fraction": 0.2,
            "abandon_fraction": 0.05,
            "burst_fraction": 0.05,
            "protocol_fraction": 0.25,
            "protocol_replay_fraction": 0.3,
            "protocol_stale_fraction": 0.3,
            "frame": [24, 24],
            "max_sessions": 256,
            "scheduler": "virtual",
        }

    def setup(self, seed: int) -> dict[str, Any]:
        p = self.params()
        workload = WorkloadConfig(
            sessions=p["sessions"],
            tenants=p["tenants"],
            arrival_rate_hz=p["arrival_rate_hz"],
            attack_fraction=p["attack_fraction"],
            chaos_fraction=p["chaos_fraction"],
            abandon_fraction=p["abandon_fraction"],
            burst_fraction=p["burst_fraction"],
            small_tenant_fraction=p["small_tenant_fraction"],
            protocol_fraction=p["protocol_fraction"],
            protocol_replay_fraction=p["protocol_replay_fraction"],
            protocol_stale_fraction=p["protocol_stale_fraction"],
            frame_height=p["frame"][0],
            frame_width=p["frame"][1],
            seed=seed,
        )
        server = ServerConfig(
            max_sessions=p["max_sessions"],
            admission_queue_depth=16,
            tenant_cache_capacity=p["tenant_cache_capacity"],
            protocol=ProtocolConfig(),
        )
        roles = {s.session_id: s.role for s in build_scripts(workload)}
        return {"workload": workload, "server": server, "roles": roles}

    def _run(self, state, serial: bool, rec: SpanRecorder | None = None):
        scheduler = VirtualScheduler()
        instr = Instrumentation.enabled(clock=scheduler.clock)
        provider = make_tenant_bank_provider(state["workload"])
        if rec is not None:
            provider = rec.wrap("tenants.bank", provider)
        server = VerificationServer(
            scheduler, provider, state["server"], instrumentation=instr
        )
        t0 = time.perf_counter()
        result = run_workload(
            scheduler, server, state["workload"], serial=serial, wall_guard_s=170.0
        )
        wall = time.perf_counter() - t0
        return result, instr.snapshot(), server, wall

    def run_pass(self, state, rec=None) -> PassResult:
        result, snapshot, server, wall = self._run(state, serial=False, rec=rec)
        tally = Tally()
        tally.record("admission_refused", result.submitted, result.rejected)
        failures = int(snapshot.counter_value("service_task_failures_total", stage="tenant_fit"))
        tally.fail("task_failure", failures)
        frames = int(snapshot.counter_value("service_frames_processed_total"))
        dropped = int(snapshot.counter_value("service_frames_dropped_total"))
        cache = {
            event: snapshot.counter_value("service_tenant_cache_total", event=event)
            for event in ("hit", "miss", "eviction")
        }
        lookups = cache["hit"] + cache["miss"]
        return PassResult(
            wall_s=wall,
            busy_s=wall,
            frames=frames,
            clips=sum(o.attempts for o in result.outcomes),
            signature=(result.outcomes, _determinism_checked(snapshot)),
            tally=tally,
            extra={
                "service.rejected": result.rejected,
                "service.frames_dropped": dropped,
                "service.drop_ratio": dropped / max(frames + dropped, 1),
                "service.peak_active": server.peak_active,
                "tenants.misses": cache["miss"],
                "tenants.evictions": cache["eviction"],
                "tenants.hit_ratio": cache["hit"] / max(lookups, 1),
            },
        )

    def check(self, state, first: PassResult, tally: Tally) -> dict[str, float]:
        serial, snapshot, server, wall = self._run(state, serial=True)
        outcomes, checked = first.signature
        same = sum(a == b for a, b in zip(outcomes, serial.outcomes))
        pairs = max(len(outcomes), len(serial.outcomes))
        tally.record("serial_replay_outcome", pairs, pairs - same)
        tally.record(
            "serial_replay_metrics", 1, int(checked != _determinism_checked(snapshot))
        )
        tally.record("serial_replay_peak", 1, int(server.peak_active != 1))
        return {"serial_replay_wall_s": wall}

    def outcomes(self, state, first: PassResult) -> dict[str, float]:
        outcomes = first.signature[0]
        roles = [state["roles"][o.session_id] for o in outcomes]
        return _rates(roles, [o.status for o in outcomes])


#: Series that record *when* work happened relative to other sessions
#: rather than what a session did.  Tenant-cache hits, misses and
#: evictions depend on which tenants hold leases at the same moment, so
#: a concurrent run and its one-at-a-time replay differ in them by
#: design - the same reason the server keeps ``peak_active`` outside
#: its registry.  Every other series must match exactly.
_ORDER_DEPENDENT_SERIES = frozenset({"service_tenant_cache_total"})


def _determinism_checked(snapshot) -> tuple:
    return tuple(s for s in snapshot.series if s.name not in _ORDER_DEPENDENT_SERIES)


# ----------------------------------------------------------------------
# stream_hd
# ----------------------------------------------------------------------


class StreamHD(Workload):
    name = "stream_hd"
    why = (
        "the only per-push timing: per-frame cost at 120x160 (vision heavy) "
        "and clip-end-to-verdict latency"
    )

    def params(self) -> dict[str, Any]:
        return {
            "calls": 40,
            "clips_per_call": [1, 4],
            "attack_fraction": 0.3,
            "chaos_fraction": 0.2,
            "frame": [120, 160],
            "bank_clips": 24,
            "start_spread_ticks": 600,
            "replay_check_fraction": 0.5,
        }

    def setup(self, seed: int) -> dict[str, Any]:
        p = self.params()
        rng = np.random.default_rng([seed, 0x57])
        bank = [clip_pair(rng, _CLIP_TICKS, attack=False) for _ in range(p["bank_clips"])]
        detector = LivenessDetector().fit_from_clips(bank)
        # Exact role, chaos and clip-count mixes (shuffled per seed), so
        # every seed asks for the same amount of work.
        n = p["calls"]
        attack = rng.permutation(n) < round(n * p["attack_fraction"])
        chaos = rng.permutation(n) < round(n * p["chaos_fraction"])
        lo, hi = p["clips_per_call"]
        clip_counts = rng.permutation(np.resize(np.arange(lo, hi + 1), n))
        plans = []
        for i in range(n):
            role = "attack" if attack[i] else "genuine"
            clips = int(clip_counts[i])
            parts = [clip_pair(rng, _CLIP_TICKS, role == "attack") for _ in range(clips)]
            ticks = clips * _CLIP_TICKS
            chaotic = bool(chaos[i])
            plans.append(
                CallPlan(
                    role=role,
                    start_tick=int(rng.integers(0, p["start_spread_ticks"])),
                    transmitted=np.concatenate([t for t, _ in parts]),
                    received=np.concatenate([r for _, r in parts]),
                    dropout=dropout_mask(rng, ticks) if chaotic else np.zeros(ticks, bool),
                )
            )
        # Global push order: tick by tick, every call live at that tick
        # pushes its next frame, in call order.
        order = sorted(
            (plan.start_tick + k, ci, k)
            for ci, plan in enumerate(plans)
            for k in range(plan.ticks)
        )
        replay = rng.permutation(n)[: max(1, round(n * p["replay_check_fraction"]))]
        return {
            "detector": detector,
            "plans": plans,
            "replay_calls": sorted(int(i) for i in replay),
            "order": [(ci, k) for _, ci, k in order],
            "painter": FramePainter(*p["frame"]),
        }

    @staticmethod
    def _frames(painter: FramePainter, plan: CallPlan, k: int):
        t = k * _TICK_S
        return (
            painter.transmitted(plan.transmitted[k], t),
            painter.received(plan.received[k], t, face=not plan.dropout[k]),
        )

    @staticmethod
    def _call_signature(verifier: StreamingVerifier) -> tuple:
        attempts = tuple(
            (a.result.lof_score, a.verdict.value) for a in verifier.gated_attempts
        )
        return attempts, verifier.state.status

    def run_pass(self, state, rec=None) -> PassResult:
        plans: list[CallPlan] = state["plans"]
        painter: FramePainter = state["painter"]
        verifiers = [StreamingVerifier(state["detector"]) for _ in plans]
        push_ms: list[float] = []
        verdict_ms: list[float] = []
        clock = time.perf_counter
        t_pass = clock()
        for ci, k in state["order"]:
            plan = plans[ci]
            transmitted, received = self._frames(painter, plan, k)
            if rec is not None:
                CTX.set(f"call{ci}")
            t0 = clock()
            attempt = verifiers[ci].push(transmitted, received)
            dt = (clock() - t0) * 1e3
            (push_ms if attempt is None else verdict_ms).append(dt)
        wall = clock() - t_pass
        if rec is not None:
            CTX.set(None)
        tally = Tally()
        tally.ok(len(push_ms) + len(verdict_ms))
        return PassResult(
            wall_s=wall,
            busy_s=(sum(push_ms) + sum(verdict_ms)) / 1e3,
            frames=len(push_ms) + len(verdict_ms),
            clips=len(verdict_ms),
            signature=tuple(self._call_signature(v) for v in verifiers),
            tally=tally,
            push_ms=push_ms,
            verdict_ms=verdict_ms,
        )

    def check(self, state, first: PassResult, tally: Tally) -> dict[str, float]:
        """Calls replayed alone on a fresh verifier must reproduce their
        interleaved verdicts and LOF scores exactly.  A seeded half of
        the calls is replayed: a replay costs as much as the pass."""
        painter = state["painter"]
        replayed = state["replay_calls"]
        same = 0
        t0 = time.perf_counter()
        for ci in replayed:
            plan = state["plans"][ci]
            verifier = StreamingVerifier(state["detector"])
            for k in range(plan.ticks):
                verifier.push(*self._frames(painter, plan, k))
            same += self._call_signature(verifier) == first.signature[ci]
        tally.record("solo_replay", len(replayed), len(replayed) - same)
        return {"solo_replay_wall_s": time.perf_counter() - t0, "solo_replay_calls": len(replayed)}

    def outcomes(self, state, first: PassResult) -> dict[str, float]:
        roles = [plan.role for plan in state["plans"]]
        return _rates(roles, [status for _, status in first.signature])


# ----------------------------------------------------------------------
# batch_ragged
# ----------------------------------------------------------------------


class BatchRagged(Workload):
    name = "batch_ragged"
    why = (
        "no vision or service: DTW over many (n, m) shape groups from ragged "
        "clips, engine cache hits from byte-identical repeats, pool start-up"
    )

    def params(self) -> dict[str, Any]:
        return {
            "clips": 480,
            "length_range": [120, 180],
            "attack_fraction": 0.3,
            "repeat_fraction": 0.25,
            "bank_clips": 40,
            "jobs": 2,
            "per_clip_check_fraction": 0.34,
        }

    def setup(self, seed: int) -> dict[str, Any]:
        p = self.params()
        rng = np.random.default_rng([seed, 0xBA7C])
        lo, hi = p["length_range"]
        bank = [
            clip_pair(rng, int(rng.integers(lo, hi + 1)), attack=False)
            for _ in range(p["bank_clips"])
        ]
        detector = LivenessDetector().fit_from_clips(bank)
        distinct = p["clips"] - int(round(p["clips"] * p["repeat_fraction"]))
        pairs, roles, origin = [], [], []
        for i in range(distinct):
            attack = bool(rng.random() < p["attack_fraction"])
            pairs.append(clip_pair(rng, int(rng.integers(lo, hi + 1)), attack))
            roles.append("attack" if attack else "genuine")
            origin.append(i)
        for _ in range(p["clips"] - distinct):
            j = int(rng.integers(0, distinct))
            pairs.append((pairs[j][0].copy(), pairs[j][1].copy()))
            roles.append(roles[j])
            origin.append(j)
        # Repeats are spread through the batch, not appended at its end.
        perm = rng.permutation(len(pairs))
        # The per-clip reference runs one DTW program per clip (about 10x
        # the batched cost), so it covers a seeded third of the distinct
        # clips, each together with all of its repeats.
        checked = rng.permutation(distinct)[: round(distinct * p["per_clip_check_fraction"])]
        return {
            "jobs": p["jobs"],
            "per_clip_origins": {int(i) for i in checked},
            "detector": detector,
            "pairs": [pairs[i] for i in perm],
            "roles": [roles[i] for i in perm],
            "origin": [origin[i] for i in perm],
        }

    def run_pass(self, state, rec=None) -> PassResult:
        pairs = state["pairs"]
        t0 = time.perf_counter()
        with ExecutionEngine(jobs=state["jobs"]) as engine:
            results = verify_clips(pairs, state["detector"], engine=engine)
        wall = time.perf_counter() - t0
        tally = Tally()
        tally.ok(len(pairs))
        lookups = engine.cache.hits + engine.cache.misses
        return PassResult(
            wall_s=wall,
            busy_s=wall,
            frames=sum(int(t.size) for t, _ in pairs),
            clips=len(results),
            signature=_result_arrays(results),
            tally=tally,
            extra={"engine.cache_hit_ratio": engine.cache.hits / max(lookups, 1)},
        )

    def traced_pass(self, state, rec) -> PassResult:
        """The engine pass plus the inline path: pool workers' spans never
        reach this process, so the inline pass is where preprocessing,
        matching and DTW are seen."""
        result = self.run_pass(state, rec)
        self.inline(state)
        return result

    def inline(self, state):
        """The reference batch path: no engine, no pool, no cache."""
        t0 = time.perf_counter()
        results = verify_clips(state["pairs"], state["detector"])
        return results, time.perf_counter() - t0

    def check(self, state, first: PassResult, tally: Tally) -> dict[str, float]:
        inline, inline_s = self.inline(state)
        scores, features = first.signature
        ref_scores, ref_features = _result_arrays(inline)
        n = len(state["pairs"])
        same = np.sum(_bitwise_equal_rows(scores, ref_scores, features, ref_features))
        tally.record("engine_vs_inline", n, n - int(same))
        # Per clip: each checked distinct clip once; its repeats must
        # equal that per-clip result too.
        detector = state["detector"]
        solo: dict[int, tuple[float, np.ndarray]] = {}
        rows = [i for i, o in enumerate(state["origin"]) if o in state["per_clip_origins"]]
        for i in rows:
            origin = state["origin"][i]
            if origin not in solo:
                r = detector.verify_clip(*state["pairs"][i])
                solo[origin] = (r.lof_score, r.features.as_array())
        solo_scores = np.array([solo[state["origin"][i]][0] for i in rows])
        solo_features = np.stack([solo[state["origin"][i]][1] for i in rows])
        same = np.sum(
            _bitwise_equal_rows(scores[rows], solo_scores, features[rows], solo_features)
        )
        tally.record("engine_vs_per_clip", len(rows), len(rows) - int(same))
        return {"inline_wall_s": inline_s}

    def outcomes(self, state, first: PassResult) -> dict[str, float]:
        scores = first.signature[0]
        tau = state["detector"].config.lof_threshold
        statuses = [
            CallStatus.LIVE if s <= tau else CallStatus.ATTACKER for s in scores
        ]
        return _rates(state["roles"], statuses)


def _result_arrays(results) -> tuple[np.ndarray, np.ndarray]:
    scores = np.array([r.lof_score for r in results], dtype=np.float64)
    features = np.stack([r.features.as_array() for r in results])
    return scores, features


def _bitwise_equal_rows(a_scores, b_scores, a_features, b_features) -> np.ndarray:
    """Per-row bit-for-bit equality (NaN equal to NaN of the same bits)."""
    same_score = a_scores.view(np.uint64) == b_scores.view(np.uint64)
    same_features = np.all(a_features.view(np.uint64) == b_features.view(np.uint64), axis=1)
    return same_score & same_features


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (ServiceMixed(), StreamHD(), BatchRagged())
}
