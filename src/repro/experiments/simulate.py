"""Session builders: one call = one simulated chat recording.

Every simulated call is a :class:`SessionSpec` run by
:func:`simulate_session`, which assembles a verifier, a prover (genuine
or one of the attackers), the network path and the session loop from a
:class:`~repro.experiments.profiles.UserProfile` and an
:class:`~repro.experiments.profiles.Environment`, runs the clock, and
hands back the :class:`~repro.chat.session.SessionRecord` the detector
consumes.  A spec may also carry a fault profile (the robustness sweep)
and a protocol gate (nonce-derived challenges, handshake and ack).  All
randomness is derived from the spec's single ``seed``, so every session
is exactly reproducible.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from ..engine import ExecutionEngine

from ..attack.adaptive import AdaptiveLuminanceForger
from ..attack.reenactment import ReenactmentAttacker
from ..attack.replay import ReplayAttacker
from ..attack.replayschedule import ReplayScheduleAttacker, StaleRelayAttacker
from ..attack.target import TargetRecording
from ..chat.endpoints import (
    DerivedMeteringBehavior,
    GenuineProverEndpoint,
    VerifierEndpoint,
)
from ..chat.session import SessionRecord, VideoChatSession
from ..core.seeding import spawn_seeds
from ..faults import FaultSpec, apply_faults_to_record, build_faulty_links
from ..net.channel import NetworkChannel
from ..net.jitterbuffer import JitterBuffer
from ..net.link import MediaLink
from ..obs.instrument import Instrumentation
from ..protocol.gate import ProtocolGate
from ..protocol.nonce import ack_tag, handshake_payload
from ..screen.illumination import AmbientLight
from ..vision.expression import ExpressionTrack
from ..vision.face_model import make_face
from .profiles import DEFAULT_ENVIRONMENT, Environment, UserProfile

__all__ = [
    "build_verifier",
    "build_genuine_prover",
    "build_links",
    "simulate_session",
    "simulate_genuine_session",
    "simulate_attack_session",
    "simulate_adaptive_attack_session",
    "simulate_replay_attack_session",
    "simulate_session_batch",
    "SessionSpec",
    "default_user",
]


def default_user(seed: int = 7) -> UserProfile:
    """A single stand-alone volunteer (for quickstarts and tests)."""
    return UserProfile(
        name="default_user",
        face=make_face("default_user", tone="light", rng=np.random.default_rng(seed)),
        seed=seed,
    )


def build_verifier(env: Environment, seed: int) -> VerifierEndpoint:
    """Alice: her own face, scene, ambient light and metering behaviour."""
    s_face, s_expr, s_amb, s_rend = spawn_seeds(seed, 4)
    face = make_face("verifier", tone="tan", rng=np.random.default_rng(s_face))
    expression = ExpressionTrack(seed=s_expr, movement_amplitude=0.015)
    ambient = AmbientLight(
        base_lux=env.verifier_ambient_lux,
        drift_lux=2.0,
        rng=np.random.default_rng(s_amb),
    )
    height, width = env.verifier_frame_size
    return VerifierEndpoint(
        face=face,
        expression=expression,
        ambient=ambient,
        frame_size=(height, width),
        seed=s_rend,
    )


def build_genuine_prover(
    user: UserProfile,
    env: Environment,
    seed: int,
) -> GenuineProverEndpoint:
    """Bob when genuine: real face, real screen reflection."""
    s_expr, s_amb, s_rend, s_dist = spawn_seeds(seed, 4)
    expression = ExpressionTrack(
        seed=s_expr,
        movement_amplitude=user.movement_amplitude,
        blink_rate_hz=user.blink_rate_hz,
        talking=user.talking,
    )
    # The user does not sit at exactly the same spot every session.
    distance = env.viewing_distance_m * float(
        np.random.default_rng(s_dist).uniform(0.9, 1.15)
    )
    drift_rng = np.random.default_rng(s_amb)
    ambient = AmbientLight(
        base_lux=env.prover_ambient_lux,
        drift_lux=float(drift_rng.uniform(1.5, 4.0)),
        drift_period_s=float(drift_rng.uniform(6.0, 18.0)),
        event_rate_hz=env.prover_ambient_event_rate_hz,
        event_lux_range=(6.0, 18.0),
        rng=np.random.default_rng(s_amb + 1),
    )
    return GenuineProverEndpoint(
        face=user.face,
        expression=expression,
        ambient=ambient,
        screen=env.screen,
        viewing_distance_m=distance,
        frame_size=env.frame_size,
        seed=s_rend,
    )


def _playout_delay(base_delay_s: float, jitter_s: float, env: Environment) -> float:
    """Playout deadline for one link.

    Real jitter buffers adapt their deadline to the measured path: a
    deadline below the propagation delay would starve playout entirely
    (every frame 'late').  Keep the configured deadline when it already
    covers the path; otherwise stretch to delay + de-jitter margin.
    """
    return max(env.playout_delay_s, base_delay_s + 2.0 * jitter_s + 0.02)


def build_links(
    env: Environment,
    seed: int,
    instrumentation: Instrumentation | None = None,
) -> tuple[MediaLink, MediaLink]:
    """The two directions of the network path."""
    s_up, s_down = spawn_seeds(seed, 2)
    uplink = MediaLink(
        channel=NetworkChannel(
            base_delay_s=env.uplink_delay_s,
            jitter_s=env.jitter_s,
            loss_rate=env.loss_rate,
            seed=s_up,
            instrumentation=instrumentation,
        ),
        jitter_buffer=JitterBuffer(
            playout_delay_s=_playout_delay(env.uplink_delay_s, env.jitter_s, env)
        ),
    )
    downlink = MediaLink(
        channel=NetworkChannel(
            base_delay_s=env.downlink_delay_s,
            jitter_s=env.jitter_s,
            loss_rate=env.loss_rate,
            seed=s_down,
            instrumentation=instrumentation,
        ),
        jitter_buffer=JitterBuffer(
            playout_delay_s=_playout_delay(env.downlink_delay_s, env.jitter_s, env)
        ),
    )
    return uplink, downlink


#: Simulated time before recording starts (the session's warm-up).
#: Derived challenge schedules and replayed footage shift by it.
_WARMUP_S = 2.0


@dataclasses.dataclass(frozen=True)
class SessionSpec:
    """One session to simulate, as picklable engine-task coordinates.

    ``kind`` selects the prover (see :data:`_PROVERS`): ``"genuine"``,
    ``"attack"`` (reenactment), ``"adaptive"`` (requires
    ``processing_delay_s``), ``"replay"`` (media replay), and the two
    protocol attackers ``"schedule_replay"`` (plays back footage
    answering ``prior_gate``'s schedule, or ``gate``'s when there is no
    prior) and ``"stale_relay"`` (a forger too slow for the freshness
    window), which both require ``gate``.  ``artifact_level`` is the
    reenactment pipeline's synthesis noise; genuine and media-replay
    provers ignore it.

    ``faults`` rides a seeded fault schedule on both links and replays
    its vision faults over the recording.  ``gate`` makes the verifier
    meter the gate's nonce-derived challenges and carry its handshake;
    a genuine prover then answers with the ack tag.  The seed fully
    determines the session, so a spec list run through a pool is
    bit-identical to a serial loop over :func:`simulate_session`.
    """

    kind: str
    seed: int
    duration_s: float = 15.0
    processing_delay_s: float | None = None
    artifact_level: float = 0.012
    faults: FaultSpec | None = None
    gate: ProtocolGate | None = None
    prior_gate: ProtocolGate | None = None

    def __post_init__(self) -> None:
        if self.kind not in _PROVERS:
            raise ValueError(
                f"unknown session kind {self.kind!r} (expected one of {tuple(_PROVERS)})"
            )
        if self.kind == "adaptive" and self.processing_delay_s is None:
            raise ValueError("adaptive sessions need processing_delay_s")
        if self.kind in ("schedule_replay", "stale_relay") and self.gate is None:
            raise ValueError(f"{self.kind} sessions need a protocol gate")


def _clips(spec: SessionSpec) -> int:
    """Clips (derived schedules) a gated session spans."""
    return math.ceil(spec.duration_s / spec.gate.config.clip_duration_s)


def _target_for(user: UserProfile, seed: int) -> TargetRecording:
    """Victim footage of the impersonated user."""
    return TargetRecording(victim=user.face, seed=seed)


def _genuine(spec, user, env, s_prover):
    prover = build_genuine_prover(user, env, s_prover)
    if spec.gate is not None:
        key = spec.gate.tenant_key
        prover.on_handshake = lambda payload: ack_tag(
            key, bytes.fromhex(payload["nonce"])
        ).hex()
    return prover


def _reenactment(spec, user, env, s_target, s_attacker):
    return ReenactmentAttacker(
        target=_target_for(user, s_target),
        artifact_level=spec.artifact_level,
        frame_size=env.frame_size,
        seed=s_attacker,
    )


def _adaptive(spec, user, env, s_target, s_attacker):
    return AdaptiveLuminanceForger(
        target=_target_for(user, s_target),
        processing_delay_s=spec.processing_delay_s,
        artifact_level=spec.artifact_level,
        frame_size=env.frame_size,
        seed=s_attacker,
        mimic_screen=env.screen,
        mimic_distance_m=env.viewing_distance_m,
        ambient_lux=env.prover_ambient_lux,
    )


def _replay(spec, user, env, s_target, s_attacker):
    return ReplayAttacker(
        target=_target_for(user, s_target),
        frame_size=env.frame_size,
        seed=s_attacker,
    )


def _schedule_replay(spec, user, env, s_target, s_attacker):
    observed = spec.gate if spec.prior_gate is None else spec.prior_gate
    return ReplayScheduleAttacker(
        target=_target_for(user, s_target),
        observed_schedules=observed.schedules(_clips(spec)),
        start_offset_s=_WARMUP_S,
        artifact_level=spec.artifact_level,
        frame_size=env.frame_size,
        seed=s_attacker,
    )


def _stale_relay(spec, user, env, s_target, s_attacker):
    return StaleRelayAttacker(
        target=_target_for(user, s_target),
        artifact_level=spec.artifact_level,
        frame_size=env.frame_size,
        seed=s_attacker,
        mimic_screen=env.screen,
        mimic_distance_m=env.viewing_distance_m,
        ambient_lux=env.prover_ambient_lux,
    )


#: The one kind -> prover table: (prover seed count, builder).  Genuine
#: provers draw one seed; attackers draw two (victim footage, attacker).
_PROVERS = {
    "genuine": (1, _genuine),
    "attack": (2, _reenactment),
    "adaptive": (2, _adaptive),
    "replay": (2, _replay),
    "schedule_replay": (2, _schedule_replay),
    "stale_relay": (2, _stale_relay),
}


def _session_seeds(spec: SessionSpec) -> tuple[list[int], int, int, int | None]:
    """``(prover seeds, verifier, links, faults)`` seeds of one spec.

    A plain session spawns the prover's seeds plus one session seed,
    which spawns ``(verifier, links)``.  A faulted or gated session
    spawns ``(prover, verifier, links, faults)`` flat, and an attacker
    splits its prover seed into ``(target, attacker)``.  Both layouts
    are part of every recorded output (cached datasets, figures,
    matrices): changing either reshuffles them all.
    """
    count = _PROVERS[spec.kind][0]
    if spec.faults is None and spec.gate is None:
        *prover, s_session = spawn_seeds(spec.seed, count + 1)
        s_verifier, s_links = spawn_seeds(s_session, 2)
        return prover, s_verifier, s_links, None
    s_prover, s_verifier, s_links, s_faults = spawn_seeds(spec.seed, 4)
    prover = [s_prover] if count == 1 else spawn_seeds(s_prover, count)
    return prover, s_verifier, s_links, s_faults


def simulate_session(
    spec: SessionSpec,
    env: Environment | None = None,
    user: UserProfile | None = None,
    instrumentation: Instrumentation | None = None,
) -> SessionRecord:
    """Wire the verifier, ``spec``'s prover and the links; run the clock.

    ``user`` is the genuine user, or the victim an attacker
    impersonates.
    """
    env = env or DEFAULT_ENVIRONMENT
    user = user or default_user()
    prover_seeds, s_verifier, s_links, s_faults = _session_seeds(spec)
    verifier = build_verifier(env, s_verifier)
    gate = spec.gate
    if gate is not None:
        background = verifier.renderer.background
        verifier.metering = DerivedMeteringBehavior(
            bright_spot=background.bright_spot,
            dark_spot=background.dark_spot,
            schedules=gate.schedules(_clips(spec)),
            start_offset_s=_WARMUP_S,
        )
        verifier.handshake = handshake_payload(gate.session_id, gate.nonce)
    prover = _PROVERS[spec.kind][1](spec, user, env, *prover_seeds)
    uplink, downlink = build_links(env, s_links, instrumentation)
    session = VideoChatSession(
        verifier=verifier,
        prover=prover,
        uplink=uplink,
        downlink=downlink,
        fps=env.fps,
        warmup_s=_WARMUP_S,
        instrumentation=instrumentation,
    )
    if spec.faults is None:
        return session.run(spec.duration_s)
    # Frame timestamps are absolute (warm-up included) and arrivals run a
    # little behind the send clock, so the schedule covers the whole run
    # plus a de-jitter margin; `tick_of` clamps anything later.
    schedule = spec.faults.schedule(
        _WARMUP_S + spec.duration_s + 5.0, env.fps, seed=s_faults
    )
    session.uplink, session.downlink = build_faulty_links(
        uplink, downlink, schedule, instrumentation
    )
    return apply_faults_to_record(session.run(spec.duration_s), schedule, instrumentation)


def simulate_genuine_session(
    duration_s: float = 15.0,
    seed: int = 0,
    env: Environment | None = None,
    user: UserProfile | None = None,
    instrumentation: Instrumentation | None = None,
) -> SessionRecord:
    """A chat where the untrusted user really is a live person."""
    return simulate_session(SessionSpec("genuine", seed, duration_s), env, user, instrumentation)


def simulate_attack_session(
    duration_s: float = 15.0,
    seed: int = 0,
    env: Environment | None = None,
    victim: UserProfile | None = None,
    artifact_level: float = 0.012,
    instrumentation: Instrumentation | None = None,
) -> SessionRecord:
    """A chat where the untrusted side runs face reenactment."""
    spec = SessionSpec("attack", seed, duration_s, artifact_level=artifact_level)
    return simulate_session(spec, env, victim, instrumentation)


def simulate_adaptive_attack_session(
    processing_delay_s: float,
    duration_s: float = 15.0,
    seed: int = 0,
    env: Environment | None = None,
    victim: UserProfile | None = None,
    instrumentation: Instrumentation | None = None,
) -> SessionRecord:
    """The Sec. VIII-J strong attacker forging the reflection with delay."""
    spec = SessionSpec("adaptive", seed, duration_s, processing_delay_s=processing_delay_s)
    return simulate_session(spec, env, victim, instrumentation)


def simulate_replay_attack_session(
    duration_s: float = 15.0,
    seed: int = 0,
    env: Environment | None = None,
    victim: UserProfile | None = None,
    instrumentation: Instrumentation | None = None,
) -> SessionRecord:
    """A classic media replay of the victim's own footage."""
    return simulate_session(SessionSpec("replay", seed, duration_s), env, victim, instrumentation)


def _session_task(
    payload: tuple[SessionSpec, Environment | None, UserProfile | None],
) -> SessionRecord:
    """Engine task wrapper: one spec -> one session (module-level for
    pickling)."""
    return simulate_session(*payload)


def simulate_session_batch(
    specs: Sequence[SessionSpec],
    env: Environment | None = None,
    user: UserProfile | None = None,
    engine: "ExecutionEngine | None" = None,
) -> list[SessionRecord]:
    """Simulate many sessions, optionally fanned out over an engine.

    The engine path routes through :meth:`ExecutionEngine.map_batches`
    — the shared chunked-submission helper — so session simulation,
    the experiment sweeps, and the fault matrix all use one submission
    policy.  Results come back in spec order regardless of worker count.
    """
    payloads = [(spec, env, user) for spec in specs]
    if engine is None:
        return [_session_task(payload) for payload in payloads]
    return engine.map_batches(_session_task, payloads, stage="simulate")
