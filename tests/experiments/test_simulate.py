"""Session builders: determinism, role correctness, one spec-driven wiring."""

import numpy as np
import pytest

from repro.attack.reenactment import ReenactmentAttacker
from repro.attack.target import TargetRecording
from repro.chat.endpoints import DerivedMeteringBehavior
from repro.chat.session import VideoChatSession
from repro.core.features import extract_features
from repro.core.luminance import received_luminance_signal, transmitted_luminance_signal
from repro.core.seeding import spawn_seeds
from repro.engine import ExecutionEngine
from repro.experiments.faultmatrix import DEFAULT_FAULT_SPEC
from repro.experiments.profiles import Environment
from repro.experiments.simulate import (
    SessionSpec,
    build_genuine_prover,
    build_links,
    build_verifier,
    default_user,
    simulate_adaptive_attack_session,
    simulate_attack_session,
    simulate_genuine_session,
    simulate_replay_attack_session,
    simulate_session,
    simulate_session_batch,
)
from repro.faults import apply_faults_to_record, build_faulty_links
from repro.protocol import ProtocolProvisioner
from repro.protocol.nonce import ack_tag, handshake_payload


@pytest.fixture(scope="module")
def env():
    return Environment(frame_size=(72, 72), verifier_frame_size=(48, 48))


def _features(record):
    t = transmitted_luminance_signal(record.transmitted)
    r = received_luminance_signal(record.received).luminance
    return extract_features(t, r).features


class TestDeterminism:
    def test_same_seed_identical_session(self, env):
        a = simulate_genuine_session(duration_s=5.0, seed=42, env=env)
        b = simulate_genuine_session(duration_s=5.0, seed=42, env=env)
        assert np.array_equal(a.transmitted[10].pixels, b.transmitted[10].pixels)
        assert np.array_equal(a.received[10].pixels, b.received[10].pixels)

    def test_different_seeds_differ(self, env):
        a = simulate_genuine_session(duration_s=5.0, seed=1, env=env)
        b = simulate_genuine_session(duration_s=5.0, seed=2, env=env)
        assert not np.array_equal(a.received[10].pixels, b.received[10].pixels)


class TestRoleSeparation:
    def test_genuine_features_look_live(self, env):
        features = _features(simulate_genuine_session(duration_s=15.0, seed=7, env=env))
        assert features.z1 >= 0.5
        assert features.z3 > 0.5

    def test_attack_decoupled(self, env):
        features = _features(simulate_attack_session(duration_s=15.0, seed=7, env=env))
        assert features.z3 < 0.8  # trend never matches the challenge

    def test_adaptive_with_zero_delay_looks_live(self, env):
        record = simulate_adaptive_attack_session(
            processing_delay_s=0.0, duration_s=15.0, seed=8, env=env
        )
        features = _features(record)
        # A perfect zero-delay forgery is indistinguishable by design.
        assert features.z1 >= 0.5
        assert features.z3 > 0.5

    def test_adaptive_with_long_delay_breaks(self, env):
        record = simulate_adaptive_attack_session(
            processing_delay_s=2.5, duration_s=15.0, seed=8, env=env
        )
        features = _features(record)
        assert features.z3 < 0.8 or features.z1 < 1.0

    def test_replay_session_runs(self, env):
        record = simulate_replay_attack_session(duration_s=15.0, seed=9, env=env)
        assert len(record.received) == 150


class TestDefaultUser:
    def test_stable(self):
        assert np.allclose(
            default_user().face.skin_reflectance, default_user().face.skin_reflectance
        )


def _assert_same_record(a, b):
    """Every frame of both streams: pixels, timestamps and metadata."""
    for left, right in ((a.transmitted, b.transmitted), (a.received, b.received)):
        assert len(left) == len(right)
        assert [f.timestamp for f in left] == [f.timestamp for f in right]
        for fa, fb in zip(left, right):
            assert np.array_equal(fa.pixels, fb.pixels)
            assert fa.metadata == fb.metadata
    assert a.stats == b.stats


def _gate():
    return ProtocolProvisioner("test-secret").provision("tenant", "live")


class TestSessionSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown session kind"):
            SessionSpec("alien", seed=0)

    def test_adaptive_needs_a_delay(self):
        with pytest.raises(ValueError, match="processing_delay_s"):
            SessionSpec("adaptive", seed=0)
        SessionSpec("adaptive", seed=0, processing_delay_s=0.5)

    @pytest.mark.parametrize("kind", ["schedule_replay", "stale_relay"])
    def test_protocol_attackers_need_a_gate(self, kind):
        with pytest.raises(ValueError, match="gate"):
            SessionSpec(kind, seed=0)
        SessionSpec(kind, seed=0, gate=_gate())


class TestSessionBatch:
    def test_pool_matches_serial_frame_for_frame(self, env):
        specs = [
            SessionSpec("genuine", seed=3, duration_s=3.0),
            SessionSpec("attack", seed=4, duration_s=3.0, artifact_level=0.05),
            SessionSpec("adaptive", seed=5, duration_s=3.0, processing_delay_s=0.5),
            SessionSpec("replay", seed=6, duration_s=3.0),
        ]
        serial = [simulate_session(spec, env) for spec in specs]
        with ExecutionEngine(jobs=2) as engine:
            pooled = simulate_session_batch(specs, env=env, engine=engine)
        assert len(pooled) == len(serial)
        for a, b in zip(serial, pooled):
            _assert_same_record(a, b)


class TestOneWiring:
    """``simulate_session`` against sessions wired by hand, following the
    documented seed layouts."""

    def test_faulted_attack_matches_hand_wired_session(self, env):
        faults = DEFAULT_FAULT_SPEC.scaled(0.5)
        user = default_user()
        seed, duration = 21, 5.0
        # Flat layout: (prover, verifier, links, faults); the attacker
        # splits its prover seed into (target, attacker).
        s_prover, s_verifier, s_links, s_faults = spawn_seeds(seed, 4)
        s_target, s_attacker = spawn_seeds(s_prover, 2)
        prover = ReenactmentAttacker(
            target=TargetRecording(victim=user.face, seed=s_target),
            frame_size=env.frame_size,
            seed=s_attacker,
        )
        uplink, downlink = build_links(env, s_links)
        session = VideoChatSession(
            verifier=build_verifier(env, s_verifier),
            prover=prover,
            uplink=uplink,
            downlink=downlink,
            fps=env.fps,
        )
        schedule = faults.schedule(session.warmup_s + duration + 5.0, env.fps, seed=s_faults)
        session.uplink, session.downlink = build_faulty_links(uplink, downlink, schedule)
        expected = apply_faults_to_record(session.run(duration), schedule)

        spec = SessionSpec("attack", seed=seed, duration_s=duration, faults=faults)
        _assert_same_record(simulate_session(spec, env, user), expected)

    def test_gated_genuine_matches_hand_wired_session(self, env):
        user = default_user()
        gate = _gate()
        seed, duration = 22, gate.config.clip_duration_s
        # A gated session uses the same flat layout; no faults seed is drawn.
        s_prover, s_verifier, s_links = spawn_seeds(seed, 3)
        verifier = build_verifier(env, s_verifier)
        background = verifier.renderer.background
        verifier.metering = DerivedMeteringBehavior(
            bright_spot=background.bright_spot,
            dark_spot=background.dark_spot,
            schedules=gate.schedules(1),
            start_offset_s=2.0,
        )
        verifier.handshake = handshake_payload(gate.session_id, gate.nonce)
        prover = build_genuine_prover(user, env, s_prover)
        prover.on_handshake = lambda payload: ack_tag(
            gate.tenant_key, bytes.fromhex(payload["nonce"])
        ).hex()
        uplink, downlink = build_links(env, s_links)
        expected = VideoChatSession(
            verifier=verifier,
            prover=prover,
            uplink=uplink,
            downlink=downlink,
            fps=env.fps,
            warmup_s=2.0,
        ).run(duration)

        spec = SessionSpec("genuine", seed=seed, duration_s=duration, gate=_gate())
        record = simulate_session(spec, env, user)
        _assert_same_record(record, expected)
        acks = [f.metadata["ack"] for f in record.received if "ack" in f.metadata]
        assert acks and gate.note_ack(acks[0])
