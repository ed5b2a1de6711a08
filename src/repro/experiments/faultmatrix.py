"""Robustness sweep: detection quality as the call itself degrades.

The paper evaluates the defense on clean recordings; a deployed verifier
rides a real conferencing path that loses packets in bursts, jitters,
freezes frames, and loses the face tracker for whole windows.  This
module sweeps a :class:`~repro.faults.FaultSpec` over a severity grid
and measures, per (severity, role) cell, how the quality-gated streaming
verifier behaves: a *graceful* system turns channel damage into
``INCONCLUSIVE`` attempts instead of condemning live users, while still
flagging reenactment attacks whenever the surviving clips carry enough
evidence.

Like every runner, :func:`run_fault_matrix` is a pure function of its
inputs: each cell is a self-contained task seeded through
:func:`~repro.engine.task_rng`, so ``engine(jobs=N)`` is bit-identical
to serial execution.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from ..core.config import DetectorConfig
from ..core.detector import LivenessDetector
from ..core.features import extract_features_batch
from ..core.pipeline import ChatVerifier
from ..core.streaming import CallStatus, StreamingVerifier
from ..chat.session import SessionRecord
from ..engine import ExecutionEngine, task_rng
from ..faults import FaultSpec
from ..protocol.gate import ProtocolGate
from .dataset import ATTACK, GENUINE
from .profiles import DEFAULT_ENVIRONMENT, Environment, UserProfile
from .runner import _map
from .simulate import SessionSpec, default_user, simulate_session, simulate_session_batch

__all__ = [
    "DEFAULT_FAULT_SPEC",
    "FaultCell",
    "FaultMatrixResult",
    "run_fault_matrix",
]

#: Severity-1.0 profile for the standard robustness sweep: a congested
#: wireless path with an unreliable face tracker.  ``scaled(s)`` walks
#: every rate down linearly, so severity 0 is the clean channel.
DEFAULT_FAULT_SPEC = FaultSpec(
    loss_burst_rate=0.30,
    mean_burst_s=1.0,
    jitter_spike_rate=0.25,
    jitter_spike_s=0.15,
    landmark_dropout_rate=0.60,
    mean_dropout_s=1.5,
    freeze_rate=0.25,
    mean_freeze_s=0.8,
    clock_skew=0.01,
)


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class FaultCell:
    """Aggregate behaviour of one (severity, role) grid cell."""

    severity: float
    role: str
    sessions: int
    statuses: tuple[str, ...]  # final CallStatus.value per session
    attacker_fraction: float  # sessions ending in ATTACKER
    inconclusive_fraction: float  # sessions ending in INCONCLUSIVE
    attempts_total: int
    attempts_inconclusive: int
    attempts_rejected: int  # conclusive attempts voting "attacker"
    mean_landmark_hit_fraction: float
    mean_frozen_fraction: float

    @property
    def gated_fraction(self) -> float:
        """Fraction of attempts the quality gate withheld from the vote."""
        return self.attempts_inconclusive / self.attempts_total if self.attempts_total else 0.0


@dataclasses.dataclass(frozen=True)
class FaultMatrixResult:
    """The full severity × role robustness matrix."""

    spec: FaultSpec
    severities: tuple[float, ...]
    roles: tuple[str, ...]
    cells: tuple[FaultCell, ...]

    def cell(self, severity: float, role: str) -> FaultCell:
        for cell in self.cells:
            if cell.severity == severity and cell.role == role:
                return cell
        raise KeyError(f"no cell for severity={severity}, role={role!r}")

    def lines(self) -> list[str]:
        """The matrix as printable rows (one per cell)."""
        out = [
            f"{'severity':>8s} {'role':>8s} {'attacker':>9s} {'inconcl.':>9s} "
            f"{'gated':>7s} {'lm-hit':>7s} {'frozen':>7s}  statuses"
        ]
        for c in self.cells:
            out.append(
                f"{c.severity:8.2f} {c.role:>8s} {c.attacker_fraction:9.2f} "
                f"{c.inconclusive_fraction:9.2f} {c.gated_fraction:7.2f} "
                f"{c.mean_landmark_hit_fraction:7.2f} {c.mean_frozen_fraction:7.2f}  "
                + ",".join(c.statuses)
            )
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())


def _enrollment_bank(
    config: DetectorConfig,
    env: Environment,
    user: UserProfile,
    sessions: int,
    seed: int,
    engine: ExecutionEngine | None,
) -> np.ndarray:
    """Legitimate feature bank from clean genuine sessions (one clip each)."""
    verifier = ChatVerifier(config)
    specs = [
        SessionSpec(
            kind="genuine",
            seed=int(task_rng(seed, 900, i).integers(0, 2**31 - 1)),
            duration_s=config.clip_duration_s,
        )
        for i in range(sessions)
    ]
    records = simulate_session_batch(specs, env=env, user=user, engine=engine)
    pairs = [
        verifier.extract_signals(record.transmitted, record.received)
        for record in records
    ]
    if engine is None:
        features = [
            extraction.features
            for extraction in extract_features_batch(pairs, config)
        ]
    else:
        features = engine.extract_features_batch(pairs, config, stage="enroll")
    return np.stack([fv.as_array() for fv in features])


def _stream_record(
    detector: LivenessDetector,
    record: SessionRecord,
    gate: ProtocolGate | None = None,
) -> tuple[StreamingVerifier, bool]:
    """Replay a recording through a fresh gated streaming verifier.

    With a ``gate`` the verifier binds it and the prover's first valid
    handshake ack is noted; returns the verifier and whether an ack
    verified.
    """
    streaming = StreamingVerifier(detector)
    if gate is not None:
        streaming.bind_protocol(gate)
    acked = False
    for t_frame, r_frame in zip(record.transmitted, record.received):
        ack = r_frame.metadata.get("ack")
        if gate is not None and not acked and ack is not None:
            acked = gate.note_ack(ack)
        streaming.push(t_frame, r_frame)
    return streaming, acked


def _fault_cell_task(payload: tuple) -> dict:
    """One grid cell: run its sessions through the gated streaming loop.

    Module-level and self-seeded (picklable; bit-identical on any worker
    count).  Refits the LOF detector from the shipped bank — cheaper to
    ship the small feature matrix than a fitted model.
    """
    (bank, config, spec, severity, role, sessions, duration_s,
     seed, env, user, s_idx, r_idx) = payload
    detector = LivenessDetector(config).fit(bank)
    statuses: list[str] = []
    attempts_total = attempts_inconclusive = attempts_rejected = 0
    hit_fractions: list[float] = []
    frozen_fractions: list[float] = []
    specs = [
        SessionSpec(
            kind=role,
            seed=int(task_rng(seed, s_idx, r_idx, k).integers(0, 2**31 - 1)),
            duration_s=duration_s,
            faults=spec.scaled(severity),
        )
        for k in range(sessions)
    ]
    for session in specs:
        streaming, _ = _stream_record(detector, simulate_session(session, env, user))
        statuses.append(streaming.state.status.value)
        for attempt in streaming.gated_attempts:
            attempts_total += 1
            if not attempt.conclusive:
                attempts_inconclusive += 1
            elif attempt.result.rejected:
                attempts_rejected += 1
            hit_fractions.append(attempt.quality.landmark_hit_fraction)
            frozen_fractions.append(attempt.quality.frozen_fraction)
    return {
        "severity": severity,
        "role": role,
        "sessions": sessions,
        "statuses": tuple(statuses),
        "attempts_total": attempts_total,
        "attempts_inconclusive": attempts_inconclusive,
        "attempts_rejected": attempts_rejected,
        "mean_hit": float(np.mean(hit_fractions)) if hit_fractions else 0.0,
        "mean_frozen": float(np.mean(frozen_fractions)) if frozen_fractions else 0.0,
    }


def run_fault_matrix(
    severities: Sequence[float] = (0.0, 0.25, 0.5, 1.0),
    roles: Sequence[str] = (GENUINE, ATTACK),
    spec: FaultSpec | None = None,
    sessions_per_cell: int = 2,
    duration_s: float = 30.0,
    enroll_sessions: int = 8,
    config: DetectorConfig | None = None,
    env: Environment | None = None,
    user: UserProfile | None = None,
    seed: int = 97,
    engine: ExecutionEngine | None = None,
) -> FaultMatrixResult:
    """Sweep the fault grid through the gated streaming verifier.

    Enrollment always happens on the clean channel (Alice trained her
    model under normal conditions); every (severity, role) cell then
    replays ``sessions_per_cell`` faulted calls against that model and
    aggregates the final call statuses plus attempt-level gate traffic.
    """
    config = config or DetectorConfig()
    env = env or DEFAULT_ENVIRONMENT
    user = user or default_user()
    spec = spec or DEFAULT_FAULT_SPEC
    severities = tuple(float(s) for s in severities)
    roles = tuple(roles)
    if sessions_per_cell < 1:
        raise ValueError("sessions_per_cell must be >= 1")

    bank = _enrollment_bank(config, env, user, enroll_sessions, seed, engine)
    payloads = [
        (bank, config, spec, severity, role, sessions_per_cell, duration_s,
         seed, env, user, s_idx, r_idx)
        for s_idx, severity in enumerate(severities)
        for r_idx, role in enumerate(roles)
    ]
    rows = _map(engine, _fault_cell_task, payloads, stage="faultcells")

    cells = []
    for row in rows:
        sessions = row["sessions"]
        statuses = row["statuses"]
        cells.append(
            FaultCell(
                severity=row["severity"],
                role=row["role"],
                sessions=sessions,
                statuses=statuses,
                attacker_fraction=sum(
                    s == CallStatus.ATTACKER.value for s in statuses
                ) / sessions,
                inconclusive_fraction=sum(
                    s == CallStatus.INCONCLUSIVE.value for s in statuses
                ) / sessions,
                attempts_total=row["attempts_total"],
                attempts_inconclusive=row["attempts_inconclusive"],
                attempts_rejected=row["attempts_rejected"],
                mean_landmark_hit_fraction=row["mean_hit"],
                mean_frozen_fraction=row["mean_frozen"],
            )
        )
    if engine is not None:
        # One counter API: the registry behind engine.instrumentation is
        # the same one PerfReport renders from, so these still show up in
        # `repro faults --perf` exactly as before.
        instr = engine.instrumentation
        instr.count("clips_total", sum(c.attempts_total for c in cells))
        instr.count("clips_inconclusive", sum(c.attempts_inconclusive for c in cells))
        instr.count("clips_rejected", sum(c.attempts_rejected for c in cells))
        instr.count("fault_sessions", sum(c.sessions for c in cells))
    return FaultMatrixResult(
        spec=spec,
        severities=severities,
        roles=roles,
        cells=tuple(cells),
    )
