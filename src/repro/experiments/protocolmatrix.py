"""Protocol matrix: what the nonce-binding layer adds over the LOF.

The motivating gap: a recording of the victim *genuinely answering an
earlier call* carries a flawless luminance response — the LOF alone
grades it live.  This sweep runs each prover role through the full chat
stack twice, with the challenge-binding protocol off and on, so the two
columns show exactly which verdicts the cryptographic layer changes:

========  ==================  ============================
role      protocol off        protocol on
========  ==================  ============================
genuine   LIVE                LIVE (binding grades BOUND)
replay    LIVE  *(the gap)*   REPLAY
stale     ATTACKER            STALE (attributed)
attack    ATTACKER            ATTACKER
========  ==================  ============================

Every cell is a self-contained seeded task (the
:mod:`~repro.experiments.faultmatrix` pattern), so ``engine(jobs=N)``
is bit-identical to serial execution.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from ..core.config import DetectorConfig
from ..core.detector import LivenessDetector
from ..engine import ExecutionEngine, task_rng
from ..protocol import ProtocolConfig, ProtocolProvisioner
from .faultmatrix import _enrollment_bank, _stream_record
from .profiles import DEFAULT_ENVIRONMENT, Environment, UserProfile
from .runner import _map
from .simulate import SessionSpec, default_user, simulate_session

__all__ = [
    "PROTOCOL_ROLES",
    "ProtocolCell",
    "ProtocolMatrixResult",
    "run_protocol_matrix",
]

#: Cell role -> session kind.  ``replay`` plays back footage answering
#: the *prior* session's schedule; ``stale`` answers the live schedule
#: too late.
_ROLE_KINDS = {
    "genuine": "genuine",
    "replay": "schedule_replay",
    "stale": "stale_relay",
    "attack": "attack",
}
PROTOCOL_ROLES = tuple(_ROLE_KINDS)

#: Deployment secret of the simulated verifier service.  Any fixed
#: string works — both call ends and the grader derive from it.
_EXPERIMENT_SECRET = "repro-protocol-matrix"


@dataclasses.dataclass(frozen=True)
class ProtocolCell:
    """Aggregate behaviour of one (role, protocol on/off) grid cell."""

    role: str
    protocol: bool
    sessions: int
    statuses: tuple[str, ...]  # final CallStatus.value per session
    bindings: dict[str, int]  # BindingOutcome.value -> clips (on-cells)
    acks_ok: int  # sessions whose prover answered the handshake

    @property
    def condemned_fraction(self) -> float:
        condemned = sum(
            s in ("attacker", "replay", "stale") for s in self.statuses
        )
        return condemned / self.sessions if self.sessions else 0.0


@dataclasses.dataclass(frozen=True)
class ProtocolMatrixResult:
    """The full role × protocol matrix."""

    roles: tuple[str, ...]
    cells: tuple[ProtocolCell, ...]

    def cell(self, role: str, protocol: bool) -> ProtocolCell:
        for cell in self.cells:
            if cell.role == role and cell.protocol == protocol:
                return cell
        raise KeyError(f"no cell for role={role!r}, protocol={protocol}")

    def lines(self) -> list[str]:
        out = [
            f"{'role':>8s} {'protocol':>9s} {'condemned':>10s} "
            f"{'acks':>5s}  statuses / bindings"
        ]
        for c in self.cells:
            bindings = " ".join(
                f"{name}={count}" for name, count in sorted(c.bindings.items())
            )
            tail = ",".join(c.statuses) + (f"  [{bindings}]" if bindings else "")
            out.append(
                f"{c.role:>8s} {'on' if c.protocol else 'off':>9s} "
                f"{c.condemned_fraction:10.2f} {c.acks_ok:5d}  {tail}"
            )
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())


def _protocol_cell_task(payload: tuple) -> dict:
    """One grid cell (module-level and self-seeded: picklable,
    bit-identical on any worker count).

    Each session provisions a *prior* gate first (the tenant's previous
    call — what a recording attacker observed and what the verifier's
    ledger remembers) and then the live gate, mirroring the service's
    submit-order ledger discipline.
    """
    (bank, config, protocol_config, role, use_protocol, sessions,
     clips, seed, env, user, r_idx, p_idx) = payload
    detector = LivenessDetector(config).fit(bank)
    provisioner = ProtocolProvisioner(
        _EXPERIMENT_SECRET, config=config, protocol=protocol_config
    )
    statuses: list[str] = []
    bindings: dict[str, int] = {}
    acks_ok = 0
    tenant = f"cell-{r_idx}"
    specs = []
    for k in range(sessions):
        # p_idx is deliberately absent from the seed chain: the off and
        # on columns replay the *same* sessions, so any verdict
        # difference between them is the binding layer's doing.
        prior = provisioner.provision(tenant, f"prior-{k:03d}")
        specs.append(
            SessionSpec(
                kind=_ROLE_KINDS[role],
                seed=int(task_rng(seed, r_idx, 7, k).integers(0, 2**31 - 1)),
                duration_s=clips * config.clip_duration_s,
                gate=provisioner.provision(tenant, f"live-{k:03d}"),
                prior_gate=prior,
            )
        )
    for session in specs:
        gate = session.gate if use_protocol else None
        streaming, acked = _stream_record(
            detector, simulate_session(session, env, user), gate
        )
        statuses.append(streaming.state.status.value)
        acks_ok += int(acked)
        for attempt in streaming.gated_attempts:
            if attempt.binding is not None:
                name = attempt.binding.outcome.value
                bindings[name] = bindings.get(name, 0) + 1
    return {
        "role": role,
        "protocol": use_protocol,
        "sessions": sessions,
        "statuses": tuple(statuses),
        "bindings": bindings,
        "acks_ok": acks_ok,
    }


def run_protocol_matrix(
    roles: Sequence[str] = PROTOCOL_ROLES,
    sessions_per_cell: int = 2,
    clips: int = 2,
    enroll_sessions: int = 8,
    config: DetectorConfig | None = None,
    protocol: ProtocolConfig | None = None,
    env: Environment | None = None,
    user: UserProfile | None = None,
    seed: int = 211,
    engine: ExecutionEngine | None = None,
) -> ProtocolMatrixResult:
    """Sweep role × protocol-on/off through the gated streaming verifier.

    Enrollment happens on the clean passive channel (the same bank the
    fault matrix trains from); each cell then replays
    ``sessions_per_cell`` protocol-driven calls against that model.
    """
    config = config or DetectorConfig()
    protocol = protocol or ProtocolConfig()
    env = env or DEFAULT_ENVIRONMENT
    user = user or default_user()
    roles = tuple(roles)
    if sessions_per_cell < 1:
        raise ValueError("sessions_per_cell must be >= 1")
    if not 1 <= clips <= protocol.commit_attempts:
        raise ValueError(
            f"clips must lie in [1, commit_attempts={protocol.commit_attempts}]"
        )
    unknown = [r for r in roles if r not in PROTOCOL_ROLES]
    if unknown:
        raise ValueError(f"unknown roles {unknown!r} (expected {PROTOCOL_ROLES})")

    bank = _enrollment_bank(config, env, user, enroll_sessions, seed, engine)
    payloads = [
        (bank, config, protocol, role, use_protocol, sessions_per_cell,
         clips, seed, env, user, r_idx, p_idx)
        for r_idx, role in enumerate(roles)
        for p_idx, use_protocol in enumerate((False, True))
    ]
    rows = _map(engine, _protocol_cell_task, payloads, stage="protocolcells")

    cells = [
        ProtocolCell(
            role=row["role"],
            protocol=row["protocol"],
            sessions=row["sessions"],
            statuses=row["statuses"],
            bindings=row["bindings"],
            acks_ok=row["acks_ok"],
        )
        for row in rows
    ]
    if engine is not None:
        instr = engine.instrumentation
        instr.count("protocol_matrix_sessions", sum(c.sessions for c in cells))
        instr.count(
            "protocol_matrix_condemned",
            sum(
                sum(s in ("attacker", "replay", "stale") for s in c.statuses)
                for c in cells
            ),
        )
    return ProtocolMatrixResult(roles=roles, cells=tuple(cells))
