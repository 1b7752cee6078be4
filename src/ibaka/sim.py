"""Deterministic two-party exchange scripts with a wire-level adversary.

The harness owns a logical clock and a seeded random source, runs honest
exchanges in any message order, and replays the two man-in-the-middle
scripts: timestamp-rewriting replay, and replay with a compromised ephemeral
key.  Every run with the same seed and parameters produces byte-identical
transcripts and reports; the run's one clock stamps every transcript event.

The adversary holds public parameters only: wire bytes and a leaked ephemeral
reach it as arguments, and it never touches party-internal state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

from .group import Curve, Point, TOY_CURVE
from .ibs import EntityKeyPair, Variant, extract_key, pkg_setup, ticks_to_bytes
from .protocol import (
    DEFAULT_WINDOW,
    MalformedMessage,
    ProtocolError,
    VerifiedPeer,
    _field_spans,
    build_message,
    decode_message,
    derive_session_key,
    encode_message,
    verify_message,
)
from .rand import DeterministicRandom

SERVER_ID = "server-1"
CLIENT_ID = "sensor-7"

START_TICKS = 100
DEFAULT_DELAY = 1000


class Role(Enum):
    SERVER = "SERVER"
    CLIENT = "CLIENT"


class MessageOrder(Enum):
    SERVER_FIRST = "SERVER_FIRST"
    CLIENT_FIRST = "CLIENT_FIRST"
    PARALLEL = "PARALLEL"


class AttackKind(Enum):
    REPLAY = "REPLAY"
    EPHEMERAL_COMPROMISE = "EPHEMERAL_COMPROMISE"


class Outcome(Enum):
    SUCCEEDED = "SUCCEEDED"
    DEFEATED = "DEFEATED"


class FieldOutOfRange(ValueError):
    pass


class LogicalClock:
    """Harness-driven tick counter from START_TICKS; advances, never rewinds.

    ``now`` is read-only, so ``advance`` is the only way to move the clock.
    """

    def __init__(self):
        self._now = START_TICKS

    @property
    def now(self) -> int:
        return self._now

    def advance(self, ticks: int):
        if ticks < 0:
            raise ValueError("ticks must be non-negative: logical clocks only move forward")
        self._now += ticks


@dataclass(frozen=True)
class Party:
    """One protocol endpoint: fixed role, keys, variant, freshness window.

    Each step records its own transcript event at the shared clock's time.
    """

    role: Role
    keys: EntityKeyPair
    variant: Variant
    window: int
    clock: LogicalClock
    master_public: Point
    transcript: Transcript

    @property
    def id(self) -> str:
        return self.keys.identity

    @property
    def curve(self) -> Curve:
        return self.keys.curve

    def send(self, peer_id: str, rng) -> tuple[bytes, int]:
        msg, y = build_message(self.keys, peer_id, self.clock.now, self.variant, rng)
        wire = encode_message(self.curve, msg)
        self.transcript.record(self.role, "SEND", wire)
        return wire, y

    def receive(self, wire: bytes) -> VerifiedPeer:
        """Decode and verify, recording the verdict either way."""
        try:
            verified = verify_message(
                self.curve, decode_message(self.curve, wire), self.id, self.master_public,
                self.clock.now, self.window, self.variant,
            )
        except ProtocolError as exc:
            action = f"VERIFY_FAIL({type(exc).__name__})"
            self.transcript.record(self.role, action, wire)
            raise
        self.transcript.record(self.role, "VERIFY_OK", wire)
        return verified

    def derive(self, peer: VerifiedPeer, own_secret: int) -> bytes:
        key = _session_key(self.curve, self.role, self.id, peer.peer_id, own_secret, peer.Y)
        self.transcript.record(self.role, "DERIVE_KEY", key)
        return key


def _session_key(curve, role, own_id, peer_id, own_secret, peer_Y) -> bytes:
    """The session key as seen from `role`: the server's identity always hashes first."""
    if role is Role.SERVER:
        return derive_session_key(curve, own_id, peer_id, own_secret, peer_Y)
    return derive_session_key(curve, peer_id, own_id, own_secret, peer_Y)


@dataclass(frozen=True)
class TranscriptEvent:
    time: int
    actor: str
    action: str
    payload: bytes

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "actor": self.actor,
            "action": self.action,
            "payload_hex": self.payload.hex(),
        }


class Transcript:
    """Append-only event log of one scripted run; each event takes the clock's
    ``now``, and the clock never rewinds, so the log stays in time order."""

    def __init__(self, clock: LogicalClock):
        self.clock = clock
        self.events: list[TranscriptEvent] = []

    def record(self, actor: Role | str, action: str, payload: bytes):
        name = actor.value if isinstance(actor, Role) else actor
        self.events.append(TranscriptEvent(self.clock.now, name, action, payload))

    def to_dicts(self) -> list[dict]:
        return [event.to_dict() for event in self.events]


ADVERSARY = "ADVERSARY"


class Adversary:
    """Man-in-the-middle with wire access only.

    It holds public parameters only; captured wires and a leaked ephemeral
    reach it as arguments.  It has no reference to a Party, the transcript or
    the clock.
    """

    def __init__(self, curve: Curve, impersonating: Role = Role.SERVER):
        self.curve = curve
        self.impersonating = impersonating

    @staticmethod
    def rewrite_timestamp(wire: bytes, new_ticks: int) -> bytes:
        """Overwrite the trailing timestamp field by byte surgery.

        Works on raw bytes without decoding the field contents: the codec's
        framing locates the final field, which must be the 8-byte timestamp.
        """
        start, end = _field_spans(wire)[-1]
        if end - start != 8:
            raise MalformedMessage("trailing timestamp field not found")
        return wire[:start] + ticks_to_bytes(new_ticks)

    def compute_session_key(self, original: bytes, response: bytes, granted_y: int) -> bytes:
        """Session key from the wire whose ephemeral granted_y leaked and the
        victim's response to its replay."""
        original_msg = decode_message(self.curve, original)
        response_msg = decode_message(self.curve, response)
        return _session_key(
            self.curve, self.impersonating, original_msg.sender_id, response_msg.sender_id,
            granted_y, response_msg.Y,
        )


@dataclass
class ExchangeResult:
    variant: Variant
    message_order: MessageOrder
    server_key: bytes
    client_key: bytes
    transcript: Transcript

    @property
    def keys_equal(self) -> bool:
        return self.server_key == self.client_key

    def to_dict(self) -> dict:
        return {
            "variant": self.variant.name,
            "message_order": self.message_order.name,
            "keys_equal": self.keys_equal,
            "server_key_hex": self.server_key.hex(),
            "client_key_hex": self.client_key.hex(),
            "events": self.transcript.to_dicts(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


@dataclass
class AttackReport:
    attack: AttackKind
    variant: Variant
    outcome: Outcome
    reason: str | None
    attacker_key: bytes | None
    victim_key: bytes | None
    transcript: Transcript = field(repr=False)

    @property
    def keys_match(self) -> bool:
        return self.attacker_key is not None and self.attacker_key == self.victim_key

    def to_dict(self) -> dict:
        return {
            "attack": self.attack.name,
            "variant": self.variant.name,
            "outcome": self.outcome.name,
            "reason": self.reason,
            "keys_match": self.keys_match,
            "attacker_key_hex": None if self.attacker_key is None else self.attacker_key.hex(),
            "victim_key_hex": None if self.victim_key is None else self.victim_key.hex(),
            "events": self.transcript.to_dicts(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _setup(seed, variant, window, curve):
    """PKG setup and key extraction for both identities, in a fixed order.

    The two parties share one clock and one transcript that it stamps.
    """
    rng = DeterministicRandom(seed)
    master = pkg_setup(curve, rng)
    transcript = Transcript(LogicalClock())
    server, client = (
        Party(role, extract_key(master, identity, rng), variant, window, transcript.clock,
              master.public, transcript)
        for role, identity in ((Role.SERVER, SERVER_ID), (Role.CLIENT, CLIENT_ID))
    )
    return rng, server, client


def run_honest_exchange(
    seed: int,
    variant: Variant,
    message_order: MessageOrder = MessageOrder.SERVER_FIRST,
    *,
    window: int = DEFAULT_WINDOW,
    curve: Curve = TOY_CURVE,
) -> ExchangeResult:
    """Both messages built, delivered, and verified; both keys derived."""
    rng, server, client = _setup(seed, variant, window, curve)
    clock = server.clock

    if message_order is MessageOrder.SERVER_FIRST:
        wire_s, y_s = server.send(client.id, rng)
        clock.advance(1)
        seen_server = client.receive(wire_s)
        wire_c, y_c = client.send(server.id, rng)
        clock.advance(1)
        seen_client = server.receive(wire_c)
    elif message_order is MessageOrder.CLIENT_FIRST:
        wire_c, y_c = client.send(server.id, rng)
        clock.advance(1)
        seen_client = server.receive(wire_c)
        wire_s, y_s = server.send(client.id, rng)
        clock.advance(1)
        seen_server = client.receive(wire_s)
    elif message_order is MessageOrder.PARALLEL:
        wire_s, y_s = server.send(client.id, rng)
        wire_c, y_c = client.send(server.id, rng)
        clock.advance(1)
        seen_client = server.receive(wire_c)
        seen_server = client.receive(wire_s)
    else:
        raise ValueError(f"unknown message order {message_order!r}")

    server_key = server.derive(seen_client, y_s)
    client_key = client.derive(seen_server, y_c)
    return ExchangeResult(variant, message_order, server_key, client_key, server.transcript)


def _run_attack(kind, seed, variant, delay, window, curve, rewrite, impersonate):
    """The one attack script behind both runners.

    Intercept, wait, optionally rewrite t, replay; if the victim accepts, it
    responds and derives a key.  EPHEMERAL_COMPROMISE adds two steps: the
    adversary captures the response, and it derives its own key from both
    wires and the sent ephemeral, succeeding only if that equals the victim's.
    """
    compromise = kind is AttackKind.EPHEMERAL_COMPROMISE
    rng, server, client = _setup(seed, variant, window, curve)
    clock, transcript = server.clock, server.transcript
    # The impersonated party sends the intercepted message; the other verifies.
    impersonated, victim = (server, client) if impersonate is Role.SERVER else (client, server)
    adversary = Adversary(curve, impersonating=impersonate)

    wire, y_sent = impersonated.send(victim.id, rng)
    transcript.record(ADVERSARY, "INTERCEPT", wire)

    clock.advance(delay)
    replay_wire = wire
    if rewrite:
        replay_wire = adversary.rewrite_timestamp(wire, clock.now)
        transcript.record(ADVERSARY, "REWRITE_TIMESTAMP", replay_wire)
    transcript.record(ADVERSARY, "REPLAY", replay_wire)

    try:
        accepted = victim.receive(replay_wire)
    except ProtocolError as exc:
        return AttackReport(
            kind, variant, Outcome.DEFEATED, type(exc).__name__, None, None, transcript
        )

    # The victim believes the session is live: it responds and derives a key.
    response_wire, y_victim = victim.send(accepted.peer_id, rng)
    if compromise:
        transcript.record(ADVERSARY, "INTERCEPT", response_wire)
    victim_key = victim.derive(accepted, y_victim)
    if not compromise:
        return AttackReport(kind, variant, Outcome.SUCCEEDED, None, None, victim_key, transcript)

    attacker_key = adversary.compute_session_key(wire, response_wire, y_sent)
    transcript.record(ADVERSARY, "DERIVE_KEY", attacker_key)
    matched = attacker_key == victim_key
    outcome = Outcome.SUCCEEDED if matched else Outcome.DEFEATED
    reason = None if matched else "SessionKeyMismatch"
    return AttackReport(kind, variant, outcome, reason, attacker_key, victim_key, transcript)


def run_replay_attack(
    seed: int,
    variant: Variant,
    delay: int = DEFAULT_DELAY,
    *,
    window: int = DEFAULT_WINDOW,
    curve: Curve = TOY_CURVE,
    rewrite_timestamp: bool = True,
    impersonate: Role = Role.SERVER,
) -> AttackReport:
    """Intercept one honest message, wait, update its timestamp, replay it.

    With rewrite_timestamp False the captured bytes are replayed untouched,
    which any variant rejects as stale once the delay exceeds the window.
    """
    if delay <= window:
        raise ValueError("delay must exceed the freshness window")
    return _run_attack(
        AttackKind.REPLAY, seed, variant, delay, window, curve, rewrite_timestamp, impersonate
    )


def run_ephemeral_compromise_attack(
    seed: int,
    variant: Variant,
    delay: int = DEFAULT_DELAY,
    *,
    window: int = DEFAULT_WINDOW,
    curve: Curve = TOY_CURVE,
    impersonate: Role = Role.SERVER,
) -> AttackReport:
    """Replay with the intercepted message's ephemeral secret in hand.

    The adversary learns the intercepted message's y (the leak mechanism is
    out of scope), replays with a fresh timestamp, and derives the same
    session key as the victim whenever the replay is accepted.  delay may be
    any non-negative value; delay=0 is the strictly easier live-session case.
    """
    return _run_attack(
        AttackKind.EPHEMERAL_COMPROMISE, seed, variant, delay, window, curve, True, impersonate
    )


class TamperField(Enum):
    """Wire fields addressable by tamper_field, in encoding order."""

    SENDER_ID = 0
    Y = 1
    H = 2
    MU = 3
    R = 4
    T = 5


def tamper_field(wire: bytes, field: TamperField, byte_index: int, xor_mask: int) -> bytes:
    """XOR one byte inside the chosen field of an encoded message."""
    if not 1 <= xor_mask <= 0xFF:
        raise ValueError("xor mask must be a non-zero byte")
    start, end = _field_spans(wire)[field.value]
    if not 0 <= byte_index < end - start:
        raise FieldOutOfRange(
            f"byte {byte_index} outside {field.name} (length {end - start})"
        )
    mutated = bytearray(wire)
    mutated[start + byte_index] ^= xor_mask
    return bytes(mutated)
