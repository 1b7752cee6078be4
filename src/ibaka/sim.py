"""Deterministic two-party exchange scripts with a wire-level adversary.

The harness owns a logical clock and a seeded random source, runs honest
exchanges in any message order, and replays the two man-in-the-middle
scripts: timestamp-rewriting replay, and replay with a compromised ephemeral
key.  Every run with the same seed and parameters produces byte-identical
transcripts and reports; the run's one clock stamps every transcript event.

The adversary holds public parameters only: wire bytes and a leaked ephemeral
reach it as arguments, and it never touches party-internal state.

`ATTACK_TABLE` holds every attack row's verdict; `ibaka selftest` checks each row on seeds 1-5.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .group import Curve, TOY_CURVE
from .ibs import Variant, extract_key, pkg_setup, ticks_to_bytes
from .protocol import (
    DEFAULT_WINDOW,
    MalformedMessage,
    ProtocolError,
    ProtocolMessage,
    TamperField,
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


class Party(namedtuple("Party", "role keys variant window master_public transcript")):
    """One protocol endpoint: fixed role, keys, variant, freshness window.

    Each step reads the time from its transcript's clock and records its own event.
    """

    __slots__ = ()

    @property
    def id(self) -> str:
        return self.keys.identity

    @property
    def curve(self) -> Curve:
        return self.keys.curve

    def send(self, peer_id: str, rng) -> tuple[bytes, int]:
        msg, y = build_message(self.keys, peer_id, self.transcript.clock.now, self.variant, rng)
        wire = encode_message(self.curve, msg)
        self.transcript.record(self.role, "SEND", wire)
        return wire, y

    def receive(self, wire: bytes) -> ProtocolMessage:
        """Decode and verify, recording the verdict either way; returns the verified message."""
        try:
            verified = verify_message(
                self.curve, decode_message(self.curve, wire), self.id, self.master_public,
                self.transcript.clock.now, self.window, self.variant,
            )
        except ProtocolError as exc:
            action = f"VERIFY_FAIL({type(exc).__name__})"
            self.transcript.record(self.role, action, wire)
            raise
        self.transcript.record(self.role, "VERIFY_OK", wire)
        return verified

    def derive(self, peer: ProtocolMessage, own_secret: int) -> bytes:
        key = _session_key(self.curve, self.role, self.id, peer.sender_id, own_secret, peer.Y)
        self.transcript.record(self.role, "DERIVE_KEY", key)
        return key


def _session_key(curve, role, own_id, peer_id, own_secret, peer_Y) -> bytes:
    """The session key as seen from `role`: the server's identity always hashes first."""
    if role is Role.SERVER:
        return derive_session_key(curve, own_id, peer_id, own_secret, peer_Y)
    return derive_session_key(curve, peer_id, own_id, own_secret, peer_Y)


TranscriptEvent = namedtuple("TranscriptEvent", "time actor action payload")


class Transcript:
    """Append-only event log of one scripted run; each event takes the clock's
    ``now``, and the clock never rewinds, so the log stays in time order."""

    def __init__(self, clock: LogicalClock):
        self.clock = clock
        self.events: list[TranscriptEvent] = []

    def record(self, actor: Role | str, action: str, payload: bytes):
        name = actor.value if isinstance(actor, Role) else actor
        self.events.append(TranscriptEvent(self.clock.now, name, action, payload))


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
        """Overwrite the timestamp field by byte surgery.

        Works on raw bytes without decoding the field contents: the codec's
        framing locates field T, which must be as wide as the new tick count.
        """
        start, end = _field_spans(wire)[TamperField.T.value]
        raw_t = ticks_to_bytes(new_ticks)
        if end - start != len(raw_t):
            raise MalformedMessage("trailing timestamp field not found")
        return wire[:start] + raw_t + wire[end:]

    def compute_session_key(self, original: bytes, response: bytes, granted_y: int) -> bytes:
        """Session key from the wire whose ephemeral granted_y leaked and the
        victim's response to its replay."""
        original_msg = decode_message(self.curve, original)
        response_msg = decode_message(self.curve, response)
        return _session_key(
            self.curve, self.impersonating, original_msg.sender_id, response_msg.sender_id,
            granted_y, response_msg.Y,
        )


def _report_json(transcript: Transcript, doc: dict) -> str:
    """`doc`'s scalar fields, then the transcript's events as flat four-field
    objects: the text of ``json.dumps(..., indent=2)`` and a newline, written
    directly, since any indent sends `json` to its pure-Python encoder (about
    15% of a TOY exchange).  Strings go through `json`'s own C escaper; it is
    imported here, so that only a report loads `json`."""
    from json.encoder import encode_basestring_ascii as quote

    def scalar(value):
        for literal, text in ((None, "null"), (True, "true"), (False, "false")):
            if value is literal:
                return text
        return quote(value) if isinstance(value, str) else int.__repr__(value)

    fields = "".join(f"  {quote(key)}: {scalar(value)},\n" for key, value in doc.items())
    events = ",\n".join(
        f'    {{\n      "time": {int.__repr__(e.time)},\n      "actor": {quote(e.actor)},\n'
        f'      "action": {quote(e.action)},\n      "payload_hex": "{e.payload.hex()}"\n    }}'
        for e in transcript.events
    )
    events = f"[\n{events}\n  ]" if events else "[]"
    return f'{{\n{fields}  "events": {events}\n}}\n'


class ExchangeResult(namedtuple(
    "ExchangeResult", "variant message_order server_key client_key transcript"
)):
    __slots__ = ()

    @property
    def keys_equal(self) -> bool:
        return self.server_key == self.client_key

    def to_json(self) -> str:
        return _report_json(self.transcript, {
            "variant": self.variant.name,
            "message_order": self.message_order.name,
            "keys_equal": self.keys_equal,
            "server_key_hex": self.server_key.hex(),
            "client_key_hex": self.client_key.hex(),
        })


# What every report of an attack-table row shows: the reason (the name of the
# check that defeated the attack, or None), whether the victim and the attacker
# each derive a key, and keys_match.  A report's outcome is DEFEATED exactly
# when it has a reason.
Verdict = namedtuple("Verdict", "reason victim_derives attacker_derives keys_match")


class AttackReport(namedtuple(
    "AttackReport", "attack variant reason attacker_key victim_key transcript"
)):
    __slots__ = ()

    @property
    def outcome(self) -> Outcome:
        return Outcome.DEFEATED if self.reason else Outcome.SUCCEEDED

    @property
    def keys_match(self) -> bool:
        return self.attacker_key is not None and self.attacker_key == self.victim_key

    @property
    def verdict(self) -> Verdict:
        return Verdict(self.reason, self.victim_key is not None,
                       self.attacker_key is not None, self.keys_match)

    def to_json(self) -> str:
        return _report_json(self.transcript, {
            "attack": self.attack.name,
            "variant": self.variant.name,
            "outcome": self.outcome.name,
            "reason": self.reason,
            "keys_match": self.keys_match,
            "attacker_key_hex": None if self.attacker_key is None else self.attacker_key.hex(),
            "victim_key_hex": None if self.victim_key is None else self.victim_key.hex(),
        })


def _extracted(seed, curve, *identities):
    """(rng, master, keys): the seeded source, PKG setup, then each identity's key, in order."""
    rng = DeterministicRandom(seed)
    master = pkg_setup(curve, rng)
    return rng, master, [extract_key(master, identity, rng) for identity in identities]


def _setup(seed, variant, window, curve):
    """The `_extracted` set-up, server key first, as two parties that share one
    transcript and the one clock that stamps it."""
    rng, master, keys = _extracted(seed, curve, SERVER_ID, CLIENT_ID)
    transcript = Transcript(LogicalClock())
    server, client = (
        Party(role, role_keys, variant, window, master.public, transcript)
        for role, role_keys in zip((Role.SERVER, Role.CLIENT), keys)
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
    """Both messages built, delivered, and verified; both keys derived, server first.

    SERVER_FIRST: the server sends; a tick later the client verifies and
    replies; a tick later the server verifies.  CLIENT_FIRST swaps the roles.
    PARALLEL: both send, one tick passes, the server verifies, then the client."""
    if not isinstance(message_order, MessageOrder):
        raise ValueError(f"unknown message order {message_order!r}")
    rng, server, client = _setup(seed, variant, window, curve)
    clock = server.transcript.clock
    parallel = message_order is MessageOrder.PARALLEL
    client_first = message_order is MessageOrder.CLIENT_FIRST
    first, second = (client, server) if client_first else (server, client)

    seen, y = {}, {}  # each party's verified peer and its own secret, by role
    first_wire, y[first.role] = first.send(second.id, rng)
    if not parallel:
        clock.advance(1)
        seen[second.role] = second.receive(first_wire)
    second_wire, y[second.role] = second.send(first.id, rng)
    clock.advance(1)
    seen[first.role] = first.receive(second_wire)
    if parallel:
        seen[second.role] = second.receive(first_wire)

    keys = [party.derive(seen[party.role], y[party.role]) for party in (server, client)]
    return ExchangeResult(variant, message_order, *keys, server.transcript)


def _run_attack(kind, seed, variant, delay, window, curve, rewrite, impersonate):
    """The one attack script behind both runners.

    Intercept, wait, optionally rewrite t, replay; if the victim accepts, it
    responds and derives a key.  EPHEMERAL_COMPROMISE adds two steps: the
    adversary captures the response, and it derives its own key from both
    wires and the sent ephemeral, succeeding only if that equals the victim's.
    """
    if not isinstance(impersonate, Role):
        raise ValueError(f"unknown role {impersonate!r}")
    compromise = kind is AttackKind.EPHEMERAL_COMPROMISE
    rng, server, client = _setup(seed, variant, window, curve)
    clock, transcript = server.transcript.clock, server.transcript
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

    attacker_key = victim_key = reason = None
    try:
        accepted = victim.receive(replay_wire)
    except ProtocolError as exc:
        reason = type(exc).__name__
    else:
        # The victim believes the session is live: it responds and derives a key.
        response_wire, y_victim = victim.send(accepted.sender_id, rng)
        if compromise:
            transcript.record(ADVERSARY, "INTERCEPT", response_wire)
        victim_key = victim.derive(accepted, y_victim)
        if compromise:
            attacker_key = adversary.compute_session_key(wire, response_wire, y_sent)
            transcript.record(ADVERSARY, "DERIVE_KEY", attacker_key)
            reason = None if attacker_key == victim_key else "SessionKeyMismatch"
    return AttackReport(kind, variant, reason, attacker_key, victim_key, transcript)


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
    any non-negative value; at delay 0 the rewrite leaves the wire unchanged,
    so FIXED accepts it too.
    """
    return _run_attack(
        AttackKind.EPHEMERAL_COMPROMISE, seed, variant, delay, window, curve, True, impersonate
    )


_ACCEPTED = Verdict(None, True, False, False)
_KEY_LEARNED = Verdict(None, True, True, True)
_BAD_SIGNATURE = Verdict("BadSignature", False, False, False)
_STALE = Verdict("StaleTimestamp", False, False, False)
_NO_REWRITE = {"rewrite_timestamp": False}

# The attack table.  Row name -> (runner, variant, options, verdict): every
# run(seed, variant, impersonate=role, **options) ends with the verdict.  A
# name starts with its command-line kind, and the golden lines follow this
# order, so new rows go last.
ATTACK_TABLE = {
    "replay-flawed": (run_replay_attack, Variant.FLAWED, {}, _ACCEPTED),
    "replay-fixed": (run_replay_attack, Variant.FIXED, {}, _BAD_SIGNATURE),
    "replay-fixed-no-rewrite": (run_replay_attack, Variant.FIXED, _NO_REWRITE, _STALE),
    "ephemeral-flawed": (run_ephemeral_compromise_attack, Variant.FLAWED, {}, _KEY_LEARNED),
    "ephemeral-fixed": (run_ephemeral_compromise_attack, Variant.FIXED, {}, _BAD_SIGNATURE),
    "replay-flawed-no-rewrite": (run_replay_attack, Variant.FLAWED, _NO_REWRITE, _STALE),
    "ephemeral-flawed-in-window": (
        run_ephemeral_compromise_attack, Variant.FLAWED, {"delay": 0}, _KEY_LEARNED),
    "ephemeral-fixed-in-window": (
        run_ephemeral_compromise_attack, Variant.FIXED, {"delay": 0}, _KEY_LEARNED),
}


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
