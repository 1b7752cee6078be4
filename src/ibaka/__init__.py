"""Identity-based authenticated key agreement with a built-in adversary.

A two-message key agreement over a short-Weierstrass curve, signed with an
El Gamal-type identity-based signature.  The package ships both the FLAWED
and the FIXED variant (`ibs._H2_FIELDS` names what each one signs), plus a
deterministic simulator that demonstrates the replay and
ephemeral-key-compromise attacks against FLAWED and their defeat under
FIXED.  The names imported below are the public API, and `from ibaka import
*` also binds the five submodules.
"""

from .group import (
    Curve,
    CurveParameterError,
    GeneratorNotOnCurve,
    IDENTITY,
    MalformedEncoding,
    MalformedParameterFile,
    NonPrimeModulus,
    Point,
    PointNotOnCurve,
    SingularCurve,
    TOY_CURVE,
    WrongOrder,
    load_curve_file,
    parse_curve_params,
    validate_params,
)
from .ibs import (
    EntityKeyPair,
    InvalidIdentity,
    MasterKeyPair,
    Signature,
    Variant,
    extract_key,
    pkg_setup,
    sign,
    verify_signature,
)
from .protocol import (
    BadSignature,
    DEFAULT_WINDOW,
    FutureTimestamp,
    InvalidPeerPoint,
    MalformedMessage,
    OffCurvePoint,
    ProtocolError,
    ProtocolMessage,
    StaleTimestamp,
    TamperField,
    build_message,
    decode_message,
    derive_session_key,
    encode_message,
    verify_message,
)
from .rand import DeterministicRandom
from .sim import (
    Adversary,
    AttackKind,
    AttackReport,
    ExchangeResult,
    FieldOutOfRange,
    LogicalClock,
    MessageOrder,
    Outcome,
    Party,
    Role,
    Transcript,
    TranscriptEvent,
    run_ephemeral_compromise_attack,
    run_honest_exchange,
    run_replay_attack,
    tamper_field,
)

__version__ = "0.1.0"
