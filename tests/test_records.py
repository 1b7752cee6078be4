"""Records are named tuples: fields cannot be assigned, and importing ibaka
loads none of the modules that declaring records with dataclasses pulled in,
nor json, which only writing a report needs."""

import pathlib
import subprocess
import sys

import pytest

import ibaka
from ibaka.group import TOY_CURVE
from ibaka.ibs import Variant, sign
from ibaka.protocol import ProtocolMessage
from ibaka import sim

HEAVY_MODULES = ("dataclasses", "typing", "inspect", "ast", "json")

SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import ibaka, ibaka.cli
print(" ".join(m for m in sys.argv[2:] if m in sys.modules))
"""


def test_import_loads_no_heavy_module():
    src = str(pathlib.Path(ibaka.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", SCRIPT, src, *HEAVY_MODULES],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "\n"


RECORD_TYPES = (
    "Point", "Curve", "MasterKeyPair", "EntityKeyPair", "Signature", "ProtocolMessage",
    "Party", "TranscriptEvent", "ExchangeResult", "AttackReport", "Verdict",
)


def _records():
    """One instance of each record type, by type name, from a TOY run."""
    rng, master, [keys] = sim._extracted(1, TOY_CURVE, sim.SERVER_ID)
    sig, _ = sign(keys, sim.CLIENT_ID, TOY_CURVE.gen, 100, Variant.FIXED, rng)
    exchange = sim.run_honest_exchange(1, Variant.FIXED)
    attack = sim.run_replay_attack(1, Variant.FIXED)
    server = sim._setup(1, Variant.FIXED, 10, TOY_CURVE)[1]
    records = [
        TOY_CURVE.gen, TOY_CURVE, master, keys, sig,
        ProtocolMessage(keys.identity, TOY_CURVE.gen, sig, 100),
        server, exchange.transcript.events[0], exchange, attack, attack.verdict,
    ]
    return {type(record).__name__: record for record in records}


@pytest.mark.parametrize("kind", RECORD_TYPES)
def test_record_fields_cannot_be_assigned(kind):
    record = _records()[kind]
    before = tuple(record)
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert tuple(record) == before
