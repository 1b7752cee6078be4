"""A fixed reference computation that measures how fast the machine is now.

The speed of a shared machine drifts: the same operation, repeated in one
process on one CPU, has run at anywhere from 1x to 1.8x its best speed from
one 0.5 s interval to the next, and by up to 35% between runs a few minutes
apart.  So each process also times this kernel, interleaved with its own
work, and the end-to-end time metrics are scaled to the speed at which the
kernel takes REFERENCE_S.  A program change cannot move the kernel, which
uses only builtins, ``json`` and ``hashlib``, so a change in a scaled metric
is a change in the program's own cost.

The kernel mixes the two kinds of work ibaka does: big-integer extended
Euclid on a 256-bit modulus, as in field inversion, and dictionary, string,
JSON and hashing work, as in message handling and reports.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time

# Scale of the normalized metrics: about the kernel's time on a 2.1 GHz Xeon
# vCPU, so normalized figures read like wall-clock figures there.
REFERENCE_S = 0.0014

_MODULUS = 2**256 - 2**32 - 977
_EUCLID_ROUNDS = 40
_DICT_ROUNDS = 600


def kernel() -> int:
    acc = 0
    for i in range(_EUCLID_ROUNDS):
        r0, r1 = _MODULUS, (0x1234567890ABCDEF1234567890ABCDEF + i * 7919) % _MODULUS
        t0, t1 = 0, 1
        while r1:
            quotient = r0 // r1
            r0, r1 = r1, r0 - quotient * r1
            t0, t1 = t1, t0 - quotient * t1
        acc ^= t0
    table: dict[str, int] = {}
    for i in range(_DICT_ROUNDS):
        key = f"k{i % 50}"
        table[key] = table.get(key, 0) + i
    acc ^= hashlib.sha256(json.dumps(table, sort_keys=True).encode()).digest()[0]
    return acc


def time_kernel() -> float:
    """Wall seconds of one kernel run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def median_kernel_s(runs: int) -> float:
    return statistics.median(time_kernel() for _ in range(runs))
