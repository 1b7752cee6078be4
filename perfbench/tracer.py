"""Spans around the public functions of the six ibaka modules.

``Tracer.install`` replaces each public function and method with a wrapper
at every name binding where a caller looks it up: methods on their class,
and module-level functions in every ibaka module that imported them (so
``verify_signature`` is wrapped in ``ibs``, ``protocol`` and ``cli`` alike).
The program itself is not edited.

A wrapper times its call, charges the duration to its parent span, and
keeps per-name call counts, total time and self time (duration minus the
time of child spans).  While ``recording`` is set it also keeps each span
as (name, start, end, parent, op) in memory; ``write_spans`` writes them out
when the run ends.  The program is single-threaded with no queue or lock,
so spans have no wait time.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

MODULES = ("group", "rand", "ibs", "protocol", "sim", "cli")

# Public classes whose methods are spans, by module.
CLASSES = {
    "group": ("Curve",),
    "rand": ("DeterministicRandom",),
    "sim": (
        "LogicalClock", "Party", "Transcript", "TranscriptEvent",
        "Adversary", "ExchangeResult", "AttackReport",
    ),
}

# Recorded spans are capped so a long check window cannot exhaust memory;
# counts and times keep accumulating past the cap.
MAX_RECORDED_SPANS = 50_000


# Extra events recorded on a successful call, by span name: (event, amount).
OBSERVERS = {
    "ibs.hash_fields": lambda args, result: (f"ibs.h{args[0]}", 1),
    "ibs.verify_signature": lambda args, result: (
        "ibs.verify_signature.accepted", 1 if result else 0
    ),
    "sim.ExchangeResult.to_json": lambda args, result: ("sim.report.bytes", len(result)),
    "sim.AttackReport.to_json": lambda args, result: ("sim.report.bytes", len(result)),
}


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.events: Counter = Counter()
        self.root_ns = 0
        self.recording = False
        self.op = -1
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._restore: list[tuple] = []

    def reset(self):
        """Forget counts and times, keep the installed wrappers."""
        for counter in (self.calls, self.total_ns, self.self_ns, self.events):
            counter.clear()
        self.root_ns = 0

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_ns": dict(self.total_ns),
            "self_ns": dict(self.self_ns),
            "events": dict(self.events),
            "root_ns": self.root_ns,
        }

    def _wrap(self, name, fn, observe=None):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0, -1]
            if tracer.recording and len(spans) < MAX_RECORDED_SPANS:
                frame[1] = len(spans)
                parent = stack[-1][1] if stack else -1
                spans.append([name, 0, 0, parent, tracer.op])
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.events[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.calls[name] += 1
                tracer.total_ns[name] += duration
                tracer.self_ns[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    tracer.root_ns += duration
                if frame[1] >= 0:
                    spans[frame[1]][1:3] = start, end
            if observe is not None:
                event, amount = observe(args, result)
                tracer.events[event] += amount
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, package):
        """Wrap every public function and method of the six modules."""
        modules = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        bindings = [importlib.import_module(package), *modules.values()]
        for mod_name, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not callable(fn) or isinstance(fn, type):
                    continue
                if getattr(fn, "__module__", None) != module.__name__:
                    continue
                name = f"{mod_name}.{attr}"
                wrapper = self._wrap(name, fn, OBSERVERS.get(name))
                for binding in bindings:
                    for bound_name, value in list(vars(binding).items()):
                        if value is fn:
                            self._replace(binding, bound_name, wrapper)
            for cls_name in CLASSES.get(mod_name, ()):
                cls = getattr(module, cls_name)
                for attr, member in list(vars(cls).items()):
                    if attr.startswith("_"):
                        continue
                    name = f"{mod_name}.{cls_name}.{attr}"
                    if isinstance(member, staticmethod):
                        wrapped = staticmethod(self._wrap(name, member.__func__))
                    elif callable(member):
                        wrapped = self._wrap(name, member, OBSERVERS.get(name))
                    else:
                        continue
                    self._replace(cls, attr, wrapped)

    def _replace(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write_spans(self, path):
        """One JSON object per line: name, start_ns, end_ns, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start_ns": start, "end_ns": end,
                     "parent": parent, "op": op}
                ) + "\n")
