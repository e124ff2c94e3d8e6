"""In-memory spans recorded around calls into the library's modules.

The benchmark records spans from its own files: around the public calls it
makes, and around module functions it wraps where the library looks them up.
Nothing inside the library is changed.  Spans stay in memory and are written
out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index of the enclosing span, None at top level
    call: int | None     # predict-call id the span belongs to, None in set-up


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.call: int | None = None
        self._stack: list[int] = []
        self._wrapped: list[tuple[object, str, object, str]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, 0.0, 0.0, parent, self.call)
        self.spans.append(record)
        self._stack.append(index)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        The wrapper is only in place while ``installed()`` is active.
        """
        self._wrapped.append((owner, attr, getattr(owner, attr), name))

    @contextmanager
    def installed(self):
        for owner, attr, original, name in self._wrapped:
            setattr(owner, attr, self._traced(original, name))
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._wrapped:
                setattr(owner, attr, original)

    def _traced(self, original, name: str):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "call"],
                    "spans": [[s.name, s.start, s.end, s.parent, s.call] for s in self.spans],
                },
                fh,
            )


def library_tracer() -> Tracer:
    """A tracer wrapping the module functions set-up and predict call.

    ``import obtree.evaluate`` yields the re-exported function, not the
    module, so modules are reached through ``importlib``.  Each function is
    wrapped in the namespace its caller looks it up in.
    """
    evaluate_mod = importlib.import_module("obtree.evaluate")
    model_mod = importlib.import_module("obtree.model")
    serialize_mod = importlib.import_module("obtree.serialize")
    tracer = Tracer()
    tracer.wrap(evaluate_mod, "quantize_block", "quantize.quantize_block")
    tracer.wrap(evaluate_mod, "build_leaf_bank", "model.build_leaf_bank")
    tracer.wrap(evaluate_mod.ModelTables, "__init__", "model.ModelTables")
    tracer.wrap(model_mod, "validate_model", "model.validate_model")
    tracer.wrap(serialize_mod, "validate_model", "model.validate_model")
    return tracer
