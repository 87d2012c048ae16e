"""Span tracer that measures zdbench layers from outside the program.

The tracer replaces a listed function with a timing wrapper in every
``zdbench`` module namespace that holds it (``statements`` imports
``all_submodules`` by name, for example), and restores the originals on
``uninstall``.  Each call of a spanned function records one span: its name,
start, end, the span that caused it and the operation it served.  A span's
self time is its duration minus the time its child spans cover.  Functions
called too often for one span per call are counted only; their time stays in
the self time of the span that called them.

Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


class Tracer:
    """In-memory spans, self times, call counts and per-call counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []        # (span_id, parent_id, op, name, start, end)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self.op = None               # identifier shared by the spans of one operation
        self._stack: list = []       # [span_id, seconds covered by child spans]
        self._undo: list = []        # callables restoring the originals

    # -- installation -------------------------------------------------------

    def install(self, spanned, counted=(), probes=None):
        """Wrap every target; a target is (module, attribute path).

        ``spanned`` targets record spans, ``counted`` targets only count
        calls.  ``probes`` maps a spanned target's name to a function
        ``(tracer, args, result)`` that adds to ``counters`` after each call.
        """
        probes = probes or {}
        for target in spanned:
            name = target_name(target)
            self._patch(target, lambda fn, name=name: self._span_wrapper(
                name, fn, probes.get(name)))
        for target in counted:
            name = target_name(target)
            self._patch(target, lambda fn, name=name: self._count_wrapper(name, fn))

    def install_items(self, mapping: dict, prefix: str):
        """Span every function held as a value of `mapping`, named prefix.key."""
        for key, fn in list(mapping.items()):
            self._undo.append(lambda key=key, fn=fn: mapping.__setitem__(key, fn))
            mapping[key] = self._span_wrapper(f"{prefix}.{key}", fn, None)

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def _patch(self, target, make_wrapper):
        module_name, path = target
        owner = sys.modules[f"zdbench.{module_name}"]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        if outer:
            # a method: patching the class reaches every caller
            owners = [(owner, attr)]
        else:
            owners = [(module, key)
                      for mod_name, module in sorted(sys.modules.items())
                      if mod_name == "zdbench" or mod_name.startswith("zdbench.")
                      for key, value in list(vars(module).items())
                      if value is original]
        for holder, key in owners:
            self._undo.append(lambda h=holder, k=key: setattr(h, k, original))
            setattr(holder, key, wrapper)

    def _span_wrapper(self, name, fn, probe):
        stack = self._stack
        spans = self.spans
        self_s = self.self_s
        calls = self.calls
        clock = self.clock

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [len(spans) + len(stack), 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self_s[name] += duration - frame[1]
                calls[name] += 1
                spans.append((frame[0], parent, self.op, name, start, end))
            if probe is not None:
                probe(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- results ------------------------------------------------------------

    def seconds_by_name(self, since: int = 0) -> dict:
        """Summed span duration per name, over the spans from index `since` on."""
        out = defaultdict(float)
        for _, _, _, name, start, end in self.spans[since:]:
            out[name] += end - start
        return out

    def write(self, path, meta: dict):
        """Write every span, with the run's metadata, as one JSON document."""
        names = sorted({s[3] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = dict(meta)
        doc["span_fields"] = ["id", "parent", "op", "name", "start_s", "end_s"]
        doc["names"] = names
        doc["calls"] = dict(sorted(self.calls.items()))
        doc["spans"] = [[sid, parent, op, index[name], round(start, 7), round(end, 7)]
                        for sid, parent, op, name, start, end in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")


def target_name(target) -> str:
    module_name, path = target
    return f"{module_name}.{path}"
