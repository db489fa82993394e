"""Spans around the public functions of each qbody module.

``Tracer.install`` replaces every public function of the layers in
:data:`LAYERS` with a wrapper that records a span, in the defining module
and in every other qbody module that binds the same function object (for
example ``boundary.member``, bound by ``from .membership import member``).
Calls inside the library therefore produce nested spans, and a layer's
self time is its span time minus that of its child spans.  Only traced
runs call ``install``; untraced runs execute the library unmodified.

A span is ``(op, id, parent, key, layer, start_ns, end_ns, size)``: ``op``
numbers the benchmark operation that caused it, ``key`` is
``layer.function`` (with the oracle appended for ``member``), and
``size`` is the number of points or grid nodes the call works on.
"""

from __future__ import annotations

import math
import sys
import time
import types
from collections import defaultdict

LAYERS = ("core", "membership", "boundary", "duality", "quantum", "measures",
          "cli")


def _member_key(args, kwargs) -> str:
    oracle = args[1] if len(args) > 1 else kwargs.get("oracle")
    return "member." + (oracle.value if oracle is not None else "semialg")


def _points(args, kwargs) -> int:
    return len(args[0])


def _samples(args, kwargs) -> int:
    return args[1].samples


def _nodes(args, kwargs) -> int:
    return math.prod(args[0].resolutions())


def _sample_key(args, kwargs) -> str:
    return "sample." + args[0].value


KEYS = {"member": _member_key, "sample": _sample_key}
SIZES = {"margin_batch": _points, "classical_margin_batch": _points,
         "mc_volume": _samples, "sample": _samples, "slice_grid": _nodes}


class Tracer:
    """Records spans in memory; ``op`` is set by the caller per operation."""

    def __init__(self, op: int = 0):
        self.op = op
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next = 0

    def _wrap(self, layer: str, name: str, fn):
        key_of, size_of = KEYS.get(name), SIZES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                key = key_of(args, kwargs) if key_of else name
                size = size_of(args, kwargs) if size_of else 1
                spans.append((self.op, sid, parent, f"{layer}.{key}", layer,
                              t0, t1, size))

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def merge_file(self, path: str) -> None:
        """Adopt the spans a child process wrote, under the current op."""
        spans = read_spans(path, self.op, self._next)
        self._next += len(spans) + 1
        self.spans.extend(spans)

    def install(self) -> int:
        """Wrap the public functions of every loaded layer; return the count."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "qbody" or name.startswith("qbody.")}
        wrapped = 0
        for layer in LAYERS:
            mod = mods.get("qbody." + layer)
            if mod is None:
                continue
            names = getattr(mod, "__all__", ["main"])
            for name in names:
                fn = getattr(mod, name, None)
                if not (isinstance(fn, types.FunctionType)
                        and fn.__module__ == mod.__name__):
                    continue
                wrapper = self._wrap(layer, name, fn)
                for other in mods.values():
                    for attr, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, attr, wrapper)
                wrapped += 1
        return wrapped


def write_spans(spans, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("op,id,parent,key,layer,start_ns,end_ns,size\n")
        for s in spans:
            fh.write(",".join(str(x) for x in s) + "\n")


def read_spans(path: str, op: int, id_offset: int) -> list[tuple]:
    """Spans written by a child process, renumbered into this process."""
    out = []
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            _, sid, parent, key, layer, t0, t1, size = line.rstrip("\n").split(",")
            parent = int(parent)
            out.append((op, int(sid) + id_offset,
                        parent + id_offset if parent >= 0 else -1,
                        key, layer, int(t0), int(t1), int(size)))
    return out


def summarize(spans) -> dict:
    """Per-layer calls and self time, and per-key durations and sizes."""
    child_ns: dict[int, int] = defaultdict(int)
    for _, _, parent, _, _, t0, t1, _ in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    durations: dict[str, list[int]] = defaultdict(list)
    sizes: dict[str, int] = defaultdict(int)
    for _, sid, _, key, layer, t0, t1, size in spans:
        calls[layer] += 1
        self_ns[layer] += (t1 - t0) - child_ns.get(sid, 0)
        durations[key].append(t1 - t0)
        sizes[key] += size
    return {"calls": dict(calls), "self_ns": dict(self_ns),
            "durations": dict(durations), "sizes": dict(sizes)}
