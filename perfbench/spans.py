"""In-memory spans around every public lscat function, and numpy call counts.

The library is not edited: the tracer replaces each public function in
every lscat module namespace it appears in (cli imports names directly, so
lscat.cli.factor_aii is patched as well as lscat.factorizations.factor_aii),
and restores the originals on uninstall.  Calls inside the library resolve
module globals at call time, so nested calls are traced too.

A span is [name, start_ns, end_ns, parent, op, error]; spans of one op share
the op id, and parent is the index of the enclosing span (-1 for an op).
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
import types
from collections import Counter, defaultdict

import numpy as np

COUNTED_NUMPY = ("eigh", "det", "qr")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []
        self._build_patches()

    def _span_wrapper(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1], self.op_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()

        return traced

    def _count_wrapper(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.op_id >= 0:
                counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _build_patches(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "lscat" or name.startswith("lscat."))]
        wrappers = {}
        for mod in modules:
            for attr, value in vars(mod).items():
                if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                        or not value.__module__.startswith("lscat")):
                    continue
                if value not in wrappers:
                    layer = value.__module__.rpartition(".")[2]
                    wrappers[value] = self._span_wrapper(f"{layer}.{value.__name__}", value)
                self._patches.append((mod, attr, value, wrappers[value]))
        for name in COUNTED_NUMPY:
            fn = getattr(np.linalg, name)
            self._patches.append((np.linalg, name, fn, self._count_wrapper(f"numpy.{name}", fn)))

    def install(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._stack.append(len(self.spans))
        self.spans.append(["op", time.perf_counter_ns(), 0, -1, op_id, None])

    def end_op(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter_ns()
        self.op_id = -1

    def layer_totals(self, op_scale) -> dict[str, dict[str, float]]:
        """Per span name: calls and self time in ns.

        Self time is a span's duration minus that of its direct children;
        calls are synchronous on one thread, so children never overlap.  It
        is multiplied by op_scale[op], the speed factor of the span's op.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals = defaultdict(lambda: {"calls": 0, "self_ns": 0.0})
        for i, (name, start, end, _, op, _) in enumerate(self.spans):
            t = totals[name]
            t["calls"] += 1
            t["self_ns"] += (end - start - child_ns[i]) * op_scale[op]
        return dict(totals)

    def write(self, path, header: dict) -> None:
        """Write the header and every span as gzipped JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"header": header,
               "fields": ["name", "start_ns", "end_ns", "parent", "op", "error"],
               "spans": self.spans}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
