"""In-memory span tracing of linkform, driven from the benchmark.

``Tracer.install`` wraps each function named in ``layers.TRACED`` and
rebinds the name in every loaded ``linkform`` module that holds it, so
calls between modules are caught as well as calls from the benchmark.
Each call records a span: name, start, end, parent span and op id.
Spans stay in compact arrays until ``write`` stores them; ``layer_totals``
derives call counts, total time and self time (span time minus child
spans).
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

import layers

FIELDS = (("name", "i"), ("parent", "i"), ("op", "i"), ("start", "d"), ("end", "d"))


@dataclass
class Totals:
    """Per traced function: calls, seconds in its spans, seconds in its spans
    minus their child spans, and calls that had a brute-force child span."""

    calls: Counter
    total_s: Counter
    self_s: Counter
    with_brute: Counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.cols = {field: array(code) for field, code in FIELDS}
        self.stack: list[int] = []
        self.op = -1
        self.truthy: Counter[str] = Counter()  # calls that returned a true value
        self._wrappers: dict[str, tuple[object, object]] = {}
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        cols, stack, truthy = self.cols, self.stack, self.truthy
        c_name, c_parent, c_op = cols["name"], cols["parent"], cols["op"]
        c_start, c_end = cols["start"], cols["end"]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(c_start)
            c_name.append(name_id)
            c_parent.append(stack[-1] if stack else -1)
            c_op.append(self.op)
            c_end.append(0.0)
            stack.append(i)
            c_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                c_end[i] = perf_counter()
                stack.pop()
            if result is True:
                truthy[name] += 1
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded linkform module."""
        modules = [m for n, m in sys.modules.items() if n == "linkform" or n.startswith("linkform.")]
        for layer, functions in layers.TRACED.items():
            home = sys.modules[f"linkform.{layer}"]
            for fn_name in functions:
                name = f"{layer}.{fn_name}"
                if name not in self._wrappers:
                    original = getattr(home, fn_name)
                    self._wrappers[name] = original, self._wrap(name, original)
                original, wrapper = self._wrappers[name]
                for module in modules:
                    if getattr(module, fn_name, None) is original:
                        setattr(module, fn_name, wrapper)
                        self._rebound.append((module, fn_name, original))

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._rebound):
            setattr(module, fn_name, original)
        self._rebound.clear()

    def layer_totals(self) -> Totals:
        c = self.cols
        n = len(c["start"])
        dur = [e - s for s, e in zip(c["start"], c["end"])]
        child = [0.0] * n
        for i, parent in enumerate(c["parent"]):
            if parent >= 0:
                child[parent] += dur[i]
        calls: Counter[str] = Counter()
        total_s: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        names = [self.names[k] for k in c["name"]]
        for i, name in enumerate(names):
            calls[name] += 1
            total_s[name] += dur[i]
            self_s[name] += dur[i] - child[i]
        # isomorphism decisions that went to the brute-force search
        brute_parents = {
            c["parent"][i]
            for i, name in enumerate(names)
            if name == "pairing.brute_force_isomorphic" and c["parent"][i] >= 0
        }
        with_brute = Counter(names[p] for p in brute_parents)
        return Totals(calls, total_s, self_s, with_brute)

    def write(self, path) -> None:
        """Store the spans: a JSON header line, then each column's bytes."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "count": len(self.cols["start"]),
            "fields": [[field, code] for field, code in FIELDS],
            "op_ids": "index of the op in the run; parent -1 is a root span",
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for field, _ in FIELDS:
                fh.write(self.cols[field].tobytes())


def read_spans(path) -> tuple[dict, dict[str, array]]:
    """Inverse of Tracer.write."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for field, code in header["fields"]:
            col = array(code)
            col.frombytes(fh.read(col.itemsize * header["count"]))
            cols[field] = col
    return header, cols
