"""Span tracing of symfact's public functions, installed from outside the package.

``Tracer.install`` wraps every public function defined in the traced modules
and rebinds *every* module attribute that refers to it, so a name imported
into another module (``solve_linear`` in ``factor``, ``eigen`` and
``antisym``) is traced at each call site.  Spans live in memory until the
run ends; ``self_times`` derives each function's self time from them.
``Tracer.remove`` restores the originals, and ``assert_untraced`` proves it.
"""

from __future__ import annotations

import builtins
import functools
import os
import time
import types
from array import array
from collections import Counter

TRACED_MODULES = ("matcore", "eigen", "factor", "antisym", "oracle", "cli")

#: attribute set on every wrapper; its value is the wrapped function
MARK = "__bench_traced__"

_ABSENT = object()


class _CountingFile:
    """File proxy that counts the bytes read from or written to it."""

    def __init__(self, fh, counters: Counter):
        self._fh = fh
        self._counters = counters

    def read(self, *args):
        data = self._fh.read(*args)
        self._counters["cli.bytes_read"] += len(data.encode() if isinstance(data, str) else data)
        return data

    def write(self, data):
        self._counters["cli.bytes_written"] += len(data.encode() if isinstance(data, str) else data)
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


class Tracer:
    """In-memory span recorder: parallel int64 arrays indexed by span id.

    ``names[i]`` indexes ``name_table``; ``parents[i]`` is -1 for a root.
    """

    def __init__(self):
        self.name_table: list = []
        self.names = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self.counters: Counter = Counter()
        self.op_id = -1
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, name: str, fn, hook=None):
        if name not in self.name_table:
            self.name_table.append(name)
        name_id = self.name_table.index(name)
        names, starts, ends, parents, ops, stack = (
            self.names, self.starts, self.ends, self.parents, self.ops, self._stack)
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer.counters, result)
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    def install(self, package, modules: dict, hooks: dict | None = None) -> None:
        """Wrap the public functions of ``modules`` ({short name: module}).

        Every attribute of the package and of each module that is one of the
        wrapped functions is rebound; ``cli.open`` is shadowed by a
        byte-counting ``open``.
        """
        if self._patches:
            raise RuntimeError("tracer is already installed")
        hooks = hooks or {}
        wrappers = {}
        for short in TRACED_MODULES:
            mod = modules[short]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    wrappers[id(obj)] = (obj, self._wrap(name, obj, hooks.get(name)))
        for mod in [package] + [modules[s] for s in TRACED_MODULES]:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        cli = modules["cli"]
        counters = self.counters

        def counting_open(file, mode="r", *args, **kwargs):
            return _CountingFile(builtins.open(file, mode, *args, **kwargs), counters)

        self._patches.append((cli, "open", vars(cli).get("open", _ABSENT)))
        cli.open = counting_open

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patches):
            if original is _ABSENT:
                delattr(mod, attr)
            else:
                setattr(mod, attr, original)
        self._patches.clear()

    def span_count(self) -> int:
        return len(self.starts)

    def self_times(self, first: int = 0, last: int | None = None) -> dict:
        """{name: (calls, self_ns)} over spans [first, last).

        Self time is a span's duration minus the durations of its direct
        children; children of one span never overlap (single thread).
        """
        last = len(self.starts) if last is None else last
        child_ns = [0] * (last - first)
        for i in range(first, last):
            p = self.parents[i]
            if p >= first:
                child_ns[p - first] += self.ends[i] - self.starts[i]
        out: dict = {}
        for i in range(first, last):
            name = self.name_table[self.names[i]]
            calls, self_ns = out.get(name, (0, 0))
            out[name] = (calls + 1, self_ns + self.ends[i] - self.starts[i] - child_ns[i - first])
        return out

    def write_spans(self, path: str) -> None:
        """CSV: id,op,parent,name,start_ns,end_ns (one line per span)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,op,parent,name,start_ns,end_ns\n")
            for i in range(len(self.starts)):
                fh.write(f"{i},{self.ops[i]},{self.parents[i]},{self.name_table[self.names[i]]},"
                         f"{self.starts[i]},{self.ends[i]}\n")


def assert_untraced(package, modules: dict) -> None:
    """Raise if any wrapper (or the counting ``open``) is still bound."""
    for mod in [package] + [modules[s] for s in TRACED_MODULES]:
        for attr, obj in vars(mod).items():
            if hasattr(obj, MARK):
                raise RuntimeError(f"trace wrapper left on {mod.__name__}.{attr}")
    if "open" in vars(modules["cli"]):
        raise RuntimeError("counting open left on symfact.cli")
