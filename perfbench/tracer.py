"""In-memory span tracer that wraps bitmod's public functions from outside.

A wrapper replaces a function in every ``bitmod`` module that holds it, so
it is seen wherever callers look the function up (``bitmod.pe`` calls
``encode_weight`` through its own module global, ``archsim`` calls
``simulate_layer`` through its own, and so on).  Each call records a span
``[name, start_ns, end_ns, parent_index]``; spans stay in memory until the
run ends.  A target that no longer exists is recorded as absent instead of
failing, so a refactor that removes an internal stage does not break the
trace.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.enabled = False
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0, 0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = perf_counter_ns()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one op."""
        if not self.enabled:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def paused(self):
        """Run output checks without recording them as program work."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def _wrapper(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def wrap(self, module_name: str, attr: str, span_name: str) -> None:
        try:
            original = getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError):
            self.absent.append(span_name)
            return
        traced = self._wrapper(original, span_name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "bitmod"
                                   or mod_name.startswith("bitmod.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._restore.append((mod, key, original))

    def unwrap_all(self) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total (inclusive) and self seconds."""
        child_ns = defaultdict(int)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for idx, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += (end - start) * 1e-9
            row["self_s"] += (end - start - child_ns[idx]) * 1e-9
        return dict(out)

    def parent_name(self, idx: int) -> str | None:
        parent = self.spans[idx][3]
        return self.spans[parent][0] if parent >= 0 else None
