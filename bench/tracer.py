"""Span tracing of the program from outside, for the per-layer split.

`Tracer.patch_function` replaces a public function of a `hetmarket` module
with a wrapper in every module namespace that binds it, `patch_method` does
the same for a method on its class, and `uninstall` puts the originals back.
The program itself has no timing hooks.

Each call of a wrapped function is a span.  A span's parent is the wrapped
call it ran inside, and its self time is its duration minus the time its
child spans cover.  The horizon workload makes millions of spans, so spans
are kept in memory aggregated by (parent name, name) rather than one by one;
that keeps every parent link and every self time while memory stays flat.
Counters hooked to chosen spans compute work counts from a call's arguments
and result, and exceptions are counted per span name and class.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from typing import Callable

ROOT = "<root>"
CountHook = Callable[[tuple, dict, object], dict]


class Tracer:
    def __init__(self) -> None:
        # (parent, name) -> [calls, total seconds, self seconds]
        self.edges: dict[tuple[str, str], list] = {}
        self.samples: dict[str, list[float]] = {}
        self.counters: Counter = Counter()
        self.errors: Counter = Counter()
        self._stack: list[list] = [[ROOT, 0.0]]  # [name, seconds covered by children]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, count: CountHook | None = None,
             keep_samples: bool = False) -> Callable:
        stack, edges = self._stack, self.edges
        samples = self.samples.setdefault(name, []) if keep_samples else None
        counters, errors = self.counters, self.errors
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += elapsed
                edge = edges.get((parent[0], name))
                if edge is None:
                    edge = edges[(parent[0], name)] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += elapsed
                edge[2] += elapsed - frame[1]
                if samples is not None:
                    samples.append(elapsed)
            if count is not None:
                counters.update(count(args, kwargs, result))
            return result

        return traced

    def patch_function(self, fn: Callable, name: str, **options) -> None:
        """Wrap `fn` in every loaded `hetmarket` module that binds it."""
        wrapped = self.wrap(name, fn, **options)
        bound = False
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "hetmarket" or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapped)
                    bound = True
        if not bound:
            raise LookupError(f"{name}: function is bound in no hetmarket module")

    def patch_method(self, cls: type, attr: str, name: str, **options) -> None:
        original = vars(cls)[attr]
        self._patched.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, **options))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reading the spans -------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(e[0] for (_, n), e in self.edges.items() if n == name)

    def total_s(self, name: str, outside: frozenset[str] = frozenset()) -> float:
        """Inclusive seconds of `name` spans whose parent is not in `outside`."""
        return sum(e[1] for (p, n), e in self.edges.items() if n == name and p not in outside)

    def self_s(self, name: str) -> float:
        return sum(e[2] for (_, n), e in self.edges.items() if n == name)

    def calls_under(self, name: str, parent: str) -> int:
        edge = self.edges.get((parent, name))
        return 0 if edge is None else edge[0]

    def write(self, path: str) -> None:
        spans = [
            {"parent": p, "name": n, "calls": e[0], "total_s": e[1], "self_s": e[2]}
            for (p, n), e in sorted(self.edges.items())
        ]
        payload = {
            "spans": spans,
            "counters": dict(sorted(self.counters.items())),
            "errors": [
                {"name": n, "error": err, "count": c}
                for (n, err), c in sorted(self.errors.items())
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")
