"""Spans and counters recorded from outside the program.

A Tracer replaces public trafficlab functions and methods with timing
wrappers for the duration of a ``with`` block and restores them on exit.
Functions that other modules imported by name (``from .incidents import
apply_effects``) are replaced under every alias, so a call is traced no
matter which module makes it.  Spans nest: each records its wall time and
the part of it covered by traced calls made inside it, which gives a
layer's self time.  Hooks run after a call returns and turn its arguments
or result into counters.  An optional ``before`` callable runs ahead of
every outermost traced call, outside all spans; its wall time is summed in
``before_s`` so that a caller can take it out of its own timing.
"""
from __future__ import annotations

import functools
import sys
import time


class Tracer:
    def __init__(self, targets, before=None):
        """targets: (owner, attribute, span name, hook or None).  The span
        name may be a callable of (args, kwargs) to tag calls by argument;
        the hook is called as hook(tracer, result, args, kwargs)."""
        self.targets = list(targets)
        self.before = before
        self.before_s = 0.0
        self.total: dict = {}
        self.covered: dict = {}
        self.calls: dict = {}
        self.counts: dict = {}
        self._open: list = []
        self._undo: list = []

    def count(self, name: str, n=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def snapshot(self) -> dict:
        return {"total": dict(self.total), "covered": dict(self.covered),
                "calls": dict(self.calls), "counts": dict(self.counts)}

    def __enter__(self):
        for owner, attr, name, hook in self.targets:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, hook)
            if isinstance(owner, type):
                self._replace(owner, attr, wrapper)
                continue
            for module in _trafficlab_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    def _replace(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            if tracer.before is not None and not tracer._open:
                t0 = time.perf_counter()
                tracer.before()
                tracer.before_s += time.perf_counter() - t0
            tracer._open.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner = tracer._open.pop()
                if tracer._open:
                    tracer._open[-1] += dt
                tracer.total[span] = tracer.total.get(span, 0.0) + dt
                tracer.covered[span] = tracer.covered.get(span, 0.0) + inner
                tracer.calls[span] = tracer.calls.get(span, 0) + 1
            if hook is not None:
                hook(tracer, result, args, kwargs)
            return result

        return traced


def _trafficlab_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "trafficlab"
                                  or n.startswith("trafficlab."))]
