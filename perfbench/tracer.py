"""Spans and counters recorded around calls into the program's layers.

The program itself carries no instrumentation, so the benchmark wraps the
public functions at the module attribute each caller looks them up from
(for example ``decrease_es`` as AG and GR import it) and restores them on
exit. A span is ``(name, seconds)``; ``tag`` names the caller that was
active when the span was recorded (``ag``, ``gr``, ``gr1``, ``ball-gr``).
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Collects spans and the arguments of selected calls."""

    def __init__(self) -> None:
        self.spans: dict[str, list[float]] = defaultdict(list)
        self.calls: dict[str, list[tuple[str, tuple, dict]]] = defaultdict(list)
        self.tag = ""

    @contextlib.contextmanager
    def tagged(self, tag: str):
        prev, self.tag = self.tag, tag
        try:
            yield
        finally:
            self.tag = prev

    @contextlib.contextmanager
    def wrapping(self, *targets: tuple[object, str, str, bool]):
        """Wrap ``owner.attr`` as span ``name`` for the ``with`` body.

        Each target is ``(owner, attr, name, keep_args)``; with
        ``keep_args`` the call's tag and arguments are kept as well.
        """
        saved = []
        for owner, attr, name, keep_args in targets:
            raw = inspect.getattr_static(owner, attr)
            saved.append((owner, attr, raw))
            wrapper = self._wrap(getattr(owner, attr), name, keep_args)
            if isinstance(raw, staticmethod):
                wrapper = staticmethod(wrapper)
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def _wrap(self, fn, name: str, keep_args: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keep_args:
                # Callers mutate masks after the call (AG blocks in place).
                kept = {
                    k: v.copy() if isinstance(v, np.ndarray) else v
                    for k, v in kwargs.items()
                }
                self.calls[name].append((self.tag, args, kept))
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[name].append(time.perf_counter() - t0)

        return wrapper

    @contextlib.contextmanager
    def retag(self, owner, attr: str, suffix: str):
        """Run every call of ``owner.attr`` under the current tag + ``suffix``."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with self.tagged(self.tag + suffix):
                return orig(*args, **kwargs)

        setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            setattr(owner, attr, orig)
