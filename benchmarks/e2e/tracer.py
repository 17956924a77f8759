"""A small span tracer installed from outside the program under test.

Spans are recorded around *public* callables of ``repro`` by rebinding the
attribute on the owning class, instance or importing module for the
duration of one traced rep, and restored afterwards — the timed reps always
see the original callables. Each span is ``(name, start, end, parent)``
with ``parent`` the index of the enclosing span on the same thread (``-1``
at top level); every thread keeps its own span list and stack, so node
threads of the TCP testbed never contend on tracer state.

A layer's *self time* is its spans' duration minus the part their child
spans cover, so nested layers (``communicate`` → ``compress`` → ``record``)
are never counted twice and the self times of one thread add up to the
traced wall-clock of that thread's top-level spans.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

#: Index used as ``parent`` for top-level spans.
NO_PARENT = -1


@dataclass
class SpanStats:
    """Aggregate over every span of one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Records spans around wrapped callables; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        #: One ``(thread name, spans)`` entry per thread that recorded a span.
        self._threads: list[tuple[str, list]] = []
        #: ``(owner, attr, had_own_attr, original)`` for :meth:`restore`.
        self._patches: list[tuple] = []
        #: Optional per-name event counts fed by ``wrap(..., count=...)``.
        self.counts: dict[str, int] = {}

    # -- installing and removing wrappers ---------------------------------------

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Rebind ``owner.attr`` to a span-recording wrapper named ``name``.

        ``owner`` is a class (methods keep receiving ``self``), an instance,
        or the module that *imported* a function by name. ``count``, when
        given, maps the call's return value to an integer added to
        ``self.counts[name]`` (payloads per batch, links down per query);
        a span nested directly inside a span of the same name is not counted.
        """
        namespace = vars(owner)
        had_own = attr in namespace
        original = namespace[attr] if had_own else None
        wrapper = self._make_wrapper(getattr(owner, attr), name, count)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, had_own, original))

    def restore(self) -> None:
        """Remove every wrapper, newest first, restoring the exact originals."""
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _thread_state(self):
        spans: list = []
        state = (spans, [])
        self._local.state = state
        with self._lock:
            self._threads.append((threading.current_thread().name, spans))
        return state

    def _make_wrapper(self, func, name: str, count):
        local = self._local
        new_state = self._thread_state
        clock = self._clock
        counts = self.counts

        def traced(*args, **kwargs):
            try:
                spans, stack = local.state
            except AttributeError:
                spans, stack = new_state()
            index = len(spans)
            # Placeholder until the span ends: its name, so a nested call
            # can tell whether its parent is a span of the same name.
            spans.append(name)
            parent = stack[-1] if stack else NO_PARENT
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None and not (
                parent != NO_PARENT and spans[parent] == name
            ):
                # Nested same-name spans (a wrapper compressor delegating to
                # its inner one) describe one event; count it once.
                counts[name] = counts.get(name, 0) + int(count(result))
            return result

        traced.__wrapped__ = func
        return traced

    # -- reading the trace ------------------------------------------------------

    def spans(self) -> list[dict]:
        """Every finished span as a dict (for ``--spans`` dumps and tests)."""
        return [
            {
                "thread": thread_name,
                "index": index,
                "name": span[0],
                "start": span[1],
                "end": span[2],
                "parent": span[3],
            }
            for thread_name, spans in list(self._threads)
            for index, span in enumerate(spans)
            if isinstance(span, tuple)
        ]

    def stats(self) -> dict[str, SpanStats]:
        """Per-name call count, inclusive time and self time."""
        stats: dict[str, SpanStats] = {}
        for _, spans in list(self._threads):
            covered = [0.0] * len(spans)
            for span in spans:
                if isinstance(span, tuple) and span[3] != NO_PARENT:
                    covered[span[3]] += span[2] - span[1]
            for index, span in enumerate(spans):
                if not isinstance(span, tuple):
                    continue
                name, start, end, _ = span
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = SpanStats()
                entry.calls += 1
                entry.total_s += end - start
                entry.self_s += (end - start) - covered[index]
        return stats
