"""Span recording for the traced benchmark run.

Spans are recorded from the benchmark's own code around each call into a
dhbox layer; nothing inside ``src/dhbox`` is instrumented.  A span holds
its name, start, end, parent span and trial id, and the nanoseconds its
children cover, so self time is ``end - start - covered``.

Identity queries are far too many to store one span each (about a million
per second), so the pass-through proxies below time every query and add
the time to the innermost open span's covered total and to per-kind
counters instead.  The untraced timing runs use :data:`NO_TRACE`, whose
methods hand the real objects back and open no spans.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter_ns

# Indices into a span record, a list kept small on purpose.
NAME, START, END, PARENT, TRIAL, COVERED = range(6)


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NoTrace:
    """Tracing turned off: no spans, no proxies, nothing recorded."""

    enabled = False

    def span(self, name):
        return _NULL_SPAN

    def oracle(self, inner, kind, screening=False):
        return inner

    def handle(self, inner):
        return inner

    def count(self, name, n=1):
        pass

    def note_max(self, name, value):
        pass

    def query_total(self):
        return 0

    def screening_total(self):
        return 0


NO_TRACE = NoTrace()


class _Span:
    __slots__ = ("_tracer", "_name")

    def __init__(self, tracer, name):
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        self._tracer.begin(self._name)
        return self

    def __exit__(self, *exc):
        self._tracer.end()
        return False


class Tracer:
    """In-memory span recorder plus per-pass query and event counters."""

    enabled = True

    def __init__(self):
        self.spans = []
        self._stack = []
        self.trial = -1
        self._in_query = False
        self.new_pass()

    def new_pass(self):
        """Reset the per-pass aggregates; spans accumulate across passes."""
        self.pass_start = len(self.spans)
        self.query_ns = 0
        self.queries = Counter()
        self.screening = 0
        self.events = Counter()

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter_ns(), 0, parent, self.trial, 0])

    def end(self):
        rec = self.spans[self._stack.pop()]
        rec[END] = perf_counter_ns()
        if self._stack:
            self.spans[self._stack[-1]][COVERED] += rec[END] - rec[START]

    def span(self, name):
        return _Span(self, name)

    def oracle(self, inner, kind, screening=False):
        return OracleProxy(inner, self, kind, screening)

    def handle(self, inner):
        return HandleProxy(inner, self)

    def count(self, name, n=1):
        self.events[name] += n

    def note_max(self, name, value):
        self.events[name] = max(self.events[name], value)

    def query_total(self):
        return sum(self.queries.values())

    def screening_total(self):
        return self.screening

    def timed_query(self, proxy, fn, arg, screening):
        # Only the outermost proxy records: a view wrapping a proxied
        # oracle must not charge one query twice.
        if self._in_query:
            return fn(arg)
        self._in_query = True
        t0 = perf_counter_ns()
        try:
            return fn(arg)
        finally:
            dt = perf_counter_ns() - t0
            self._in_query = False
            self.query_ns += dt
            self.queries[proxy.kind] += 1
            if screening or proxy.screening:
                self.screening += 1
            if self._stack:
                self.spans[self._stack[-1]][COVERED] += dt

    def pass_totals(self):
        """Total and self nanoseconds per span name over the current pass."""
        total = Counter()
        own = Counter()
        for rec in self.spans[self.pass_start:]:
            dur = rec[END] - rec[START]
            total[rec[NAME]] += dur
            own[rec[NAME]] += dur - rec[COVERED]
        return total, own

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i,
                    "name": rec[NAME],
                    "start_ns": rec[START],
                    "end_ns": rec[END],
                    "parent": rec[PARENT],
                    "trial": rec[TRIAL],
                    "covered_ns": rec[COVERED],
                }) + "\n")


class OracleProxy:
    """Pass-through view of an oracle that times and counts each query.

    ``query`` calls (on a group element) are the generator checks of the
    algorithms and count as screening; a proxy built with
    ``screening=True`` counts every query it records as screening (the
    unit-vector queries of oracle normalization).
    """

    __slots__ = ("_inner", "_tracer", "kind", "screening")

    def __init__(self, inner, tracer, kind, screening):
        self._inner = inner
        self._tracer = tracer
        self.kind = kind
        self.screening = screening

    @property
    def modulus(self):
        return self._inner.modulus

    @property
    def level(self):
        return self._inner.level

    @property
    def queries(self):
        return self._inner.queries

    def query_coords(self, coords):
        return self._tracer.timed_query(self, self._inner.query_coords, coords, False)

    def query(self, h):
        return self._tracer.timed_query(self, self._inner.query, h, True)

    def reveal_hidden(self, escrow):
        return self._inner.reveal_hidden(escrow)

    def reveal_normal(self, escrow):
        return self._inner.reveal_normal(escrow)


class HandleProxy:
    """DLOG/CDH handle whose calls are recorded as ``oracle.handle`` spans."""

    __slots__ = ("_inner", "_tracer")

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer

    @property
    def modulus(self):
        return self._inner.modulus

    @property
    def calls(self):
        return self._inner.calls

    def __call__(self, *args):
        self._tracer.begin("oracle.handle")
        try:
            return self._inner(*args)
        finally:
            self._tracer.end()
