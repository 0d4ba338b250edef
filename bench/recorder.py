"""Operation timing, failure accounting and the known-answer gate of one round."""

from __future__ import annotations

import hashlib
from time import perf_counter, process_time

FAILED = object()   # returned by Recorder.op when the operation raised


class Recorder:
    """Times each operation of a round and keeps what the gate found.

    An operation that raises, or gives an answer the gate does not expect,
    counts as failed and wrong.  With
    ``corrupt`` set, the first expected answer of the round is inverted,
    which the self-tests use to show that the gate trips.
    """

    def __init__(self, tracer=None, corrupt=False):
        self.tracer = tracer
        self.corrupt = corrupt
        self.latencies = []
        self.cpu_times = []
        self.failed = 0
        self.wrong = []
        self.cap_exceeded = 0   # refusals the gate expects
        self._inputs = hashlib.sha256()

    def note_input(self, text):
        """Add one generated input to the round's input digest."""
        self._inputs.update(text.encode("utf-8"))
        self._inputs.update(b"\n")

    @property
    def digest(self):
        return self._inputs.hexdigest()

    def op(self, label, fn, *args):
        """Run and time one operation; FAILED if it raised."""
        index = self.tracer.enter("bench.op") if self.tracer is not None else None
        start, cpu_start = perf_counter(), process_time()
        try:
            return fn(*args)
        except Exception as exc:  # any crash of the code under test is a failure
            self.fail(f"{label}: {type(exc).__name__}: {exc}")
            return FAILED
        finally:
            self.cpu_times.append(process_time() - cpu_start)
            self.latencies.append(perf_counter() - start)
            if index is not None:
                self.tracer.exit(index)

    def amortise(self, count):
        """Credit the last operation as `count` operations of equal length."""
        for times in (self.latencies, self.cpu_times):
            last = times.pop()
            times.extend([last / count] * count)

    def check(self, ok, what):
        """One expected answer per operation: record a wrong one as failed."""
        if self.corrupt:
            ok, self.corrupt = not ok, False
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what):
        self.failed += 1
        self.wrong.append(what)
