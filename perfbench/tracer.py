"""In-memory spans recorded around the benchmark's calls into each layer.

A span has a name, a start, an end and the span that was open when it
started.  Nothing is written while the benchmark runs; ``dump`` writes
every span at the end.  A span's self time is its duration minus the
time its child spans cover.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from statistics import median


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent id or None, name, start, end]
        self._open = []

    @contextmanager
    def span(self, name):
        record = [len(self.spans), self._open[-1] if self._open else None, name,
                  time.perf_counter(), None]
        self.spans.append(record)
        self._open.append(record[0])
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._open.pop()

    def durations(self, name):
        return [end - start for _, _, n, start, end in self.spans if n == name]

    def self_times(self, name):
        child_time = {}
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        return [end - start - child_time.get(sid, 0.0)
                for sid, _, n, start, end in self.spans if n == name]

    def median(self, name):
        """Median duration of the spans called ``name``."""
        return median(self.durations(name))

    def dump(self, path, header):
        names = sorted({s[2] for s in self.spans})
        summary = {n: {"count": len(self.durations(n)),
                       "total_s": sum(self.durations(n)),
                       "self_s": sum(self.self_times(n))} for n in names}
        spans = [{"id": i, "parent": p, "name": n, "start": s, "end": e}
                 for i, p, n, s, e in self.spans]
        with open(path, "w") as fh:
            json.dump({**header, "layers": summary, "spans": spans}, fh, indent=1)
            fh.write("\n")
