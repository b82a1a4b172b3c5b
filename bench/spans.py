"""In-memory spans recorded around calls into the program, and their analysis.

A span is ``[name, start, end, parent, run_id]``: ``parent`` is the index of
the enclosing span in the same list, or -1. Spans are kept in a list while the
program runs and written out once at the end.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import time
from collections import defaultdict

NAME, START, END, PARENT, RUN = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.run_id = ""
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        record = [name, time.perf_counter(), math.nan,
                  self._stack[-1] if self._stack else -1, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a step of the benchmark itself."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a function that records a span per call.

        A name the program no longer has is noted in ``absent`` and skipped,
        so a refactor that removes a fine-grained function keeps the run going.
        """
        original = getattr(owner, attr, None)
        if not callable(original):
            self.absent.append(name)
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(record)

        setattr(owner, attr, traced)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(("name", "start", "end", "parent", "run_id"), record))) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for record in spans:
        if record[PARENT] >= 0:
            children[record[PARENT]].append((record[START], record[END]))
    result = []
    for index, record in enumerate(spans):
        start, end = record[START], record[END]
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def percentile(values, q: float) -> dict:
    """Nearest-rank percentile, with the sample count and how many lie beyond.

    An empty sample gives a value of 0 with a count of 0.
    """
    ordered = sorted(values)
    count = len(ordered)
    if not count:
        return {"q": q, "value": 0.0, "samples": 0, "beyond": 0}
    rank = max(1, math.ceil(q / 100.0 * count))
    return {"q": q, "value": ordered[rank - 1], "samples": count, "beyond": count - rank}
