"""Spans, module patching and order statistics for the benchmark.

Spans are recorded only from the benchmark's own code: either around a
call the benchmark makes itself (``Tracer.call``) or around a public
function that the benchmark swaps into a module's namespace for the
length of a traced run (``patched`` plus ``Tracer.wrap``).  The program's
files are never changed.
"""

from __future__ import annotations

import contextlib
import math
import time
from pathlib import Path

_ANY = object()


class Tracer:
    """In-memory span log.  A span is (name, tag, start, end, parent, item):
    ``parent`` is the index of the enclosing span or -1, ``item`` the id of
    the workload item the span belongs to, ``tag`` a short label such as a
    branch id or a part kind."""

    def __init__(self):
        self.spans: list = []
        self.item = -1
        self._open = -1

    def wrap(self, name: str, fn, tag_fn=None):
        """``fn`` with a span around every call; ``tag_fn(result)`` labels it."""

        def traced(*args, **kwargs):
            return self.call(name, fn, *args, tag_fn=tag_fn, **kwargs)

        return traced

    def call(self, name: str, fn, *args, tag=None, tag_fn=None, **kwargs):
        spans = self.spans
        parent = self._open
        idx = len(spans)
        spans.append(None)
        self._open = idx
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            spans[idx] = (name, "error", t0, time.perf_counter(), parent, self.item)
            raise
        finally:
            self._open = parent
        t1 = time.perf_counter()
        if tag_fn is not None:
            tag = tag_fn(result)
        spans[idx] = (name, tag, t0, t1, parent, self.item)
        return result

    def durations(self, name: str, tag=_ANY, items=None) -> list[float]:
        return [
            s[3] - s[2]
            for s in self.spans
            if s[0] == name
            and (tag is _ANY or s[1] == tag)
            and (items is None or s[5] in items)
        ]

    def mean_us(self, name: str, tag=_ANY, items=None) -> float:
        """Mean span length in microseconds; 0 when the layer was not called."""
        d = self.durations(name, tag, items)
        return 1e6 * sum(d) / len(d) if d else 0.0

    def top_level_seconds(self) -> float:
        return sum(s[3] - s[2] for s in self.spans if s[4] == -1)

    def write(self, path: Path) -> None:
        """Write the spans as tab-separated lines, times in microseconds
        from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w", encoding="ascii") as out:
            out.write("name\ttag\tstart_us\tend_us\tparent\titem\n")
            for name, tag, t0, t1, parent, item in self.spans:
                out.write(
                    f"{name}\t{'' if tag is None else tag}\t"
                    f"{(t0 - origin) * 1e6:.1f}\t{(t1 - origin) * 1e6:.1f}\t"
                    f"{parent}\t{item}\n"
                )


@contextlib.contextmanager
def patched(module, **replacements):
    """Rebind names in ``module`` for the duration of the block."""
    saved = {name: getattr(module, name) for name in replacements}
    for name, value in replacements.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def tail_percentile(count: float) -> float:
    """The highest percentile, capped at p99, that leaves at least ten
    items beyond it; with ten items or fewer, the maximum."""
    if count <= 10:
        return 100.0
    return min(99.0, 100.0 * (1.0 - 10.0 / count))
