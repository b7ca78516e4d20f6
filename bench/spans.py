"""In-memory spans around calls into the mudmon layers.

A span is (name, start, end, parent, minute, units): ``parent`` is the index
of the enclosing span (-1 at top level), ``minute`` the simulated minute the
work belongs to (-1 for setup and training), and ``units`` the work items
the call handled (rows for a batch call). Spans stay in lists until the run
ends; ``write`` then dumps them as gzip'd tab-separated text.
"""

from __future__ import annotations

import gzip
import time
from collections import defaultdict
from pathlib import Path


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.minutes: list[int] = []
        self.units: list[int] = []
        self.minute = -1
        self._stack: list[int] = []

    def open(self, name: str, units: int = 1) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.minutes.append(self.minute)
        self.units.append(units)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def durations(self) -> dict[str, list[int]]:
        """Span durations in ns, grouped by name, in call order."""
        out: dict[str, list[int]] = defaultdict(list)
        for name, s, e in zip(self.names, self.starts, self.ends):
            out[name].append(e - s)
        return out

    def self_times(self) -> dict[str, int]:
        """Per-name total self time in ns: duration minus child spans' durations."""
        child = [0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, int] = defaultdict(int)
        for i, name in enumerate(self.names):
            out[name] += self.ends[i] - self.starts[i] - child[i]
        return out

    def units_by_name(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = defaultdict(list)
        for name, u in zip(self.names, self.units):
            out[name].append(u)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\tminute\tunits\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{self.parents[i]}\t{name}\t{self.starts[i]}\t"
                         f"{self.ends[i]}\t{self.minutes[i]}\t{self.units[i]}\n")
