"""Stage timings and event counters for the JSON a report emits.

One `Stages` object serves one report.  `with stages.timed("h1"):` adds the
seconds spent in the block to `seconds["h1"]`, and `stages.count("residual")`
adds one to `counts["residual"]`.  Both are kept when the block raises, so a
report that ends in a failure still says where its time went and why.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator


class Stages:
    __slots__ = ("seconds", "counts")

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, int] = {}

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - start

    def count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1
