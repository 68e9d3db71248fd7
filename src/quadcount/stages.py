"""Stage timings for the JSON a report emits.

One `Stages` object serves one report.  `with stages.timed("count"):` adds
the seconds spent in the block to `seconds["count"]`, also when the block
raises, so a report that ends in a failure still says where its time went.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator


class Stages:
    __slots__ = ("seconds",)

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - start
