"""A least-recently-used memo bounded by the bytes its entries state.

The policy, stated once for every memo: a ByteLRU holds at most BUDGET
(1 MiB) of entries, and it admits an entry only if the caller's upfront
bound on its bytes is at most budget // 8, so no single table can crowd out
the rest; a larger one is the caller's to build and not kept. The kernel's
access half (analysis) and the certificate tables (conditions) each keep one
ByteLRU of their own, so neither can evict the other's entries.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

__all__ = ["BUDGET", "ByteLRU"]

BUDGET = 1 << 20


class ByteLRU:
    """A dict of (size, *value) entries whose sizes total at most budget bytes."""

    budget = BUDGET
    cap = BUDGET // 8  # the largest upfront bound an entry may state

    def __init__(self) -> None:
        self.nbytes = 0
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.nbytes = 0

    def fetch(self, key, bound: int, build) -> tuple | None:
        """Return the value stored under key, building and storing it on a miss.

        A bound over cap returns None without building anything. A hit marks
        key most recently used. On a miss, build() returns the entry
        (size, *value), where size is the bytes it holds; it runs outside the
        lock, so two threads missing one key may both build it, and the first
        one stored wins. Storing an entry evicts the least recently used ones
        until the total fits the budget again.
        """
        if bound > self.cap:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry[1:]
        entry = build()
        with self._lock:
            stored = self._entries.setdefault(key, entry)
            if stored is entry:
                self.nbytes += entry[0]
                while self.nbytes > self.budget:
                    self.nbytes -= self._entries.popitem(last=False)[1][0]
        return stored[1:]
