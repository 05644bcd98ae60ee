"""A least-recently-used memo bounded by the bytes its entries state.

The kernel's access half (analysis) and the certificate tables (conditions)
each keep one ByteLRU of their own, with their own budget, so neither can
evict the other's entries.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

__all__ = ["ByteLRU"]


class ByteLRU:
    """A dict of (size, *value) entries whose sizes total at most budget bytes.

    The caller states each entry's size and builds its value outside the
    lock that guards the dict; two threads missing one key may both build
    it, and the first one stored wins. Storing an entry evicts the least
    recently used ones until the total fits the budget again.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.nbytes = 0
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.nbytes = 0

    def get(self, key) -> tuple | None:
        """Return the value stored under key, marked most recently used, or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[1:]

    def put(self, key, size: int, value: tuple) -> tuple:
        """Store value under key unless a value is there already; return the stored one."""
        entry = (size, *value)
        with self._lock:
            stored = self._entries.setdefault(key, entry)
            if stored is entry:
                self.nbytes += size
                while self.nbytes > self.budget:
                    self.nbytes -= self._entries.popitem(last=False)[1][0]
        return stored[1:]
