"""The contract of memo.ByteLRU.fetch: admission, hits, misses and eviction."""

from __future__ import annotations

import pytest

from dss_alloc import memo
from dss_alloc.memo import ByteLRU


class Builder:
    """A build callable that counts its calls and states a fixed entry size."""

    def __init__(self, size: int, *value) -> None:
        self.size, self.value, self.calls = size, value, 0

    def __call__(self) -> tuple:
        self.calls += 1
        return (self.size, *self.value)


def test_the_policy_is_one_mebibyte_with_an_eighth_per_entry():
    lru = ByteLRU()
    assert (lru.budget, lru.cap, lru.nbytes) == (memo.BUDGET, memo.BUDGET // 8, 0)
    assert memo.BUDGET == 1 << 20


def test_a_bound_over_the_cap_returns_none_without_building():
    lru = ByteLRU()
    build = Builder(1, "v")
    assert lru.fetch("k", lru.cap + 1, build) is None
    assert build.calls == 0
    assert (lru.nbytes, dict(lru._entries)) == (0, {})
    # the cap itself is admitted
    assert lru.fetch("k", lru.cap, build) == ("v",)


def test_a_miss_builds_once_and_counts_the_size_the_builder_reports():
    lru = ByteLRU()
    build = Builder(300, "a", "b")
    assert lru.fetch("k", 10, build) == ("a", "b")  # the bound is not the size
    assert build.calls == 1
    assert lru.nbytes == 300
    (size, *value), = lru._entries.values()
    assert (size, value) == (300, ["a", "b"])


def test_a_hit_does_not_build_and_marks_the_key_most_recently_used():
    lru = ByteLRU()
    for key in "abc":
        lru.fetch(key, 1, Builder(1, key))
    build = Builder(1, "other")
    assert lru.fetch("a", 1, build) == ("a",)
    assert build.calls == 0
    assert list(lru._entries) == ["b", "c", "a"]
    assert lru.nbytes == 3


def test_the_first_stored_value_wins():
    lru = ByteLRU()

    def racing_build():  # another thread stores the key while this one builds
        lru.fetch("k", 1, Builder(5, "first"))
        return (7, "second")

    assert lru.fetch("k", 1, racing_build) == ("first",)
    assert lru.nbytes == 5


@pytest.mark.parametrize("sizes", [[400_000] * 4, [100_000, 900_000, 300_000], [1 << 20, 1]])
def test_eviction_drops_least_recently_used_entries_until_the_budget_holds(sizes):
    lru = ByteLRU()
    for index, size in enumerate(sizes):
        lru.fetch(index, 0, Builder(size, index))
        assert lru.nbytes <= lru.budget
        assert lru.nbytes == sum(entry[0] for entry in lru._entries.values())
        # the newest entry is kept, and what is kept is a suffix of the insertion order
        kept = list(lru._entries)
        assert kept == list(range(index - len(kept) + 1, index + 1))
        # one more of the evicted ones would not fit
        if kept[0] > 0:
            assert lru.nbytes + sizes[kept[0] - 1] > lru.budget


def test_eviction_follows_use_not_insertion():
    lru = ByteLRU()
    for key in "abcd":
        lru.fetch(key, 0, Builder(300_000, key))
    assert list(lru._entries) == ["b", "c", "d"]  # a was evicted by d
    lru.fetch("b", 0, Builder(1))  # a hit: b is now the most recent
    lru.fetch("e", 0, Builder(300_000, "e"))
    assert list(lru._entries) == ["d", "b", "e"]


def test_clear_empties_the_memo():
    lru = ByteLRU()
    lru.fetch("k", 0, Builder(10, "v"))
    lru.clear()
    assert (lru.nbytes, dict(lru._entries)) == (0, {})
    build = Builder(10, "w")
    assert lru.fetch("k", 0, build) == ("w",)
    assert build.calls == 1
