"""Small shared helpers: thread budget, parallel map, unique ids."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

THREADS_ENV = "CIRCLET_THREADS"


def thread_count() -> int:
    """Thread budget from the CIRCLET_THREADS environment variable.

    Unset, empty, or invalid values mean 1 (sequential).
    """
    raw = os.environ.get(THREADS_ENV, "")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


def parallel_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """Order-preserving map, threaded when the budget allows it.

    Results are collected in input order, so callers see identical output
    regardless of the thread count.
    """
    n = thread_count()
    if n <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))


def unique_ids(ids: Iterable) -> list:
    seen = set()
    out = []
    for i in ids:
        if i in seen:
            raise ValueError(f"duplicate id: {i!r}")
        seen.add(i)
        out.append(i)
    return out
