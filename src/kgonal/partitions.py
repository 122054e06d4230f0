"""Integer partition iteration for the Burnside route to b (labelled.burnside_b)."""

from __future__ import annotations

from typing import Iterator

__all__ = ["partitions"]


def partitions(total: int, min_part: int = 1) -> Iterator[tuple[int, ...]]:
    """All partitions of `total` with parts >= min_part, non-increasing."""
    if total < 0:
        raise ValueError("total must be >= 0")
    if min_part < 1:
        raise ValueError("min_part must be >= 1")

    def gen(remaining: int, max_part: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, max_part), min_part - 1, -1):
            for rest in gen(remaining - part, part):
                yield (part,) + rest

    yield from gen(total, total)
