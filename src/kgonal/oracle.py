"""Brute-force enumeration of small structures, as method-independent truth.

A structure rooted at an oriented edge is a multiset of pages; a page is
one polygon glued on the root edge carrying an ordered (k-1)-tuple of
child structures, one per non-root edge, read off in the orientation of
the root.  Encoding that literally as nested tuples gives decidable
isomorphism without any graph machinery: two structures are isomorphic
exactly when their canonical encodings are equal, where canonical means
every multiset is stored sorted under a fixed total order (length, then
lexicographic, on serializations).

A page carrying s polygons serializes to exactly 2k*s characters (each
polygon adds one bracket pair for itself and one per child slot).  So
the page pool, built size by size with each size sorted, is already in
that global order, and a multiset drawn in non-decreasing pool index is
canonical as drawn, with no sort per structure.

Reversing the root edge's orientation reverses every page's child tuple,
recursively; re-canonicalizing after the flip yields the action whose
fixed points are the reflection-symmetric structures.  For even k the
child tuple has odd length, so the flip keeps the middle slot (the edge
opposite the root) in place, exactly as the geometry demands.
count_tau_fixed reverses each substructure once per call: a dict,
dropped when the call returns, maps every proper substructure (fewer
than n polygons) to its reversal.  Structures of size n, most of the
enumeration (44322 of 49k for k = 6 up to n = 6), are reversed, compared
and dropped without being stored, so the dict holds a few thousand
entries.  Storing them too raised the peak RSS of `verify --level full`
by 8 MB, and a module-level cache by 13 MB.

Everything here is exponential and meant for n up to about 7.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from kgonal.bseries import GonalParams

__all__ = [
    "CanonicalStructure",
    "serialize",
    "enumerate_b",
    "reversal",
    "count_tau_fixed",
]

# a structure is a tuple of pages; a page is a (k-1)-tuple of structures
CanonicalStructure = tuple


@lru_cache(maxsize=None)
def serialize(s: CanonicalStructure) -> str:
    return "(" + "".join(_serialize_page(p) for p in s) + ")"


@lru_cache(maxsize=None)
def _serialize_page(page: tuple) -> str:
    return "[" + "".join(serialize(c) for c in page) + "]"


def _page_key(page: tuple) -> tuple[int, str]:
    text = _serialize_page(page)
    return (len(text), text)


def _canonical(pages) -> CanonicalStructure:
    return tuple(sorted(pages, key=_page_key))


class _Enumerator:
    """Per-k memoized generator of all canonical structures by size."""

    def __init__(self, k: int) -> None:
        self.k = k
        self._structures: dict[int, frozenset] = {}
        self._pages: dict[int, list] = {}

    def structures(self, n: int) -> frozenset:
        got = self._structures.get(n)
        if got is None:
            got = frozenset(self._assemble(n, 0, self._page_pool(n)))
            self._structures[n] = got
        return got

    def pages(self, size: int) -> list:
        """All pages carrying exactly `size` polygons, sorted."""
        got = self._pages.get(size)
        if got is None:
            slots = self.k - 1
            got = []
            for split in _compositions(size - 1, slots):
                # the sort below fixes the order; sorting each choice first
                # took as long, and gave a 0.3 MB lower peak RSS on
                # verify --level full, than a product over the frozensets
                got.extend(product(*(sorted(self.structures(c), key=serialize) for c in split)))
            got.sort(key=_page_key)
            self._pages[size] = got
        return got

    def _page_pool(self, budget: int) -> list:
        pool = []
        for size in range(1, budget + 1):
            pool.extend((size, page) for page in self.pages(size))
        return pool

    def _assemble(self, budget: int, start: int, pool: list):
        # multisets of pages drawn from pool[start:] in non-decreasing
        # index; the pool is in page order, so each comes out canonical
        if budget == 0:
            yield ()
            return
        for idx in range(start, len(pool)):
            size, page = pool[idx]
            if size > budget:
                # the pool is sorted by page size, so no later page fits either
                break
            for rest in self._assemble(budget - size, idx, pool):
                yield (page,) + rest


def _compositions(total: int, slots: int):
    """Ordered tuples of `slots` non-negative integers summing to `total`."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


_ENUMERATORS: dict[int, _Enumerator] = {}


def _enum(params: GonalParams) -> _Enumerator:
    e = _ENUMERATORS.get(params.k)
    if e is None:
        e = _ENUMERATORS[params.k] = _Enumerator(params.k)
    return e


def enumerate_b(params: GonalParams, n: int) -> frozenset:
    """All canonical structures with exactly n polygons."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _enum(params).structures(n)


def _reversal(s: CanonicalStructure, memo: dict) -> CanonicalStructure:
    """Reversal of s; memo maps substructures below s to their reversals."""
    return _canonical(tuple(_child_reversal(c, memo) for c in reversed(page)) for page in s)


def _child_reversal(c: CanonicalStructure, memo: dict) -> CanonicalStructure:
    got = memo.get(c)
    if got is None:
        got = memo[c] = _reversal(c, memo)
    return got


def reversal(s: CanonicalStructure) -> CanonicalStructure:
    """Image of a structure under flipping the root orientation."""
    return _reversal(s, {})


def count_tau_fixed(params: GonalParams, n: int) -> int:
    """Number of structures of size n isomorphic to their own reversal."""
    memo: dict = {}
    return sum(1 for s in enumerate_b(params, n) if _reversal(s, memo) == s)
