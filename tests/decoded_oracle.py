"""The oracle's structures decoded into nested tuples, for the tests.

kgonal.oracle counts structures as interned integer ids and never
decodes them.  This module decodes the same ids into an explicit
encoding: nested tuples whose every multiset of pages is sorted under a
fixed total order (length, then lexicographic, on serializations).  A
page carrying s polygons serializes to exactly 2k*s characters, since
each polygon adds one bracket pair for itself and one per child slot.
enumerate_b decodes every structure of one size, reversal flips the
root orientation of a decoded structure, and serialize writes one as
text; tests/unrooted_oracle.py re-roots structures through all three.
"""

from __future__ import annotations

from functools import lru_cache

from kgonal.bseries import GonalParams
from kgonal.oracle import _Enumerator

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
    pages = tuple(pages)
    # most structures have one page, and one page needs no serialization
    return pages if len(pages) < 2 else tuple(sorted(pages, key=_page_key))


def _decoded(enumerator: _Enumerator) -> frozenset:
    """The structures of the enumerator's size n in the nested-tuple encoding."""
    page_img, struct_img = enumerator.images(tuple, _canonical)
    out = {
        _canonical(map(page_img.__getitem__, pages))
        for pages in enumerator.multisets(enumerator.n, 0)
    }
    out.update(
        (tuple(map(struct_img.__getitem__, kids)),) for kids in enumerator.new_pages(enumerator.n)
    )
    return frozenset(out)


def enumerate_b(params: GonalParams, n: int) -> frozenset:
    """All canonical structures with exactly n polygons."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _decoded(_Enumerator(params.k, n))


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
