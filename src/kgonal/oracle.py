"""Brute-force enumeration of small structures, as method-independent truth.

A structure rooted at an oriented edge is a multiset of pages; a page is
one polygon glued on the root edge carrying an ordered (k-1)-tuple of
child structures, one per non-root edge, read off in the orientation of
the root.  Two structures are isomorphic exactly when these
decompositions agree, so isomorphism classes can be interned as small
integers bottom-up, as in the tree-isomorphism labelling of Aho,
Hopcroft and Ullman (The Design and Analysis of Computer Algorithms,
1974, section 3.2):

    a page      is the tuple of its children's structure ids;
    a structure is the non-decreasing tuple of its pages' ids.

Ids are handed out once, in construction order, size by size, so the
ids of one size form a range and pages come out in non-decreasing size.
A multiset drawn in non-decreasing page id is therefore canonical as
drawn, and each class is built exactly once.

Reversing the root edge's orientation reverses every page's child tuple,
recursively; the structures it fixes are the reflection-symmetric ones.
For even k the child tuple has odd length, so the flip keeps the middle
slot (the edge opposite the root) in place, exactly as the geometry
demands.  On ids the reversal is two tables built for one count and
dropped after it: the reversal of a page is the page of its children's
reversals in reverse order, and that of a structure is the structure of
its pages' reversals, sorted.

Only the structures below size n are stored, because they are the
children.  Size n is streamed once: a structure of size n is either one
new page of size n or a multiset of at least two smaller pages, and the
one pass counts both |B_n| and the reversal-fixed structures without
storing any of them.  For k = 6 and n = 6 that stores 4 666 structures
and streams 44 322.  Nothing is kept between calls: rebuilding the
smaller sizes costs little next to streaming size n.

Nothing here decodes an id back into a structure; the tests' decoded
oracle (tests/decoded_oracle.py) does, through _Enumerator.images.

Everything here is exponential and meant for n up to about 7.
"""

from __future__ import annotations

from itertools import product

from kgonal.bseries import GonalParams

__all__ = ["count_structures"]


class _Enumerator:
    """Every page and structure with fewer than n polygons, for one k, as ids."""

    def __init__(self, k: int, n: int) -> None:
        self.k = k
        self.n = n
        # page id -> child structure ids, and back
        self.pages: list[tuple[int, ...]] = []
        self.page_id: dict[tuple[int, ...], int] = {}
        # structure id -> non-decreasing page ids, and back; id 0 has no polygon
        self.structs: list[tuple[int, ...]] = [()]
        self.struct_id: dict[tuple[int, ...], int] = {(): 0}
        # size -> the page ids and the structure ids of that size
        self.page_range: list[range] = [range(0)]
        self.struct_range: list[range] = [range(1)]
        for m in range(1, n):
            first = len(self.pages)
            for kids in self.new_pages(m):
                self.page_id[kids] = len(self.pages)
                self.pages.append(kids)
            self.page_range.append(range(first, len(self.pages)))
            first = len(self.structs)
            for pages in self.multisets(m, 0):
                self.struct_id[pages] = len(self.structs)
                self.structs.append(pages)
            self.struct_range.append(range(first, len(self.structs)))

    def new_pages(self, size: int):
        """Child ids of every page carrying `size` polygons; the children must be stored."""
        for split in _compositions(size - 1, self.k - 1):
            yield from product(*(self.struct_range[c] for c in split))

    def multisets(self, budget: int, start: int):
        """Non-decreasing stored page ids from `start` on whose sizes sum to `budget`."""
        if budget == 0:
            yield ()
            return
        for size in range(1, min(budget, len(self.page_range) - 1) + 1):
            pids = self.page_range[size]
            for pid in range(max(start, pids.start), pids.stop):
                for rest in self.multisets(budget - size, pid):
                    yield (pid,) + rest

    def images(self, on_page, on_struct) -> tuple[list, list]:
        """Images of every stored page and structure, each built from its parts' images."""
        page_img: list = []
        struct_img = [on_struct(())]
        for m in range(1, len(self.struct_range)):
            for pid in self.page_range[m]:
                page_img.append(on_page([struct_img[c] for c in self.pages[pid]]))
            for sid in self.struct_range[m]:
                struct_img.append(on_struct([page_img[p] for p in self.structs[sid]]))
        return page_img, struct_img

    def count(self) -> tuple[int, int]:
        """|B_n| and the reversal-fixed count, from one pass over size n."""
        rev_page, rev_struct = self.images(
            lambda kids: self.page_id[tuple(reversed(kids))],
            lambda pages: self.struct_id[tuple(sorted(pages))],
        )
        total = fixed = 0
        for pages in self.multisets(self.n, 0):
            total += 1
            fixed += tuple(sorted(map(rev_page.__getitem__, pages))) == pages
        for kids in self.new_pages(self.n):
            total += 1
            fixed += tuple(map(rev_struct.__getitem__, reversed(kids))) == kids
        return total, fixed


def _compositions(total: int, slots: int):
    """Ordered tuples of `slots` non-negative integers summing to `total`."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def count_structures(params: GonalParams, n: int) -> tuple[int, int]:
    """Numbers of structures with exactly n polygons: all, and those fixed by reversal."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _Enumerator(params.k, n).count()
