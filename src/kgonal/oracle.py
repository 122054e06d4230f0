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

One enumerator counts every size from 0 to n.  The structures below
size n are stored, because they are the children, so their counts are
the lengths of their id ranges and their fixed counts are read off the
structure reversal table.  Size n is streamed once: a structure of size
n is either one new page of size n or a multiset of at least two smaller
pages, and the one pass counts both |B_n| and the reversal-fixed
structures without storing any of them.  For k = 6 and n = 6 that stores
4 666 structures and streams 44 322.  Every streamed structure is
counted, but only one that might be fixed is compared with its image:
reversal reverses a new page's composition of child sizes, so only a
palindromic composition can give a fixed page, and a fixed multiset
holds the image of each of its pages, its largest among them.  Nothing
is kept between calls.

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

    def count(self) -> list[tuple[int, int]]:
        """|B_m| and the reversal-fixed count for m = 0..n.

        The stored sizes are counted from their id ranges and the
        structure reversal table; size n from one pass, in which only a
        structure that might be fixed is compared with its image.
        """
        rev_page, rev_struct = self.images(
            lambda kids: self.page_id[tuple(reversed(kids))],
            lambda pages: self.struct_id[tuple(sorted(pages))],
        )
        counts = [(len(ids), sum(rev_struct[s] == s for s in ids)) for ids in self.struct_range]
        if self.n == 0:
            # size 0, the empty structure, is always stored
            return counts
        total = fixed = 0
        for pages in self.multisets(self.n, 0):
            total += 1
            # a fixed multiset holds the image of each of its pages
            if rev_page[pages[-1]] in pages:
                fixed += tuple(sorted(map(rev_page.__getitem__, pages))) == pages
        for split in _compositions(self.n - 1, self.k - 1):
            # reversal reverses the children's sizes, so only a
            # palindromic split can hold a fixed page
            mirrored = split == split[::-1]
            for kids in product(*(self.struct_range[c] for c in split)):
                total += 1
                if mirrored:
                    fixed += tuple(map(rev_struct.__getitem__, reversed(kids))) == kids
        counts.append((total, fixed))
        return counts


def _compositions(total: int, slots: int):
    """Ordered tuples of `slots` non-negative integers summing to `total`."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def count_structures(params: GonalParams, n: int) -> list[tuple[int, int]]:
    """For m = 0..n, the numbers of structures with m polygons: all, and those fixed by reversal."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _Enumerator(params.k, n).count()
