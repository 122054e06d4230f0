"""Unrooted counts a_n by re-rooting every enumerated structure.

A test oracle that shares nothing with the counting layers past
decoded_oracle.enumerate_b.  Each structure is unpacked into polygons
given as vertex cycles; re-rooting it at a directed edge (u, v) reads
each polygon on that edge as u, v, c_1, ..., c_{k-2} and recurses into
its edges (v, c_1), ..., (c_{k-2}, u) away from the polygon, sorting
pages like decoded_oracle.serialize.  Two structures are the same
unrooted 2-tree exactly when one is a re-rooting of the other, so a_n
is the number of classes of size-n structures under re-rooting at
every edge, in both directions.  Each class is re-rooted once: a
structure whose serialization already appeared as a re-rooting of an
earlier one is skipped.  Needs k >= 3: a digon's two edges join the
same two vertices.
"""

from __future__ import annotations

from kgonal.bseries import GonalParams
from decoded_oracle import enumerate_b, serialize


def _polygons(s, u: int, v: int, cycles: list, fresh: list) -> None:
    """Append the polygons of s, rooted at the directed edge (u, v), as vertex cycles."""
    for page in s:
        inner = list(range(fresh[0], fresh[0] + len(page) - 1))
        fresh[0] += len(inner)
        cycle = [u, v, *inner]
        cycles.append(cycle)
        for i, child in enumerate(page):
            _polygons(child, cycle[i + 1], cycle[(i + 2) % len(cycle)], cycles, fresh)


def _rerootings(s) -> set[str]:
    """Serializations of s re-rooted at each of its directed edges."""
    cycles: list = []
    _polygons(s, 0, 1, cycles, [2])
    # the root edge is an edge even of the structure with no polygon
    on_edge: dict = {frozenset((0, 1)): []}
    for idx, cycle in enumerate(cycles):
        for i, a in enumerate(cycle):
            on_edge.setdefault(frozenset((a, cycle[(i + 1) % len(cycle)])), []).append(idx)
    memo: dict = {}

    def rooted(u: int, v: int, away: int) -> str:
        key = (u, v, away)
        got = memo.get(key)
        if got is None:
            pages = []
            for idx in on_edge[frozenset((u, v))]:
                if idx == away:
                    continue
                cycle = cycles[idx]
                i = cycle.index(u)
                if cycle[(i + 1) % len(cycle)] != v:
                    cycle = cycle[::-1]
                    i = cycle.index(u)
                walk = cycle[i:] + cycle[:i]
                children = (
                    rooted(walk[j], walk[(j + 1) % len(walk)], idx)
                    for j in range(1, len(walk))
                )
                pages.append("[" + "".join(children) + "]")
            got = memo[key] = "(" + "".join(sorted(pages, key=lambda p: (len(p), p))) + ")"
        return got

    forms = {rooted(u, v, -1) for edge in on_edge for u, v in (tuple(edge), tuple(edge)[::-1])}
    if rooted(0, 1, -1) != serialize(s):
        raise AssertionError("re-rooting at the original root changed the structure")
    return forms


def unrooted_count(params: GonalParams, n: int) -> int:
    """Number of k-gonal 2-trees with n polygons, up to isomorphism."""
    if params.k < 3:
        raise ValueError("vertex cycles need k >= 3")
    seen: set[str] = set()
    count = 0
    for s in enumerate_b(params, n):
        if serialize(s) in seen:
            continue
        count += 1
        seen |= _rerootings(s)
    return count
