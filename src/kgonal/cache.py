"""Advisory disk cache for the edge-rooted coefficient tables.

One JSON document per polygon size k, holding b and C = b^{k-1} as
decimal strings so arbitrary-size integers survive the round trip, and
one sha256 of both lists, fed one string at a time by the same routine
when a table is written and when it is read.  The cache is strictly
advisory: anything missing, unreadable, version-skewed, shorter than
the request, or whose coefficients do not match the stored hash is
treated as a miss and recomputed.  A wrong table under a matching hash
is left to the exact divisions downstream, which raise on it.  Each
writer goes through its own temporary file and an atomic rename, so
concurrent writers leave one complete document.  Nothing in this module ever raises on a bad
cache file.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable, Iterator

from kgonal.kernels import long_decimals

try:
    # CPython's built-in SHA-256 gives hashlib's digest without loading
    # OpenSSL, which adds 3.6 MB to the resident size of every process
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

CACHE_VERSION = 3
ENV_VAR = "KGONAL_CACHE"

__all__ = ["CACHE_VERSION", "ENV_VAR", "resolve_cache_dir", "load_b", "store_b"]


def resolve_cache_dir(flag_value: str | None) -> Path | None:
    """Explicit flag wins, then the KGONAL_CACHE variable, then no cache."""
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return None


def _path(cache_dir: Path, k: int) -> Path:
    return cache_dir / f"b_k{k}.json"


def _hashed(digest, texts: Iterable[str]) -> Iterator[str]:
    """Yield each of texts after feeding it to digest, as ",".join(texts) would feed it.

    The one digest rule of both directions: store_b hashes the strings
    it writes through this, and load_b the strings it reads.
    """
    for i, text in enumerate(texts):
        if i:
            digest.update(b",")
        digest.update(text.encode("ascii"))
        yield text


def _read_strings(digest, texts: list[str], order: int) -> list[int]:
    """The first order + 1 of texts as ints, with every one of texts hashed."""
    return [int(text) for i, text in enumerate(_hashed(digest, texts)) if i <= order]


def load_b(cache_dir: Path, k: int, order: int) -> tuple[list[int], list[int]] | None:
    """Stored b_0..b_order and C_0..C_order, C = b^{k-1}, or None on any kind of miss.

    b's strings are hashed, converted and let go before C's are read.
    """
    try:
        with open(_path(cache_dir, k), encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("version") != CACHE_VERSION or doc.get("k") != k:
            return None
        b, c = doc.pop("coefficients"), doc.pop("power")
        if not doc.get("order") == len(b) - 1 == len(c) - 1 >= order:
            return None
        digest = sha256()
        with long_decimals():
            b = _read_strings(digest, b, order)
            digest.update(b";")
            c = _read_strings(digest, c, order)
        if doc.get("sha256") != digest.hexdigest():
            return None
        return b, c
    # json raises RecursionError on a file nested deeper than it can parse
    except (OSError, ValueError, KeyError, TypeError, AttributeError, RecursionError):
        return None


def _write_strings(fh, digest, values: list[int], key: str) -> None:
    """Write `, "key": [...]` of values as decimal strings, each hashed through _hashed."""
    fh.write(f', "{key}": [')
    for i, text in enumerate(_hashed(digest, map(str, values))):
        fh.write(f', "{text}"' if i else f'"{text}"')
    fh.write("]")


def store_b(cache_dir: Path, k: int, b: list[int], c: list[int]) -> None:
    """Write b and C = b^{k-1} unless an equal or longer table is already stored.

    One coefficient's string at a time is converted, hashed through
    _hashed and written.
    """
    # imported here, not at the top, because tempfile (with shutil and
    # random) adds about 5 ms to the start of every CLI process
    import tempfile

    try:
        if load_b(cache_dir, k, len(b) - 1) is not None:
            return
        cache_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=f"b_k{k}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh, long_decimals():
                digest = sha256()
                fh.write(f'{{"version": {CACHE_VERSION}, "k": {k}, "order": {len(b) - 1}')
                _write_strings(fh, digest, b, "coefficients")
                digest.update(b";")
                _write_strings(fh, digest, c, "power")
                fh.write(f', "sha256": "{digest.hexdigest()}"}}')
            os.replace(tmp, _path(cache_dir, k))
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError:
        pass
