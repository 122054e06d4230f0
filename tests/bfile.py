"""Reader for the local sequence fixtures in tests/data/bfiles.

Each fixture lists one term per line as 'index value'.  The package
never reads these files; the tests compare its counts against them.
"""

from __future__ import annotations

from pathlib import Path

from kgonal.kernels import long_decimals

__all__ = ["read_bfile"]


def read_bfile(path: Path) -> dict[int, int]:
    """Parse 'index value' lines; '#' starts a comment; blanks ignored."""
    out: dict[int, int] = {}
    with long_decimals():
        for raw in Path(path).read_text().splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            index_text, value_text = line.split()
            out[int(index_text)] = int(value_text)
    return out
