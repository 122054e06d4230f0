"""The sequence-fixture reader: fixtures, comments and long integers."""

import pathlib
import sys

from kgonal.kernels import long_decimals
from bfile import read_bfile

DATA = pathlib.Path(__file__).parent / "data"
DEFAULT_LIMIT = sys.get_int_max_str_digits()


class TestBfileParser:
    def test_parses_fixture(self):
        table = read_bfile(DATA / "bfiles" / "A000081.txt")
        assert table[0] == 0
        assert table[1] == 1
        assert table[9] == 286
        assert len(table) == 21

    def test_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("# header\n\n0 1\n1 42\n# trailing\n")
        assert read_bfile(path) == {0: 1, 1: 42}


class TestLongIntegers:
    # CPython refuses int <-> str conversions past 4300 digits by default
    BIG = 10**4400 + 12345

    def test_read_bfile(self, tmp_path):
        path = tmp_path / "seq.txt"
        with long_decimals():
            path.write_text(f"0 1\n1 {self.BIG}\n")
        assert read_bfile(path) == {0: 1, 1: self.BIG}
        assert sys.get_int_max_str_digits() == DEFAULT_LIMIT
