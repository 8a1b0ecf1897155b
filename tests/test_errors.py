"""Tests for errors.data_lines, the line reader of every input parser."""

import pytest

from weilzeta.errors import LITERAL_DIGITS, ParseError, data_lines


def test_data_lines_skip_blanks_and_comments():
    text = "# a comment\n\n  field p=5  \n\t# indented comment\r\npoly X0\n"
    assert list(data_lines(text)) == [(3, "field p=5"), (5, "poly X0")]


@pytest.mark.parametrize("number", [
    "9" * (LITERAL_DIGITS + 1),
    "9_" * (LITERAL_DIGITS // 2) + "9",  # int() reads 501 digits joined by '_'
    "９" * (LITERAL_DIGITS + 1),  # fullwidth digits, which int() reads
    "1" * LITERAL_DIGITS + "_",
], ids=["digits", "underscores", "fullwidth", "trailing-underscore"])
def test_data_lines_refuse_a_run_past_the_bound(number):
    text = "field minpoly=-2 0 1\n\ngen 1 " + number + "/2\n"
    with pytest.raises(ParseError, match=r"^line 3: a number has more than 1000 digits$"):
        list(data_lines(text))


def test_data_lines_keep_numbers_within_the_bound():
    # runs of exactly LITERAL_DIGITS, and a long line of short numbers
    text = ("-" + "9" * LITERAL_DIGITS + "." + "9" * LITERAL_DIGITS + "\n"
            + " ".join(["123_456"] * 2000) + "\n" + "X0*" * 5000 + "X0\n")
    assert [no for no, _ in data_lines(text)] == [1, 2, 3]
