import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isostitch import (DirectionSpec, GridConvention, InvalidOrderError, StitchPattern,
                       WordError, complement, koch_word, palindromic_period, parse_word)

words = st.text(alphabet="01", min_size=1, max_size=200)


def test_parse_and_str_round_trip():
    assert parse_word("100011") == "100011"
    assert len(parse_word("0")) == 1


def test_parse_rejects_bad_characters():
    with pytest.raises(WordError, match="position 2"):
        parse_word("0x1")


_PLAIN = GridConvention(phase_base=(0, 0, 0), phase_slope=(0, 0, 0))


def test_row_bits_index_the_word_cyclically():
    # with phase base and slope 0, row m is letter (m + phase) mod 3 of "011"
    for phase, rows in [(-4, [1, 0, 1, 1, 0, 1]),
                        (-3, [0, 1, 1, 0, 1, 1]),
                        (0, [0, 1, 1, 0, 1, 1]),
                        (1, [1, 1, 0, 1, 1, 0]),
                        (3 * 10 ** 18 + 1, [1, 1, 0, 1, 1, 0]),
                        (-3 * 10 ** 18 - 4, [1, 0, 1, 1, 0, 1])]:
        spec = DirectionSpec.periodic("011", phase=phase)
        assert list(StitchPattern.uniform(spec, _PLAIN).row_bits(0)) == rows, phase


def test_row_bits_of_a_high_order_koch_word_take_linear_time():
    # 708,588 rows at order 12: well under a second when each letter is read
    # in constant time, and about 8 s when reading one costs the word's length
    pattern = StitchPattern.uniform(DirectionSpec.koch(12))
    t0 = time.perf_counter()
    rows = pattern.row_bits(0)
    elapsed = time.perf_counter() - t0
    assert len(rows) == 4 * 3 ** 11
    assert elapsed < 4.0, f"row_bits took {elapsed:.2f} s"


@settings(max_examples=1000)
@given(words)
def test_complement_is_an_involution(w):
    assert complement(complement(w)) == w


@settings(max_examples=1000)
@given(words)
def test_complement_and_reverse_commute(w):
    assert complement(w[::-1]) == complement(w)[::-1]


@given(words)
def test_complement_flips_every_letter(w):
    c = complement(w)
    assert len(c) == len(w)
    assert all(int(a) == 1 - int(b) for a, b in zip(c, w))


def test_recursive_word_values():
    assert [koch_word(n) for n in (1, 2, 3)] == ["0", "110", "100001110"]
    assert koch_word(4) == "100011110011110001100001110"


def test_recursive_word_lengths():
    for n in range(1, 9):
        assert len(koch_word(n)) == 3 ** (n - 1)


def test_recursion_unrolls_as_defined():
    for n in range(1, 7):
        w = koch_word(n)
        assert koch_word(n + 1) == complement(w)[::-1] + complement(w) + w


def test_invalid_orders():
    for bad in (0, -1, 2.0, "3", True):
        with pytest.raises(InvalidOrderError):
            koch_word(bad)


@given(words)
def test_palindromic_period_shape(w):
    u = palindromic_period(w)
    assert len(u) == 2 * len(w)
    assert u[::-1] == u
    assert u.startswith(w)
