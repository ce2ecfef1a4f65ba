import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isostitch import (InvalidOrderError, Word, WordError, complement, concat,
                       koch_word, palindromic_period, reverse)

words = st.text(alphabet="01", min_size=1, max_size=200).map(Word.parse)


def test_parse_and_str_round_trip():
    assert str(Word.parse("100011")) == "100011"
    assert len(Word.parse("0")) == 1


def test_parse_rejects_bad_characters():
    with pytest.raises(WordError, match="position 2"):
        Word.parse("0x1")


def test_letter_and_cyclic():
    w = Word.parse("011")
    assert [w.letter(i) for i in range(3)] == [0, 1, 1]
    assert [w.cyclic(i) for i in range(-3, 6)] == [0, 1, 1, 0, 1, 1, 0, 1, 1]
    with pytest.raises(IndexError):
        w.letter(3)


def test_concat():
    assert str(concat(Word.parse("01"), Word.parse("10"))) == "0110"


@settings(max_examples=1000)
@given(words)
def test_complement_is_an_involution(w):
    assert complement(complement(w)) == w


@settings(max_examples=1000)
@given(words)
def test_reverse_is_an_involution(w):
    assert reverse(reverse(w)) == w


@settings(max_examples=1000)
@given(words)
def test_complement_and_reverse_commute(w):
    assert complement(reverse(w)) == reverse(complement(w))


@given(words)
def test_complement_flips_every_letter(w):
    c = complement(w)
    assert all(c.letter(i) == 1 - w.letter(i) for i in range(len(w)))


@given(words)
def test_reverse_reverses(w):
    r = reverse(w)
    assert all(r.letter(i) == w.letter(len(w) - 1 - i) for i in range(len(w)))


def test_recursive_word_values():
    assert [str(koch_word(n)) for n in (1, 2, 3)] == ["0", "110", "100001110"]
    assert str(koch_word(4)) == "100011110011110001100001110"


def test_recursive_word_lengths():
    for n in range(1, 9):
        assert len(koch_word(n)) == 3 ** (n - 1)


def test_recursion_unrolls_as_defined():
    for n in range(1, 7):
        w = koch_word(n)
        expected = concat(concat(reverse(complement(w)), complement(w)), w)
        assert koch_word(n + 1) == expected


def test_invalid_orders():
    for bad in (0, -1, 2.0, "3", True):
        with pytest.raises(InvalidOrderError):
            koch_word(bad)


@given(words)
def test_palindromic_period_shape(w):
    u = palindromic_period(w)
    assert len(u) == 2 * len(w)
    assert reverse(u) == u
