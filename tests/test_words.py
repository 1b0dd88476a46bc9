import pytest

from shiftlab.words import Alphabet, Configuration, occurrences


def test_alphabet_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("0", "1", "0"))


def test_alphabet_canonical_order():
    alphabet = Alphabet(("b", "a"))
    assert alphabet.word_key(("b", "a")) == (0, 1)
    assert alphabet.sort_words([("a",), ("b",)]) == [("b",), ("a",)]
    with pytest.raises(ValueError, match="^letter 'c' not in alphabet$"):
        alphabet.check_word(("b", "c"))


def test_subwords_and_occurrences():
    assert occurrences(("0", "1", "0", "1"), ("0", "1")) == [0, 2]
    assert occurrences(("0",), ("0", "1")) == []


def test_window_single_marker():
    x = Configuration.from_markers("0", {0: "1"})
    assert x.window(-1, 3) == ("0", "1", "0")
    assert x.window(5, 2) == ("0", "0")
    # no marker: the constant point
    assert Configuration.from_markers("0", {}) == Configuration.constant("0")


def test_window_periodic_point():
    x = Configuration.periodic(("0", "1"))
    assert x.window(0, 4) == ("0", "1", "0", "1")
    assert x.window(-3, 3) == ("1", "0", "1")


def test_window_center_word():
    x = Configuration(("0",), ("p", "1"), ("0",), 0)
    assert x.window(0, 2) == ("p", "1")
    assert x.window(-1, 4) == ("0", "p", "1", "0")


def test_shift_moves_coordinates():
    x = Configuration.from_markers("0", {0: "1"})
    assert x.shift(1).get(-1) == "1"
    assert x.shift(-2).get(2) == "1"
    assert x.shift(3).shift(-3) == x


def test_equality_is_semantic():
    a = Configuration.periodic(("0", "1"))
    b = Configuration(("0", "1"), ("0", "1", "0", "1"), ("0", "1"), 0)
    assert a == b
    assert a != a.shift(1)
    assert a == a.shift(2)


def test_periodicity_detection():
    assert Configuration.periodic(("0", "1")).is_periodic()
    assert Configuration.constant("0").is_periodic()
    assert not Configuration.from_markers("0", {0: "1"}).is_periodic()
    # same tails out of phase: aperiodic even though both sides repeat 01
    skew = Configuration(("0", "1"), ("0", "0"), ("0", "1"), 0)
    assert not skew.is_periodic()


def test_configuration_needs_both_tails():
    for left, right in (((), ("0",)), (("0",), ())):
        with pytest.raises(ValueError, match="^periodic tails must have length >= 1$"):
            Configuration(left, ("1",), right)
