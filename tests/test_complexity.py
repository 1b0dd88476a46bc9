import pytest

from oracles import sparse_language_oracle, unique_extension_oracle
from shiftlab import (
    SftSpec,
    SparseSpec,
    complexity_table,
    extension_radius,
    find_extension_window,
    min_nonextendable_radius,
    slow_growth_window,
)
from shiftlab.complexity import AT_LEAST_CAP, EXCEEDS_CAP
from shiftlab.errors import EmptySubshiftError, LemmaWindowNotFoundError
from shiftlab.subshifts import empty_sft
from shiftlab.words import Alphabet

BIN = Alphabet(("0", "1"))


def w(text):
    return tuple(text)


def test_complexity_examples(systems):
    assert systems["full2"].spec.count_words(10) == 1024
    assert systems["salo_schraudner"].spec.count_words(5) == 36
    hallway = systems["hallway"].spec
    fams = [list(f) for f in hallway.families]
    assert hallway.count_words(2) == len(sparse_language_oracle("0", fams, 2)) == 21


def test_complexity_errors_on_empty():
    empty = empty_sft(BIN)
    for n in (2, 3):
        with pytest.raises(EmptySubshiftError, match="^complexity undefined on the empty subshift$"):
            find_extension_window(empty, n, 2, 5)
    with pytest.raises(EmptySubshiftError, match="^complexity undefined on the empty subshift$"):
        complexity_table(empty, 1)
    with pytest.raises(ValueError, match="^max_n must be >= 1$"):  # checked first
        complexity_table(empty, 0)


def test_complexity_table_formats(systems):
    table = complexity_table(systems["golden_mean"].spec, 4)
    assert table.values == {1: 2, 2: 3, 3: 5, 4: 8}


@pytest.mark.parametrize("max_n", [0, -1])
def test_complexity_table_rejects_empty_range(systems, max_n):
    with pytest.raises(ValueError, match="max_n must be >= 1"):
        complexity_table(systems["golden_mean"].spec, max_n)


def test_complexity_monotone_and_bounded(systems):
    for system in systems.values():
        spec = system.spec
        size = len(spec.alphabet)
        for n in range(1, 8):
            assert spec.count_words(n) <= spec.count_words(n + 1)
            assert spec.count_words(n + 1) <= size * spec.count_words(n)


def test_extension_radius_golden_mean():
    gm = SftSpec(BIN, [w("11")])
    report = extension_radius(gm, w("1"), 5)
    assert report.radius == 1
    assert report.extension == w("010")


def test_extension_radius_sparse_unbounded():
    one = SparseSpec(BIN, "0", [("1",)])
    report = extension_radius(one, w("1"), 100)
    assert report.radius == AT_LEAST_CAP
    assert report.extension == ("0",) * 100 + ("1",) + ("0",) * 100


def test_extension_radius_full_shift():
    full = SftSpec(BIN, [])
    report = extension_radius(full, w("0"), 5)
    assert report.radius == 0
    assert report.extension == w("0")


def test_extension_radius_requires_language_word():
    gm = SftSpec(BIN, [w("11")])
    with pytest.raises(ValueError):
        extension_radius(gm, w("11"), 3)
    with pytest.raises(ValueError, match="^cap must be >= 0$"):
        extension_radius(gm, w("1"), -1)


def test_extension_step_rejects_foreign_letters(systems):
    gm = systems["golden_mean"].spec
    with pytest.raises(ValueError, match="letter 'x' not in alphabet"):
        extension_radius(gm, w("x"), 3)


@pytest.mark.parametrize("extend", [unique_extension_oracle])
def test_unique_extension_of_a_word_outside_the_language(systems, extend):
    # no word of the golden mean carries 11, so it has no extension, not even itself
    gm = systems["golden_mean"].spec
    assert [extend(gm, w("11"), steps) for steps in range(3)] == [None, None, None]
    assert [extend(gm, w("1"), steps) for steps in range(3)] == [w("1"), w("010"), None]
    with pytest.raises(ValueError, match="steps must be >= 0"):
        extend(gm, w("11"), -1)
    with pytest.raises(ValueError, match="steps must be >= 0"):
        extend(gm, w("1"), -1)


def test_extension_radius_antitone_under_extension():
    gm = SftSpec(BIN, [w("11")])
    for word in gm.words(1):
        base = extension_radius(gm, word, 8)
        for pad_steps in (1, 2):
            bigger = extension_radius(gm, word, pad_steps)
            if bigger.radius == AT_LEAST_CAP:
                containing = bigger.extension
                inner = extension_radius(gm, containing, 8)
                assert inner.radius >= base.radius - pad_steps


def test_min_nonextendable_radius_examples():
    gm = SftSpec(BIN, [w("11")])
    assert min_nonextendable_radius(gm, 1, 10) == 2
    one = SparseSpec(BIN, "0", [("1",)])
    assert min_nonextendable_radius(one, 1, 50) == EXCEEDS_CAP
    full = SftSpec(BIN, [])
    assert min_nonextendable_radius(full, 3, 10) == 1
    # no word extends even once in the empty subshift
    assert min_nonextendable_radius(empty_sft(BIN), 3, 10) == 1


def test_doubling_property(systems):
    # wherever k_n is finite, extending past it doubles the count
    for name in ("golden_mean", "hallway"):
        spec = systems[name].spec
        for n in range(1, 9):
            k_n = min_nonextendable_radius(spec, n, 12)
            if k_n == EXCEEDS_CAP:
                continue
            assert spec.count_words(n + 2 * k_n) >= 2 * spec.count_words(n)


def test_find_extension_window_examples(systems):
    m, k_m = find_extension_window(systems["at_most_one_1"].spec, 10, 2, 50)
    assert (m, k_m) == (1, EXCEEDS_CAP)
    m, k_m = find_extension_window(systems["hallway"].spec, 10, 3, 50)
    assert k_m == EXCEEDS_CAP or k_m >= 1
    with pytest.raises(LemmaWindowNotFoundError):
        find_extension_window(systems["full2"].spec, 10, 2, 10)
    # EXCEEDS_CAP at cap 1 proves only k_m >= 2, short of C*n = 40*ln2/8
    with pytest.raises(LemmaWindowNotFoundError, match="cap 1"):
        find_extension_window(systems["at_most_one_1"].spec, 40, 2, 1)
    with pytest.raises(ValueError, match="^n must be >= 2$"):
        find_extension_window(systems["at_most_one_1"].spec, 1, 2, 50)
    with pytest.raises(ValueError, match="^d must be >= 1$"):
        find_extension_window(systems["at_most_one_1"].spec, 10, 0, 50)
    with pytest.raises(ValueError, match="^cap must be >= 0$"):
        find_extension_window(systems["at_most_one_1"].spec, 10, 2, -1)


def test_find_extension_window_checks_the_cap_before_the_hypothesis():
    # P(5) = 10^5 > 5 fails the hypothesis, but the argument is refused first
    full10 = SftSpec(Alphabet(tuple("0123456789")), [])
    with pytest.raises(ValueError, match="^cap must be >= 0$"):
        find_extension_window(full10, 5, 1, -1)


def test_find_extension_window_names_an_exhausted_search(systems, monkeypatch):
    # k_m = 1 everywhere stays short of C*n = 16*ln2/8 for every m <= floor(16 ln 16) = 44
    monkeypatch.setattr("shiftlab.complexity.min_nonextendable_radius", lambda spec, m, cap: 1)
    message = "^no m <= 44 with k_m >= 1.386 at cap 50$"
    with pytest.raises(LemmaWindowNotFoundError, match=message):
        find_extension_window(systems["at_most_one_1"].spec, 16, 2, 50)


@pytest.mark.parametrize("n, d, message", [
    (5, 1, "fails at n=5: 100000 > 5"),
    # str() refuses ints of 4,300+ digits: P(4301) = 10^4301, and 4400^1181 > 10^4302
    (4301, 1, "fails at n=4301: at least 10^4300 > 4301"),
    (4400, 1181, "fails at n=4400: at least 10^4300 > 4400^1181"),
])
def test_find_extension_window_names_a_failing_count(n, d, message):
    full10 = SftSpec(Alphabet(tuple("0123456789")), [])
    with pytest.raises(LemmaWindowNotFoundError) as exc:
        find_extension_window(full10, n, d, 5)
    assert str(exc.value) == f"hypothesis P(n) <= n^{d} {message}"


def test_slow_growth_window_examples():
    assert slow_growth_window([x + 1 for x in range(11)], 1, 0.5) == 2
    assert slow_growth_window([2 ** x for x in range(11)], 1, 0.5) is None
    assert slow_growth_window([7] * 11, 3, 0.01) == 0


def test_slow_growth_window_validation():
    with pytest.raises(ValueError):
        slow_growth_window([3, 2, 1], 1, 0.5)
    with pytest.raises(ValueError):
        slow_growth_window([0, 1, 2], 1, 0.5)
    with pytest.raises(ValueError):
        slow_growth_window([1, 2, 3], 1, 0)
    with pytest.raises(ValueError, match="^k must be >= 1$"):
        slow_growth_window([1, 2, 3], 0, 0.5)
    with pytest.raises(ValueError, match=r"^table must cover at least 0\.\.k$"):
        slow_growth_window([1, 2, 3], 3, 0.5)


def test_slow_growth_none_means_every_window_fails():
    table = [1, 2, 4, 8, 16, 32]
    assert slow_growth_window(table, 1, 0.9) is None
    assert all((table[x + 1] - table[x]) / table[x] >= 0.9
               for x in range(len(table) - 1))
