"""Differential tests of the chain layer on generated specs.

`chains.syndetic_gap` grows only the anchor-free words, one letter per
gap, and stops when none is left; `oracles.syndetic_gap_oracle` scans
every word of L_G for every G, testing each anchor occurrence against
every earlier anchor.  Both must give the same report on the spec
strategies of `test_language_properties.py`, with hand-built chains
whose anchors are language words drawn with repeats (an anchor equal to
an earlier one) and overlaps (an anchor extending another), and on
explicit cases the drawn specs never reach: hallway's chain at maxlen 2
(gap 12), `at_most_one_1`'s chain, cap 0 and the empty SFT.  The lemma
the library rests on is tested on its own: on words built from anchors
and letters, the oracle finds a qualifying occurrence for every D in 0-4
exactly when some anchor occurs.

`chains.cylinder_has_aperiodic` walks from every live automaton state
that reads the word, checking degrees, with no backend rule;
`oracles.backend_cylinder_aperiodic_oracle` builds and tests the
through-points of each SFT word (`cylinder_has_aperiodic_oracle`) and
applies the former sparse rule (a marker or a nonempty family) and
product rule (either projected cylinder).  Both must agree on every word
up to a budgeted length of generated SFT, sparse and product specs,
SFT x sparse products among them, including order-1 shifts, dense
forbidden sets and an empty family list, whose cylinders are often
periodic-only, and on the empty word, whose cylinder is all of X.  On
the same specs every point is periodic exactly when the empty word's
cylinder holds no aperiodic point and exactly when
`oracles.morse_hedlund_oracle` finds some n* <= N with P_X(n*) <= n*,
N the number of compiled states.

`chains.shadowing_distance` extends the words carrying u once per
distance; `oracles.shadowing_distance_oracle` rebuilds them from u for
every distance with the `contains`-based extension step.  Both must give
the same report, or raise the same error with the same message, for up
to two forbidden words, T in 0-2 and caps 0-4.  `extension_radius`, the
one unique-extension query, must agree with the iterated
`contains`-based step at every k up to caps 0-6, on language words and
on arbitrary words over the alphabet.  It walks each side of the word
apart; `oracles.extension_radius_oracle` counts the two-sided lists of
`complexity._centred`.  Both must give the same report, or the same
error, at caps 0-60 on words of up to 8 letters, read along the rows of
generated SFT, dense SFT, sparse and product specs, and on every word of
length up to 3 of the builtins and of two SFTs with finite radii past 0
whose one-sided radii differ.
"""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest
from oracles import (
    backend_cylinder_aperiodic_oracle,
    extension_radius_oracle,
    has_qualifying_occurrence,
    morse_hedlund_oracle,
    shadowing_distance_oracle,
    syndetic_gap_oracle,
    unique_extension_oracle,
)
from shiftlab.chains import (
    Chain,
    ChainLevel,
    build_chain,
    cylinder_has_aperiodic,
    forbid,
    shadowing_distance,
    syndetic_gap,
)
from shiftlab.complexity import AT_LEAST_CAP, extension_radius
from shiftlab.errors import EmptySubshiftError, HypothesisError
from shiftlab.subshifts import ProductSpec, SftSpec, SparseSpec, empty_sft
from shiftlab.systems import make_example
from shiftlab.words import Alphabet, occurrences
from test_autos_properties import specs
from test_language_properties import SETTINGS

BIN = Alphabet(("0", "1"))

# language words scanned per report, so that each example stays fast
BUDGET = 20_000


@st.composite
def hand_chains(draw, spec):
    pool = [w for n in range(1, 5) for w in spec.words(n)]
    anchors = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("word", "repeat", "overlap")))
        if kind == "repeat" and anchors:
            anchors.append(draw(st.sampled_from(anchors)))
        elif kind == "overlap" and anchors:
            base = draw(st.sampled_from(anchors))
            longer = [w for w in pool if len(w) > len(base) and base in (w[1:], w[:-1])]
            anchors.append(draw(st.sampled_from(longer)) if longer else base)
        else:
            anchors.append(draw(st.sampled_from(pool)))
    return _chain(spec, anchors)


def _chain(spec, anchors):
    """The chain whose anchors w~_0 .. w~_k are `anchors`."""
    levels = tuple(ChainLevel(spec, a, a, False) for a in anchors[:-1])
    longest = max(len(a) for a in anchors)
    return Chain(levels=levels, terminal=ChainLevel(spec, anchors[-1], anchors[-1], False),
                 range_r=0, max_len=longest, effective_len=longest)


@SETTINGS
@given(st.data())
def test_syndetic_gap_matches_oracle(data):
    spec = data.draw(specs)
    chain = data.draw(hand_chains(spec))
    dist = data.draw(st.integers(0, 3))
    cap = data.draw(st.integers(0, 8))
    while cap > 0 and sum(spec.count_words(g) for g in range(1, cap + 1)) > BUDGET:
        cap -= 1
    assert syndetic_gap(spec, chain, dist, cap) == syndetic_gap_oracle(spec, chain, dist, cap)


def test_syndetic_gap_explicit_examples():
    hallway = make_example("hallway").spec
    chain = build_chain(hallway, 1, 2, 40)
    for dist in range(5):
        report = syndetic_gap(hallway, chain, dist, 30)
        assert report == syndetic_gap_oracle(hallway, chain, dist, 30)
        assert (report.gap, report.counterexample) == (12, tuple("000010p0000"))
    one = make_example("at_most_one_1").spec
    chain = build_chain(one, 1, 1, 10)
    for dist in range(5):
        assert syndetic_gap(one, chain, dist, 50) == syndetic_gap_oracle(one, chain, dist, 50)
    for cap in (0, -1):
        report = syndetic_gap(one, chain, 2, cap)
        assert report == syndetic_gap_oracle(one, chain, 2, cap)
        assert (report.status, report.counterexample) == ("cap-exceeded", None)
    # an empty anchor occurs in every word, the empty word included
    chain = _chain(one, [("1",), ()])
    assert syndetic_gap(one, chain, 0, 3) == syndetic_gap_oracle(one, chain, 0, 3)
    empty = empty_sft(Alphabet("01"))
    chain = _chain(empty, [("0",)])
    assert syndetic_gap(empty, chain, 0, 0) == syndetic_gap_oracle(empty, chain, 0, 0)
    assert syndetic_gap(empty, chain, 0, 0).status == "cap-exceeded"
    for fn in (syndetic_gap, syndetic_gap_oracle):
        with pytest.raises(EmptySubshiftError, match="^empty subshift has no language$"):
            fn(empty, chain, 0, 2)


@SETTINGS
@given(st.data())
def test_qualifying_occurrence_exactly_when_an_anchor_occurs(data):
    # the least-index anchor occurring in a word has no earlier anchor in
    # the word to block it, so it qualifies for every D
    spec = data.draw(specs)
    anchors = data.draw(hand_chains(spec)).anchors()
    letter = st.sampled_from(spec.alphabet.letters).map(lambda a: (a,))
    word = sum(data.draw(st.lists(st.one_of(st.sampled_from(anchors), letter), max_size=6)), ())
    occurs = any(occurrences(word, a) for a in anchors)
    for dist in range(5):
        assert has_qualifying_occurrence(word, anchors, dist) == occurs


@st.composite
def dense_sfts(draw):
    letters = draw(st.permutations("012"))[:draw(st.integers(1, 3))]
    block = list(itertools.product(letters, repeat=draw(st.integers(1, 3))))
    dense = draw(st.lists(st.sampled_from(block), unique=True, max_size=len(block)))
    word = st.lists(st.sampled_from(letters), min_size=1, max_size=4).map(tuple)
    return SftSpec(Alphabet(letters), dense + draw(st.lists(word, max_size=2)))


@settings(SETTINGS, max_examples=80)  # about half the draws are SFTs from dense_sfts
@given(st.one_of(dense_sfts(), specs).filter(lambda spec: not spec.is_empty))
@example(SftSpec(Alphabet("012"), [("1",)]))  # order 1: two loops at one vertex
@example(SftSpec(Alphabet("01"), [("1",)]))  # order 1: one loop, only 0^inf
@example(SparseSpec(Alphabet("01"), "0", []))  # no family: only 0^inf
# 2 is a fixed point apart from the full shift on 0, 1: [2] holds only 2^inf
@example(SftSpec(Alphabet("012"), [("0", "2"), ("2", "0"), ("1", "2"), ("2", "1")]))
# the corridor 0 -> 2 -> 1 -> 0 has one edge in and out at 2 and 1, but 0 branches
@example(SftSpec(Alphabet("012"), [("0", "1"), ("1", "1"), ("1", "2"), ("2", "0"), ("2", "2")]))
@example(ProductSpec(make_example("cycle2").spec, make_example("cycle2").spec))
@example(ProductSpec(make_example("golden_mean").spec, make_example("at_most_one_1").spec))
def test_cylinder_has_aperiodic_matches_oracle(spec):
    # the empty word's cylinder is all of X
    assert cylinder_has_aperiodic(spec, ()) == backend_cylinder_aperiodic_oracle(spec, ())
    n, checked = 1, 0
    while n <= 8 and checked + spec.count_words(n) <= BUDGET // 10:
        for word in spec.words(n):
            expected = backend_cylinder_aperiodic_oracle(spec, word)
            assert cylinder_has_aperiodic(spec, word) == expected
        checked += spec.count_words(n)
        n += 1


@settings(SETTINGS, max_examples=80)
@given(st.one_of(dense_sfts(), specs).filter(lambda spec: not spec.is_empty))
@example(make_example("cycle2").spec)
@example(make_example("golden_mean").spec)
@example(SparseSpec(Alphabet(("0",)), "0", []))  # one letter, no family: only 0^inf
def test_every_point_periodic_exactly_when_morse_hedlund_scan_finds_a_witness(spec):
    # with no aperiodic point P_X(n) never exceeds the number of compiled states,
    # so the scan up to that number finds its n* whenever one exists
    states = len(spec._rows)
    witness = morse_hedlund_oracle(spec, states)
    assert (not cylinder_has_aperiodic(spec, ())) == (witness is not None)


def test_periodicity_examples():
    cycle2, golden_mean = make_example("cycle2").spec, make_example("golden_mean").spec
    assert not cylinder_has_aperiodic(cycle2, ()) and morse_hedlund_oracle(cycle2, 3) == 2
    assert cylinder_has_aperiodic(golden_mean, ())
    assert morse_hedlund_oracle(golden_mean, 10) is None
    single = SparseSpec(Alphabet(("0",)), "0", [])
    assert not cylinder_has_aperiodic(single, ()) and morse_hedlund_oracle(single, 1) == 1
    # the empty subshift refuses () as it refuses any word outside the language
    with pytest.raises(ValueError, match=r"word \(\) not in the language"):
        cylinder_has_aperiodic(empty_sft(Alphabet(("0", "1"))), ())


@st.composite
def words_over(draw, spec, max_len=3):
    """A language word, or now and then any word over the alphabet."""
    if draw(st.integers(0, 3)) == 0:
        letter = st.sampled_from(spec.alphabet.letters)
        return tuple(draw(st.lists(letter, min_size=1, max_size=max_len)))
    return draw(st.sampled_from(spec.words(draw(st.integers(1, max_len)))))


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except (HypothesisError, ValueError) as exc:
        return type(exc), str(exc)


def _shadowing_words(spec, forbidden, t_steps):
    """Words of length <= 3 extending uniquely T times once `forbidden` is forbidden.

    Those that do not extend uniquely in X itself come first choice: only
    for them does the distance search have work to do.
    """
    shrunk = spec
    try:
        for f in forbidden:
            shrunk = forbid(shrunk, f)
    except ValueError:  # products support no forbidding
        return []
    if shrunk.is_empty:
        return []
    pool = [u for n in range(1, 4) for u in shrunk.words(n)
            if unique_extension_oracle(shrunk, u, t_steps) is not None]
    return [u for u in pool if unique_extension_oracle(spec, u, t_steps) is None] or pool


@settings(SETTINGS, max_examples=150)  # few draws give a distance above 0
@given(st.data())
def test_shadowing_distance_matches_oracle(data):
    spec = data.draw(specs)
    # st.integers(0, 2) favours 0, and no forbidden word or T = 0 always gives D = 0
    count = data.draw(st.sampled_from((1, 2, 0)))
    forbidden = [data.draw(words_over(spec)) for _ in range(count)]
    t_steps = data.draw(st.sampled_from((1, 2, 0)))
    # mostly a u meeting the hypotheses, so that the distance search runs
    pool = _shadowing_words(spec, forbidden, t_steps) if data.draw(st.integers(0, 3)) else []
    u = data.draw(st.sampled_from(pool) if pool else words_over(spec))
    cap = data.draw(st.integers(0, 4))
    # the oracle tests every extension of every extended word with `contains`
    while cap > 0 and spec.count_words(len(u) + 2 * (cap + t_steps)) > BUDGET // 4:
        cap -= 1
    got = _outcome(shadowing_distance, spec, forbidden, u, t_steps, cap)
    expected = _outcome(shadowing_distance_oracle, spec, forbidden, u, t_steps, cap)
    assert got == expected


@SETTINGS
@given(st.data())
def test_unique_extension_and_radius_match_oracle(data):
    spec = data.draw(specs)
    word = data.draw(words_over(spec, max_len=4))
    cap = data.draw(st.integers(0, 6))
    expected = [unique_extension_oracle(spec, word, k) for k in range(cap + 1)]
    if not spec.contains(word):
        for k in range(cap + 1):
            with pytest.raises(ValueError):
                extension_radius(spec, word, k)
        return
    for k in range(cap + 1):
        radius = expected.index(None) - 1 if None in expected[:k + 1] else k
        report = extension_radius(spec, word, k)
        assert report.radius == (AT_LEAST_CAP if radius == k else radius)
        assert report.extension == expected[radius]


@st.composite
def walked_words(draw, spec, max_len=8):
    """A language word of up to `max_len` letters, read along the compiled
    rows so that no L_n is listed, or now and then any word over the alphabet."""
    if draw(st.integers(0, 3)) == 0:
        letter = st.sampled_from(spec.alphabet.letters)
        return tuple(draw(st.lists(letter, max_size=max_len)))
    rows, state, word = spec._rows, 0, []
    for _ in range(draw(st.integers(0, max_len))):
        a = draw(st.sampled_from(list(rows[state])))
        word.append(a)
        state = rows[state][a]
    return tuple(word)


@settings(SETTINGS, max_examples=200)
@given(st.data())
def test_extension_radius_matches_two_sided_oracle(data):
    # dense SFTs give the finite radii past 0, where both walks run
    spec = data.draw(st.one_of(dense_sfts(), specs).filter(lambda spec: not spec.is_empty))
    word = data.draw(walked_words(spec))
    cap = data.draw(st.integers(0, 60))
    assert (_outcome(extension_radius, spec, word, cap)
            == _outcome(extension_radius_oracle, spec, word, cap))


@pytest.mark.parametrize("name", ["full2", "golden_mean", "cycle2", "at_most_one_1",
                                  "salo_schraudner", "hallway", "no_11_101", "no_11_101_0001"])
def test_extension_radius_matches_two_sided_oracle_on_named_specs(systems, name):
    # at_most_one_1's and hallway's marker words extend uniquely past every cap.
    # Without 11 and 101 a 1 has 00 on each side, then a branch: radius 2.
    # Adding 0001 leaves (100)^inf and the points ...100100 0^inf: left of a 1
    # is (100)^inf, right of it 00 then a branch, and 000 is followed by 0
    # forever but preceded by either letter, so the one-sided radii differ.
    spec = {"no_11_101": SftSpec(BIN, [("1", "1"), ("1", "0", "1")]),
            "no_11_101_0001": SftSpec(BIN, [("1", "1"), ("1", "0", "1"), ("0", "0", "0", "1")]),
            }.get(name) or systems[name].spec
    for n in range(4):
        for word in spec.words(n) if n else [()]:
            for cap in (0, 1, 3, 60):
                assert extension_radius(spec, word, cap) == extension_radius_oracle(spec, word, cap)
