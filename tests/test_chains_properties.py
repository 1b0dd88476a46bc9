"""Differential tests of the chain layer on generated specs.

`chains.syndetic_gap` indexes the anchors once and scans each word in
one pass; `oracles.syndetic_gap_oracle` rescans the word for every
anchor and every earlier anchor.  Both must give the same report on the
spec strategies of `test_language_properties.py`, with hand-built chains
whose anchors are language words drawn with repeats (an anchor equal to
an earlier one) and overlaps (an anchor extending another).

`chains.cylinder_has_aperiodic` decides the SFT case by one walk around
the word's first vertex, checking degrees;
`oracles.cylinder_has_aperiodic_oracle` builds and tests the
through-points of each word.  Both must agree on every word up to a
budgeted length of generated SFTs, including order-1 shifts and dense
forbidden sets, whose cylinders are often periodic-only.
"""

import itertools

from hypothesis import given
from hypothesis import strategies as st

from oracles import cylinder_has_aperiodic_oracle, syndetic_gap_oracle
from shiftlab.chains import Chain, ChainLevel, cylinder_has_aperiodic, syndetic_gap
from shiftlab.subshifts import build_sft
from shiftlab.words import Alphabet
from test_autos_properties import specs
from test_language_properties import SETTINGS

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


@st.composite
def dense_sfts(draw):
    letters = draw(st.permutations("012"))[:draw(st.integers(1, 3))]
    block = list(itertools.product(letters, repeat=draw(st.integers(1, 3))))
    dense = draw(st.lists(st.sampled_from(block), unique=True, max_size=len(block)))
    word = st.lists(st.sampled_from(letters), min_size=1, max_size=4).map(tuple)
    return build_sft(Alphabet(letters), dense + draw(st.lists(word, max_size=2)))


@SETTINGS
@given(dense_sfts().filter(lambda spec: not spec.is_empty))
def test_cylinder_has_aperiodic_matches_oracle(spec):
    n, checked = 1, 0
    while n <= 8 and checked + spec.count_words(n) <= BUDGET // 10:
        for word in spec.words(n):
            expected = cylinder_has_aperiodic_oracle(spec, word)
            assert cylinder_has_aperiodic(spec, word) == expected
        checked += spec.count_words(n)
        n += 1
