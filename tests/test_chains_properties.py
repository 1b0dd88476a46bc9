"""Differential tests of the syndetic-gap scan on generated specs.

`chains.syndetic_gap` indexes the anchors once and scans each word in
one pass; `oracles.syndetic_gap_oracle` rescans the word for every
anchor and every earlier anchor.  Both must give the same report on the
spec strategies of `test_language_properties.py`, with hand-built chains
whose anchors are language words drawn with repeats (an anchor equal to
an earlier one) and overlaps (an anchor extending another).
"""

from hypothesis import given
from hypothesis import strategies as st

from oracles import syndetic_gap_oracle
from shiftlab.chains import Chain, ChainLevel, syndetic_gap
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
