"""Differential tests of the language queries on generated specs.

`words`, `count_words` and `contains` are checked against the
independent oracles in `oracles.py` (zipped factor oracles for products),
with canonical order taken from `Alphabet.sort_words`.
"""

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import sft_language_oracle, sparse_language_oracle
from shiftlab.subshifts import build_sft, build_sparse, product
from shiftlab.words import Alphabet

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def sft_specs(draw, max_letters=3):
    letters = draw(st.permutations("012"))[:draw(st.integers(1, max_letters))]
    word = st.lists(st.sampled_from(letters), min_size=1, max_size=3).map(tuple)
    forbidden = draw(st.lists(word, max_size=4))
    spec = build_sft(Alphabet(letters), forbidden)
    return spec, lambda n: sft_language_oracle(letters, forbidden, n)


@st.composite
def sparse_specs(draw, max_markers=3):
    markers = draw(st.permutations("abc"))[:draw(st.integers(0, max_markers))]
    letters = draw(st.permutations(("0",) + tuple(markers)))
    family = st.lists(st.sampled_from(markers), max_size=3) if markers else st.just([])
    families = draw(st.lists(family, max_size=3))
    spec = build_sparse(Alphabet(letters), "0", families)
    return spec, lambda n: sparse_language_oracle("0", families, n)


@st.composite
def product_specs(draw):
    factor = st.one_of(sft_specs(max_letters=2), sparse_specs(max_markers=1)).filter(
        lambda case: not case[0].is_empty)
    (left, left_oracle), (right, right_oracle) = draw(factor), draw(factor)
    return product(left, right), lambda n: [
        tuple(zip(u, v)) for u in left_oracle(n) for v in right_oracle(n)]


def _check_language(spec, oracle, max_n):
    letters = spec.alphabet.letters
    for n in range(1, max_n + 1):
        expected = spec.alphabet.sort_words(tuple(u) for u in oracle(n))
        if spec.is_empty:
            assert expected == [] and spec.count_words(n) == 0
            continue
        words = spec.words(n)
        assert list(words) == expected
        assert spec.count_words(n) == len(words)
        members = set(words)
        for u in itertools.islice(itertools.product(letters, repeat=n), 200):
            assert spec.contains(u) == (u in members)


@SETTINGS
@given(sft_specs())
def test_sft_language_matches_oracle(case):
    _check_language(*case, max_n=5)


@SETTINGS
@given(sparse_specs())
def test_sparse_language_matches_oracle(case):
    _check_language(*case, max_n=5)


@SETTINGS
@given(product_specs())
def test_product_language_matches_zipped_oracles(case):
    _check_language(*case, max_n=3)
