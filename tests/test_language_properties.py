"""Differential tests of the language queries on generated specs.

`words`, `count_words` and `contains` are checked against the
independent oracles in `oracles.py` (zipped factor oracles for products),
with canonical order taken from `Alphabet.sort_words`.  The engine is
also checked against its former self: `words` (joined half-length runs)
against the level-by-level walk, `count_words` (one DP advanced across
calls, with capped `_count_below` reads of the same cache interleaved)
against the DP rerun from length 0, in any call order, and the
extension step (the end state's row) against per-extension `contains`.
The centred-extension generator (`complexity._centred`) is checked
against the words of L_{|w|+2k} that carry w at their centre, filtered
out of `words` in canonical order, for words in and out of the
language, and its first step against the `contains`-based oracle.
The language trie (`SubshiftSpec._levels`), which every block code
slides by, is checked against the canonical word lists and the end
states of runs: each `ext` row against the ranks of the one-letter
extensions, each `tail` against the rank of the word's tail.  The two
helpers that read the trie below the lengths they describe are checked
against the word lists too: `autos._centres`, the centre letters of
L_{2c+1} from L_{c+1} and path counts, and `autos._middles`, the rank of
each w[1:-1] from the parents of L_n.  The SFT
language, read through the trimmed Aho-Corasick automaton, is checked
against a second engine over the same descriptor, the brute-force de
Bruijn graph (`sft_graph_oracle`): the same `words`, `count_words`,
`contains` and emptiness.  The live paths of an SFT's compiled automaton
(`_live`), from every live state, spell exactly L_n, and the compiled
states stay within the bound the `SftSpec` docstring proves, one start
set plus one per proper prefix and per distinct nonempty factor of the
forbidden words, on words of up to 20 letters.  `_prune`, which drops
dead states from a worklist, is checked against pruning in rounds
(`prune_oracle`) on random labelled graphs: the same rows, in the same
order, and the same in-degrees.  `contains_config`, the one pumping rule
for eventually periodic points, is checked against the former per-backend
rules (`contains_config_oracle`) on SFT (empty ones included), sparse,
product and product-of-product specs, with points cut from walks on the
compiled automaton and points of random letters: the same answers, and
the same error for a letter outside the alphabet.
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import (
    centered_extensions_oracle,
    contains_config_oracle,
    count_words_oracle,
    prune_oracle,
    sft_graph_oracle,
    sft_language_oracle,
    sparse_language_oracle,
    words_oracle,
)
from shiftlab.autos import _centres, _middles
from shiftlab.complexity import _centred
from shiftlab.subshifts import ProductSpec, SftSpec, SparseSpec, _prune
from shiftlab.words import Alphabet, Configuration

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

# words per enumerated length, so that each example stays fast
BUDGET = 5_000


@st.composite
def sft_specs(draw, max_letters=3):
    letters = draw(st.permutations("012"))[:draw(st.integers(1, max_letters))]
    word = st.lists(st.sampled_from(letters), min_size=1, max_size=3).map(tuple)
    forbidden = draw(st.lists(word, max_size=4))
    spec = SftSpec(Alphabet(letters), forbidden)
    return spec, lambda n: sft_language_oracle(letters, forbidden, n)


@st.composite
def sparse_specs(draw, max_markers=3):
    markers = draw(st.permutations("abc"))[:draw(st.integers(0, max_markers))]
    letters = draw(st.permutations(("0",) + tuple(markers)))
    family = st.lists(st.sampled_from(markers), max_size=3) if markers else st.just([])
    families = draw(st.lists(family, max_size=3))
    spec = SparseSpec(Alphabet(letters), "0", families)
    return spec, lambda n: sparse_language_oracle("0", families, n)


@st.composite
def product_specs(draw):
    # a product with an empty factor is empty, as the oracle's product of languages is
    factor = st.one_of(sft_specs(max_letters=2), sparse_specs(max_markers=1))
    (left, left_oracle), (right, right_oracle) = draw(factor), draw(factor)
    return ProductSpec(left, right), lambda n: [
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


@st.composite
def sft_graph_cases(draw):
    letters = draw(st.permutations("012"))[:draw(st.integers(1, 3))]
    word = st.lists(st.sampled_from(letters), min_size=1, max_size=5).map(tuple)
    return SftSpec(Alphabet(letters), draw(st.lists(word, max_size=5)))


@settings(SETTINGS, max_examples=300)
@given(sft_graph_cases())
@example(SftSpec(Alphabet("01"), [("0",), ("1",)]))  # empty
@example(SftSpec(Alphabet("012"), [("1",)]))  # order 1: one vertex ()
# vertex 11 has neither an in-edge nor an out-edge
@example(SftSpec(Alphabet("01"), [("0", "1", "1"), ("1", "1", "0"), ("1", "1", "1")]))
@example(SftSpec(Alphabet("01"), [("0", "0"), ("1", "0")]))  # pruned 0 has an edge into 1
# AC state 0110 is clean but reached only through the dropped 011
@example(SftSpec(Alphabet("01"), [("1", "1"), ("0", "1", "1", "0", "1")]))
def test_sft_graph_matches_brute_force_oracle(spec):
    # the AC automaton's language against that of the de Bruijn graph built
    # by brute force, a second engine over the same descriptor
    ref = sft_graph_oracle(spec)
    assert spec.is_empty == ref.is_empty
    assert [spec.count_words(n) for n in range(13)] == [ref.count_words(n) for n in range(13)]
    for u in itertools.chain.from_iterable(
            itertools.product(spec.alphabet.letters, repeat=n) for n in range(6)):
        assert spec.contains(u) == ref.contains(u)
    if not spec.is_empty:
        for n in range(1, 7):
            assert spec.words(n) == ref.words(n)


@settings(SETTINGS, max_examples=150)
@given(sft_graph_cases().filter(lambda spec: not spec.is_empty))
@example(SftSpec(Alphabet("012"), [("1",)]))  # order 1: one live state
@example(SftSpec(Alphabet("01"), [("0", "0"), ("1", "0")]))  # pruned 0 has an edge into 1
def test_live_paths_spell_the_language(spec):
    # the points are the labels of the bi-infinite live paths, so every
    # word of L_n is read along a live path from some live state
    letters, forbidden = spec.alphabet.letters, spec.forbidden
    live, _ = spec._live
    paths = {((), s) for s in live}
    for n in range(1, 6):
        paths = {(w + (a,), t) for w, s in paths for a, t in live[s].items()}
        assert {w for w, _ in paths} == set(sft_language_oracle(letters, forbidden, n))


@st.composite
def long_word_sfts(draw):
    letters = draw(st.permutations("012"))[:draw(st.integers(2, 3))]
    word = st.lists(st.sampled_from(letters), min_size=1, max_size=20).map(tuple)
    return SftSpec(Alphabet(letters), draw(st.lists(word, min_size=1, max_size=4)))


@settings(SETTINGS, max_examples=100)
@given(long_word_sfts().filter(lambda spec: not spec.is_empty))
@example(SftSpec(Alphabet("01"), [("1",) * 17]))  # 33 states; 2^17 - 1 on a de Bruijn graph
def test_sft_compiled_states_are_bounded_by_the_forbidden_factors(spec):
    # bound (b) of the SftSpec docstring: the start, one singleton per
    # proper prefix and one set per distinct nonempty factor of F
    prefixes = {f[:i] for f in spec.forbidden for i in range(len(f))}
    factors = {f[i:j] for f in spec.forbidden
               for i in range(len(f)) for j in range(i + 1, len(f) + 1)}
    assert len(spec._rows) <= 1 + len(prefixes) + len(factors)


@st.composite
def labelled_graphs(draw):
    """States in any order, each row up to three letters to any states."""
    states = draw(st.permutations(range(draw(st.integers(0, 8)))))
    if not states:
        return {}
    row = st.dictionaries(st.sampled_from("abc"), st.sampled_from(states), max_size=3)
    return {s: draw(row) for s in states}


@settings(SETTINGS, max_examples=200)
@given(labelled_graphs())
@example({})
# a chain of dead states 0 -> 1 -> ... -> 9 into the loop at 10: one round each
# a chain of dead states 0 -> 1 -> ... -> 9 into the loop at 10: one round each
@example({**{s: {"a": s + 1} for s in range(10)}, 10: {"a": 10}})
@example({**{s: {"a": s + 1} for s in range(10)}, 10: {}})  # a dead end kills the chain
@example({0: {"a": 1, "b": 1}, 1: {"a": 1}})  # dead 0 feeds live 1 by two edges
@example({0: {"a": 0, "b": 1}, 1: {"a": 2}, 2: {}})  # live 0 feeds dead 1 and 2
def test_prune_matches_round_oracle(graph):
    rows, in_degree = _prune(graph)
    ref_rows, ref_in_degree = prune_oracle(graph)
    assert [(s, list(row.items())) for s, row in rows.items()] == \
        [(s, list(row.items())) for s, row in ref_rows.items()]
    assert in_degree == dict(ref_in_degree)


@SETTINGS
@given(sparse_specs())
def test_sparse_language_matches_oracle(case):
    _check_language(*case, max_n=5)


@SETTINGS
@given(product_specs())
def test_product_language_matches_zipped_oracles(case):
    _check_language(*case, max_n=3)


any_specs = st.one_of(sft_specs(), sparse_specs(), product_specs()).map(lambda case: case[0])


def _rebuilt(draw, spec):
    """The spec built again from its own data in a drawn order: the forbidden
    words or the families permuted, one repeated, each family's markers
    shuffled; an SFT may come back as `sft_graph_oracle`'s subclass."""
    kind = spec.descriptor()["kind"]
    if kind == "product":
        return ProductSpec(_rebuilt(draw, spec.factor_left), _rebuilt(draw, spec.factor_right))
    if kind == "sparse":
        families = [draw(st.permutations(f)) for f in spec.families + spec.families[:1]]
        return SparseSpec(spec.alphabet, spec.background, draw(st.permutations(families)))
    rebuilt = SftSpec(spec.alphabet, draw(st.permutations(spec.forbidden + spec.forbidden[:1])))
    return sft_graph_oracle(rebuilt) if draw(st.booleans()) else rebuilt


@st.composite
def spec_pairs(draw):
    spec = draw(any_specs)
    return spec, (_rebuilt(draw, spec) if draw(st.booleans()) else draw(any_specs))


@settings(SETTINGS, max_examples=150)
@given(spec_pairs())
@example((SftSpec(Alphabet("01"), [("1", "1"), ("0", "0", "0")]),
          sft_graph_oracle(SftSpec(Alphabet("01"), [("0", "0", "0"), ("1", "1")]))))
@example((SparseSpec(Alphabet("0ab"), "0", [("a", "b"), ("b",)]),
          SparseSpec(Alphabet("0ab"), "0", [("b",), ("b", "a"), ()])))
@example((SftSpec(Alphabet("01"), [("1",)]), SparseSpec(Alphabet("01"), "0", [])))
@example((SftSpec(Alphabet("01"), []), SftSpec(Alphabet("10"), [])))  # letter order counts
def test_equality_and_hash_follow_the_descriptor(pair):
    a, b = pair
    same = a.descriptor() == b.descriptor()
    assert (a == b) is (b == a) is same
    assert (a != b) is not same
    if same:
        assert hash(a) == hash(b)
    assert a != a.descriptor()


@SETTINGS
@given(any_specs)
def test_words_match_level_by_level_walk(spec):
    # n = 1..12 covers n = 1, odd and even n and the powers of two
    for n in range(1, 13):
        if spec.is_empty or count_words_oracle(spec, n) > BUDGET:
            break
        assert spec.words(n) == words_oracle(spec, n)


@SETTINGS
@given(any_specs, st.data())
def test_count_words_in_any_call_order(spec, data):
    lengths = data.draw(st.lists(st.integers(-2, 14), max_size=12))
    order = data.draw(st.sampled_from(("drawn", "descending", "repeated")))
    if order == "descending":
        lengths = sorted(lengths, reverse=True)
    elif order == "repeated":
        lengths = lengths + lengths[::-1]
    for n in lengths:
        expected = count_words_oracle(spec, n)
        if data.draw(st.booleans()):
            # a capped read shares the one cache: exact below the cap, else
            # some |L_m| >= cap with m <= n
            cap = data.draw(st.integers(1, 64))
            got = spec._count_below(n, cap)
            if expected < cap:
                assert got == expected
            else:
                assert cap <= got <= expected
                assert got in [count_words_oracle(spec, m) for m in range(min(n, 0), n + 1)]
        assert spec.count_words(n) == expected
        if n >= 1 and not spec.is_empty and expected <= BUDGET and data.draw(st.booleans()):
            assert len(spec.words(n)) == expected


def _centred_word(data, spec):
    """Mostly a language word; now and then, and always on the empty
    subshift, any word over the alphabet, the empty word included."""
    if spec.is_empty or data.draw(st.integers(0, 2)) == 0:
        return tuple(data.draw(st.lists(st.sampled_from(spec.alphabet.letters), max_size=5)))
    words = spec.words(data.draw(st.integers(1, 4)))
    return data.draw(st.sampled_from(words[:50]))


@SETTINGS
@given(any_specs, st.data())
def test_extension_step_matches_contains_oracle(spec, data):
    word = _centred_word(data, spec)
    levels = _centred(spec, word)
    assert next(levels) == ([word] if spec.contains(word) else [])
    assert next(levels) == spec.alphabet.sort_words(centered_extensions_oracle(spec, {word}))


@settings(SETTINGS, max_examples=100)
@given(any_specs, st.data())
def test_centred_levels_are_the_centred_words_in_canonical_order(spec, data):
    word = _centred_word(data, spec)
    for k, level in enumerate(itertools.islice(_centred(spec, word), 4)):
        n = len(word) + 2 * k
        if spec.is_empty or n == 0:
            assert level == ([] if spec.is_empty else [()])
            continue
        if spec.count_words(n) > BUDGET:
            break
        assert level == [u for u in spec.words(n) if u[k:k + len(word)] == word]


_factor_specs = st.one_of(sft_specs(max_letters=2), sparse_specs(max_markers=1)).map(
    lambda case: case[0])

# product of a product and a factor, on either side
nested_products = st.tuples(product_specs().map(lambda case: case[0]), _factor_specs,
                             st.booleans()).map(
    lambda t: ProductSpec(t[0], t[1]) if t[2] else ProductSpec(t[1], t[0]))


def _point(data, spec):
    """(left, centre, right) of an eventually periodic point: random letters,
    or cuts of one walk on the compiled automaton.  When the walk repeats a
    state, the tails are often cut at two visits of one state, so that they
    loop and the point lies in X."""
    letters = spec.alphabet.letters
    if spec.is_empty or data.draw(st.integers(0, 2)) == 0:
        def part(least):
            return tuple(data.draw(st.lists(st.sampled_from(letters), min_size=least, max_size=4)))
        return part(1), part(0), part(1)
    rows, states, walk = spec._rows, [0], ()
    for _ in range(data.draw(st.integers(1, 14))):
        a = data.draw(st.sampled_from(list(rows[states[-1]])))
        walk += (a,)
        states.append(rows[states[-1]][a])
    cuts = [(i, j) for j in range(len(states)) for i in range(j)]
    loops = [(i, j) for i, j in cuts if states[i] == states[j]]
    if loops and data.draw(st.booleans()):
        cuts = loops
    i, j = data.draw(st.sampled_from(cuts))
    later = [(k, m) for k, m in cuts if k >= j]
    if not later:
        return walk[i:j], (), walk[i:j]
    k, m = data.draw(st.sampled_from(later))
    return walk[i:j], walk[j:k], walk[k:m]


def _membership(rule, spec, config):
    try:
        return rule(spec, config)
    except ValueError as exc:
        return str(exc)


EMPTY_SFTS = [SftSpec(Alphabet("01"), [("0",), ("1",)]),  # order 1
              SftSpec(Alphabet("01"), [("0", "0"), ("0", "1"), ("1", "1")])]


@settings(SETTINGS, max_examples=200)
@given(st.one_of(any_specs, nested_products, st.sampled_from(EMPTY_SFTS)), st.data())
def test_contains_config_matches_backend_oracle(spec, data):
    library = type(spec).contains_config
    points = [_point(data, spec) for _ in range(6)]
    for left, centre, right in points:
        config = Configuration(left, centre, right, data.draw(st.integers(-3, 3)))
        assert _membership(library, spec, config) == \
            _membership(contains_config_oracle, spec, config)
    # one letter outside the alphabet, in either tail or the centre, raises on every backend
    parts = [list(part) for part in points[0]]
    part = parts[data.draw(st.integers(0, 2))]
    part.insert(data.draw(st.integers(0, len(part))), "x")
    config = Configuration(*parts)
    assert _membership(library, spec, config) == \
        _membership(contains_config_oracle, spec, config) == "letter 'x' not in alphabet"


def _check_levels(spec, n):
    rows = spec._rows
    levels = spec._levels(n)
    for j in range(1, n + 1):
        ext, tail, states = levels[j]
        words = spec.words(j)
        rank = {w: k for k, w in enumerate(words)}
        shorter = spec.words(j - 1) if j > 1 else ((),)
        assert ext == [{a: rank[u + (a,)] for a in spec.alphabet.letters if u + (a,) in rank}
                       for u in shorter]
        assert tail == [shorter.index(w[1:]) for w in words]
        ends = []
        for w in words:
            state = 0
            for a in w:
                state = rows[state][a]
            ends.append(state)
        assert states == ends


@SETTINGS
@given(any_specs)
def test_language_trie_matches_words_and_run_ends(spec):
    if not spec.is_empty:
        n = 1
        while n < 5 and spec.count_words(n + 1) <= BUDGET // 10:
            n += 1
        _check_levels(spec, n)


@SETTINGS
@given(any_specs)
def test_centres_and_middles_match_the_word_lists(spec):
    if spec.is_empty:
        return
    n = 1
    while n < 7 and spec.count_words(n + 1) <= BUDGET // 10:
        n += 1
    for c, centres in zip(range((n + 1) // 2), _centres(spec)):
        assert centres == [u[c] for u in spec.words(2 * c + 1)]
    for m in range(3, n + 1):
        rank = {u: k for k, u in enumerate(spec.words(m - 2))}
        assert _middles(spec, m) == [rank[u[1:-1]] for u in spec.words(m)]
    assert len(spec._trie) - 1 <= max(1, n - 1)  # neither helper read L_n


@pytest.mark.parametrize("spec", [
    pytest.param(SftSpec(Alphabet("0"), []), id="one-letter"),
    pytest.param(SftSpec(Alphabet("01"), [("1", "1")]), id="golden-mean"),
    pytest.param(SparseSpec(Alphabet("0ab"), "0", [("a", "b")]), id="sparse"),
    pytest.param(ProductSpec(SftSpec(Alphabet("01"), [("1", "1")]),
                             SparseSpec(Alphabet("0a"), "0", [("a",)])), id="product"),
])
@pytest.mark.parametrize("span", [1, 2, 3])
def test_window_tables_on_fixed_specs(spec, span):
    _check_levels(spec, span + 2)


def test_importing_oracles_loads_no_shiftlab_module():
    # the benchmark imports oracles.py before it times its cold shiftlab imports;
    # shiftlab must be findable there, or the check would pass vacuously
    probe = ("import importlib.util, sys, oracles\n"
             "assert importlib.util.find_spec('shiftlab') is not None\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'shiftlab'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    done = subprocess.run([sys.executable, "-c", probe], cwd=Path(__file__).parent, env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout.strip() == "[]"
