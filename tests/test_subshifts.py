import itertools
import math
import random
import re

import pytest

from oracles import sft_language_oracle, sparse_language_oracle
from shiftlab import parse_spec
from shiftlab.autos import enumerate_automorphisms
from shiftlab.chains import Chain, ChainLevel, build_chain, forbid, syndetic_gap, verify_removal_bound
from shiftlab.complexity import complexity_table
from shiftlab.errors import EmptySubshiftError, SpecFormatError
from shiftlab.subshifts import (
    ProductSpec,
    SftSpec,
    SparseSpec,
    SubshiftSpec,
    empty_sft,
)
from shiftlab.words import Alphabet, Configuration

BIN = Alphabet(("0", "1"))


def w(text):
    return tuple(text)


def test_build_sft_golden_mean_matches_oracle():
    spec = SftSpec(BIN, [w("11")])
    assert not spec.is_empty
    for n in range(1, 7):
        assert list(spec.words(n)) == sft_language_oracle("01", [w("11")], n)


def test_build_sft_all_letters_forbidden_is_empty():
    spec = SftSpec(BIN, [w("0"), w("1")])
    assert spec.is_empty
    with pytest.raises(EmptySubshiftError):
        spec.words(1)


def test_build_sft_full_shift():
    spec = SftSpec(BIN, [])
    assert spec.count_words(3) == 8
    assert list(spec.words(1)) == [("0",), ("1",)]
    with pytest.raises(ValueError, match="^word length must be >= 1$"):
        spec.words(0)


def test_count_words_of_nonpositive_length_is_the_empty_word(systems):
    for system in systems.values():
        spec = system.spec
        assert spec.count_words(0) == spec.count_words(-2) == 1
        spec.count_words(5)
        assert spec.count_words(0) == spec.count_words(-2) == 1
    assert empty_sft(BIN).count_words(0) == empty_sft(BIN).count_words(-2) == 0


def test_build_sft_rejects_empty_word_and_foreign_letters():
    with pytest.raises(ValueError):
        SftSpec(BIN, [()])
    with pytest.raises(ValueError):
        SftSpec(BIN, [("2",)])


def test_sft_needs_biinfinite_extendability():
    # avoiding the forbidden words is not enough: with 00 and 11 forbidden
    # over {0,1}, the word 010 survives but 0110 does not even appear.
    spec = SftSpec(BIN, [w("00"), w("11")])
    assert spec.contains(w("0101"))
    assert not spec.contains(w("011"))
    assert spec.count_words(5) == 2


@pytest.mark.parametrize("q", [3, 17, 40])
def test_one_forbidden_word_compiles_2q_minus_1_states(q):
    # the start set, the sets {1^j..1^(q-1)} after 1^j for 0 < j < q-1, and the
    # singletons {1^j} after 0 1^j for 0 <= j < q, where the de Bruijn
    # presentation of `sft_graph_oracle` compiles 2^q - 1
    spec = SftSpec(Alphabet("01"), [w("1" * q)])
    assert len(spec._rows) == 2 * q - 1
    assert spec.count_words(q) == 2 ** q - 1


def test_build_sparse_at_most_one_1():
    spec = SparseSpec(BIN, "0", [("1",)])
    for n in range(1, 8):
        oracle = sparse_language_oracle("0", [("1",)], n)
        assert list(spec.words(n)) == oracle
        assert spec.count_words(n) == n + 1


def test_sparse_spec_with_a_long_family_of_repeated_markers():
    # the downset is the distinct sub-multisets of a family (41 and 16 * 16
    # here), not its 2^40 or 2^30 index subsets
    ones = parse_spec({"kind": "sparse", "alphabet": ["0", "1"], "background": "0",
                       "families": [["1"] * 40]})
    assert ones.count_words(40) == 2 ** 40
    assert ones.count_words(42) == sum(math.comb(42, i) for i in range(41))
    mixed = parse_spec({"kind": "sparse", "alphabet": ["0", "1", "2"], "background": "0",
                        "families": [["1", "2"] * 15]})
    n = 33
    assert mixed.count_words(n) == sum(
        math.comb(n, i) * math.comb(n - i, j) for i in range(16) for j in range(16))


def test_build_sparse_single_fixed_point():
    spec = SparseSpec(Alphabet(("0",)), "0", [])
    assert spec.count_words(5) == 1
    assert spec.words(2) == (("0", "0"),)


def test_build_sparse_rejects_background_marker():
    with pytest.raises(ValueError):
        SparseSpec(BIN, "0", [("0",)])
    with pytest.raises(ValueError, match="^background letter not in alphabet$"):
        SparseSpec(BIN, "x", [("1",)])


def test_product_salo_schraudner_complexity():
    one = SparseSpec(BIN, "0", [("1",)])
    spec = ProductSpec(one, one)
    for n in range(1, 9):
        assert spec.count_words(n) == (n + 1) ** 2


def test_product_identity_factor():
    single = SftSpec(Alphabet(("z",)), [])
    gm = SftSpec(BIN, [w("11")])
    spec = ProductSpec(single, gm)
    for n in range(1, 6):
        assert spec.count_words(n) == gm.count_words(n)
        projected = [tuple(b for _, b in u) for u in spec.words(n)]
        assert projected == list(gm.words(n))


def test_product_golden_mean_squared():
    gm = SftSpec(BIN, [w("11")])
    spec = ProductSpec(gm, gm)
    assert spec.count_words(2) == 9


def test_product_of_empty_factor_is_empty():
    gm = SftSpec(BIN, [w("11")])
    for spec in (ProductSpec(gm, empty_sft(BIN)), ProductSpec(empty_sft(BIN), gm)):
        assert spec.is_empty
        assert spec.alphabet.letters == tuple((a, b) for a in "01" for b in "01")


def _sealed(spec):
    """`spec` again, its rows compiled, whose `_next` refuses every call from then on."""
    sealed = parse_spec(spec.descriptor())
    backend = type(sealed)

    def refuse(self, state, a):
        assert vars(self).get("_rows") is None, "a factor's automaton stepped after compiling"
        return backend._next(self, state, a)

    sealed.__class__ = type("Sealed" + backend.__name__, (backend,), {"_next": refuse})
    sealed.count_words(1)  # reads, so compiles, the rows
    return sealed


def _factor_pairs():
    gm, one = SftSpec(BIN, [w("11")]), SparseSpec(BIN, "0", [("1",)])
    return [pytest.param(gm, one, id="sft-sparse"),
            pytest.param(one, None, id="one-factor-on-both-sides"),
            pytest.param(ProductSpec(gm, one), SftSpec(BIN, []), id="product-of-products")]


@pytest.mark.parametrize("left, right", _factor_pairs())
def test_a_product_steps_its_factors_by_their_compiled_rows(left, right):
    # each factor compiles once; the product then reads only the factors' rows
    plain = ProductSpec(left, right or left)
    sealed_left = _sealed(left)
    sealed = ProductSpec(sealed_left, _sealed(right) if right else sealed_left)
    for n in range(1, 6):
        assert sealed.words(n) == plain.words(n)
    assert [sealed.count_words(n) for n in range(9)] == [plain.count_words(n) for n in range(9)]
    letters = plain.alphabet.letters
    for a, b in itertools.product(letters, repeat=2):
        for c in itertools.chain([()], itertools.product(letters, repeat=2)):
            config = Configuration((a,), c, (b,))
            assert sealed.contains_config(config) == plain.contains_config(config)


def _empty_specs():
    full2 = SftSpec(BIN, [])
    order2 = SftSpec(BIN, [w("00"), w("01"), w("10"), w("11")])
    nested = ProductSpec(SparseSpec(BIN, "0", [("1",)]), ProductSpec(full2, empty_sft(BIN)))
    return [pytest.param(empty_sft(BIN), id="order-1"),
            pytest.param(order2, id="order-2"),
            pytest.param(ProductSpec(full2, empty_sft(BIN)), id="product"),
            pytest.param(nested, id="product-of-products")]


NO_LANGUAGE = "^empty subshift has no language$"


@pytest.mark.parametrize("spec", _empty_specs())
def test_the_empty_subshift_refuses_every_language_read(spec):
    # the one refusal is in _rows; enumerate_automorphisms sizes its search by
    # count_words, 0 here, and reaches it through the one table it tries
    letter = spec.alphabet.letters[0]
    chain = Chain(levels=(ChainLevel(spec, (letter,), (letter,), False),), terminal=None,
                  range_r=0, max_len=1, effective_len=1)
    reads = [lambda: spec._rows, lambda: spec._live, lambda: spec.words(0),
             lambda: spec.words(1), lambda: spec._levels(1),
             lambda: syndetic_gap(spec, chain, 0, 1),
             lambda: enumerate_automorphisms(spec, 0), lambda: build_chain(spec, 1, 1, 5)]
    for read in reads:
        with pytest.raises(EmptySubshiftError, match=NO_LANGUAGE):
            read()


@pytest.mark.parametrize("spec", _empty_specs())
def test_the_answers_defined_on_the_empty_subshift(spec):
    letter = spec.alphabet.letters[0]
    assert spec.is_empty
    assert not spec.contains(()) and not spec.contains((letter,))
    assert [spec.count_words(n) for n in range(-1, 4)] == [0] * 5
    assert not spec.contains_config(Configuration((letter,), (), (letter,)))
    with pytest.raises(ValueError, match="not in alphabet"):
        spec.contains_config(Configuration(("x",), (), (letter,)))
    with pytest.raises(EmptySubshiftError, match="^complexity undefined on the empty subshift$"):
        complexity_table(spec, 1)
    assert forbid(spec, ()).is_empty


@pytest.mark.parametrize("name", ["full2", "golden_mean", "cycle2",
                                  "at_most_one_1", "salo_schraudner", "hallway"])
def test_forbidding_the_empty_word_empties_every_backend(systems, name):
    spec = systems[name].spec
    assert forbid(spec, ()) == empty_sft(spec.alphabet)


@pytest.mark.parametrize("name", ["full2", "at_most_one_1", "hallway", "salo_schraudner"])
def test_removal_bound_for_the_empty_word(systems, name):
    # each has an aperiodic point, so P(n) >= n+1, and forbidding () leaves P = 0
    report = verify_removal_bound(systems[name].spec, (), 6)
    assert not report.violations
    assert [row[1] for row in report.rows] == [0] * 7


def test_enumerate_language_examples():
    gm = SftSpec(BIN, [w("11")])
    assert list(gm.words(2)) == [w("00"), w("01"), w("10")]
    full = SftSpec(BIN, [])
    assert len(full.words(3)) == 8
    one = SparseSpec(BIN, "0", [("1",)])
    assert list(one.words(2)) == [w("00"), w("01"), w("10")]


def test_contains_word_examples(systems):
    gm = SftSpec(BIN, [w("11")])
    assert not gm.contains(w("11"))
    one = SparseSpec(BIN, "0", [("1",)])
    assert not one.contains(w("101"))
    hallway = systems["hallway"].spec
    assert hallway.contains(("p", "0", "1"))


def test_enumerate_errors_on_empty():
    with pytest.raises(EmptySubshiftError):
        empty_sft(BIN).words(3)


@pytest.mark.parametrize("name", ["full2", "golden_mean", "cycle2",
                                  "at_most_one_1", "salo_schraudner", "hallway"])
def test_factorial_closure(systems, name):
    spec = systems[name].spec
    for n in range(2, 7):
        shorter = set(spec.words(n - 1))
        for word in spec.words(n):
            assert word[:-1] in shorter and word[1:] in shorter


@pytest.mark.parametrize("name", ["full2", "golden_mean", "cycle2",
                                  "at_most_one_1", "salo_schraudner", "hallway"])
def test_extendability(systems, name):
    spec = systems[name].spec
    letters = spec.alphabet.letters
    for n in range(1, 6):
        longer = set(spec.words(n + 2))
        for word in spec.words(n):
            assert any((a,) + word + (b,) in longer for a in letters for b in letters)


def test_sft_oracle_equivalence_random_instances():
    rng = random.Random(421)
    checked = 0
    for _ in range(60):
        size = rng.choice((2, 3))
        letters = ("0", "1", "2")[:size]
        alphabet = Alphabet(letters)
        forbidden = [tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
                     for _ in range(rng.randint(1, 3))]
        spec = SftSpec(alphabet, forbidden)
        for n in range(1, 9):
            oracle = sft_language_oracle(letters, forbidden, n)
            if spec.is_empty:
                assert oracle == []
            else:
                assert list(spec.words(n)) == oracle
            checked += 1
    assert checked == 480


def test_hallway_sparse_complexity_formula(systems):
    spec = systems["hallway"].spec
    fams = [list(f) for f in spec.families]
    for n in range(1, 13):
        oracle = sparse_language_oracle("0", fams, n)
        assert spec.count_words(n) == len(oracle) == 3 * n * n + 4 * n + 1


def test_product_complexity_multiplies(systems):
    gm = SftSpec(BIN, [w("11")])
    one = SparseSpec(BIN, "0", [("1",)])
    spec = ProductSpec(gm, one)
    for n in range(1, 8):
        assert spec.count_words(n) == gm.count_words(n) * one.count_words(n)


def test_contains_config_by_backend(systems):
    one = systems["at_most_one_1"].spec
    assert one.contains_config(Configuration.from_markers("0", {3: "1"}))
    two_markers = Configuration(("0",), ("1", "0", "0", "1"), ("0",), 0)
    assert not one.contains_config(two_markers)
    assert not one.contains_config(Configuration.periodic(("0", "1")))
    gm = systems["golden_mean"].spec
    assert gm.contains_config(Configuration.periodic(("0", "1")))
    assert not gm.contains_config(Configuration.periodic(("1",)))
    ss = systems["salo_schraudner"].spec
    assert ss.contains_config(Configuration.constant(("0", "0")))
    assert not ss.contains_config(Configuration.periodic((("0", "1"), ("0", "0"))))


def test_contains_config_pumps_each_tail_once_per_state(systems):
    # one copy of the left period, 1 0, is in L, but the point ...111 000...
    # is not in X: the rule must read as many copies as there are states
    one = systems["at_most_one_1"].spec
    assert len(one._rows) == 2
    assert one.contains(w("10"))
    assert not one.contains_config(Configuration(w("1"), (), w("0")))
    assert one.contains_config(Configuration(w("0"), w("1"), w("0")))


def test_contains_config_is_one_rule_bound_on_each_backend():
    # the benchmark's tracer looks the method up in each backend class's own namespace
    for cls in (SftSpec, SparseSpec, ProductSpec):
        assert vars(cls)["contains_config"] is SubshiftSpec.contains_config


def test_contains_config_rejects_letters_outside_the_alphabet(systems):
    # a marker before the bad letter once made the sparse rule answer False
    one = systems["at_most_one_1"].spec
    with pytest.raises(ValueError, match="'x' not in alphabet"):
        one.contains_config(Configuration(w("1x"), (), w("0")))
    ss = systems["salo_schraudner"].spec
    with pytest.raises(ValueError, match=r"\('0', '2'\) not in alphabet"):
        ss.contains_config(Configuration.constant(("0", "2")))
    empty = empty_sft(BIN)
    assert not empty.contains_config(Configuration.constant("0"))
    with pytest.raises(ValueError, match="not in alphabet"):
        empty.contains_config(Configuration(w("0"), w("0"), w("x")))


def test_spec_json_round_trip(systems):
    for name in ("full2", "golden_mean", "at_most_one_1", "salo_schraudner", "hallway"):
        spec = systems[name].spec
        again = parse_spec(spec.descriptor())
        assert again == spec


def test_parse_spec_strictness():
    with pytest.raises(SpecFormatError):
        parse_spec({"kind": "sft", "alphabet": ["0", "1"]})
    with pytest.raises(SpecFormatError):
        parse_spec({"kind": "sft", "alphabet": ["0", "1"], "forbidden": [],
                    "background": "0"})
    with pytest.raises(SpecFormatError):
        parse_spec({"kind": "sparse", "alphabet": ["0", "1"], "background": "0",
                    "families": [["0"]]})
    with pytest.raises(SpecFormatError):
        parse_spec({"kind": "tiling"})
    sft = {"kind": "sft", "alphabet": ["0", "1"], "forbidden": []}
    sparse = {"kind": "sparse", "alphabet": ["0", "1"], "background": "0", "families": []}
    for obj, message in (
            ({"kind": "product", "factors": {"0": sft, "1": sft}},
             "spec.factors: expected exactly two factor specs"),
            ({**sft, "forbidden": "11"}, "spec.forbidden: expected a list of words"),
            ({**sparse, "families": {"1": 1}}, "spec.families: expected a list of families")):
        with pytest.raises(SpecFormatError, match=f"^{re.escape(message)}$"):
            parse_spec(obj)
