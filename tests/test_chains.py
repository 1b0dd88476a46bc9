import functools
import gc
import random
import weakref

import pytest

from oracles import has_qualifying_occurrence
from shiftlab import (
    ProductSpec,
    SftSpec,
    SparseSpec,
    build_chain,
    cylinder_has_aperiodic,
    forbid,
    shadowing_distance,
    syndetic_gap,
    verify_removal_bound,
)
from shiftlab.chains import Chain, ChainLevel, chain_to_json
from shiftlab.errors import (
    CapExceededError,
    HypothesisError,
    InvalidChainError,
    NoAperiodicPointError,
    NoUniqueExtenderError,
)
from shiftlab.subshifts import parse_spec
from shiftlab.suites import random_sft
from shiftlab.words import Alphabet, occurrences

BIN = Alphabet(("0", "1"))


def w(text):
    return tuple(text)


# -- forbid -------------------------------------------------------------------

def test_forbid_full_shift_gives_golden_mean(systems):
    full = systems["full2"].spec
    gm = systems["golden_mean"].spec
    shrunk = forbid(full, w("11"))
    for n in range(1, 7):
        assert shrunk.words(n) == gm.words(n)


def test_forbid_can_empty_an_sft(systems):
    assert forbid(systems["golden_mean"].spec, w("0")).is_empty


def test_forbid_sparse_marker_word(systems):
    one = systems["at_most_one_1"].spec
    fixed = forbid(one, w("1"))
    assert not fixed.is_empty
    assert fixed.words(3) == (("0", "0", "0"),)


def test_forbid_sparse_background_word_empties(systems):
    assert forbid(systems["at_most_one_1"].spec, w("00")).is_empty


def test_forbid_sparse_keeps_unrelated_families(systems):
    hallway = systems["hallway"].spec
    shrunk = forbid(hallway, ("0", "0", "1p", "0", "0"))
    assert not shrunk.contains(("1p",))
    assert shrunk.contains(("p", "1"))
    assert shrunk.contains(("ap",))


def test_forbid_rejects_product_specs(systems):
    with pytest.raises(ValueError, match="^forbid is not supported for ProductSpec specs$"):
        forbid(systems["salo_schraudner"].spec, (("0", "0"),))


def test_forbid_builds_each_child_once():
    spec = SftSpec(BIN, [w("11")])
    child = forbid(spec, w("000"))
    assert forbid(spec, w("000")) is child
    assert forbid(spec, ["0", "0", "0"]) is child  # any sequence of the letters names it
    fresh = SftSpec(BIN, [w("11"), w("000")])
    assert child.descriptor() == fresh.descriptor()
    for n in range(1, 9):
        assert child.words(n) == fresh.words(n)
        assert child.count_words(n) == fresh.count_words(n)


def test_forbid_child_lives_as_long_as_its_parent():
    spec = SftSpec(BIN, [w("11")])
    parent, child = weakref.ref(spec), weakref.ref(forbid(spec, w("000")))
    assert child() is not None  # the parent holds it
    del spec
    gc.collect()
    assert parent() is None and child() is None


def test_forbid_refusals_keep_nothing():
    spec = SftSpec(BIN, [w("11")])
    with pytest.raises(ValueError, match="^letter '2' not in alphabet$"):
        forbid(spec, w("02"))
    product = ProductSpec(spec, spec)
    with pytest.raises(ValueError, match="^forbid is not supported for ProductSpec specs$"):
        forbid(product, (("0", "0"),))
    assert spec._forbids == {} and product._forbids == {}


def _analyses(spec):
    """Chains, removal reports and shadowing reports on `spec`, each call's
    value or its error."""
    def outcome(fn, *args):
        try:
            return fn(*args)
        except (HypothesisError, NoUniqueExtenderError, CapExceededError, ValueError) as exc:
            return type(exc), str(exc)

    chains = [outcome(build_chain, spec, 1, max_len, 40) for max_len in (1, 2)]
    anchors = [lvl.extended for c in chains if isinstance(c, Chain) for lvl in c.levels]
    words = [u for n in (1, 2) for u in spec.words(n)]
    removal = [outcome(verify_removal_bound, spec, u, 6) for u in words
               if cylinder_has_aperiodic(spec, u)]
    shadows = [outcome(shadowing_distance, spec, anchors[:k], u, 1, 3)
               for k in range(min(len(anchors), 2) + 1) for u in words]
    return chains, removal, shadows


@pytest.mark.parametrize("name", ["full2", "golden_mean", "at_most_one_1", "hallway"])
def test_warm_analyses_equal_fresh_ones(systems, name):
    spec = systems[name].spec
    warm = _analyses(spec)
    assert _analyses(spec) == warm  # every forbid now returns a kept child
    assert _analyses(parse_spec(spec.descriptor())) == warm


# The sparse rule drops whole families, so it forbids more than the word; each
# answer below is X(w)'s, derived by hand.  They pass once item 4 makes forbid
# exact, and the markers go then.
ITEM_4 = pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 4")


@ITEM_4
def test_forbidding_a_marker_keeps_the_points_without_it():
    # the point with a single 2 avoids 1
    spec = SparseSpec(Alphabet(("0", "1", "2")), "0", [("1", "2")])
    assert forbid(spec, w("1")).contains(w("2"))


@ITEM_4
def test_forbidding_a_marker_pattern_keeps_its_other_placements():
    # the words with at most two 1s and no 101: 2^n less those with three 1s
    # or more, less those with two 1s two apart (n-2 of them for n >= 3)
    spec = SparseSpec(BIN, "0", [("1", "1")])
    assert [forbid(spec, w("101")).count_words(n) for n in range(1, 7)] == [2, 4, 6, 9, 13, 18]


@ITEM_4
def test_forbidding_the_hallway_chain_words_keeps_1_0_p(systems):
    # 0^inf 1 0 p 0^inf lies in the hallway shift and avoids all four words
    words = [("0", "0", "1p", "0", "0"), ("0", "0", "ap", "0", "0"),
             ("0", "0", "bp", "0", "0"), ("0", "0", "1", "p", "0", "0")]
    shrunk = functools.reduce(forbid, words, systems["hallway"].spec)
    assert shrunk.contains(("1", "0", "p"))


# -- aperiodic cylinders ------------------------------------------------------

def test_cylinder_examples(systems):
    assert cylinder_has_aperiodic(systems["full2"].spec, w("0"))
    assert not cylinder_has_aperiodic(systems["cycle2"].spec, w("01"))
    assert cylinder_has_aperiodic(systems["at_most_one_1"].spec, w("00"))
    # 0^inf 1^inf: the cycles {0} and {1} lie on the two sides of 01
    assert cylinder_has_aperiodic(SftSpec(BIN, [w("10")]), w("01"))


def test_cylinder_requires_language_word(systems):
    with pytest.raises(ValueError):
        cylinder_has_aperiodic(systems["golden_mean"].spec, w("11"))


def test_cylinder_sparse_single_point():
    single = SparseSpec(BIN, "0", [])
    assert not cylinder_has_aperiodic(single, w("00"))


def test_cylinder_order_one_sft():
    spec = SftSpec(BIN, [w("1")])
    assert not cylinder_has_aperiodic(spec, w("0"))


def test_cylinder_product(systems):
    ss = systems["salo_schraudner"].spec
    assert cylinder_has_aperiodic(ss, ((("0", "0")),) * 1)
    cycle_pair = SftSpec(BIN, [w("00"), w("11")])
    both_periodic = ProductSpec(cycle_pair, cycle_pair)
    word = ((("0", "0")), (("1", "1")))
    assert not cylinder_has_aperiodic(both_periodic, word)


def test_cylinder_skew_phase_point_is_caught():
    # the SCC {00, 01, 10} has 4 edges (10 -> 00 and 10 -> 01), so it holds
    # two distinct cycles and a tail that is not eventually periodic
    spec = SftSpec(BIN, [w("11"), w("000")])
    assert cylinder_has_aperiodic(spec, w("00"))


# -- removal bound ------------------------------------------------------------

def test_removal_bound_full2(systems):
    report = verify_removal_bound(systems["full2"].spec, w("11"), 3)
    assert not report.violations
    assert report.rows == ((2, 3, 3, 0), (3, 5, 6, 1))


def test_removal_bound_tight_at_n2(systems):
    report = verify_removal_bound(systems["full2"].spec, w("11"), 2)
    assert report.rows[-1] == (2, 3, 3, 0)


def test_removal_bound_emptying_the_shift(systems):
    # forbidding 0 in the golden mean shift leaves no point: P_{X(w)}(n) = 0
    report = verify_removal_bound(systems["golden_mean"].spec, w("0"), 4)
    assert not report.violations
    assert report.rows == ((1, 0, 1, 1), (2, 0, 1, 1), (3, 0, 2, 2), (4, 0, 4, 4))


def test_removal_bound_reports_each_violating_row(systems, monkeypatch):
    # with forbidding made a no-op, P_{X(w)}(n) = P_X(n) exceeds the bound on every row
    monkeypatch.setattr("shiftlab.chains.forbid", lambda spec, word: spec)
    report = verify_removal_bound(systems["full2"].spec, w("11"), 3)
    assert report.rows == ((2, 4, 3, -1), (3, 8, 6, -2))
    assert report.violations == report.rows


def test_removal_bound_refuses_an_n_max_below_the_word(systems):
    # no row to check: refused, not reported as a bound that holds
    with pytest.raises(ValueError, match=r"^n_max must be >= \|w\| = 2$"):
        verify_removal_bound(systems["full2"].spec, w("11"), 1)


def test_removal_bound_needs_aperiodic_point(systems):
    with pytest.raises(NoAperiodicPointError):
        verify_removal_bound(systems["cycle2"].spec, w("01"), 4)


def test_removal_bound_randomized_instances():
    rng = random.Random(7)
    checked = 0
    for _ in range(30):
        spec = random_sft(rng)
        if spec.is_empty:
            continue
        for n in range(1, 4):
            for word in spec.words(n):
                if cylinder_has_aperiodic(spec, word):
                    assert not verify_removal_bound(spec, word, 10).violations
                    checked += 1
    assert checked > 100


# -- chain construction -------------------------------------------------------

def test_chain_at_most_one_1(systems):
    chain = build_chain(systems["at_most_one_1"].spec, 1, 1, cap=10)
    assert chain.k == 1
    assert chain.levels[0].word == w("1")
    assert chain.levels[0].extended == ("0", "0", "1", "0", "0")
    assert chain.terminal.word == w("0")
    assert chain.terminal.extended == ("0",) * 5
    assert chain.raw_bound_holds  # 1 < P(1)/1 = 2
    assert chain.bound_holds


def test_chain_full_shift_has_no_extender(systems):
    with pytest.raises(NoUniqueExtenderError) as err:
        build_chain(systems["full2"].spec, 1, 2, cap=10)
    assert err.value.level == 0


def test_chain_hallway_single_letter_budget_runs_out(systems):
    # the three at-nail letters are the only single-letter unique extenders
    with pytest.raises(NoUniqueExtenderError) as err:
        build_chain(systems["hallway"].spec, 1, 1, cap=10)
    assert err.value.level == 3
    first = err.value.partial[0]
    assert first.word == ("1p",)
    assert len(first.extended) == 5


def test_chain_hallway_full_construction(systems):
    chain = build_chain(systems["hallway"].spec, 1, 2, cap=40)
    assert chain.k == 10
    assert chain.levels[0].word == ("1p",)
    assert chain.terminal.word == ("0",)
    assert chain.bound_holds
    assert all(lvl.aperiodic_cylinder for lvl in chain.levels)


def test_chain_cap_guard(systems):
    with pytest.raises(CapExceededError):
        build_chain(systems["hallway"].spec, 1, 2, cap=3)
    for radius, max_len in ((0, 2), (1, 0)):
        with pytest.raises(ValueError, match="^radius and max_len must be >= 1$"):
            build_chain(systems["hallway"].spec, radius, max_len, cap=3)


def test_chain_cap_bounds_the_levels_before_the_terminal_one(systems):
    # hallway's chain has k = 10 levels before its terminal one
    assert build_chain(systems["hallway"].spec, 1, 2, cap=10).k == 10
    with pytest.raises(CapExceededError, match="exceeded 9 levels"):
        build_chain(systems["hallway"].spec, 1, 2, cap=9)
    # cycle2's first level is already terminal
    assert build_chain(systems["cycle2"].spec, 1, 1, cap=0).k == 0
    with pytest.raises(ValueError, match="cap must be >= 0"):
        build_chain(systems["cycle2"].spec, 1, 1, cap=-1)


def test_chain_sharpening_inequality(systems):
    for name, radius, max_len in (("at_most_one_1", 1, 1), ("hallway", 1, 2)):
        spec = systems[name].spec
        chain = build_chain(spec, radius, max_len, cap=40)
        n = 2 * chain.effective_len - 1
        terminal_count = chain.terminal.subshift.count_words(n)
        assert terminal_count <= chain.bound_value - chain.k * chain.effective_len


def test_chain_json_export(systems):
    chain = build_chain(systems["at_most_one_1"].spec, 1, 1, cap=10)
    blob = chain_to_json(chain)
    assert blob["k"] == 1
    assert blob["levels"][0]["w"] == ["1"]
    assert blob["terminal"]["forbidden_so_far"] == [["0", "0", "1", "0", "0"]]
    assert blob["bound"]["holds"] is True


def test_nonempty_specs_have_words_of_every_length(systems):
    for system in systems.values():
        for n in range(1, 13):
            assert system.spec.count_words(n) >= 1


# -- shadowing ---------------------------------------------------------------

def test_shadowing_golden_instance(systems):
    report = shadowing_distance(systems["full2"].spec, [w("11")], w("1"), 1, 5)
    assert report.status == "ok"
    assert report.distance == 1
    assert report.target == w("010")
    # the recorded counterexample genuinely fails at D=0
    cex = report.counterexample
    assert cex[1:2] == w("1")
    assert not occurrences(cex[1:2 + 0], w("11"))
    assert cex[0:3] != w("010")


def test_shadowing_trivial_forbidden_list(systems):
    report = shadowing_distance(systems["at_most_one_1"].spec, [], w("1"), 3, 5)
    assert report.status == "ok"
    assert report.distance == 0
    assert report.counterexample is None


def test_shadowing_hypothesis_failures(systems):
    full = systems["full2"].spec
    with pytest.raises(HypothesisError):
        shadowing_distance(full, [w("11")], w("0"), 1, 5)
    with pytest.raises(HypothesisError):
        shadowing_distance(full, [w("0"), w("1")], w("0"), 1, 5)


def test_shadowing_rejects_negative_steps_before_any_work(systems):
    full = systems["full2"].spec
    with pytest.raises(ValueError, match="t_steps must be >= 0"):
        shadowing_distance(full, [w("11")], w("1"), -1, 5)
    # checked before forbidding, which would empty this spec
    with pytest.raises(ValueError, match="t_steps must be >= 0"):
        shadowing_distance(full, [w("0"), w("1")], w("0"), -1, 5)
    # a negative cap echoed a cap-exceeded report (-1) or failed inside islice (-5)
    one = systems["at_most_one_1"].spec
    for cap in (-1, -5):
        with pytest.raises(ValueError, match="^cap must be >= 0$"):
            shadowing_distance(one, [], w("1"), 1, cap)
        with pytest.raises(ValueError, match="^cap must be >= 0$"):
            shadowing_distance(full, [w("0"), w("1")], w("0"), 0, cap)


def test_shadowing_sparse_chain_distance(systems):
    one = systems["at_most_one_1"].spec
    report = shadowing_distance(one, [("0", "0", "1", "0", "0")], w("0"), 2, 10)
    assert report.status == "ok"
    assert report.distance == 4


def test_shadowing_cap_exceeded(systems):
    one = systems["at_most_one_1"].spec
    report = shadowing_distance(one, [("0", "0", "1", "0", "0")], w("0"), 2, 2)
    assert report.status == "cap-exceeded"
    assert report.distance is None
    assert report.counterexample is not None


# -- syndetic gaps ------------------------------------------------------------

def _hand_chain(spec, words_):
    levels = tuple(ChainLevel(spec, word, word, False) for word in words_[:-1])
    terminal = ChainLevel(spec, words_[-1], words_[-1], False)
    return Chain(levels=levels, terminal=terminal, range_r=0,
                 max_len=max(len(word) for word in words_),
                 effective_len=max(len(word) for word in words_))


def test_syndetic_cycle2(systems):
    cycle2 = systems["cycle2"].spec
    chain = _hand_chain(cycle2, [w("01"), w("10")])
    report = syndetic_gap(cycle2, chain, 0, 5)
    assert report.status == "ok"
    assert report.gap == 2
    assert report.counterexample == w("0")


def test_syndetic_at_most_one_1(systems):
    one = systems["at_most_one_1"].spec
    chain = build_chain(one, 1, 1, cap=10)
    shadow = shadowing_distance(one, [chain.levels[0].extended], w("0"), 2, 10)
    report = syndetic_gap(one, chain, shadow.distance, 50)
    assert report.status == "ok"
    assert report.gap == 7
    # minimality: the recorded word of length G-1 has no qualifying occurrence
    assert len(report.counterexample) == 6
    assert not has_qualifying_occurrence(report.counterexample, chain.anchors(),
                                         shadow.distance)


def test_syndetic_invalid_chain(systems):
    empty = Chain(levels=(), terminal=None, range_r=0, max_len=1, effective_len=1)
    with pytest.raises(InvalidChainError):
        syndetic_gap(systems["cycle2"].spec, empty, 0, 5)


def test_syndetic_rejects_negative_distance(systems):
    one = systems["at_most_one_1"].spec
    chain = build_chain(one, 1, 1, cap=10)
    for cap in (50, 0):  # refused before the cap is read
        with pytest.raises(ValueError, match="^anchor distance must be >= 0$"):
            syndetic_gap(one, chain, -5, cap)


def test_syndetic_cap_exceeded(systems):
    one = systems["at_most_one_1"].spec
    chain = build_chain(one, 1, 1, cap=10)
    report = syndetic_gap(one, chain, 4, 3)
    assert report.status == "cap-exceeded"
    assert report.gap is None
