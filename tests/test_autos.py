import functools
import json
import re

import pytest

from oracles import (
    endomorphism_witness_oracle,
    find_inverse_oracle,
    preserves_occurrences_oracle,
    range0_automorphism_oracle,
)
from shiftlab import (
    apply_to_config,
    apply_to_word,
    autos,
    build_chain,
    certify_automorphism,
    certify_free_semigroup,
    code_to_json,
    commutator,
    compose,
    coset_count,
    enumerate_automorphisms,
    equal_on_shift,
    find_inverse,
    make_example,
    parse_code,
    preserves_occurrences,
    subgroup_closure,
)
from shiftlab.autos import BlockCode, _endomorphism_witness, reduce_range
from shiftlab.chains import Chain, ChainLevel
from shiftlab.cli import main
from shiftlab.errors import (
    InvalidChainError,
    RuleIncompleteError,
    SearchSpaceError,
    SpecFormatError,
)
from shiftlab.subshifts import ProductSpec, SftSpec, SparseSpec
from shiftlab.words import Alphabet, Configuration


def w(text):
    return tuple(text)


@pytest.fixture(scope="module")
def hallway_certs(systems):
    spec = systems["hallway"].spec
    codes = systems["hallway"].codes
    return {"a": certify_automorphism(spec, codes["phi_a"], 1).cert,
            "b": certify_automorphism(spec, codes["phi_b"], 1).cert}


# -- rule tables and application ----------------------------------------------

def test_block_code_requires_exact_table(systems):
    spec = systems["golden_mean"].spec
    with pytest.raises(ValueError):
        BlockCode(spec, 0, {("0",): "0"})  # missing the window ("1",)
    with pytest.raises(ValueError):
        BlockCode(spec, 0, {("0",): "0", ("1",): "1", ("1", "1"): "0"})
    # as many windows as L_3, but 111 in place of 101: refused by the windows themselves
    rule = {u: u[1] for u in spec.words(3)}
    rule[w("111")] = rule.pop(w("101"))
    with pytest.raises(ValueError, match="missing 1, extra 1$"):
        BlockCode(spec, 1, rule)
    with pytest.raises(ValueError, match="^rule output 'x' not in alphabet$"):
        BlockCode(spec, 0, {("0",): "0", ("1",): "x"})
    with pytest.raises(ValueError, match="^range must be >= 0$"):
        BlockCode(spec, -1, {})


def test_letter_map_requires_every_letter(systems):
    with pytest.raises(ValueError, match="^letter map misses letter '1'$"):
        BlockCode.letter_map(systems["full2"].spec, {"0": "1"})


def test_apply_to_word_shift(systems):
    sigma = systems["full2"].codes["shift"]
    assert apply_to_word(sigma, w("010")) == w("0")
    assert apply_to_word(sigma, w("0110")) == w("10")


def test_apply_to_word_identity(systems):
    ident = systems["full2"].codes["identity"]
    assert apply_to_word(ident, w("0110")) == w("0110")


def test_apply_to_word_hallway_walk(systems):
    phi_a = systems["hallway"].codes["phi_a"]
    assert apply_to_word(phi_a, ("0", "p", "1", "0")) == ("0", "ap")


def test_apply_to_word_needs_window(systems):
    sigma = systems["full2"].codes["shift"]
    with pytest.raises(ValueError):
        apply_to_word(sigma, w("0"))


def test_apply_rule_incomplete_off_language(systems):
    ident = systems["golden_mean"].codes["identity"]
    padded = compose(ident, BlockCode.identity(ident.spec, 1))
    with pytest.raises(RuleIncompleteError):
        apply_to_word(padded, w("0110"))


def test_apply_to_word_names_the_first_window_outside_the_language(systems):
    # the first window is ranked down the trie, each next one by its tail and letter
    ident = BlockCode.identity(systems["golden_mean"].spec, 1)
    for word, window in (("1100", w("110")), ("0011", w("011"))):
        message = f"window {window!r} missing from range-1 rule table"
        with pytest.raises(RuleIncompleteError, match=re.escape(message)):
            apply_to_word(ident, w(word))


def test_apply_to_config_identity(systems):
    ident = systems["full2"].codes["identity"]
    for probe in systems["full2"].probes.values():
        assert apply_to_config(ident, probe) == probe


def test_apply_to_config_shift(systems):
    sigma = systems["full2"].codes["shift"]
    one = systems["full2"].probes["one"]
    assert apply_to_config(sigma, one) == one.shift(1)
    assert apply_to_config(sigma, one).get(-1) == "1"


def test_apply_to_config_hallway_hangs_picture(systems):
    hallway = systems["hallway"]
    image = apply_to_config(hallway.codes["phi_a"], hallway.probes["x1"])
    assert image.window(-1, 2) == ("0", "ap")
    image_b = apply_to_config(hallway.codes["phi_b"], hallway.probes["x1"])
    assert image_b.get(0) == "bp"


def test_word_point_consistency(systems):
    for name in ("full2", "at_most_one_1", "hallway"):
        system = systems[name]
        for code in system.codes.values():
            radius = code.radius
            for probe in system.probes.values():
                for start in (-3, -1, 0, 2):
                    expect = apply_to_word(
                        code, probe.window(start - radius, 5 + 2 * radius))
                    image = apply_to_config(code, probe)
                    assert image.window(start, 5) == expect


# -- composition, padding, equality -------------------------------------------

def test_compose_identity_is_padding(systems):
    full2 = systems["full2"]
    sigma = full2.codes["shift"]
    composed = compose(full2.codes["identity"], sigma)
    assert composed.radius == 1
    assert equal_on_shift(full2.spec, composed, sigma)


def test_compose_shifts(systems):
    full2 = systems["full2"]
    sigma = full2.codes["shift"]
    sigma2 = compose(sigma, sigma)
    assert sigma2.radius == 2
    assert equal_on_shift(full2.spec, sigma2, BlockCode.shift(full2.spec, 2))


def test_shift_power_zero_is_range0_identity(systems):
    full2 = systems["full2"]
    code = BlockCode.shift(full2.spec, 0)
    assert code.radius == 0
    assert equal_on_shift(full2.spec, code, BlockCode.identity(full2.spec))


def test_compose_matches_pointwise_action(systems):
    hallway = systems["hallway"]
    ab = compose(hallway.codes["phi_a"], hallway.codes["phi_b"])
    assert ab.radius == 2
    for probe in ("x1", "x2", "x3", "at_nail_1"):
        x = hallway.probes[probe]
        assert apply_to_config(ab, x) == apply_to_config(
            hallway.codes["phi_a"], apply_to_config(hallway.codes["phi_b"], x))


def test_equal_on_shift_examples(systems):
    full2 = systems["full2"]
    sigma, flip = full2.codes["shift"], full2.codes["flip"]
    assert equal_on_shift(full2.spec, compose(sigma, flip), compose(flip, sigma))
    ident = full2.codes["identity"]
    assert equal_on_shift(full2.spec, ident, compose(ident, BlockCode.identity(full2.spec, 2)))
    hallway = systems["hallway"]
    assert not equal_on_shift(hallway.spec, hallway.codes["phi_a"],
                              hallway.codes["phi_b"])


def test_reduce_range_inverts_padding(systems):
    ident = systems["full2"].codes["identity"]
    assert reduce_range(compose(ident, BlockCode.identity(ident.spec, 3))).radius == 0
    sigma = systems["full2"].codes["shift"]
    assert reduce_range(sigma).radius == 1


# -- inverses and certification ------------------------------------------------

def test_find_inverse_flip(systems):
    full2 = systems["full2"]
    inv = find_inverse(full2.spec, full2.codes["flip"], 0)
    assert inv is not None
    assert equal_on_shift(full2.spec, inv, full2.codes["flip"])


def test_find_inverse_hallway_walk(systems):
    hallway = systems["hallway"]
    inv = find_inverse(hallway.spec, hallway.codes["phi_a"], 1)
    assert inv is not None
    assert inv.radius == 1
    assert equal_on_shift(hallway.spec, inv, hallway.codes["phi_a_inv"])


def test_find_inverse_xor_rule_fails(systems):
    full2 = systems["full2"]
    xor = BlockCode.from_function(
        full2.spec, 1, lambda win: str(int(win[1]) ^ int(win[2])))
    assert find_inverse(full2.spec, xor, 2) is None


@pytest.mark.parametrize("r_max", range(4))
def test_injective_endomorphism_that_is_not_onto_stays_unknown(r_max):
    # the SFT without 10, 20 and 21 holds 0^inf 1^k 2^inf, 0^inf 1^inf, 1^inf 2^inf
    # and the fixed points; writing 1 at a 0 whose right neighbour is not 0 maps
    # 0^inf 1^k 2^inf to 0^inf 1^(k+1) 2^inf, so the code is injective but misses
    # 0^inf 2^inf.  The forced table conflicts at r = 0, and at r = 1 the window
    # 0 0 2 is no image, so the key-set check ends the search
    spec = SftSpec(Alphabet("012"), [w("10"), w("20"), w("21")])
    code = BlockCode.from_function(spec, 1, lambda u: "1" if u[1] == "0" != u[2] else u[1])
    assert _endomorphism_witness(spec, code) is None
    assert find_inverse(spec, code, r_max) is None
    assert find_inverse_oracle(spec, code, r_max) is None
    assert certify_automorphism(spec, code, r_max).status == "unknown"


@pytest.mark.parametrize("r_max", range(4))
def test_endomorphism_whose_candidate_fails_the_back_check_stays_unknown(r_max):
    # on the SFT without 001, copying the left letter at a 0 and the right one
    # at a 1 is an endomorphism whose image never holds 1100, so it misses
    # 1^inf 0^inf.  Its forced table conflicts at r = 0; at r = 1 it is
    # consistent on all of L_3 and the candidate's pass stays in the language,
    # so only the back check rejects it; at r = 2 the key set ends the search
    spec = SftSpec(Alphabet("01"), [w("001")])
    code = BlockCode.from_function(spec, 1, lambda u: u[0] if u[1] == "0" else u[2])
    assert _endomorphism_witness(spec, code) is None
    assert find_inverse(spec, code, r_max) is None
    assert find_inverse_oracle(spec, code, r_max) is None
    assert certify_automorphism(spec, code, r_max).status == "unknown"


@pytest.mark.parametrize("r_max", range(4))
def test_candidate_whose_pass_leaves_the_language_is_skipped(systems, r_max):
    # flipping the centre of each window maps 0000 to 11, outside the golden
    # mean.  At r = 0 the forced table is the flip, consistent and total, but
    # its own pass maps 000 to 111, so the range is skipped; at r = 1 the
    # code's pass leaves the language and the search stops
    gm = systems["golden_mean"].spec
    code = BlockCode.from_function(gm, 1, lambda u: "1" if u[1] == "0" else "0")
    assert find_inverse(gm, code, r_max) is None
    assert find_inverse_oracle(gm, code, r_max) is None


@pytest.mark.parametrize("r_max", range(4))
def test_find_inverse_stops_at_the_first_inverting_range(systems, r_max):
    # the flip maps 00 to 11, outside the golden mean, but its range-0 table
    # is already an inverse, so the search never reads a length-2 image
    gm = systems["golden_mean"].spec
    flip = BlockCode.letter_map(gm, {"0": "1", "1": "0"})
    inv, expected = find_inverse(gm, flip, r_max), find_inverse_oracle(gm, flip, r_max)
    assert (inv.radius, inv.outputs) == (expected.radius, expected.outputs) == (0, ["1", "0"])


def _identity_inverse(full2):
    assert find_inverse(full2.spec, full2.codes["identity"], 5).radius == 0


def _walks(hallway, word):
    return functools.reduce(compose, (hallway.codes[f"phi_{g}"] for g in word))


def _certify_aaa(hallway):
    result = certify_automorphism(hallway.spec, _walks(hallway, "aaa"), 3)
    assert result.status == "certified" and result.cert.r_certified == 3


def _find_inverse_abab(hallway):
    assert find_inverse(hallway.spec, _walks(hallway, "abab"), 3) is None


def _free_to_depth_7(hallway):
    a, b = (certify_automorphism(hallway.spec, hallway.codes[f"phi_{g}"], 1).cert
            for g in "ab")
    assert certify_free_semigroup(hallway.spec, a, b, 7).status == "free-to-depth"


@pytest.mark.parametrize("name, run, depth", [
    # the range-0 search stops at r = 0: L_1 only
    pytest.param("full2", _identity_inverse, 1, id="full2-identity-inverse"),
    # range 3, rmax 3: windows of L_7, images of L_13 in L_7, centres of L_13 from L_7
    pytest.param("hallway", _certify_aaa, 7, id="hallway-certify-aaa"),
    # range 4, rmax 3: windows of L_9, images of L_15 in L_7, centres of L_15 from L_8
    pytest.param("hallway", _find_inverse_abab, 9, id="hallway-find-inverse-abab"),
    # range-1 generators to n = 15: images of L_15 in L_13, centres of L_15 from L_8
    pytest.param("hallway", _free_to_depth_7, 13, id="hallway-free-depth-7"),
])
def test_find_inverse_grows_the_trie_only_as_far_as_it_reads(name, run, depth):
    system = make_example(name)  # a fresh spec: its trie holds L_0 alone
    run(system)
    assert len(system.spec._trie) - 1 == depth  # no level of a source word's length


def test_code_on_another_subshift_is_rejected(systems):
    # the full2 table 00000111 read on the shift without 00: its windows
    # would be ranked in full2 and walked on the other automaton
    full2 = systems["full2"]
    no00 = SftSpec(Alphabet("01"), [w("00")])
    code = BlockCode(full2.spec, 1, dict(zip(full2.spec.words(3), "00000111")))
    flip = certify_automorphism(full2.spec, full2.codes["flip"], 0).cert
    calls = (lambda: certify_automorphism(no00, code, 1),
             lambda: find_inverse(no00, code, 1),
             lambda: certify_free_semigroup(no00, flip, flip, 1),
             lambda: compose(BlockCode.identity(no00), code))
    for call in calls:
        with pytest.raises(ValueError, match="code lives on a different subshift"):
            call()
    # the same table rebuilt on that spec certifies, and an equal spec is accepted
    rebuilt = BlockCode(no00, 1, {u: code.rule[u] for u in no00.words(3)})
    assert certify_automorphism(no00, rebuilt, 1).status == "certified"
    twin = SftSpec(Alphabet("01"), [w("00")])
    assert certify_automorphism(twin, rebuilt, 1).status == "certified"


def test_equality_and_occurrence_checks_reject_codes_on_another_subshift(systems):
    # both read the codes' window ranks on the spec they are given
    golden, full2 = systems["golden_mean"].spec, systems["full2"]
    calls = (lambda: equal_on_shift(golden, BlockCode.identity(golden), full2.codes["identity"]),
             lambda: equal_on_shift(golden, full2.codes["identity"], BlockCode.identity(golden)),
             lambda: preserves_occurrences(golden, full2.codes["flip"], w("0")))
    for call in calls:
        with pytest.raises(ValueError, match="code lives on a different subshift"):
            call()
    twin = SftSpec(Alphabet("01"), [w("11")])
    assert equal_on_shift(twin, BlockCode.identity(golden), BlockCode.identity(twin, 1))
    assert preserves_occurrences(twin, BlockCode.identity(golden), w("0"))


def test_negative_inverse_range_is_rejected(systems):
    hallway = systems["hallway"]
    for call in (find_inverse, certify_automorphism):
        with pytest.raises(ValueError, match="r_max must be >= 0"):
            call(hallway.spec, hallway.codes["phi_a"], -1)


def test_certify_hallway_b(systems):
    hallway = systems["hallway"]
    result = certify_automorphism(hallway.spec, hallway.codes["phi_b"], 1)
    assert result.status == "certified"
    assert result.cert.r_certified == 1
    assert equal_on_shift(hallway.spec, result.cert.inverse,
                          hallway.codes["phi_b_inv"])


def test_certify_flip_not_endomorphism_on_golden_mean(systems):
    gm = systems["golden_mean"].spec
    flip = BlockCode.letter_map(gm, {"0": "1", "1": "0"})
    result = certify_automorphism(gm, flip, 2)
    assert result.status == "not-endomorphism"
    word, image = result.witness
    assert not gm.contains(image)
    assert apply_to_word(flip, word) == image


def test_certify_checks_images_up_to_the_sft_order():
    # 00000 is in the language, its flip 11111 is not; length 5 > 2*0+3
    spec = SftSpec(Alphabet("01"), [tuple("11111")])
    flip = BlockCode.letter_map(spec, {"0": "1", "1": "0"})
    result = certify_automorphism(spec, flip, 0)
    assert result.status == "not-endomorphism"
    word, image = result.witness
    assert apply_to_word(flip, word) == image and not spec.contains(image)


SPARSE_111 = SparseSpec(Alphabet("01"), "0", [w("111")])
FLIP = {"0": "1", "1": "0"}


@pytest.mark.parametrize("r_max", [0, 1])
def test_certify_sparse_flip_rejected_at_every_rmax(r_max):
    # 0000 is in the language and its flip 1111 is not, at any r_max
    flip = BlockCode.letter_map(SPARSE_111, FLIP)
    result = certify_automorphism(SPARSE_111, flip, r_max)
    assert result.status == "not-endomorphism"
    assert result.witness == (w("0000"), w("1111"))


def _spread(u):
    """On at_most_one_1: write 1 where a 1 lies R cells away, R the range."""
    return "1" if "1" in (u[0], u[-1]) else "0"


def _phi_a_writing_p(hallway):
    """phi_a, but writing p on the window 0 0 p."""
    phi_a = hallway.codes["phi_a"]
    return lambda u: "p" if u == w("00p") else phi_a.rule[u]


@pytest.mark.parametrize("name, radius, fn, word, image", [
    # range 0: the walk starts at L_0, so the word is its links alone
    pytest.param("hallway", 0, lambda system: lambda u: "p" if u == w("1") else u[0],
                 "1p", "pp", id="hallway-1-to-p"),
    # range 1: the word runs two keys past L_2 before its last letter
    pytest.param("at_most_one_1", 1, lambda system: _spread, "00100", "101", id="spread-1"),
    pytest.param("hallway", 1, _phi_a_writing_p, "00p00", "p0p", id="hallway-phi-a-writing-p"),
    # range 2: four keys past L_4
    pytest.param("at_most_one_1", 2, lambda system: _spread, "000010000", "10001",
                 id="spread-2"),
])
def test_witness_is_rebuilt_from_links(systems, name, radius, fn, word, image):
    # the walk keeps each key's parent and letter, not its word: the witness
    # is read back along the links to a word of L_{2R}, letter by letter
    spec = systems[name].spec
    code = BlockCode.from_function(spec, radius, fn(systems[name]))
    witness = _endomorphism_witness(spec, code)
    assert witness == (w(word), w(image))
    assert witness == endomorphism_witness_oracle(spec, code)


def test_certify_product_flip_rejected(systems):
    spec = ProductSpec(SPARSE_111, systems["golden_mean"].spec)
    flip = BlockCode.from_function(spec, 0, lambda u: (FLIP[u[0][0]], u[0][1]))
    result = certify_automorphism(spec, flip, 0)
    assert result.status == "not-endomorphism"
    word, image = result.witness
    assert len(word) == 4 and not spec.contains(image)


def test_certify_identity(systems):
    for system in systems.values():
        result = certify_automorphism(system.spec, system.codes["identity"], 0)
        assert result.status == "certified"


# -- enumeration ---------------------------------------------------------------

def test_enumerate_full2_range0_matches_oracle(systems):
    full2 = systems["full2"]
    certs = enumerate_automorphisms(full2.spec, 0)
    tables = sorted(tuple(sorted(c.code.rule.items())) for c in certs)
    language = {n: set(full2.spec.words(n)) for n in range(1, 7)}
    oracle = range0_automorphism_oracle(("0", "1"), language)
    assert tables == sorted(tuple(sorted(t.items())) for t in oracle)
    assert len(certs) == 2


def test_enumerate_golden_mean_range0_matches_oracle(systems):
    gm = systems["golden_mean"]
    certs = enumerate_automorphisms(gm.spec, 0)
    language = {n: set(gm.spec.words(n)) for n in range(1, 7)}
    oracle = range0_automorphism_oracle(("0", "1"), language)
    assert len(certs) == len(oracle) == 1
    assert certs[0].code.rule == {("0",): "0", ("1",): "1"}


def test_enumerate_sparse_range0_matches_oracle():
    certs = enumerate_automorphisms(SPARSE_111, 0)
    language = {n: set(SPARSE_111.words(n)) for n in range(1, 7)}
    oracle = range0_automorphism_oracle(("0", "1"), language)
    assert len(certs) == len(oracle) == 1
    assert certs[0].code.rule == {("0",): "0", ("1",): "1"}


def test_enumerate_full2_range1(systems):
    full2 = systems["full2"]
    certs = enumerate_automorphisms(full2.spec, 1)
    assert len(certs) == 6
    sigma, flip = full2.codes["shift"], full2.codes["flip"]
    expected = [
        full2.codes["identity"], flip, sigma, full2.codes["shift_inv"],
        compose(flip, sigma), compose(flip, full2.codes["shift_inv"]),
    ]
    for target in expected:
        assert any(equal_on_shift(full2.spec, c.code, target) for c in certs)


@pytest.mark.parametrize("name, radius, passed, tables", [
    ("full2", 1, 6, 256),
    ("golden_mean", 1, 3, 32),
    ("at_most_one_1", 1, 8, 16),
    ("golden_mean", 2, 15, 8_192),
    # a finite shift: only the periods up to |L_7| = 2 are listed
    ("cycle2", 3, 2, 4),
])
def test_enumerate_certifies_only_tables_permuting_periodic_points(
        systems, monkeypatch, name, radius, passed, tables):
    spec = systems[name].spec
    certified = []

    def counted(spec, code, r_max):
        certified.append(code)
        return certify_automorphism(spec, code, r_max)

    monkeypatch.setattr(autos, "certify_automorphism", counted)
    certs = enumerate_automorphisms(spec, radius)
    assert len(spec.alphabet) ** spec.count_words(2 * radius + 1) == tables
    assert len(certified) == passed
    # each listed map permutes Per_p, the points of period p, as its image points show
    for p in range(1, 2 * radius + 3):
        points = [Configuration.periodic(u) for u in spec.words(p)
                  if spec.contains_config(Configuration.periodic(u))]
        period = {point.window(0, p) for point in points}
        for cert in certs:
            assert {apply_to_config(cert.code, x).window(0, p) for x in points} == period


def test_enumerate_search_space_cap(systems):
    with pytest.raises(SearchSpaceError):
        enumerate_automorphisms(systems["hallway"].spec, 1, table_cap=1000)


@pytest.mark.parametrize("name, radius, cap, size", [
    ("hallway", 0, 1000, 8 ** 8),  # a size of at most 4,300 digits is the exact int
    ("full2", 7, 10 ** 6, "2^32768"),  # 2^32768 has 9,865 digits: named as a power
])
def test_enumerate_refusal_names_the_search_size(systems, name, radius, cap, size):
    # the count of windows refuses the search before the size is raised to a power
    with pytest.raises(SearchSpaceError) as exc:
        enumerate_automorphisms(systems[name].spec, radius, table_cap=cap)
    assert (exc.value.size, exc.value.cap) == (size, cap)
    assert str(exc.value) == f"search space of {size} rule tables exceeds cap {cap}"


def test_enumerate_rejects_negative_range(systems):
    with pytest.raises(ValueError, match="range must be >= 0"):
        enumerate_automorphisms(systems["full2"].spec, -1)


def test_enumeration_closure_under_composition(systems):
    one = systems["at_most_one_1"].spec
    small = enumerate_automorphisms(one, 1)
    large = enumerate_automorphisms(one, 2)
    for a in small:
        for b in small:
            composed = compose(a.code, b.code)
            assert any(equal_on_shift(one, composed, c.code) for c in large)


# -- occurrence preservation ----------------------------------------------------

def test_preserves_identity(systems):
    one = systems["at_most_one_1"]
    assert preserves_occurrences(one.spec, one.codes["identity"], w("1"))


def test_preserves_flip_fails(systems):
    full2 = systems["full2"]
    assert not preserves_occurrences(full2.spec, full2.codes["flip"], w("0"))


def test_preserves_shift_fails(systems):
    one = systems["at_most_one_1"]
    assert not preserves_occurrences(one.spec, one.codes["shift"], w("1"))


def test_preserves_checks_the_target_letters(systems):
    full2 = systems["full2"]
    with pytest.raises(ValueError, match="letter 'x' not in alphabet"):
        preserves_occurrences(full2.spec, full2.codes["identity"], w("x"))
    # a target over the alphabet outside the language is preserved vacuously
    golden = systems["golden_mean"].spec
    assert preserves_occurrences(golden, BlockCode.shift(golden, 1), w("11"))


def test_preserves_empty_target(systems):
    # the words carrying the empty target have length 2R and empty images
    full2 = systems["full2"]
    hallway = systems["hallway"]
    cases = [(full2.spec, full2.codes["identity"]), (full2.spec, BlockCode.shift(full2.spec, 1)),
             (hallway.spec, hallway.codes["phi_a"])]
    for spec, code in cases:
        assert preserves_occurrences(spec, code, ())
        assert preserves_occurrences_oracle(spec, code, ())
    # the relative form keeps its |target| > 2R precondition
    with pytest.raises(ValueError, match="relative form needs"):
        preserves_occurrences(full2.spec, full2.codes["identity"], (), anchors=([w("1")], 0))


def test_preserves_relative_form_precondition(systems):
    one = systems["at_most_one_1"]
    sigma = one.codes["shift"]
    with pytest.raises(ValueError):
        preserves_occurrences(one.spec, sigma, w("1"), anchors=([w("1")], 2))


def test_preserves_rejects_negative_anchor_distance(systems):
    full2 = systems["full2"]
    sigma = BlockCode.shift(full2.spec, 1)
    with pytest.raises(ValueError, match="anchor distance must be >= 0"):
        preserves_occurrences(full2.spec, sigma, w("000"), anchors=([w("1")], -2))
    # a range-0 code would otherwise ask for words of length |target| - 2
    with pytest.raises(ValueError, match="anchor distance must be >= 0"):
        preserves_occurrences(full2.spec, full2.codes["identity"], w("0"), anchors=([w("1")], -1))


def test_preserves_relative_form_by_hand(systems):
    # sigma reads the right neighbour and its inverse the left one, so a
    # centred 000 maps onto 000 exactly when the letter beyond it on that
    # side is 0
    full2 = systems["full2"]
    for power in (1, -1):
        sigma = BlockCode.shift(full2.spec, power)
        assert not preserves_occurrences(full2.spec, sigma, w("000"))
        # D = 1: the stretch avoiding 1 holds both neighbours, so both are 0
        assert preserves_occurrences(full2.spec, sigma, w("000"), anchors=([w("1")], 1))
        # D = 0: the stretch is the target itself, the neighbour stays free
        assert not preserves_occurrences(full2.spec, sigma, w("000"), anchors=([w("1")], 0))
        # an 11 in the stretch x_-1 000 x_3 would need a 1 inside the
        # target, so it excludes nothing and the plain verdict stands
        assert not preserves_occurrences(full2.spec, sigma, w("000"), anchors=([w("11")], 1))
    flip = full2.codes["flip"]
    assert not preserves_occurrences(full2.spec, flip, w("000"), anchors=([w("1")], 2))


def test_lemma_replay_hallway(systems, hallway_certs):
    # phi_a and phi_b agree on the extension of the at-nail letter, so
    # inverse-compose preserves its occurrences
    spec = systems["hallway"].spec
    wt = ("0", "0", "1p", "0", "0")
    img_a = apply_to_word(hallway_certs["a"].code, wt)
    img_b = apply_to_word(hallway_certs["b"].code, wt)
    assert img_a == img_b == ("0", "1", "p")
    mixed = compose(hallway_certs["a"].inverse, hallway_certs["b"].code)
    assert preserves_occurrences(spec, mixed, wt)


def test_lemma_replay_all_equal_image_pairs(systems):
    one = systems["at_most_one_1"].spec
    certs = enumerate_automorphisms(one, 1)
    wt = ("0", "0", "1", "0", "0")  # unique 2-step extension of "1"
    def padded(code):
        return compose(code, BlockCode.identity(one, 1 - code.radius))

    for phi in certs:
        phi_pad = padded(phi.code)
        for psi in certs:
            psi_pad = padded(psi.code)
            if apply_to_word(phi_pad, wt) == apply_to_word(psi_pad, wt):
                mixed = compose(padded(phi.inverse), psi_pad)
                assert preserves_occurrences(one, mixed, wt)


# -- coset signatures ------------------------------------------------------------

def test_coset_count_at_most_one_1(systems):
    one = systems["at_most_one_1"].spec
    chain = build_chain(one, 1, 1, cap=10)
    assert coset_count(one, 0, chain) == 1
    assert coset_count(one, 1, chain) == 3


def test_coset_count_degenerate_full2(systems):
    full2 = systems["full2"].spec
    level = ChainLevel(full2, w("0"), w("0"), True)
    chain = Chain(levels=(level,), terminal=None, range_r=0,
                  max_len=1, effective_len=1)
    assert coset_count(full2, 0, chain) == 2


def test_coset_count_invalid_chain(systems):
    empty = Chain(levels=(), terminal=None, range_r=1, max_len=1, effective_len=5)
    with pytest.raises(InvalidChainError):
        coset_count(systems["at_most_one_1"].spec, 0, empty)
    one = systems["at_most_one_1"].spec
    chain = build_chain(one, 1, 1, cap=10)
    with pytest.raises(ValueError, match="^n must embed into the chain's range$"):
        coset_count(one, 2, chain)


def test_coset_count_bounded_by_image_counts(systems):
    one = systems["at_most_one_1"].spec
    chain = build_chain(one, 1, 1, cap=10)
    longest = max(len(a) for a in chain.anchors())
    bound = one.count_words(longest) ** len(chain.anchors())
    assert coset_count(one, 1, chain) <= bound


# -- subgroup closure -------------------------------------------------------------

def test_closure_flip(systems):
    full2 = systems["full2"]
    flip = certify_automorphism(full2.spec, full2.codes["flip"], 0).cert
    result = subgroup_closure(full2.spec, [flip], 10)
    assert result.status == "ok"
    assert len(result.elements) == 2


def test_closure_shift_exceeds_cap(systems):
    full2 = systems["full2"]
    sigma = certify_automorphism(full2.spec, full2.codes["shift"], 1).cert
    result = subgroup_closure(full2.spec, [sigma], 10)
    assert result.status == "cap-exceeded"
    assert result.elements is None


def _letter_map_certs(letters, images):
    """The full shift on `letters` and the certified letter maps with these images."""
    spec = SftSpec(Alphabet(letters), [])
    return spec, [certify_automorphism(spec, BlockCode.letter_map(spec, dict(zip(letters, im))),
                                       0).cert for im in images]


def test_closure_order_is_identity_steps_then_spheres():
    # S_3 on the letters: the swap t = (0 1) is its own inverse, so the steps
    # are t, c = (0 1 2), c^-1; the last sphere holds c.t and c^-1.t
    full3, gens = _letter_map_certs("012", ("102", "120"))
    result = subgroup_closure(full3, gens, 6)
    assert result.status == "ok"
    assert ["".join(e.rule[(a,)] for a in "012") for e in result.elements] == [
        "012", "102", "120", "201", "210", "021"]


def test_closure_cap_is_the_group_order():
    # S_4 from a swap and a 4-cycle: 24 maps in spheres of sizes 1, 3, 5, 6, 5, 3, 1
    full4, gens = _letter_map_certs("0123", ("1023", "1230"))
    assert len(subgroup_closure(full4, gens, 24).elements) == 24
    assert subgroup_closure(full4, gens, 23).status == "cap-exceeded"


def test_closure_rejects_a_certificate_on_another_subshift(systems):
    # the full2 flip maps 00 to 11, so it is no endomorphism of the golden mean
    golden, full2 = systems["golden_mean"].spec, systems["full2"]
    flip = certify_automorphism(full2.spec, full2.codes["flip"], 0).cert
    with pytest.raises(ValueError, match="code lives on a different subshift"):
        subgroup_closure(golden, [flip], 10)


def test_closure_empty_generators(systems):
    hallway = systems["hallway"]
    result = subgroup_closure(hallway.spec, [], 10)
    assert result.status == "ok"
    assert len(result.elements) == 1
    assert result.elements[0].radius == 0


# -- free semigroup certification ---------------------------------------------------

def test_free_semigroup_hallway_depth2(systems, hallway_certs):
    spec = systems["hallway"].spec
    report = certify_free_semigroup(spec, hallway_certs["a"], hallway_certs["b"], 2)
    assert report.status == "free-to-depth"
    assert report.words == (("a",), ("b",), ("a", "a"), ("a", "b"),
                            ("b", "a"), ("b", "b"))
    assert report.collision is None
    with pytest.raises(ValueError, match="^depth must be >= 1$"):
        certify_free_semigroup(spec, hallway_certs["a"], hallway_certs["b"], 0)


def test_free_semigroup_shift_powers_collide(systems):
    full2 = systems["full2"]
    sigma = certify_automorphism(full2.spec, full2.codes["shift"], 1).cert
    sigma2_code = compose(full2.codes["shift"], full2.codes["shift"])
    sigma2 = certify_automorphism(full2.spec, sigma2_code, 2).cert
    report = certify_free_semigroup(full2.spec, sigma, sigma2, 3)
    assert report.status == "collision"
    assert report.collision == (("b",), ("a", "a"))


def test_free_semigroup_identity_collides_at_depth1(systems):
    full2 = systems["full2"]
    ident = certify_automorphism(full2.spec, full2.codes["identity"], 0).cert
    report = certify_free_semigroup(full2.spec, ident, ident, 1)
    assert report.status == "collision"
    assert report.collision == (("a",), ("b",))


# -- commutators -----------------------------------------------------------------

def test_commutator_of_commuting_codes(systems):
    full2 = systems["full2"]
    sigma, flip = full2.codes["shift"], full2.codes["flip"]
    sigma_inv = full2.codes["shift_inv"]
    comm = commutator(sigma, flip, sigma_inv, flip)
    assert equal_on_shift(full2.spec, comm, full2.codes["identity"])


def test_commutator_with_identity(systems):
    hallway = systems["hallway"]
    ident = hallway.codes["identity"]
    comm = commutator(ident, hallway.codes["phi_a"], ident,
                      hallway.codes["phi_a_inv"])
    assert equal_on_shift(hallway.spec, comm, ident)


def test_commutator_hallway_nontrivial(systems, hallway_certs):
    hallway = systems["hallway"]
    comm = commutator(hallway_certs["a"].code, hallway_certs["b"].code,
                      hallway_certs["a"].inverse, hallway_certs["b"].inverse)
    assert not equal_on_shift(hallway.spec, comm, hallway.codes["identity"])
    probe = hallway.probes["at_nail_1"]
    image = apply_to_config(comm, probe)
    assert image != probe
    assert image.get(0) == "bp"


# -- JSON interface ----------------------------------------------------------------

def test_code_json_round_trip(systems):
    hallway = systems["hallway"]
    blob = code_to_json(hallway.codes["phi_a"])
    again = parse_code(hallway.spec, blob)
    assert equal_on_shift(hallway.spec, again, hallway.codes["phi_a"])


def test_product_codes_round_trip_through_json(systems):
    # a pair letter is written as a JSON array, and a rule key as the compact
    # JSON array of its window
    spec = systems["salo_schraudner"].spec
    certs = enumerate_automorphisms(spec, 0)
    assert len(certs) == 2  # the identity and the factor swap
    for cert in certs:
        blob = json.loads(json.dumps(code_to_json(cert.code)))
        assert blob["alphabet"] == [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]]
        assert parse_code(spec, blob).outputs == cert.code.outputs
    swap = code_to_json(certs[1].code)
    assert swap["rule"]['[["0","1"]]'] == ("1", "0")
    nested = ProductSpec(spec, SftSpec(Alphabet("01"), []))
    blob = json.loads(json.dumps(code_to_json(BlockCode.identity(nested, 1))))
    assert next(iter(blob["rule"])) == '[[["0","0"],"0"],[["0","0"],"0"],[["0","0"],"0"]]'
    assert parse_code(nested, blob).outputs == BlockCode.identity(nested, 1).outputs
    good = code_to_json(certs[0].code)
    for key, reason in (('["0","0"]', "window length"), ("0,0", "expected a JSON array"),
                        ('{"0":"0"}', "expected a JSON array"), ('[["0","2"]]', "not in alphabet")):
        with pytest.raises(SpecFormatError, match=reason):
            parse_code(spec, {**good, "rule": {**good["rule"], key: ["0", "0"]}})


def test_composed_and_reduced_codes_serialize_to_fixed_bytes(systems):
    full2, golden = systems["full2"], systems["golden_mean"].spec
    sigma = BlockCode.shift(golden, 1)
    assert json.dumps(code_to_json(compose(full2.codes["shift"], full2.codes["flip"]))) == (
        '{"range": 1, "alphabet": ["0", "1"], "rule": {"0,0,0": "1", "0,0,1": "0", '
        '"0,1,0": "1", "0,1,1": "0", "1,0,0": "1", "1,0,1": "0", "1,1,0": "1", "1,1,1": "0"}}')
    assert json.dumps(code_to_json(compose(sigma, sigma))) == (
        '{"range": 2, "alphabet": ["0", "1"], "rule": {"0,0,0,0,0": "0", "0,0,0,0,1": "1", '
        '"0,0,0,1,0": "0", "0,0,1,0,0": "0", "0,0,1,0,1": "1", "0,1,0,0,0": "0", '
        '"0,1,0,0,1": "1", "0,1,0,1,0": "0", "1,0,0,0,0": "0", "1,0,0,0,1": "1", '
        '"1,0,0,1,0": "0", "1,0,1,0,0": "0", "1,0,1,0,1": "1"}}')
    assert json.dumps(code_to_json(reduce_range(compose(sigma, BlockCode.identity(golden, 1))))) == (
        '{"range": 1, "alphabet": ["0", "1"], "rule": {"0,0,0": "0", "0,0,1": "1", '
        '"0,1,0": "0", "1,0,0": "0", "1,0,1": "1"}}')
    back = reduce_range(compose(full2.codes["shift_inv"], full2.codes["shift"]))
    assert json.dumps(code_to_json(back)) == (
        '{"range": 0, "alphabet": ["0", "1"], "rule": {"0": "0", "1": "1"}}')


def test_parse_code_strictness(systems):
    full2 = systems["full2"]
    good = code_to_json(full2.codes["flip"])
    bad = dict(good)
    bad["extra"] = 1
    with pytest.raises(SpecFormatError):
        parse_code(full2.spec, bad)
    incomplete = dict(good)
    incomplete["rule"] = {"0": "1"}
    with pytest.raises(SpecFormatError):
        parse_code(full2.spec, incomplete)
    wrong_alpha = dict(good)
    wrong_alpha["alphabet"] = ["0", "1", "2"]
    with pytest.raises(SpecFormatError):
        parse_code(full2.spec, wrong_alpha)
    # the spec's letters in another order are another alphabet
    with pytest.raises(SpecFormatError, match=r"^code\.alphabet: does not match the subshift"):
        parse_code(full2.spec, {**good, "alphabet": ["1", "0"]})
    shift = code_to_json(full2.codes["shift"])
    foreign = {**shift, "rule": {**shift["rule"], "0,2,1": "0"}}
    with pytest.raises(SpecFormatError, match=r"^code\.rule\['0,2,1'\]: letter '2' not in alph"):
        parse_code(full2.spec, foreign)


def test_a_letter_holding_a_comma_keys_rules_by_json_arrays(tmp_path, capsys):
    # a comma-joined key could not be split back into its letters
    spec = SftSpec(Alphabet(("a,b", "c")), [])
    swap = BlockCode.letter_map(spec, {"a,b": "c", "c": "a,b"})
    blob = json.loads(json.dumps(code_to_json(swap)))
    assert blob["rule"] == {'["a,b"]': "c", '["c"]': "a,b"}
    assert parse_code(spec, blob).outputs == swap.outputs
    with pytest.raises(SpecFormatError, match=r"\['a,b'\]: expected a JSON array of letters$"):
        parse_code(spec, {**blob, "rule": {"a,b": "c", "c": "a,b"}})
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.descriptor()))
    assert main(["autos", "enumerate", "--spec", str(path), "--range", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["count"] == 2
