"""Differential tests of the code algebra on generated specs and codes.

`autos._endomorphism_witness`, `certify_free_semigroup`, `find_inverse`,
`subgroup_closure`, `apply_to_word`, `compose`, `reduce_range` and
`equal_on_shift` are checked against the oracles in `oracles.py`: the
same witness (or None), the same report including the first collision
pair, the same inverse table (or None), the same closure status and set
of maps, the same images, tables and verdicts, and the same exception
when a slide meets a window outside the language, which no rule table
holds.  `certify_free_semigroup` must instead raise, naming the
generator, when a generator maps a window of L_{2*top+1} outside the
language, and match the oracle otherwise; every ordered pair of named
automorphisms (hallway's five codes, the letter permutations of the full
3-shift, sigma and sigma^2 on the full 2-shift, sigma and its inverse
on salo_schraudner) must match it up to depth 4.  Composed and reduced
codes, built from outputs on window ranks, must serialize to the oracle
codes' bytes, and their on-demand `rule` view must be the read-only
table of `words` and `outputs`.  Inputs are the spec strategies of
`test_language_properties.py` and codes of range 0-2: permutations of
the centre letter, shifted permutations and random tables; closures run
on letter maps of the full 3-shift and on the shift, its inverse and
the flip of the full 2-shift.  Reduction also runs on codes padded by
up to two ranges, their tables read off each window's middle.  The
endomorphism oracle scans every
image length up to its proven bound, so a drawn code's range is lowered
until that scan fits the budget.  A certified result must also compose
with its inverse to the identity both ways, and both must map random
long language words into the language.  `preserves_occurrences`, which
reads the words with the target at the centre off `complexity._centred`,
must match the oracle that scans all of L_n for them, in the plain and
the anchored form, with D in 0-2, codes of range 0-1 (identities among
them) and targets in and out of the language.  Every slide of one span
reads the spec's one source walk (`SubshiftSpec._sources`), so compose,
inverse-search and free-semigroup calls on 2-3 codes of mixed ranges,
run in a drawn order on one spec, must each give what it gives on a
fresh spec and what the oracle gives.
"""

import itertools
import json
from types import MappingProxyType, SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from oracles import (
    apply_to_word_oracle,
    compose_oracle,
    endomorphism_witness_oracle,
    enumerate_automorphisms_oracle,
    equal_on_shift_oracle,
    find_inverse_oracle,
    free_semigroup_oracle,
    image_length_bound,
    preserves_occurrences_oracle,
    reduce_range_oracle,
    subgroup_closure_oracle,
)
from shiftlab import autos
from shiftlab.autos import (
    BlockCode,
    _endomorphism_witness,
    apply_to_config,
    apply_to_word,
    certify_automorphism,
    certify_free_semigroup,
    code_to_json,
    compose,
    enumerate_automorphisms,
    equal_on_shift,
    find_inverse,
    parse_code,
    preserves_occurrences,
    reduce_range,
    subgroup_closure,
)
from shiftlab.errors import RuleIncompleteError
from shiftlab.subshifts import SftSpec, parse_spec
from shiftlab.words import Alphabet, Configuration
from test_language_properties import SETTINGS, product_specs, sft_specs, sparse_specs

# words materialized per oracle call, so that each example stays fast
BUDGET = 20_000

specs = st.one_of(sft_specs(), sparse_specs(), product_specs()).map(
    lambda case: case[0]).filter(lambda spec: not spec.is_empty)


@st.composite
def codes(draw, spec, max_radius=2):
    letters = spec.alphabet.letters
    radius = draw(st.integers(0, max_radius))
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(("permutation", "shifted", "random")))
    if kind == "random":
        return BlockCode.from_function(spec, radius, lambda w: rng.choice(letters))
    perm = dict(zip(letters, rng.sample(letters, len(letters))))
    t = rng.randint(-radius, radius) if kind == "shifted" else 0
    return BlockCode.from_function(spec, radius, lambda w: perm[w[radius + t]])


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except RuleIncompleteError:
        return "raised", RuleIncompleteError


def _result(fn, *args):
    """The value, or the type and message of the error raised."""
    try:
        return "value", fn(*args)
    except (RuleIncompleteError, ValueError) as exc:
        return type(exc), str(exc)


def _largest(value, fits):
    while value > 1 and not fits(value):
        value -= 1
    return value


@SETTINGS
@given(st.data())
def test_endomorphism_witness_matches_oracle(data):
    spec = data.draw(specs)

    def fits(code):
        top = image_length_bound(spec, code)
        return sum(spec.count_words(n + 2 * code.radius) for n in range(1, top + 1)) <= BUDGET

    code = data.draw(codes(spec))
    while code.radius > 0 and not fits(code):
        code = data.draw(codes(spec, code.radius - 1))
    assume(fits(code))
    assert (_outcome(_endomorphism_witness, spec, code)
            == _outcome(endomorphism_witness_oracle, spec, code))


@SETTINGS
@given(st.data())
def test_free_semigroup_matches_oracle(data):
    spec = data.draw(specs)
    a, b = data.draw(codes(spec)), data.draw(codes(spec))
    radius = max(a.radius, b.radius)
    depth = _largest(data.draw(st.integers(1, 4)),
                     lambda d: spec.count_words(2 * d * radius + 1) <= BUDGET // 4)
    gens = SimpleNamespace(code=a), SimpleNamespace(code=b)
    # random tables are mostly no endomorphisms: one that maps a window of
    # L_{2*top+1} outside the language must be rejected, whatever the oracle
    # makes of it; otherwise every product acts on X and the reports agree
    windows = spec.words(2 * depth * radius + 1)
    if any(not spec.contains(apply_to_word_oracle(code, u)) for code in (a, b) for u in windows):
        event("a generator leaves the language")
        with pytest.raises(RuleIncompleteError, match="outside the language"):
            certify_free_semigroup(spec, *gens, depth)
    else:
        event("both generators stay in the language")
        assert (certify_free_semigroup(spec, *gens, depth)
                == free_semigroup_oracle(spec, *gens, depth))


@pytest.mark.parametrize("gen_b, top, collision", [
    pytest.param("phi_b", 7, None, id="phi_b"),
    pytest.param("phi_a", 6, (("a",), ("b",)), id="phi_a"),
    pytest.param("phi_a_inv", 6, (("a",), ("a", "a", "b")), id="phi_a_inv"),
])
def test_hallway_walks_match_free_oracle(systems, gen_b, top, collision):
    """Up to the depths the benchmark's certify-free jobs use."""
    hallway = systems["hallway"]
    gens = (SimpleNamespace(code=hallway.codes["phi_a"]),
            SimpleNamespace(code=hallway.codes[gen_b]))
    for depth in range(1, top + 1):
        report = certify_free_semigroup(hallway.spec, *gens, depth)
        assert report == free_semigroup_oracle(hallway.spec, *gens, depth)
    assert report.collision == collision


def _endomorphisms(systems):
    """Automorphisms by system; every ordered pair is checked."""
    hallway, full2 = systems["hallway"], systems["full2"]
    full3 = SftSpec(Alphabet("012"), [])
    salo = systems["salo_schraudner"].spec
    names = ("identity", "phi_a", "phi_b", "phi_a_inv", "phi_b_inv")
    return {"hallway": (hallway.spec, [hallway.codes[n] for n in names]),
            "full3": (full3, [BlockCode.letter_map(full3, dict(zip("012", p)))
                              for p in itertools.permutations("012")]),
            "full2": (full2.spec, [BlockCode.shift(full2.spec, 1), BlockCode.shift(full2.spec, 2)]),
            "salo_schraudner": (salo, [BlockCode.shift(salo, 1), BlockCode.shift(salo, -1)])}


@pytest.mark.parametrize("name", ["hallway", "full3", "full2", "salo_schraudner"])
def test_endomorphism_pairs_match_free_oracle(systems, name):
    spec, codes_ = _endomorphisms(systems)[name]
    for a, b in itertools.product(codes_, repeat=2):
        gens = SimpleNamespace(code=a), SimpleNamespace(code=b)
        radius = max(a.radius, b.radius)
        # the oracle composes every product on L_{2*top+1}: sigma^2 on full2
        # stops at depth 3, as its 2^17 windows at depth 4 take seconds
        for depth in range(1, 5):
            if spec.count_words(2 * depth * radius + 1) > BUDGET:
                break
            assert (certify_free_semigroup(spec, *gens, depth)
                    == free_semigroup_oracle(spec, *gens, depth)), (a, b, depth)


@pytest.mark.parametrize("radius", [0, 1])
def test_single_window_language_collides_at_first_pair(radius):
    spec = SftSpec(Alphabet(["0"]), [])
    ident = SimpleNamespace(code=BlockCode.identity(spec, radius))
    for depth in range(1, 4):
        report = certify_free_semigroup(spec, ident, ident, depth)
        assert report == free_semigroup_oracle(spec, ident, ident, depth)
        assert report.collision == (("a",), ("b",))


def test_off_language_windows_raise_in_library_and_oracles(systems):
    # "1 next to a 1" turns the one marker of at_most_one_1 into two
    spec = systems["at_most_one_1"].spec
    spread = BlockCode.from_function(spec, 1, lambda w: "1" if "1" in (w[0], w[2]) else "0")
    gens = SimpleNamespace(code=spread), SimpleNamespace(code=spread)
    for fn in (certify_free_semigroup, free_semigroup_oracle):
        with pytest.raises(RuleIncompleteError):
            fn(spec, *gens, 2)
    # the library names the generator that leaves the language
    ident = SimpleNamespace(code=BlockCode.identity(spec, 1))
    with pytest.raises(RuleIncompleteError, match="generator b maps a word of L_5 outside"):
        certify_free_semigroup(spec, ident, gens[1], 2)
    got, expected = _result(compose, spread, spread), _result(compose_oracle, spread, spread)
    assert got == expected and got[0] is RuleIncompleteError
    word = tuple("0010100")
    got, expected = _result(apply_to_word, spread, word), _result(apply_to_word_oracle, spread, word)
    assert got == expected == (RuleIncompleteError,
                               "window ('1', '0', '1') missing from range-1 rule table")


def test_rule_is_read_only(systems):
    code = BlockCode.identity(systems["full2"].spec, 1)
    window = ("1", "0", "1")
    with pytest.raises(TypeError):
        del code.rule[window]
    with pytest.raises(TypeError):
        code.rule[window] = "1"
    assert code.rule[window] == "0"
    assert code.outputs == [w[1] for w in systems["full2"].spec.words(3)]


def _budget_codes(data, spec, budget):
    """Two drawn codes, ranges lowered until L_{2(R+R')+1} fits the budget."""
    outer, inner = data.draw(codes(spec)), data.draw(codes(spec))
    while (outer.radius or inner.radius) and spec.count_words(
            2 * (outer.radius + inner.radius) + 1) > budget:
        if outer.radius >= inner.radius:
            outer = data.draw(codes(spec, outer.radius - 1))
        else:
            inner = data.draw(codes(spec, inner.radius - 1))
    return outer, inner


@SETTINGS
@given(st.data())
def test_apply_to_word_matches_oracle(data):
    spec = data.draw(specs)
    code = data.draw(codes(spec))
    rng = data.draw(st.randoms(use_true_random=False))
    length = data.draw(st.integers(0, 12))
    words = _long_words(spec, rng, length, 5)
    words += data.draw(st.lists(st.lists(st.sampled_from(spec.alphabet.letters),
                                         max_size=12).map(tuple), max_size=5))
    for word in words:
        assert _result(apply_to_word, code, word) == _result(apply_to_word_oracle, code, word)


def _code_result(fn, *args):
    kind, value = _result(fn, *args)
    return (kind, (value.radius, value.rule)) if kind == "value" else (kind, value)


@SETTINGS
@given(st.data())
def test_compose_matches_oracle(data):
    spec = data.draw(specs)
    outer, inner = _budget_codes(data, spec, BUDGET // 4)
    assert _code_result(compose, outer, inner) == _code_result(compose_oracle, outer, inner)


@st.composite
def padded_codes(draw, spec):
    """A drawn code, or the same map at up to two ranges more, its table read
    off each window's middle, within the budget."""
    code = draw(codes(spec))
    extra = draw(st.integers(0, 2))
    while extra and spec.count_words(2 * (code.radius + extra) + 1) > BUDGET // 4:
        extra -= 1
    if not extra:
        return code
    return BlockCode.from_function(spec, code.radius + extra,
                                   lambda w: code.rule[w[extra:len(w) - extra]])


@SETTINGS
@given(st.data())
def test_reduce_range_matches_oracle(data):
    spec = data.draw(specs)
    code = data.draw(padded_codes(spec))
    got, expected = reduce_range(code), reduce_range_oracle(code)
    assert (got.radius, got.outputs, got.rule) == (expected.radius, expected.outputs, expected.rule)


@SETTINGS
@given(st.data())
def test_equal_on_shift_matches_oracle(data):
    spec = data.draw(specs)
    a, b = data.draw(padded_codes(spec)), data.draw(padded_codes(spec))
    if data.draw(st.booleans()):
        b = reduce_range(a)  # the same map, at another range whenever a reduces
    assert equal_on_shift(spec, a, b) == equal_on_shift_oracle(spec, a, b)


@SETTINGS
@given(st.data())
def test_composed_and_reduced_codes_serialize_as_oracle_codes(data):
    # product specs write pair letters as JSON arrays, and parse_code reads them back
    spec = data.draw(specs)
    outer, inner = _budget_codes(data, spec, BUDGET // 4)
    kind, composed = _result(compose, outer, inner)
    if kind != "value":
        return
    expected = compose_oracle(outer, inner)
    for got, want in ((composed, expected),
                      (reduce_range(composed), reduce_range_oracle(expected))):
        text = json.dumps(code_to_json(got))
        assert text == json.dumps(code_to_json(want))
        assert parse_code(spec, json.loads(text)).outputs == got.outputs


def test_rule_view_of_composed_and_reduced_codes(systems):
    hallway = systems["hallway"]
    walk = compose(hallway.codes["phi_a"], hallway.codes["phi_b"])
    ident = reduce_range(compose(hallway.codes["phi_a_inv"], hallway.codes["phi_a"]))
    assert ident.radius == 0
    for code in (walk, ident):
        words = hallway.spec.words(2 * code.radius + 1)
        assert code.rule == dict(zip(words, code.outputs))
        assert isinstance(code.rule, MappingProxyType) and code.rule is code.rule
        window = words[0]
        with pytest.raises(TypeError):
            code.rule[window] = code.rule[window]
        with pytest.raises(AttributeError):
            code.rule = {}


def _table(code):
    return None if code is None else (code.radius, code.rule)


def _keys(spec, elements):
    """The (range, outputs in canonical window order) pairs of reduced codes."""
    return {(e.radius, tuple(e.rule[w] for w in spec.words(2 * e.radius + 1)))
            for e in elements or ()}


def _inverse_budget(spec, code):
    return lambda r_max: spec.count_words(2 * (r_max + code.radius) + 1) <= BUDGET // 4


@SETTINGS
@given(st.data())
def test_find_inverse_matches_oracle(data):
    spec = data.draw(specs)
    code = data.draw(codes(spec))
    r_max = _largest(data.draw(st.integers(0, 3)), _inverse_budget(spec, code))
    assert (_table(find_inverse(spec, code, r_max))
            == _table(find_inverse_oracle(spec, code, r_max)))


@pytest.mark.parametrize("name, radius, fn", [
    pytest.param("golden_mean", 0, lambda w: "0", id="merging-letter-map"),
    # r = 0 conflicts, r = 1 fails the key set: the one marker becomes two
    pytest.param("at_most_one_1", 1, lambda w: "1" if "1" in (w[0], w[2]) else "0",
                 id="spreading-marker"),
])
def test_find_inverse_none_for_non_injective_codes(systems, name, radius, fn):
    spec = systems[name].spec
    code = BlockCode.from_function(spec, radius, fn)
    for r_max in range(4):
        assert find_inverse(spec, code, r_max) is None
        assert find_inverse_oracle(spec, code, r_max) is None


@SETTINGS
@given(st.data())
def test_certified_inverse_composes_to_identity(data):
    spec = data.draw(specs)
    code = data.draw(codes(spec))
    r_max = _largest(data.draw(st.integers(0, 2)), _inverse_budget(spec, code))
    result = certify_automorphism(spec, code, r_max)
    if result.status == "certified":
        inverse = result.cert.inverse
        ident = BlockCode.identity(spec, result.cert.r_certified + 1)
        assert equal_on_shift(spec, compose(inverse, code), ident)
        assert equal_on_shift(spec, compose(code, inverse), ident)


def _long_words(spec, rng, length, count):
    """Random language words: walks of the compiled rows, every state extends."""
    rows = spec._rows
    out = []
    for _ in range(count):
        word, state = [], 0
        for _ in range(length):
            a, state = rng.choice(list(rows[state].items()))
            word.append(a)
        out.append(tuple(word))
    return out


@SETTINGS
@given(st.data())
def test_certified_maps_long_words_into_language(data):
    # 60 letters is far beyond the old image bound max(2*r_max+3, order) <= 7
    spec = data.draw(specs)
    code = data.draw(codes(spec))
    r_max = _largest(data.draw(st.integers(0, 2)), _inverse_budget(spec, code))
    result = certify_automorphism(spec, code, r_max)
    if result.status == "certified":
        rng = data.draw(st.randoms(use_true_random=False))
        for word in _long_words(spec, rng, 60, 20):
            assert spec.contains(apply_to_word(code, word))
            assert spec.contains(apply_to_word(result.cert.inverse, word))


def _slide_calls(data, spec, pool):
    """A compose, an inverse search and a free-semigroup check for each code
    of the pool (paired with the next one), within the budget."""
    calls = []
    for code, other in zip(pool, pool[1:] + pool[:1]):
        if spec.count_words(2 * (code.radius + other.radius) + 1) <= BUDGET // 4:
            calls.append(("compose", (code, other), ()))
        r_max = _largest(data.draw(st.integers(0, 2)), _inverse_budget(spec, code))
        calls.append(("inverse", (code,), (r_max,)))
        radius = max(code.radius, other.radius)
        depth = _largest(data.draw(st.integers(1, 3)),
                         lambda d: spec.count_words(2 * d * radius + 1) <= BUDGET // 4)
        calls.append(("free", (code, other), (depth,)))
    return calls


def _slide_outcome(kind, spec, codes, args):
    if kind == "compose":
        return _code_result(compose, *codes)
    if kind == "inverse":
        return _table(find_inverse(spec, *codes, *args))
    gens = [SimpleNamespace(code=code) for code in codes]
    return _result(certify_free_semigroup, spec, *gens, *args)


def _slide_oracle(kind, spec, codes, args):
    if kind == "compose":
        return _code_result(compose_oracle, *codes)
    if kind == "inverse":
        return _table(find_inverse_oracle(spec, *codes, *args))
    (depth,) = args
    n = 2 * depth * max(code.radius for code in codes) + 1
    for name, code in zip("ab", codes):
        if any(not spec.contains(apply_to_word_oracle(code, u)) for u in spec.words(n)):
            # a generator leaving the language is rejected, whatever the oracle makes of it
            message = f"generator {name} maps a word of L_{n} outside the language"
            return RuleIncompleteError, message
    gens = [SimpleNamespace(code=code) for code in codes]
    return "value", free_semigroup_oracle(spec, *gens, depth)


@SETTINGS
@given(st.data())
def test_shared_source_walks_match_fresh_specs_and_oracles(data):
    # every slide of one span reads the spec's one source walk
    # (`SubshiftSpec._sources`): calls on codes of mixed ranges, in a drawn
    # order on one spec, must give what each gives on a fresh spec
    spec = data.draw(specs)
    pool = data.draw(st.lists(codes(spec), min_size=2, max_size=3))
    calls = data.draw(st.permutations(_slide_calls(data, spec, pool)))
    for kind, call_codes, args in calls:
        got = _slide_outcome(kind, spec, call_codes, args)
        fresh = parse_spec(spec.descriptor())
        moved = [BlockCode(fresh, code.radius, dict(code.rule)) for code in call_codes]
        assert got == _slide_outcome(kind, fresh, moved, args)
        assert got == _slide_oracle(kind, spec, call_codes, args)


def test_passes_at_one_span_read_one_source_walk(systems):
    # the inverse search of a range-1 code at rmax 1 slides the code and its
    # range-1 candidate over L_5: both read the walk the compose built
    spec = parse_spec(systems["hallway"].spec.descriptor())
    phi_a, phi_b = (BlockCode(spec, 1, dict(systems["hallway"].codes[name].rule))
                    for name in ("phi_a", "phi_b"))
    compose(phi_a, phi_b)
    walk = spec._walks[3]
    levels = [(parent, last) for parent, last, _ in walk]  # L_3, L_4, L_5
    assert find_inverse(spec, phi_b, 1) is not None
    assert spec._walks[3] is walk and len(walk) == 3
    assert all(old[0] is new[0] and old[1] is new[1] for old, new in zip(levels, walk))
    # only the longest level keeps its states, to grow the next
    assert [states is None for _, _, states in walk] == [True, True, False]


def _certs(certs):
    return [(c.code.radius, c.code.outputs, c.inverse.radius, c.inverse.outputs, c.r_certified)
            for c in certs]


@settings(SETTINGS, max_examples=200)
@given(st.data())
def test_enumerate_automorphisms_matches_certify_every_table_oracle(data):
    spec = data.draw(specs)
    radius = data.draw(st.integers(0, 1))
    if len(spec.alphabet) ** spec.count_words(2 * radius + 1) > 4_096:
        radius = 0
    assume(len(spec.alphabet) ** spec.count_words(2 * radius + 1) <= 4_096)
    certs = enumerate_automorphisms(spec, radius)
    event(f"{len(certs)} automorphisms")
    assert _certs(certs) == _certs(enumerate_automorphisms_oracle(spec, radius))


def _permutes_each_period(spec, code):
    """Whether the code's images of the points of period p are those
    points, for every p <= 2R+2, each image read off `apply_to_config`."""
    for p in range(1, 2 * code.radius + 3):
        points = [u for u in spec.words(p) if spec.contains_config(Configuration.periodic(u))]
        images = {apply_to_config(code, Configuration.periodic(u)).window(0, p) for u in points}
        if images != set(points):
            return False
    return True


@SETTINGS
@given(st.data())
def test_enumerate_certifies_exactly_the_tables_permuting_each_period(data):
    # ranges up to 3 reach finite shifts, whose periods past |L_{2R+1}| are not listed
    spec = data.draw(specs)
    radius = data.draw(st.integers(0, 3))
    while radius and len(spec.alphabet) ** spec.count_words(2 * radius + 1) > 256:
        radius -= 1
    windows = spec.count_words(2 * radius + 1)
    assume(len(spec.alphabet) ** windows <= 256)
    event("periods cut" if windows < 2 * radius + 2 else "every period listed")
    certified = []

    def counted(spec, code, r_max):
        certified.append(tuple(code.outputs))
        return certify_automorphism(spec, code, r_max)

    with mock.patch.object(autos, "certify_automorphism", counted):
        enumerate_automorphisms(spec, radius)
    tables = itertools.product(spec.alphabet.letters, repeat=windows)
    assert certified == [values for values in tables if _permutes_each_period(
        spec, BlockCode._of(spec, radius, list(values)))]


FULL2 = SftSpec(Alphabet("01"), [])
FULL3 = SftSpec(Alphabet("012"), [])
LETTER_MAPS = [BlockCode.letter_map(FULL3, dict(zip("012", perm)))
               for perm in itertools.permutations("012")]
# ranges add up over the rounds: the closure of the square of the shift
# composes range-10 codes over 2^21 windows before it reaches a cap of 10
SHIFTS = [BlockCode.shift(FULL2, power) for power in (-1, 1)]
SHIFTS.append(BlockCode.letter_map(FULL2, {"0": "1", "1": "0"}))


@SETTINGS
@given(st.data())
def test_subgroup_closure_matches_oracle(data):
    spec, pool = data.draw(st.sampled_from(((FULL3, LETTER_MAPS), (FULL2, SHIFTS))))
    gens = data.draw(st.lists(st.sampled_from(pool), max_size=2))
    certs = [certify_automorphism(spec, code, code.radius).cert for code in gens]
    cap = data.draw(st.integers(1, 10))
    got = subgroup_closure(spec, certs, cap)
    expected = subgroup_closure_oracle(spec, certs, cap)
    assert got.status == expected.status
    # the library's order (identity, steps, spheres) differs from the oracle's rounds
    assert _keys(spec, got.elements) == _keys(spec, expected.elements)
    assert len(got.elements or ()) == len(expected.elements or ())


@settings(SETTINGS, max_examples=200)
@given(st.data())
def test_preserves_occurrences_matches_scan_oracle(data):
    spec = data.draw(specs.filter(lambda spec: len(spec.alphabet) > 1))
    kind = data.draw(st.sampled_from(("drawn", "identity", "shift")))
    if kind == "drawn":
        code = data.draw(codes(spec, max_radius=1))
    elif kind == "identity":
        code = BlockCode.identity(spec, data.draw(st.integers(0, 1)))
    else:  # sigma and its inverse read one neighbour, which anchors can pin down
        code = BlockCode.shift(spec, data.draw(st.sampled_from((1, -1))))
    anchored = data.draw(st.booleans())
    shortest = 2 * code.radius + 1 if anchored else 1  # the relative form needs |target| > 2R
    if data.draw(st.sampled_from((True, True, True, False))):
        length = data.draw(st.integers(shortest, shortest + 2))
        target = data.draw(st.sampled_from(spec.words(length)))
    else:  # mostly outside the language, now and then too short for the relative form or empty
        letter = st.sampled_from(spec.alphabet.letters)
        target = tuple(data.draw(st.lists(letter, max_size=shortest + 2)))
    anchors = None
    if anchored:
        dist = data.draw(st.integers(0, 2))
        while dist and spec.count_words(len(target) + 2 * (code.radius + dist)) > BUDGET // 4:
            dist -= 1
        # factors of the target hit the stretch at a known place; language words anywhere
        factors = [target[i:j] for i in range(len(target)) for j in range(i + 1, len(target) + 1)]
        pool = factors + list(spec.words(data.draw(st.integers(1, 2))))
        anchors = (data.draw(st.lists(st.sampled_from(pool), max_size=2)), dist)
    assert (_result(preserves_occurrences, spec, code, target, anchors)
            == _result(preserves_occurrences_oracle, spec, code, target, anchors))
