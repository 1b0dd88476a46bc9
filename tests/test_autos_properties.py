"""Differential tests of the code-algebra walks on generated specs and codes.

`autos._endomorphism_witness` and `certify_free_semigroup` are checked
against the enumerate-everything oracles in `oracles.py`: the same
witness (or None), the same report including the first collision pair,
and the same exception type when a rule table misses a window.  Inputs
are the spec strategies of `test_language_properties.py` and codes of
range 0-2: permutations of the centre letter, shifted permutations and
random tables.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import endomorphism_witness_oracle, free_semigroup_oracle
from shiftlab.autos import BlockCode, _endomorphism_witness, certify_free_semigroup
from shiftlab.errors import RuleIncompleteError
from test_language_properties import SETTINGS, product_specs, sft_specs, sparse_specs

# words materialized per oracle call, so that each example stays fast
BUDGET = 20_000

specs = st.one_of(sft_specs(), sparse_specs(), product_specs()).map(
    lambda case: case[0]).filter(lambda spec: not spec.is_empty)


@st.composite
def codes(draw, spec):
    letters = spec.alphabet.letters
    radius = draw(st.integers(0, 2))
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(("permutation", "shifted", "random")))
    if kind == "random":
        return BlockCode.from_function(spec, radius, lambda w: rng.choice(letters))
    perm = dict(zip(letters, rng.sample(letters, len(letters))))
    t = rng.randint(-radius, radius) if kind == "shifted" else 0
    return BlockCode.from_function(spec, radius, lambda w: perm[w[radius + t]])


def _drop_window(data, code):
    """Now and then delete one window from the rule table behind the code's back."""
    if data.draw(st.integers(0, 3)) == 0:
        del code.rule[data.draw(st.sampled_from(sorted(code.rule)))]


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except RuleIncompleteError:
        return "raised", RuleIncompleteError


def _largest(value, fits):
    while value > 1 and not fits(value):
        value -= 1
    return value


@SETTINGS
@given(st.data())
def test_endomorphism_witness_matches_oracle(data):
    spec = data.draw(specs)
    code = data.draw(codes(spec))
    _drop_window(data, code)
    order = spec.order if spec.kind == "sft" else 0

    def fits(r_max):
        top = max(2 * r_max + 3, order)
        return sum(spec.count_words(n + 2 * code.radius) for n in range(1, top + 1)) <= BUDGET

    r_max = _largest(data.draw(st.integers(0, 2)), fits)
    assert (_outcome(_endomorphism_witness, spec, code, r_max)
            == _outcome(endomorphism_witness_oracle, spec, code, r_max))


@SETTINGS
@given(st.data())
def test_free_semigroup_matches_oracle(data):
    spec = data.draw(specs)
    a, b = data.draw(codes(spec)), data.draw(codes(spec))
    _drop_window(data, a)
    radius = max(a.radius, b.radius)
    depth = _largest(data.draw(st.integers(1, 4)),
                     lambda d: spec.count_words(2 * d * radius + 1) <= BUDGET // 4)
    gens = SimpleNamespace(code=a), SimpleNamespace(code=b)
    assert (_outcome(certify_free_semigroup, spec, *gens, depth)
            == _outcome(free_semigroup_oracle, spec, *gens, depth))


@pytest.mark.parametrize("gen_b", ["phi_b", "phi_a"])
def test_hallway_walks_match_free_oracle(systems, gen_b):
    hallway = systems["hallway"]
    gens = (SimpleNamespace(code=hallway.codes["phi_a"]),
            SimpleNamespace(code=hallway.codes[gen_b]))
    for depth in range(1, 5):
        assert (certify_free_semigroup(hallway.spec, *gens, depth)
                == free_semigroup_oracle(hallway.spec, *gens, depth))


def test_missing_window_raises_in_walk_and_oracle(systems):
    full2 = systems["full2"]
    code = BlockCode.identity(full2.spec, 1)
    del code.rule[("1", "0", "1")]
    gens = SimpleNamespace(code=code), SimpleNamespace(code=code)
    for fn, args in ((_endomorphism_witness, (full2.spec, code, 1)),
                     (endomorphism_witness_oracle, (full2.spec, code, 1)),
                     (certify_free_semigroup, (full2.spec, *gens, 2)),
                     (free_semigroup_oracle, (full2.spec, *gens, 2))):
        with pytest.raises(RuleIncompleteError):
            fn(*args)
