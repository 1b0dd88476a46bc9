import functools

import pytest

from oracles import hallway_walk_back_oracle, hallway_walk_oracle
from shiftlab import (
    BlockCode,
    apply_to_word,
    certify_automorphism,
    certify_free_semigroup,
    compose,
    decode_hallway_product,
    equal_on_shift,
    make_example,
)
from shiftlab.systems import SYSTEM_NAMES


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        make_example("sturmian")


def test_hallway_alphabet_size(systems):
    assert systems["hallway"].spec.count_words(1) == 8


def test_salo_schraudner_small_values(systems):
    assert systems["salo_schraudner"].spec.count_words(3) == 16


def test_cycle2_two_periodic_points(systems):
    cycle2 = systems["cycle2"]
    for n in range(1, 9):
        assert cycle2.spec.count_words(n) == 2
    assert all(probe.is_periodic() for probe in cycle2.probes.values())


def test_probes_lie_in_their_specs(systems):
    for system in systems.values():
        for name, probe in system.probes.items():
            assert system.spec.contains_config(probe), (system.name, name)


def test_codes_are_complete_on_language(systems):
    for system in systems.values():
        for code in system.codes.values():
            assert set(code.rule) == set(system.spec.words(2 * code.radius + 1))


def test_walk_codes_certify_with_range1_inverses(systems):
    hallway = systems["hallway"]
    for name, inverse_name in (("phi_a", "phi_a_inv"), ("phi_b", "phi_b_inv")):
        result = certify_automorphism(hallway.spec, hallway.codes[name], 1)
        assert result.status == "certified"
        assert result.cert.r_certified == 1
        assert equal_on_shift(hallway.spec, result.cert.inverse,
                              hallway.codes[inverse_name])


def test_walk_codes_map_language_into_language(systems):
    hallway = systems["hallway"]
    for name in ("phi_a", "phi_b"):
        code = hallway.codes[name]
        for n in range(1, 9):
            shorter = set(hallway.spec.words(n))
            for u in hallway.spec.words(n + 2):
                assert apply_to_word(code, u) in shorter


def test_inverse_codes_invert(systems):
    hallway = systems["hallway"]
    ident = hallway.codes["identity"]
    for name in ("a", "b"):
        walk = hallway.codes[f"phi_{name}"]
        back = hallway.codes[f"phi_{name}_inv"]
        assert equal_on_shift(hallway.spec, compose(back, walk), ident)
        assert equal_on_shift(hallway.spec, compose(walk, back), ident)


def test_products_distinct_to_depth_three(systems):
    hallway = systems["hallway"]
    cert_a = certify_automorphism(hallway.spec, hallway.codes["phi_a"], 1).cert
    cert_b = certify_automorphism(hallway.spec, hallway.codes["phi_b"], 1).cert
    report = certify_free_semigroup(hallway.spec, cert_a, cert_b, 3)
    assert report.status == "free-to-depth"
    assert len(report.words) == 14


def test_probe_decoding_small_products(systems):
    hallway = systems["hallway"]
    gens = {"a": hallway.codes["phi_a"], "b": hallway.codes["phi_b"]}
    for word in (("a",), ("b",), ("a", "b"), ("b", "a"), ("a", "b", "b"),
                 ("b", "a", "b")):
        code = functools.reduce(compose, map(gens.__getitem__, word))
        assert decode_hallway_product(hallway, code) == word


def test_decoding_rejects_non_walk_code(systems):
    hallway = systems["hallway"]
    assert decode_hallway_product(hallway, hallway.codes["identity"]) is None
    # only x3's image has the walker at the origin, and that bare p names no generator
    assert decode_hallway_product(hallway, BlockCode.shift(hallway.spec, -3)) is None


def _eager(name, spec):
    """The codes and probes of a named system, each built at once."""
    from shiftlab import Configuration

    marked = Configuration.from_markers
    if name == "hallway":
        walk = functools.partial(BlockCode.from_function, spec, 1)
        codes = {"identity": BlockCode.identity(spec, 0),
                 "phi_a": walk(hallway_walk_oracle(False)),
                 "phi_b": walk(hallway_walk_oracle(True)),
                 "phi_a_inv": walk(hallway_walk_back_oracle(False)),
                 "phi_b_inv": walk(hallway_walk_back_oracle(True))}
        probes = {"zero": Configuration.constant("0"),
                  **{f"x{i}": marked("0", {-i: "p", 0: "1"}) for i in range(1, 9)}}
        for m, label in (("1", "nail_1"), ("a", "nail_a"), ("b", "nail_b"), ("p", "walker"),
                         ("1p", "at_nail_1"), ("ap", "at_nail_a"), ("bp", "at_nail_b")):
            probes[label] = marked("0", {0: m})
        return codes, probes
    if name == "salo_schraudner":
        return ({"identity": BlockCode.identity(spec, 0)},
                {"zero": Configuration.constant(("0", "0"))})
    codes = {"identity": BlockCode.identity(spec, 0)}
    if name in ("full2", "at_most_one_1"):
        if name == "full2":
            codes["flip"] = BlockCode.letter_map(spec, {"0": "1", "1": "0"})
        codes["shift"], codes["shift_inv"] = BlockCode.shift(spec, 1), BlockCode.shift(spec, -1)
    probes = {"zero": Configuration.constant("0"), "one": marked("0", {0: "1"}),
              "alt": Configuration.periodic(("0", "1")),
              "alt_shifted": Configuration.periodic(("1", "0"))}
    keep = {"full2": ("one", "alt", "zero"), "golden_mean": ("zero", "one"),
            "cycle2": ("alt", "alt_shifted"), "at_most_one_1": ("zero", "one")}[name]
    return codes, {label: probes[label] for label in keep}


@pytest.mark.parametrize("name", ["full2", "golden_mean", "cycle2", "at_most_one_1",
                                  "salo_schraudner", "hallway"])
def test_codes_and_probes_are_built_on_first_read(name):
    system = make_example(name)
    codes, probes = _eager(name, system.spec)
    assert list(system.codes) == list(codes) and len(system.codes) == len(codes)
    assert list(system.probes) == list(probes) and len(system.probes) == len(probes)
    assert "no such code" not in system.codes and "phi_a" not in system.probes
    for label, code in codes.items():
        built = system.codes[label]
        assert built is system.codes[label]
        assert (built.spec, built.radius, built.outputs) == (system.spec, code.radius, code.outputs)
        assert built.rule == code.rule
    for label, probe in probes.items():
        built = system.probes[label]
        assert built is system.probes[label]
        assert (built.left, built.center, built.right, built.offset) == (
            probe.left, probe.center, probe.right, probe.offset)
    with pytest.raises(KeyError):
        system.codes["no such code"]
    with pytest.raises(TypeError):
        system.codes["identity"] = codes["identity"]


def test_make_example_builds_no_code_and_no_probe(monkeypatch):
    from shiftlab import Configuration

    built = []
    for cls in (BlockCode, Configuration):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *args, init=init: (
            built.append(type(self).__name__), init(self, *args))[1])
    hallway = [make_example(name) for name in SYSTEM_NAMES][-1]
    assert built == []
    assert hallway.codes["phi_a"] and hallway.probes["x3"]
    assert built == ["BlockCode", "Configuration"]
