"""Acceptance criteria, one test per criterion, each within its time budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion.  Expected values come from the independent oracles in
oracles.py or from exhaustively checked small cases; nothing is tuned to
the implementation under test.
"""

import functools
import time
from contextlib import contextmanager

import pytest

from oracles import range0_automorphism_oracle, sparse_language_oracle
from shiftlab import (
    BlockCode,
    apply_to_config,
    apply_to_word,
    build_chain,
    certify_automorphism,
    certify_free_semigroup,
    commutator,
    compose,
    decode_hallway_product,
    detect_period_vectors,
    enumerate_automorphisms,
    equal_on_shift,
    extension_radius,
    find_extension_window,
    min_nonextendable_radius,
    power_is_shift,
    preserves_occurrences,
    rect_complexity,
    shadowing_distance,
    spacetime_window,
)
from shiftlab.autos import semigroup_words
from shiftlab.complexity import AT_LEAST_CAP, EXCEEDS_CAP
from shiftlab.errors import LemmaWindowNotFoundError
from shiftlab.suites import suite_removal
from shiftlab.words import Configuration, occurrences


@contextmanager
def budget(limit_s, label):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < limit_s, f"{label} took {elapsed:.2f}s, budget {limit_s}s"
    print(f"[PASS] {label} ({elapsed:.2f}s)")


def test_criterion_01_salo_schraudner_complexity(systems):
    with budget(1.0, "criterion 1: Salo-Schraudner complexity (n+1)^2, n<=12"):
        spec = systems["salo_schraudner"].spec
        for n in range(1, 13):
            assert spec.count_words(n) == (n + 1) ** 2


def test_criterion_02_hallway_complexity_vs_oracle(systems):
    with budget(5.0, "criterion 2: hallway complexity equals placement oracle, n<=12"):
        spec = systems["hallway"].spec
        families = [list(f) for f in spec.families]
        for n in range(1, 13):
            oracle = sparse_language_oracle("0", families, n)
            assert len(oracle) == 3 * n * n + 4 * n + 1
            assert spec.count_words(n) == len(oracle)
            assert set(spec.words(n)) == set(oracle)


def test_criterion_03_removal_bound_randomized():
    with budget(60.0, "criterion 3: removal bound on 100 seeded random SFTs"):
        results, violations = suite_removal(100, seed=2026)
        assert results["instances"] == 100
        assert results["cylinders_checked"] > 500
        assert violations == []


def test_criterion_04_chain_bound(systems):
    with budget(10.0, "criterion 4: chain-length bound on both built-in chains"):
        for name, radius, max_len in (("at_most_one_1", 1, 1), ("hallway", 1, 2)):
            spec = systems[name].spec
            chain = build_chain(spec, radius, max_len, cap=40)
            eff = chain.effective_len
            assert eff == max_len + 4 * radius
            assert chain.k * eff < spec.count_words(2 * eff - 1)
            assert chain.bound_holds


def test_criterion_05_extension_window(systems):
    with budget(30.0, "criterion 5: extension-window search with C = ln2/(4d)"):
        for name, degree in (("at_most_one_1", 2), ("hallway", 3)):
            spec = systems[name].spec
            for n in (8, 12, 16):
                m, k_m = find_extension_window(spec, n, degree, cap=50)
                assert m >= 1
                assert k_m == EXCEEDS_CAP or k_m >= 1
        with pytest.raises(LemmaWindowNotFoundError):
            find_extension_window(systems["full2"].spec, 10, 2, cap=10)


def test_criterion_06_shadowing(systems):
    with budget(1.0, "criterion 6: shadowing distance D=1 with counterexample at 0"):
        report = shadowing_distance(systems["full2"].spec, [("1", "1")],
                                    ("1",), 1, 5)
        assert report.status == "ok" and report.distance == 1
        cex = report.counterexample
        assert cex is not None and len(cex) == 3
        # the counterexample has "1" centered, no forbidden word at offset
        # T..T+0, and the target extension absent: the D=0 condition fails
        assert cex[1] == "1"
        assert cex[1:3] != ("1", "1")
        assert cex != report.target


def test_criterion_07_hallway_free_semigroup(systems):
    with budget(60.0, "criterion 7: free semigroup to depth 5 with probe decoding"):
        hallway = systems["hallway"]
        res_a = certify_automorphism(hallway.spec, hallway.codes["phi_a"], 1)
        res_b = certify_automorphism(hallway.spec, hallway.codes["phi_b"], 1)
        assert res_a.status == res_b.status == "certified"
        assert res_a.cert.r_certified == res_b.cert.r_certified == 1
        assert res_a.cert.inverse.radius == res_b.cert.inverse.radius == 1
        report = certify_free_semigroup(hallway.spec, res_a.cert, res_b.cert, 5)
        assert report.status == "free-to-depth"
        assert len(report.words) == 62
        assert report.collision is None
        gens = {"a": res_a.cert.code, "b": res_b.cert.code}
        for word in semigroup_words(5):
            code = functools.reduce(compose, map(gens.__getitem__, word))
            assert decode_hallway_product(hallway, code) == word


def test_criterion_08_automorphism_enumeration_oracle(systems):
    with budget(1.0, "criterion 8: Aut_0 enumeration matches table-search oracle"):
        full2 = systems["full2"]
        certs = enumerate_automorphisms(full2.spec, 0)
        language = {n: set(full2.spec.words(n)) for n in range(1, 7)}
        oracle = range0_automorphism_oracle(("0", "1"), language)
        assert sorted(tuple(sorted(c.code.rule.items())) for c in certs) == \
            sorted(tuple(sorted(t.items())) for t in oracle)
        assert len(certs) == 2
        assert any(equal_on_shift(full2.spec, c.code, full2.codes["flip"])
                   for c in certs)
        gm = systems["golden_mean"]
        certs = enumerate_automorphisms(gm.spec, 0)
        language = {n: set(gm.spec.words(n)) for n in range(1, 7)}
        oracle = range0_automorphism_oracle(("0", "1"), language)
        assert len(certs) == len(oracle) == 1
        assert certs[0].code.rule == {("0",): "0", ("1",): "1"}


def test_criterion_09_spacetime_sanity(systems):
    with budget(1.0, "criterion 9: period vectors and rectangle counts"):
        full2 = systems["full2"]
        sigma = certify_automorphism(full2.spec, full2.codes["shift"], 1).cert
        probes = (full2.probes["one"], full2.probes["alt"],
                  Configuration.periodic(("0", "1", "1")))
        for probe in probes:
            window = spacetime_window(full2.spec, sigma, probe, 9, 9)
            assert (1, -1) in detect_period_vectors(window, 2)
        ident = certify_automorphism(full2.spec, full2.codes["identity"], 0).cert
        window = spacetime_window(full2.spec, ident, full2.probes["alt"], 9, 9)
        assert (0, 1) in detect_period_vectors(window, 2)
        window = spacetime_window(full2.spec, sigma, full2.probes["alt"], 14, 14)
        for n in range(1, 7):
            for k in range(1, 7):
                assert rect_complexity(window, n, k) == 2


def test_criterion_10_theorem2_mechanism(systems):
    with budget(30.0, "criterion 10: power-is-shift and a nontrivial commutator"):
        one = systems["at_most_one_1"]
        certs = enumerate_automorphisms(one.spec, 1)
        assert len(certs) >= 1
        for cert in certs:
            report = power_is_shift(one.spec, cert, [one.probes["one"]], 4, 6)
            assert report is not None
            assert report.exponent <= 4
            assert all(abs(t) <= 6 for t in report.shifts)
        hallway = systems["hallway"]
        res_a = certify_automorphism(hallway.spec, hallway.codes["phi_a"], 1)
        res_b = certify_automorphism(hallway.spec, hallway.codes["phi_b"], 1)
        comm = commutator(res_a.cert.code, res_b.cert.code,
                          res_a.cert.inverse, res_b.cert.inverse)
        assert not equal_on_shift(hallway.spec, comm, hallway.codes["identity"])
        witness = None
        for name, probe in sorted(hallway.probes.items()):
            if apply_to_config(comm, probe) != probe:
                witness = name
                break
        assert witness is not None
        print(f"    commutator witness probe: {witness}")


def _lemma_replay_pool(system):
    """Certified codes of the system, each at its own declared range."""
    pool = []
    for code in system.codes.values():
        result = certify_automorphism(system.spec, code, max(code.radius, 1))
        if result.status == "certified":
            pool.append(result.cert)
    return pool


def test_criterion_11_property_suites(systems):
    with budget(120.0, "criterion 11: property suites on every built-in system"):
        for system in systems.values():
            spec = system.spec
            # factorial closure and two-sided extendability, n <= 8
            for n in range(2, 9):
                shorter = set(spec.words(n - 1))
                for word in spec.words(n):
                    assert word[:-1] in shorter and word[1:] in shorter
            letters = spec.alphabet.letters
            for n in range(1, 7):
                longer = set(spec.words(n + 2))
                for word in spec.words(n):
                    assert any((a,) + word + (b,) in longer
                               for a in letters for b in letters)
            # word/point consistency of every named code
            for code in system.codes.values():
                radius = code.radius
                for probe in system.probes.values():
                    for start in (-2, 0, 1):
                        expect = apply_to_word(
                            code, probe.window(start - radius, 4 + 2 * radius))
                        image = apply_to_config(code, probe)
                        assert image.window(start, 4) == expect
            # Lemma 2.1 replay over certified pairs at a common range
            pool = _lemma_replay_pool(system)
            if pool:
                top = max(cert.r_certified for cert in pool)
                def padded_to_top(code):
                    return compose(code, BlockCode.identity(spec, top - code.radius))

                padded = [(padded_to_top(c.code), padded_to_top(c.inverse)) for c in pool]
                targets = []
                for n in (1, 2):
                    for word in spec.words(n):
                        report = extension_radius(spec, word, 2 * top)
                        if report.radius == AT_LEAST_CAP:
                            targets.append(report.extension)
                for phi, phi_inv in padded:
                    for psi, _ in padded:
                        for ext in targets:
                            if len(ext) < 2 * top + 1:
                                continue
                            if apply_to_word(phi, ext) == apply_to_word(psi, ext):
                                mixed = compose(phi_inv, psi)
                                assert preserves_occurrences(spec, mixed, ext)
            # doubling property wherever k_n is finite
            for n in range(1, 9):
                k_n = min_nonextendable_radius(spec, n, 12)
                if k_n == EXCEEDS_CAP:
                    continue
                assert spec.count_words(n + 2 * k_n) >= 2 * spec.count_words(n)
