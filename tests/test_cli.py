import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftlab import Alphabet, BlockCode, SftSpec, code_to_json, compose, make_example
from shiftlab import chains, cli, errors, suites
from shiftlab.autos import ClosureResult
from shiftlab.cli import main
from shiftlab.subshifts import SubshiftSpec


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def test_complexity_builtin_salo(capsys):
    code, report = run_cli(capsys, "complexity", "--spec",
                           "builtin:salo_schraudner", "--max-n", "6")
    assert code == 0
    assert report["results"]["table"] == {
        "1": 4, "2": 9, "3": 16, "4": 25, "5": 36, "6": 49}
    assert report["violations"] == []


def test_counts_past_4300_digits_are_written_exactly(tmp_path, capsys):
    # P(4301) = 10^4301 on the full shift on ten letters: every digit is written (exit 0),
    # and the interpreter's limit on int digits is back in force afterwards
    path = tmp_path / "full10.json"
    path.write_text(json.dumps({"kind": "sft", "alphabet": list("0123456789"), "forbidden": []}))
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert main(["complexity", "--spec", str(path), "--max-n", "4301"]) == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    out, digits = capsys.readouterr().out, "1" + "0" * 4301
    assert f'\n      "4301": {digits}\n    }}\n' in out


def test_each_input_file_is_read_once(tmp_path, capsys, monkeypatch, systems):
    # the report's sha256 is of the bytes parsed, not of a second read of the file
    full2 = systems["full2"]
    paths = {}
    for role, obj in (("spec", full2.spec.descriptor()),
                      ("code", code_to_json(full2.codes["shift"])),
                      ("probe", {"left_period": ["0"], "center": ["1"], "right_period": ["0"],
                                 "origin_offset": 0})):
        paths[role] = tmp_path / f"{role}.json"
        paths[role].write_text(json.dumps(obj))
    opened, real_open = [], open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    code = main(["spacetime", "--spec", str(paths["spec"]), "--code", str(paths["code"]),
                 "--probe", str(paths["probe"]), "--width", "5", "--height", "3", "--rmax", "1"])
    monkeypatch.undo()
    assert code == 0
    assert sorted(opened) == sorted(map(str, paths.values()))
    inputs = json.loads(capsys.readouterr().out)["inputs"]
    assert inputs == {role: {"path": str(path),
                             "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
                      for role, path in paths.items()}


def test_complexity_spec_file_and_determinism(tmp_path, capsys, systems):
    path = tmp_path / "gm.json"
    path.write_text(json.dumps(systems["golden_mean"].spec.descriptor()))
    code1, report1 = run_cli(capsys, "complexity", "--spec", str(path), "--max-n", "4")
    code2, report2 = run_cli(capsys, "complexity", "--spec", str(path), "--max-n", "4")
    assert code1 == code2 == 0
    assert report1["inputs"]["spec"]["sha256"] == report2["inputs"]["spec"]["sha256"]
    report1.pop("elapsed_ms")
    report2.pop("elapsed_ms")
    assert report1 == report2


def test_chain_builtin(capsys):
    code, report = run_cli(capsys, "chain", "--spec", "builtin:at_most_one_1",
                           "--range", "1", "--maxlen", "1", "--cap", "10")
    assert code == 0
    assert report["results"]["k"] == 1
    assert report["results"]["bound"]["holds"] is True


def test_chain_reports_a_failed_length_bound(capsys, monkeypatch):
    # no builtin chain fails k*L' < P(2L'-1); a chain that does is a verified violation
    def failing(spec, radius, max_len, cap):
        return chains.Chain(levels=(), terminal=None, range_r=radius, max_len=max_len,
                            effective_len=max_len + 4 * radius, bound_value=3)

    monkeypatch.setattr(chains, "build_chain", failing)
    code, report = run_cli(capsys, "chain", "--spec", "builtin:at_most_one_1",
                           "--range", "1", "--maxlen", "1", "--cap", "10")
    assert code == 1
    assert report["results"]["bound"] == {"P(2L'-1)": 3, "holds": False}
    assert report["violations"] == [{"lemma": "chain-bound", "k": 0, "P(2L'-1)": 3,
                                     "L_prime": 5}]


def test_chain_reports_missing_extender(capsys):
    code, report = run_cli(capsys, "chain", "--spec", "builtin:full2",
                           "--range", "1", "--maxlen", "2", "--cap", "10")
    assert code == 1
    assert report["violations"][0]["reason"] == "no-unique-extender"


def test_autos_enumerate(capsys):
    code, report = run_cli(capsys, "autos", "enumerate", "--spec",
                           "builtin:full2", "--range", "0")
    assert code == 0
    assert report["results"]["count"] == 2


def test_autos_certify_builtin_code(capsys):
    code, report = run_cli(capsys, "autos", "certify", "--spec", "builtin:hallway",
                           "--code", "phi_a", "--rmax", "1")
    assert code == 0
    assert report["results"]["status"] == "certified"


def _flip_file(tmp_path, systems):
    """A code file of the letter swap on golden_mean, which maps 010 to 101."""
    from shiftlab.autos import BlockCode
    path = tmp_path / "flip.json"
    flip = BlockCode.letter_map(systems["golden_mean"].spec, {"0": "1", "1": "0"})
    path.write_text(json.dumps(code_to_json(flip)))
    return str(path)


def test_autos_certify_rejects_non_endomorphism(tmp_path, capsys, systems):
    code, report = run_cli(capsys, "autos", "certify", "--spec",
                           "builtin:golden_mean", "--code", _flip_file(tmp_path, systems),
                           "--rmax", "1")
    assert code == 1
    assert report["results"]["status"] == "not-endomorphism"
    assert report["violations"][0]["lemma"] == "endomorphism"


def test_certify_free_hallway(capsys):
    code, report = run_cli(capsys, "certify-free", "--spec", "builtin:hallway",
                           "--gen-a", "phi_a", "--gen-b", "phi_b",
                           "--depth", "4", "--rmax", "1")
    assert code == 0
    assert report["results"]["status"] == "free-to-depth"
    assert report["results"]["products"] == 30


def test_certify_free_refuses_a_generator_that_is_no_endomorphism(tmp_path, capsys, systems):
    code, report = run_cli(capsys, "certify-free", "--spec", "builtin:golden_mean",
                           "--gen-a", "identity", "--gen-b", _flip_file(tmp_path, systems),
                           "--depth", "1", "--rmax", "0")
    assert code == 1
    assert report["results"] == {"status": "generators-not-certified"}
    assert report["violations"] == [{"lemma": "automorphism-certification",
                                     "generator": "gen_b", "status": "not-endomorphism"}]


def test_spacetime_refuses_a_code_that_does_not_certify(tmp_path, capsys, systems):
    assert main(["spacetime", "--spec", "builtin:golden_mean", "--code",
                 _flip_file(tmp_path, systems), "--probe", "zero", "--width", "3",
                 "--height", "2", "--rmax", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: code did not certify as an automorphism (not-endomorphism)\n"


def _files_001():
    """The SFT without 001, and the range-1 code copying the left letter at a 0 and the
    right one at a 1: an endomorphism that is not onto."""
    spec = SftSpec(Alphabet("01"), [("0", "0", "1")])
    code = BlockCode.from_function(spec, 1, lambda u: u[0] if u[1] == "0" else u[2])
    return {"spec": spec.descriptor(), "code": code_to_json(code)}


def _files_spread():
    """On at_most_one_1, the range-2 code writing 1 two cells from each 1."""
    spec = make_example("at_most_one_1").spec
    code = BlockCode.from_function(spec, 2, lambda u: "1" if "1" in (u[0], u[4]) else "0")
    return {"code": code_to_json(code)}


def _files_walk3():
    """The range-3 walk phi_a phi_a phi_a on hallway."""
    a = make_example("hallway").codes["phi_a"]
    return {"code": code_to_json(compose(a, compose(a, a)))}


EMPTY_FACTOR = {"kind": "product", "factors": [
    {"kind": "sft", "alphabet": ["0", "1"], "forbidden": []},
    {"kind": "sft", "alphabet": ["0", "1"], "forbidden": [["0"], ["1"]]}]}
TWO_ONES = {"left_period": ["0"], "center": ["1", "0", "1"], "right_period": ["0"],
            "origin_offset": 0}

# the checks of CI's README-commands step: argv ({name} is the file made from files()[name]),
# exit code, and the results and violations expected, or the error text
README_CHECKS = [
    pytest.param("autos certify --spec builtin:hallway --code phi_a --rmax 0", dict, 0,
                 ({"status": "unknown"}, []), id="phi_a-without-inverse-of-range-0"),
    pytest.param("autos certify --spec builtin:hallway --code phi_b_inv --rmax 1", dict, 0,
                 ({"status": "certified", "r_certified": 1,
                   "inverse": code_to_json(make_example("hallway").codes["phi_b"])}, []),
                 id="phi_b_inv-inverted-by-phi_b"),
    *(pytest.param(f"autos enumerate --spec builtin:{name} --range 1", dict, 0,
                   ({"count": count}, []), id=f"enumerate-{name}")
      for name, count in (("full2", 6), ("golden_mean", 3), ("at_most_one_1", 3))),
    pytest.param("autos enumerate --spec builtin:full2 --range 7", dict, 2,
                 "search space of 2^32768 rule tables exceeds cap 1000000",
                 id="enumerate-range-7"),
    pytest.param("complexity --spec {spec} --max-n 3", lambda: {"spec": EMPTY_FACTOR}, 2,
                 "complexity undefined on the empty subshift", id="complexity-empty-factor"),
    pytest.param("chain --spec {spec} --range 1 --maxlen 1 --cap 5",
                 lambda: {"spec": EMPTY_FACTOR}, 2, "empty subshift has no language",
                 id="chain-empty-factor"),
    pytest.param("spacetime --spec builtin:at_most_one_1 --code identity --probe {probe} "
                 "--width 6 --height 3 --rmax 0", lambda: {"probe": TWO_ONES}, 2,
                 "base configuration not in the subshift", id="probe-with-two-ones"),
    pytest.param("autos certify --spec {spec} --code {code} --rmax 3", _files_001, 0,
                 ({"status": "unknown"}, []), id="into-not-onto-on-sft-without-001"),
    pytest.param("autos certify --spec builtin:at_most_one_1 --code {code} --rmax 2",
                 _files_spread, 1,
                 ({"status": "not-endomorphism"},
                  [{"lemma": "endomorphism", "word": list("000010000"),
                    "image": list("10001")}]),
                 id="spread-is-no-endomorphism"),
    pytest.param("autos certify --spec builtin:hallway --code {code} --rmax 3", _files_walk3,
                 0, ({"status": "certified", "r_certified": 3}, []), id="walk3"),
]


@pytest.mark.parametrize("command, files, exit_code, expect", README_CHECKS)
def test_readme_checks(tmp_path, capsys, command, files, exit_code, expect):
    paths = {}
    for name, obj in files().items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    assert main(command.format(**paths).split()) == exit_code
    captured = capsys.readouterr()
    if isinstance(expect, str):
        assert captured.out == ""
        assert captured.err == f"error: {expect}\n"
        return
    results, violations = expect
    report = json.loads(captured.out)
    assert {key: report["results"][key] for key in results} == results
    assert report["violations"] == violations


def test_missing_spec_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["complexity", "--spec", missing, "--max-n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: spec file not found: {missing}\n"


def test_certify_free_collision(capsys):
    code, report = run_cli(capsys, "certify-free", "--spec", "builtin:full2",
                           "--gen-a", "identity", "--gen-b", "identity",
                           "--depth", "2", "--rmax", "0")
    assert code == 1
    assert report["violations"][0]["lemma"] == "free-semigroup"


def test_spacetime_with_period_detection(capsys):
    code, report = run_cli(capsys, "spacetime", "--spec", "builtin:hallway",
                           "--code", "phi_a", "--probe", "x3",
                           "--width", "9", "--height", "4",
                           "--detect-periods", "3", "--rmax", "1")
    assert code == 0
    assert report["results"]["period_vectors"] == []
    assert len(report["results"]["text_grid"]) == 4


def test_spacetime_probe_file(tmp_path, capsys):
    probe = {"left_period": ["0"], "center": ["1"], "right_period": ["0"],
             "origin_offset": 0}
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(probe))
    code, report = run_cli(capsys, "spacetime", "--spec", "builtin:full2",
                           "--code", "shift", "--probe", str(path),
                           "--width", "5", "--height", "3",
                           "--detect-periods", "2", "--rmax", "1")
    assert code == 0
    assert [1, -1] in report["results"]["period_vectors"]
    # each row of the grid as text: its letters joined by one space
    assert report["results"]["text_grid"] == ["0 0 1 0 0", "0 1 0 0 0", "1 0 0 0 0"]


@pytest.mark.parametrize("field, value", [
    ("origin_offset", "3"),
    ("origin_offset", True),
    ("center", [["1"]]),
    ("left_period", []),
    ("right_period", "0"),
])
def test_spacetime_bad_probe_is_input_error(tmp_path, capsys, field, value):
    probe = {"left_period": ["0"], "center": ["1"], "right_period": ["0"],
             "origin_offset": 0, field: value}
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(probe))
    code = main(["spacetime", "--spec", "builtin:full2", "--code", "shift",
                 "--probe", str(path), "--width", "5", "--height", "3", "--rmax", "1"])
    assert code == 2
    assert field in capsys.readouterr().err


def test_verify_lemmas_trials_zero_is_usage_error(capsys):
    assert main(["verify-lemmas", "--suite", "removal", "--trials", "0",
                 "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: trials must be >= 1\n"
    # the parser admits only suite names; the library refuses any other
    with pytest.raises(ValueError, match="^unknown suite 'bogus'$"):
        suites.run_suite("bogus", 1, 1)


def test_verify_lemmas_removal(capsys):
    code, report = run_cli(capsys, "verify-lemmas", "--suite", "removal",
                           "--trials", "3", "--seed", "1")
    assert code == 0
    assert report["seed"] == 1
    assert report["results"]["detail"]["instances"] == 3


@pytest.mark.parametrize("suite, detail", [
    ("chain", {
        "at_most_one_1": {"k": 1, "L": 1, "L_prime": 5, "P(2L'-1)": 10,
                          "bound_holds": True, "sharpening_holds": True,
                          "words": [["1"], ["0"]]},
        "hallway": {"k": 10, "L": 2, "L_prime": 6, "P(2L'-1)": 408,
                    "bound_holds": True, "sharpening_holds": True,
                    "words": [["1p"], ["ap"], ["bp"], ["1", "p"], ["1"], ["a", "p"],
                              ["a"], ["b", "p"], ["b"], ["p"], ["0"]]}}),
    ("extend", {
        "at_most_one_1": {n: {"m": 1, "k_m": "exceeds-cap"} for n in ("8", "12", "16")},
        "hallway": {n: {"m": 1, "k_m": "exceeds-cap"} for n in ("8", "12", "16")},
        "full2": "hypothesis violation detected"}),
    ("shadow", {"full2_golden": {"D": 1, "counterexample": ["1", "1", "0"]},
                "at_most_one_1_trivial": {"D": 0}}),
    ("syndetic", {"cycle2": {"G": 2, "counterexample": ["0"]},
                  "at_most_one_1": {"D": 4, "G": 7}}),
    ("subgroup", {"full2_flip": {"status": "ok", "size": 2},
                  "full2_shift": {"status": "cap-exceeded"},
                  "hallway_empty": {"status": "ok", "size": 1}}),
])
def test_verify_lemmas_fixed_suites(capsys, suite, detail):
    code, report = run_cli(capsys, "verify-lemmas", "--suite", suite, "--seed", "1")
    assert code == 0
    assert report["violations"] == []
    assert report["results"] == {"suite": suite, "detail": detail}


def _no_window(spec, n, d, cap):
    raise errors.LemmaWindowNotFoundError("no window")


def _shadowing(distance, counterexample=None):
    # at_most_one_1 (no forbidden words) keeps its D = 0
    def fake(spec, forbidden, u, t_steps, cap):
        return chains.ShadowingReport("ok", distance if forbidden else 0, cap, ("1",),
                                      counterexample)
    return fake


def _failed_chain(spec, radius, max_len, cap):
    # k = 0 against P = 0: neither the bound nor the sharpening holds
    terminal = chains.ChainLevel(spec, ("0",), ("0",), False)
    return chains.Chain(levels=(), terminal=terminal, range_r=radius, max_len=max_len,
                        effective_len=max_len + 4 * radius)


def _slow(label, **entry):
    return {"lemma": "slow-growth", "instance": label, **entry}


NOT_MINIMAL = "window not minimal or not below eps"

# each suite's violation entries, from a wrong answer of the call it reads
SUITE_FAULTS = [
    pytest.param(
        "removal", "shiftlab.chains.verify_removal_bound",
        lambda spec, w, n_max: chains.RemovalBoundReport(w, (), ((len(w), 2, 1, -1),)),
        [{"lemma": "removal-bound",
          "instance": {"kind": "sft", "alphabet": ["0", "1"], "forbidden": [["1"], ["1", "1"]]},
          "word": ["0"] * n, "n": n, "lhs": 2, "rhs": 1} for n in (1, 2, 3)],
        id="removal"),
    pytest.param(
        "chain", "shiftlab.chains.build_chain", _failed_chain,
        [{"lemma": "chain-bound", "system": "at_most_one_1", "k": 0, "P(2L'-1)": 0,
          "L_prime": 5},
         {"lemma": "chain-sharpening", "system": "at_most_one_1", "k": 0},
         {"lemma": "chain-bound", "system": "hallway", "k": 0, "P(2L'-1)": 0, "L_prime": 6},
         {"lemma": "chain-sharpening", "system": "hallway", "k": 0}],
        id="chain"),
    pytest.param(
        "extend", "shiftlab.suites.find_extension_window", _no_window,
        [{"lemma": "extension-window", "system": name, "n": n, "error": "no window"}
         for name in ("at_most_one_1", "hallway") for n in (8, 12, 16)],
        id="extend-no-window"),
    pytest.param(
        "extend", "shiftlab.suites.find_extension_window", lambda spec, n, d, cap: (1, 1),
        [{"lemma": "extension-window", "system": "full2",
          "error": "hypothesis violation went undetected"}],
        id="extend-full2-window"),
    pytest.param(
        "shadow", "shiftlab.chains.shadowing_distance", _shadowing(2),
        [{"lemma": "shadowing", "instance": "full2/11", "expected_D": 1, "got": 2}],
        id="shadow-distance"),
    pytest.param(
        "shadow", "shiftlab.chains.shadowing_distance",
        lambda spec, forbidden, u, t_steps, cap: chains.ShadowingReport(
            "cap-exceeded", None, cap, ("1",), None),
        [{"lemma": "shadowing", "instance": "full2/11", "expected_D": 1, "got": None},
         {"lemma": "shadowing", "instance": "at_most_one_1/[]", "expected_D": 0,
          "got": None}],
        id="shadow-cap"),
    # the counterexample misses u at D + T, or has 11 within the D-stretch
    *(pytest.param(
        "shadow", "shiftlab.chains.shadowing_distance", _shadowing(1, tuple(word)),
        [{"lemma": "shadowing", "instance": "full2/11",
          "error": "counterexample at D-1 does not reproduce"}],
        id=f"shadow-counterexample-{word}") for word in ("000", "011")),
    pytest.param(
        "syndetic", "shiftlab.chains.syndetic_gap",
        lambda spec, chain, dist, cap: chains.SyndeticReport("cap-exceeded", None, dist, cap,
                                                             None),
        [{"lemma": "syndetic-gap", "instance": "cycle2", "expected_G": 2, "got": None},
         {"lemma": "syndetic-gap", "instance": "at_most_one_1",
          "error": "no finite gap within cap"}],
        id="syndetic"),
    pytest.param(
        "subgroup", "shiftlab.suites.subgroup_closure",
        lambda spec, gens, cap: ClosureResult("cap-exceeded", None),
        [{"lemma": "finite-subgroup", "instance": "full2/flip", "expected_size": 2},
         {"lemma": "finite-subgroup", "instance": "hallway/{}", "expected_size": 1}],
        id="subgroup-cap"),
    pytest.param(
        "subgroup", "shiftlab.suites.subgroup_closure",
        lambda spec, gens, cap: ClosureResult("ok", ("identity",)),
        [{"lemma": "finite-subgroup", "instance": "full2/flip", "expected_size": 2},
         {"lemma": "finite-subgroup", "instance": "full2/shift",
          "error": "infinite group not flagged"}],
        id="subgroup-one-element"),
    pytest.param(
        "subexp", "shiftlab.suites.slow_growth_window", lambda table, k, eps: None,
        [_slow("linear", error="'none' despite a qualifying window"),
         _slow("constant", error="'none' despite a qualifying window"),
         _slow("linear", expected=2, got=None), _slow("constant", expected=0, got=None)],
        id="subexp-none"),
    pytest.param(
        "subexp", "shiftlab.suites.slow_growth_window", lambda table, k, eps: 0,
        [_slow("linear", x=0, error=NOT_MINIMAL), _slow("doubling", x=0, error=NOT_MINIMAL),
         _slow("linear", expected=2, got=0), _slow("doubling", expected=None, got=0),
         _slow("random-0", x=0, error=NOT_MINIMAL)],
        id="subexp-zero"),
]


@pytest.mark.parametrize("suite, target, fake, violations", SUITE_FAULTS)
def test_verify_lemmas_reports_each_violation(capsys, monkeypatch, suite, target, fake,
                                              violations):
    monkeypatch.setattr(target, fake)
    code, report = run_cli(capsys, "verify-lemmas", "--suite", suite, "--trials", "1",
                           "--seed", "1")
    assert code == 1
    assert report["violations"] == violations


def test_verify_lemmas_determinism(capsys):
    _, report1 = run_cli(capsys, "verify-lemmas", "--suite", "subexp",
                         "--trials", "5", "--seed", "9")
    _, report2 = run_cli(capsys, "verify-lemmas", "--suite", "subexp",
                         "--trials", "5", "--seed", "9")
    report1.pop("elapsed_ms")
    report2.pop("elapsed_ms")
    assert report1 == report2


@pytest.mark.parametrize("argv, message", [
    pytest.param(["autos", "certify", "--spec", "builtin:hallway", "--code", "phi_a",
                  "--rmax", "-1"], "r_max must be >= 0", id="autos-certify"),
    pytest.param(["certify-free", "--spec", "builtin:hallway", "--gen-a", "phi_a",
                  "--gen-b", "phi_b", "--depth", "2", "--rmax", "-1"], "r_max must be >= 0",
                 id="certify-free"),
    pytest.param(["spacetime", "--spec", "builtin:hallway", "--code", "phi_a", "--probe", "x3",
                  "--width", "5", "--height", "3", "--rmax", "-1"], "r_max must be >= 0",
                 id="spacetime"),
    pytest.param(["complexity", "--spec", "builtin:golden_mean", "--max-n", "0"],
                 "max_n must be >= 1", id="complexity"),
    pytest.param(["chain", "--spec", "builtin:hallway", "--range", "1", "--maxlen", "2",
                  "--cap", "-1"], "cap must be >= 0", id="chain"),
    pytest.param(["autos", "enumerate", "--spec", "builtin:full2", "--range", "-1"],
                 "range must be >= 0", id="autos-enumerate"),
])
def test_out_of_range_parameter_is_usage_error(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_boolean_code_range_is_input_error(tmp_path, capsys, systems):
    obj = code_to_json(systems["full2"].codes["shift"])
    assert obj["range"] == 1
    obj["range"] = True
    path = tmp_path / "shift.json"
    path.write_text(json.dumps(obj))
    assert main(["autos", "certify", "--spec", "builtin:full2", "--code", str(path),
                 "--rmax", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ".range: expected an integer >= 0" in captured.err


def test_malformed_spec_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{\"kind\": \"sft\"")
    assert main(["complexity", "--spec", str(path), "--max-n", "3"]) == 2
    path.write_text(json.dumps({"kind": "sft", "alphabet": ["0"],
                                "forbidden": [], "bogus": 1}))
    assert main(["complexity", "--spec", str(path), "--max-n", "3"]) == 2


SFT_OBJ = {"kind": "sft", "alphabet": ["0", "1"], "forbidden": [["1", "1"]]}
PROBE_OBJ = {"left_period": ["0"], "center": ["1"], "right_period": ["0"], "origin_offset": 0}
CODE_OBJ = code_to_json(make_example("hallway").codes["phi_a"])
PAIR_CODE_OBJ = json.loads(json.dumps(code_to_json(
    make_example("salo_schraudner").codes["identity"])))
FULL2_CODE_OBJ = {"range": 0, "alphabet": ["0", "1"], "rule": {"0": "1", "1": "0"}}
# the builtin spec, code and probe of each system a row runs on, apart from the row's file
RUNS_ON = {"hallway": ("phi_a", "x3"), "salo_schraudner": ("identity", "zero"),
           "full2": ("shift", "one")}


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


@pytest.mark.parametrize("role, content, message", [
    pytest.param("spec", "{\"kind\": \"sft\"", None, id="spec-invalid-json"),
    pytest.param("spec", {**SFT_OBJ, "bogus": 1}, ": unknown keys ['bogus']", id="spec-unknown"),
    pytest.param("spec", _without(SFT_OBJ, "forbidden"), ": missing keys ['forbidden']",
                 id="spec-missing"),
    pytest.param("spec", {"kind": "product", "factors": [_without(SFT_OBJ, "alphabet"), SFT_OBJ]},
                 ".factors[0]: missing keys ['alphabet']", id="spec-factor-missing"),
    pytest.param("spec", {**SFT_OBJ, "alphabet": []},
                 ".alphabet: expected a nonempty list of letters", id="spec-no-letters"),
    pytest.param("spec", {**SFT_OBJ, "alphabet": ["0", 1]},
                 ".alphabet: letters must be strings, got 1", id="spec-letter-type"),
    pytest.param("spec", {**SFT_OBJ, "forbidden": [[]]}, ": forbidden words must be nonempty",
                 id="spec-backend-check"),
    pytest.param("code", "{\"range\": 1,", None, id="code-invalid-json"),
    pytest.param("code", {**CODE_OBJ, "bogus": 1}, ": unknown keys ['bogus']", id="code-unknown"),
    pytest.param("code", _without(CODE_OBJ, "rule"), ": missing keys ['rule']", id="code-missing"),
    pytest.param("probe", "[\"0\"", None, id="probe-invalid-json"),
    pytest.param("probe", {**PROBE_OBJ, "bogus": 1}, ": unknown keys ['bogus']",
                 id="probe-unknown"),
    pytest.param("probe", _without(PROBE_OBJ, "center"), ": missing keys ['center']",
                 id="probe-missing"),
    pytest.param("probe", {**PROBE_OBJ, "left_period": []},
                 ".left_period: expected a nonempty list of letters", id="probe-empty-period"),
    pytest.param("probe", {**PROBE_OBJ, "center": "1"},
                 ".center: expected a word as a list of letters", id="probe-center"),
    # values of the wrong type or outside the alphabet, one per kind of field
    pytest.param("spec", {**SFT_OBJ, "kind": ["sft"]}, ".kind: expected one of sft|sparse|product",
                 id="spec-kind-type"),
    pytest.param("spec", {**SFT_OBJ, "alphabet": ["0", "0"]},
                 ": alphabet letters must be pairwise distinct", id="spec-duplicate-letter"),
    pytest.param("spec", {**SFT_OBJ, "forbidden": [["1", "x"]]},
                 ".forbidden[0]: letter 'x' not in alphabet", id="spec-foreign-letter"),
    pytest.param("spec", {"kind": "sparse", "alphabet": ["0", "1"], "background": {},
                          "families": [["1"]]},
                 ".background: letter {} not in alphabet", id="spec-background-type"),
    pytest.param("full2:code", {**FULL2_CODE_OBJ, "rule": {"0": {}, "1": "1"}},
                 ".rule['0']: letter {} not in alphabet", id="code-rule-object"),
    pytest.param("full2:code", {**FULL2_CODE_OBJ, "rule": {"0": ["1"], "1": "1"}},
                 ".rule['0']: letter ['1'] not in alphabet", id="code-rule-array"),
    pytest.param("full2:code", {**FULL2_CODE_OBJ, "range": 10 ** 30, "rule": {}},
                 ".rule: expected a nonempty object", id="code-rule-empty"),
    pytest.param("full2:code", {**FULL2_CODE_OBJ, "alphabet": 5},
                 ".alphabet: expected a word as a list of letters", id="code-alphabet-int"),
    pytest.param("full2:code", {**FULL2_CODE_OBJ, "alphabet": "01"},
                 ".alphabet: expected a word as a list of letters", id="code-alphabet-string"),
    pytest.param("salo_schraudner:code", {**PAIR_CODE_OBJ, "rule": {"[{}]": ["0", "0"]}},
                 ".rule['[{}]']: letter {} not in alphabet", id="code-pair-key-object"),
    pytest.param("probe", [PROBE_OBJ], ": expected an object", id="probe-not-object"),
    pytest.param("probe", {**PROBE_OBJ, "center": ["x"]},
                 ".center: letter 'x' not in alphabet", id="probe-foreign-letter"),
    pytest.param("salo_schraudner:probe", {**PROBE_OBJ, "left_period": [["0", "0", "0"]]},
                 ".left_period: letter ['0', '0', '0'] not in alphabet", id="probe-pair-letter"),
    # None stands for a directory in place of the file
    pytest.param("spec", None, ": cannot read (Is a directory)", id="spec-directory"),
    pytest.param("code", None, ": cannot read (Is a directory)", id="code-directory"),
    pytest.param("probe", None, ": cannot read (Is a directory)", id="probe-directory"),
    pytest.param("spec", b"\xff{}", ": invalid JSON ('utf-8' codec can't decode byte 0xff "
                 "in position 0: invalid start byte)", id="spec-not-utf8"),
    # input files are parsed under the interpreter's limit on int digits
    pytest.param("probe", json.dumps(PROBE_OBJ).replace('"origin_offset": 0',
                                                        '"origin_offset": 1' + "0" * 4400),
                 None, id="probe-offset-past-4300-digits"),
])
def test_input_file_error_messages(tmp_path, capsys, role, content, message):
    # each malformed file is an input error (exit 2) with its exact message on stderr;
    # a role "SYSTEM:ROLE" runs on that builtin system, a plain role on hallway
    system, _, role = role.rpartition(":")
    system = system or "hallway"
    path = tmp_path / f"{role}.json"
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif isinstance(content, str):
        path.write_text(content)
        with pytest.raises(ValueError) as exc:  # a JSONDecodeError, or a too long int
            json.loads(content)
        message = f": invalid JSON ({exc.value})"
    else:
        path.write_text(json.dumps(content))
    refs = {"spec": f"builtin:{system}", "code": RUNS_ON[system][0], "probe": RUNS_ON[system][1],
            role: str(path)}
    argv = ["spacetime", "--spec", refs["spec"], "--code", refs["code"], "--probe", refs["probe"],
            "--width", "5", "--height", "3", "--rmax", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}{message}\n"


@pytest.mark.parametrize("role, text, key", [
    pytest.param("spec", '{"kind": "sft", "alphabet": ["0", "1"], "forbidden": [["1", "1"]], '
                 '"forbidden": []}', "forbidden", id="spec"),
    pytest.param("code", '{"range": 0, "alphabet": ["0", "1"], '
                 '"rule": {"0": "0", "0": "1", "1": "1"}}', "0", id="code-rule"),
    pytest.param("probe", '{"left_period": ["0"], "center": ["1"], "right_period": ["0"], '
                 '"origin_offset": 0, "origin_offset": 1}', "origin_offset", id="probe"),
])
def test_a_repeated_key_is_refused(tmp_path, capsys, role, text, key):
    # a file repeating a key says two things; json alone would keep the last
    path = tmp_path / f"{role}.json"
    path.write_text(text)
    refs = {"spec": "builtin:full2", "code": "shift", "probe": "one", role: str(path)}
    argv = ["spacetime", "--spec", refs["spec"], "--code", refs["code"], "--probe", refs["probe"],
            "--width", "5", "--height", "3", "--rmax", "1"]
    if role == "spec":
        argv = ["complexity", "--spec", str(path), "--max-n", "3"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: repeated key {key!r}\n"


@pytest.mark.parametrize("radius, size", [(40, str(2 ** 81)), (2000, "over 10^99")])
def test_one_window_code_at_a_large_range_exits_2_at_once(tmp_path, capsys, monkeypatch,
                                                          radius, size):
    # the rule's size is compared with |L_2R+1| before any window is listed;
    # listing L_81 of full2 would exhaust memory, so it fails the test instead.
    # A size past 10^99 is not written out: str() refuses an int of 4,300 digits
    words = SubshiftSpec.words
    monkeypatch.setattr(SubshiftSpec, "words", lambda spec, n: words(spec, n) if n < 20 else None)
    path = tmp_path / "code.json"
    span = 2 * radius + 1
    path.write_text(json.dumps({"range": radius, "alphabet": ["0", "1"],
                                "rule": {",".join("0" * span): "0"}}))
    started = time.monotonic()
    assert main(["autos", "certify", "--spec", "builtin:full2", "--code", str(path),
                 "--rmax", "0"]) == 2
    assert time.monotonic() - started < 1
    assert capsys.readouterr().err == (
        f"error: {path}: rule table must cover exactly the language windows; "
        f"it has 1, L_{span} has {size}\n")


@pytest.mark.parametrize("q", [14, 18, 40])
def test_long_forbidden_word_is_answered(tmp_path, capsys, q):
    # one forbidden word of length q compiles 2q-1 automaton states, however
    # many clean words of length q-1 there are
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "sft", "alphabet": ["0", "1"], "forbidden": [["1"] * q]}))
    started = time.monotonic()
    assert main(["complexity", "--spec", str(path), "--max-n", "3"]) == 0
    assert time.monotonic() - started < 1
    out = capsys.readouterr()
    assert out.err == "" and json.loads(out.out)["results"]["table"] == {"1": 2, "2": 4, "3": 8}


PAIR_PROBE_OBJ = {"left_period": [["0", "0"]], "center": [["1", "0"], ["0", "1"]],
                  "right_period": [["0", "0"]], "origin_offset": 1}


def test_pair_letter_probe_file_runs_on_a_product(tmp_path, capsys):
    # a probe names pair letters as code files do; the fixed point (0,0)^Z
    # written as a file gives the results of the builtin probe `zero`
    path = tmp_path / "probe.json"
    path.write_text(json.dumps({**PAIR_PROBE_OBJ, "center": [], "origin_offset": 0}))
    reports = [run_cli(capsys, "spacetime", "--spec", "builtin:salo_schraudner", "--code",
                       "identity", "--probe", probe, "--width", "4", "--height", "2", "--rmax", "0")
               for probe in (str(path), "zero")]
    assert [code for code, _ in reports] == [0, 0]
    assert reports[0][1]["results"] == reports[1][1]["results"]
    path.write_text(json.dumps(PAIR_PROBE_OBJ))
    code, report = run_cli(capsys, "spacetime", "--spec", "builtin:salo_schraudner", "--code",
                           "identity", "--probe", str(path), "--width", "4", "--height", "1",
                           "--rmax", "0")
    assert code == 0
    assert report["results"]["window"]["grid"] == [
        [["0", "0"], ["1", "0"], ["0", "1"], ["0", "0"]]]
    assert report["results"]["text_grid"] == ["('0', '0') ('1', '0') ('0', '1') ('0', '0')"]


# valid files of every kind: (role, builtin system it runs on, document)
VALID_FILES = [
    ("spec", None, make_example("hallway").spec.descriptor()),
    ("spec", None, make_example("golden_mean").spec.descriptor()),
    ("spec", None, make_example("salo_schraudner").spec.descriptor()),
    ("code", "hallway", CODE_OBJ),
    ("code", "salo_schraudner", PAIR_CODE_OBJ),
    ("probe", "hallway", {**PROBE_OBJ, "center": ["p", "0", "1"]}),
    ("probe", "salo_schraudner", PAIR_PROBE_OBJ),
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([10 ** 30, -10 ** 30])
    | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)


def _paths(obj, path=()):
    """Every node of a JSON document, as the keys and indices leading to it."""
    yield path
    if isinstance(obj, (dict, list)):
        for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
            yield from _paths(value, path + (key,))


def _node(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _edit(obj, path, edit):
    """A copy of the document whose node at `path` is `edit(node)`."""
    if not path:
        return edit(obj)
    copy = dict(obj) if isinstance(obj, dict) else list(obj)
    copy[path[0]] = _edit(obj[path[0]], path[1:], edit)
    return copy


@st.composite
def malformed_files(draw):
    """A valid file with one mutation: a node (the whole document included)
    replaced by a generated JSON value, a key deleted, or a key added."""
    role, system, document = draw(st.sampled_from(VALID_FILES))
    paths = list(_paths(document))
    objects = [p for p in paths if isinstance(_node(document, p), dict)]
    mutation = draw(st.sampled_from(("replace", "delete", "add")))
    if mutation == "replace":
        value = draw(JSON_VALUES)
        return role, system, _edit(document, draw(st.sampled_from(paths)), lambda _: value)
    path = draw(st.sampled_from(objects))
    if mutation == "delete":
        key = draw(st.sampled_from(sorted(_node(document, path))))
        return role, system, _edit(document, path,
                                   lambda o: {k: v for k, v in o.items() if k != key})
    key, value = draw(st.text(max_size=3)), draw(JSON_VALUES)
    return role, system, _edit(document, path, lambda o: {**o, key: value})


@settings(max_examples=300)
@given(malformed_files())
@example(("code", "hallway", {**CODE_OBJ, "rule": {**CODE_OBJ["rule"], "0,0,0": {}}}))
def test_generated_malformed_files_are_never_internal_errors(case):
    """Each mutated file ends in exit 0, 1 or 2, never 3; exit 2 prints one
    `error: ` line.  Arrays hold at most 3 items: the reader's checks turn
    on the type and shape of a value, not on its length, and small files
    keep the examples fast."""
    role, system, document = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{role}.json"
        path.write_text(json.dumps(document))
        if role == "spec":
            argv = ["complexity", "--spec", str(path), "--max-n", "3"]
        elif role == "code":
            argv = ["autos", "certify", "--spec", f"builtin:{system}", "--code", str(path),
                    "--rmax", "1"]
        else:
            argv = ["spacetime", "--spec", f"builtin:{system}", "--code", RUNS_ON[system][0],
                    "--probe", str(path), "--width", "4", "--height", "2", "--rmax", "1"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = main(argv)
    assert status in (0, 1, 2), err.getvalue()
    if status == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_unknown_builtin_exits_2(capsys):
    assert main(["complexity", "--spec", "builtin:nope", "--max-n", "3"]) == 2


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2


def test_out_file_written_atomically(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["complexity", "--spec", "builtin:full2", "--max-n", "2",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["results"]["table"] == {"1": 2, "2": 4}


@pytest.mark.parametrize("target, reason", [
    pytest.param("missing/r.json", "No such file or directory", id="missing-directory"),
    pytest.param("reports", "Is a directory", id="directory"),
])
def test_out_write_failure_exits_2(tmp_path, capsys, monkeypatch, target, reason):
    # a report that cannot be written is an input error, not a traceback, and
    # leaves no temporary file behind
    monkeypatch.chdir(tmp_path)
    (tmp_path / "reports").mkdir()
    assert main(["complexity", "--spec", "builtin:full2", "--max-n", "3", "--out", target]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write report: {target}: {reason}\n"
    assert [p.name for p in tmp_path.rglob("*")] == ["reports"]


def test_certify_free_with_json_files(tmp_path, capsys, systems):
    hallway = systems["hallway"]
    spec_path = tmp_path / "hallway.json"
    spec_path.write_text(json.dumps(hallway.spec.descriptor()))
    a_path = tmp_path / "phi_a.json"
    a_path.write_text(json.dumps(code_to_json(hallway.codes["phi_a"])))
    b_path = tmp_path / "phi_b.json"
    b_path.write_text(json.dumps(code_to_json(hallway.codes["phi_b"])))
    code, report = run_cli(capsys, "certify-free", "--spec", str(spec_path),
                           "--gen-a", str(a_path), "--gen-b", str(b_path),
                           "--depth", "4", "--rmax", "1")
    assert code == 0
    assert report["results"]["status"] == "free-to-depth"
    assert report["results"]["products"] == 30
    assert set(report["inputs"]) == {"spec", "gen_a", "gen_b"}


def test_complexity_product_spec_file(tmp_path, capsys, systems):
    path = tmp_path / "salo.json"
    path.write_text(json.dumps(systems["salo_schraudner"].spec.descriptor()))
    code, report = run_cli(capsys, "complexity", "--spec", str(path), "--max-n", "6")
    assert code == 0
    assert report["results"]["table"] == {
        "1": 4, "2": 9, "3": 16, "4": 25, "5": 36, "6": 49}


def test_back_to_back_commands_share_one_parser(capsys):
    commands = [
        ("complexity", "--spec", "builtin:golden_mean", "--max-n", "4"),
        ("autos", "certify", "--spec", "builtin:hallway", "--code", "phi_a", "--rmax", "1"),
        ("certify-free", "--spec", "builtin:hallway", "--gen-a", "phi_a",
         "--gen-b", "phi_b", "--depth", "2", "--rmax", "1"),
        ("autos", "enumerate", "--spec", "builtin:full2", "--range", "0"),
        ("verify-lemmas", "--suite", "subexp", "--trials", "2", "--seed", "3"),
    ]
    first = {}
    for _ in range(2):
        for argv in commands:
            code, report = run_cli(capsys, *argv)
            report.pop("elapsed_ms")
            assert first.setdefault(argv, (code, report)) == (code, report)
        assert main(["complexity", "--max-n", "3"]) == 2
        assert main(["--help"]) == 0
        capsys.readouterr()


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("boom")

    # the complexity handler calls this; exit 1 would claim a violation
    monkeypatch.setattr("shiftlab.cli.complexity_table", broken)
    assert main(["complexity", "--spec", "builtin:full2", "--max-n", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: internal: RuntimeError: boom\n")


def test_error_in_writing_the_report_exits_3(capsys, monkeypatch):
    # only an OSError in writing is an input error (exit 2); exit 1 would claim a violation
    def broken(report, out_path):
        raise ValueError("boom")

    monkeypatch.setattr("shiftlab.cli._emit", broken)
    assert main(["complexity", "--spec", "builtin:full2", "--max-n", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: internal: ValueError: boom\n")


PACKAGE_ERRORS = [
    errors.EmptySubshiftError("empty"),
    errors.SpecFormatError("bad spec"),
    errors.RuleIncompleteError("missing window"),
    errors.SearchSpaceError(9, 4),
    errors.NoUniqueExtenderError(2, ()),
    errors.LemmaWindowNotFoundError("no window"),
    errors.CapExceededError("over cap"),
    errors.InvalidChainError("no levels"),
    errors.NoAperiodicPointError("periodic only"),
    errors.HypothesisError("hypothesis fails"),
]


def test_package_errors_cover_every_subclass():
    assert {type(e) for e in PACKAGE_ERRORS} == set(errors.ShiftlabError.__subclasses__())


@pytest.mark.parametrize("error", PACKAGE_ERRORS, ids=lambda e: type(e).__name__)
def test_package_error_exits_2(capsys, monkeypatch, error):
    def failing(*args):
        raise error

    monkeypatch.setattr("shiftlab.cli.complexity_table", failing)
    assert main(["complexity", "--spec", "builtin:full2", "--max-n", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


# every report-writing command of the README and CI, and each verification suite
REPORT_COMMANDS = [
    "complexity --spec builtin:salo_schraudner --max-n 12",
    "complexity --spec {spec} --max-n 10",
    "chain --spec builtin:hallway --range 1 --maxlen 2 --cap 40",
    "chain --spec builtin:hallway --range 1 --maxlen 2 --cap 10",
    "autos enumerate --spec builtin:full2 --range 1",
    "autos certify --spec builtin:hallway --code phi_a --rmax 1",
    "autos certify --spec builtin:hallway --code phi_a --rmax 0",
    "autos enumerate --spec builtin:at_most_one_1 --range 1",
    "autos certify --spec builtin:salo_schraudner --code identity --rmax 0",
    "autos enumerate --spec builtin:salo_schraudner --range 0",
    "certify-free --spec builtin:hallway --gen-a phi_a --gen-b phi_b --depth 5 --rmax 1",
    "certify-free --spec builtin:hallway --gen-a phi_a --gen-b phi_b --depth 7 --rmax 1",
    "certify-free --spec builtin:hallway --gen-a phi_a --gen-b phi_a --depth 2 --rmax 1",
    "spacetime --spec builtin:hallway --code phi_a --probe x3 --width 9 --height 4 "
    "--detect-periods 3 --rmax 1",
    "spacetime --spec builtin:full2 --code shift --probe alt --width 6 --height 3 --rmax 1",
    "spacetime --spec builtin:salo_schraudner --code identity --probe {probe} --width 4 "
    "--height 2 --rmax 0",
    "verify-lemmas --suite removal --trials 100 --seed 1",
    "verify-lemmas --suite removal --seed 2",
] + [f"verify-lemmas --suite {suite}"
     for suite in ("chain", "extend", "shadow", "syndetic", "subgroup", "subexp")]


@pytest.mark.parametrize("command", REPORT_COMMANDS)
def test_report_bytes_are_those_of_json_dumps(tmp_path, capsys, monkeypatch, command):
    # the writer skips json.dumps's pure-Python encoder but keeps its bytes
    spec, probe = tmp_path / "spec.json", tmp_path / "probe.json"
    spec.write_text(json.dumps(make_example("golden_mean").spec.descriptor()))
    probe.write_text(json.dumps(PAIR_PROBE_OBJ))
    reports, write = [], cli._json_text
    monkeypatch.setattr(cli, "_json_text", lambda report: reports.append(report) or write(report))
    assert main(command.format(spec=spec, probe=probe).split()) in (0, 1)
    (report,) = reports
    assert capsys.readouterr().out == json.dumps(report, indent=2) + "\n"


REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.lists(st.text(), max_size=4),
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=24)


@given(REPORT_VALUES)
@example([float("nan"), float("inf"), -float("inf"), -0.0, 1e300, True, 1, None])
@example({"\x00\u00e9\u2028\U0001f600\"\\": ["\n", "\x7f", ""], "": {}, "[]": []})
def test_report_writer_matches_json_dumps(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("results, message", [
    # json.dumps would write the key 1 as "1"; every command writes string keys
    ({1: 2}, "first argument must be a string, not int"),
    ({"x": {2}}, "Object of type set is not JSON serializable"),
], ids=["int-key", "set-value"])
def test_report_that_is_no_json_is_an_internal_error(capsys, monkeypatch, results, message):
    monkeypatch.setattr(suites, "run_suite", lambda suite, trials, seed: (results, []))
    assert main(["verify-lemmas", "--suite", "removal"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: internal: TypeError: {message}\n")


@pytest.mark.parametrize("system, size", [("full2", "over 10^99"), ("cycle2", "2"),
                                          ("at_most_one_1", "32002")])
def test_one_window_code_at_range_16000_counts_in_little_memory(tmp_path, capsys, system,
                                                                 size):
    # the size check keeps |L_n| for every n it counts, and stops at the first count
    # past 10^99: small counts on every n <= 2R+1, or a few lengths of big ones
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"range": 16000, "alphabet": ["0", "1"],
                                "rule": {",".join("0" * 32001): "0"}}))
    tracemalloc.start()
    try:
        status = main(["autos", "certify", "--spec", f"builtin:{system}", "--code", str(path),
                       "--rmax", "0"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 2
    assert peak < 5 * 2 ** 20
    assert capsys.readouterr().err.endswith(f"it has 1, L_32001 has {size}\n")


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # nor traceback, which only an internal error needs
    script = ("import sys; before = set(sys.modules); import shiftlab.cli; "
              "print(sorted({'dataclasses', 'inspect', 'traceback'} & (set(sys.modules) - before)))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout == "[]\n"
