"""Seeded lemma-verification suites behind the `verify-lemmas` command.

Every suite returns (results, violations).  A violation entry carries
everything needed to re-trigger it standalone: the instance description,
the offending word or table, and the numbers that disagreed.
"""

import random

from . import chains
from .autos import certify_automorphism, subgroup_closure
from .complexity import find_extension_window, slow_growth_window
from .errors import LemmaWindowNotFoundError, NoAperiodicPointError
from .subshifts import SftSpec
from .systems import make_example
from .words import Alphabet, occurrences


def random_sft(rng):
    """Random SFT: alphabet of 2 or 3 letters, 1..3 forbidden words of length 1..3."""
    letters = ("0", "1", "2")[:rng.choice((2, 3))]
    alphabet = Alphabet(letters)
    forbidden = []
    for _ in range(rng.randint(1, 3)):
        length = rng.randint(1, 3)
        forbidden.append(tuple(rng.choice(letters) for _ in range(length)))
    return SftSpec(alphabet, forbidden)


def suite_removal(trials, seed):
    """Removal bound on seeded random SFTs, all words of length <= 3, n <= 10."""
    rng = random.Random(seed)
    violations = []
    instances = 0
    nonempty = 0
    words_checked = 0
    for _ in range(trials):
        spec = random_sft(rng)
        instances += 1
        if spec.is_empty:
            continue
        nonempty += 1
        for n in range(1, 4):
            for w in spec.words(n):
                try:
                    report = chains.verify_removal_bound(spec, w, 10)
                except NoAperiodicPointError:
                    continue
                words_checked += 1
                for row in report.violations:
                    violations.append({
                        "lemma": "removal-bound",
                        "instance": spec.descriptor(),
                        "word": list(w),
                        "n": row[0],
                        "lhs": row[1],
                        "rhs": row[2],
                    })
    results = {"instances": instances, "nonempty": nonempty,
               "cylinders_checked": words_checked}
    return results, violations


def _chain_summary(chain):
    terminal_count = chain.terminal.subshift.count_words(2 * chain.effective_len - 1)
    sharpened = terminal_count <= chain.bound_value - chain.k * chain.effective_len
    return {
        "k": chain.k,
        "L": chain.max_len,
        "L_prime": chain.effective_len,
        "P(2L'-1)": chain.bound_value,
        "bound_holds": chain.bound_holds,
        "sharpening_holds": sharpened,
        "words": [list(lvl.word) for lvl in chain.levels] + [list(chain.terminal.word)],
    }


def suite_chain(trials, seed):
    """Chain-length bound and the inductive sharpening on the built-in chains."""
    del trials, seed  # deterministic suite
    violations = []
    results = {}
    for name, radius, max_len in (("at_most_one_1", 1, 1), ("hallway", 1, 2)):
        spec = make_example(name).spec
        chain = chains.build_chain(spec, radius, max_len, cap=40)
        summary = _chain_summary(chain)
        results[name] = summary
        if not summary["bound_holds"]:
            violations.append({"lemma": "chain-bound", "system": name,
                               "k": chain.k, "P(2L'-1)": chain.bound_value,
                               "L_prime": chain.effective_len})
        if not summary["sharpening_holds"]:
            violations.append({"lemma": "chain-sharpening", "system": name,
                               "k": chain.k})
    return results, violations


def suite_extend(trials, seed):
    """Extension-window lemma on the slow systems; hypothesis failure on full2."""
    del trials, seed
    violations = []
    results = {}
    for name, degree in (("at_most_one_1", 2), ("hallway", 3)):
        spec = make_example(name).spec
        hits = {}
        for n in (8, 12, 16):
            try:
                m, k_m = find_extension_window(spec, n, degree, cap=50)
                hits[str(n)] = {"m": m, "k_m": k_m}
            except LemmaWindowNotFoundError as exc:
                violations.append({"lemma": "extension-window", "system": name,
                                   "n": n, "error": str(exc)})
        results[name] = hits
    full2 = make_example("full2").spec
    try:
        find_extension_window(full2, 10, 2, cap=10)
        violations.append({"lemma": "extension-window", "system": "full2",
                           "error": "hypothesis violation went undetected"})
        results["full2"] = "unexpected success"
    except LemmaWindowNotFoundError:
        results["full2"] = "hypothesis violation detected"
    return results, violations


def _check_shadow_counterexample(word, forbidden, u, v, t_steps, dist):
    """The word genuinely violates the shadowing condition at `dist`."""
    off = dist + t_steps
    if word[off:off + len(u)] != u:
        return False
    for f in forbidden:
        for p in occurrences(word, f):
            if t_steps <= p <= 2 * dist + t_steps:
                return False
    return word[dist:dist + len(v)] != v


def suite_shadow(trials, seed):
    del trials, seed
    violations = []
    results = {}
    full2 = make_example("full2").spec
    report = chains.shadowing_distance(full2, [("1", "1")], ("1",), 1, 5)
    results["full2_golden"] = {"D": report.distance,
                               "counterexample": list(report.counterexample or ())}
    if report.status != "ok" or report.distance != 1:
        violations.append({"lemma": "shadowing", "instance": "full2/11",
                           "expected_D": 1, "got": report.distance})
    elif not _check_shadow_counterexample(report.counterexample, [("1", "1")],
                                          ("1",), report.target, 1, 0):
        violations.append({"lemma": "shadowing", "instance": "full2/11",
                           "error": "counterexample at D-1 does not reproduce"})
    sparse = make_example("at_most_one_1").spec
    report = chains.shadowing_distance(sparse, [], ("1",), 3, 5)
    results["at_most_one_1_trivial"] = {"D": report.distance}
    if report.status != "ok" or report.distance != 0:
        violations.append({"lemma": "shadowing", "instance": "at_most_one_1/[]",
                           "expected_D": 0, "got": report.distance})
    return results, violations


def suite_syndetic(trials, seed):
    del trials, seed
    violations = []
    results = {}
    cycle2 = make_example("cycle2").spec
    hand_chain = chains.Chain(
        levels=(chains.ChainLevel(cycle2, ("0", "1"), ("0", "1"), False),),
        terminal=chains.ChainLevel(cycle2, ("1", "0"), ("1", "0"), False),
        range_r=0, max_len=2, effective_len=2)
    report = chains.syndetic_gap(cycle2, hand_chain, 0, 5)
    results["cycle2"] = {"G": report.gap,
                         "counterexample": list(report.counterexample or ())}
    if report.status != "ok" or report.gap != 2:
        violations.append({"lemma": "syndetic-gap", "instance": "cycle2",
                           "expected_G": 2, "got": report.gap})
    sparse = make_example("at_most_one_1").spec
    chain = chains.build_chain(sparse, 1, 1, cap=10)
    shadow = chains.shadowing_distance(sparse, [chain.levels[0].extended],
                                       chain.terminal.word, 2, 10)
    report = chains.syndetic_gap(sparse, chain, shadow.distance, 50)
    results["at_most_one_1"] = {"D": shadow.distance, "G": report.gap}
    if report.status != "ok":
        violations.append({"lemma": "syndetic-gap", "instance": "at_most_one_1",
                           "error": "no finite gap within cap"})
    return results, violations


def suite_subgroup(trials, seed):
    del trials, seed
    violations = []
    results = {}
    full2 = make_example("full2")
    flip = certify_automorphism(full2.spec, full2.codes["flip"], 0).cert
    shift = certify_automorphism(full2.spec, full2.codes["shift"], 1).cert
    closure = subgroup_closure(full2.spec, [flip], 10)
    results["full2_flip"] = {"status": closure.status,
                             "size": len(closure.elements or ())}
    if closure.status != "ok" or len(closure.elements) != 2:
        violations.append({"lemma": "finite-subgroup", "instance": "full2/flip",
                           "expected_size": 2})
    closure = subgroup_closure(full2.spec, [shift], 10)
    results["full2_shift"] = {"status": closure.status}
    if closure.status != "cap-exceeded":
        violations.append({"lemma": "finite-subgroup", "instance": "full2/shift",
                           "error": "infinite group not flagged"})
    hallway = make_example("hallway")
    closure = subgroup_closure(hallway.spec, [], 10)
    results["hallway_empty"] = {"status": closure.status,
                                "size": len(closure.elements or ())}
    if closure.status != "ok" or len(closure.elements) != 1:
        violations.append({"lemma": "finite-subgroup", "instance": "hallway/{}",
                           "expected_size": 1})
    return results, violations


def suite_subexp(trials, seed):
    """Slow-growth windows: fixed examples plus seeded random monotone tables."""
    rng = random.Random(seed)
    violations = []

    def check(table, k, eps, label):
        x = slow_growth_window(table, k, eps)
        if x is None:
            bad = all((table[y + k] - table[y]) / table[y] >= eps
                      for y in range(len(table) - k))
            if not bad:
                violations.append({"lemma": "slow-growth", "instance": label,
                                   "error": "'none' despite a qualifying window"})
        else:
            early = any((table[y + k] - table[y]) / table[y] < eps for y in range(x))
            if (table[x + k] - table[x]) / table[x] >= eps or early:
                violations.append({"lemma": "slow-growth", "instance": label,
                                   "x": x, "error": "window not minimal or not below eps"})
        return x

    results = {
        "linear": check([x + 1 for x in range(11)], 1, 0.5, "linear"),
        "doubling": check([2 ** x for x in range(11)], 1, 0.5, "doubling"),
        "constant": check([7] * 11, 3, 0.01, "constant"),
    }
    if results["linear"] != 2:
        violations.append({"lemma": "slow-growth", "instance": "linear",
                           "expected": 2, "got": results["linear"]})
    if results["doubling"] is not None:
        violations.append({"lemma": "slow-growth", "instance": "doubling",
                           "expected": None, "got": results["doubling"]})
    if results["constant"] != 0:
        violations.append({"lemma": "slow-growth", "instance": "constant",
                           "expected": 0, "got": results["constant"]})
    for t in range(trials):
        table = [rng.randint(1, 4)]
        for _ in range(rng.randint(3, 12)):
            table.append(table[-1] + rng.randint(0, 3))
        k = rng.randint(1, max(1, len(table) - 2))
        eps = rng.choice((0.1, 0.25, 0.5, 1.0))
        check(table, k, eps, f"random-{t}")
    results["random_tables"] = trials
    return results, violations


SUITES = {
    "removal": suite_removal,
    "chain": suite_chain,
    "extend": suite_extend,
    "shadow": suite_shadow,
    "syndetic": suite_syndetic,
    "subgroup": suite_subgroup,
    "subexp": suite_subexp,
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name, trials, seed):
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return SUITES[name](trials, seed)
