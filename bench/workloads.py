"""The three seeded workloads: inputs, sessions, jobs and their checks.

A workload has
* `generate(seed, workdir, oracles, modules)`: the seeded inputs (spec,
  code and probe files, reference models), outside every timing;
* `setup(modules, inputs)`: the timed set-up, building every spec, named
  system and code its jobs use ahead of time;
* `job(session, i)`: job i, made from the seed alone.  Job kinds follow a
  fixed cycle (`schedule`), so the job mix of a run does not depend on
  the seed, and `chunk` jobs always hold whole cycles.  A workload with a
  `period` runs job i mod period as job i, so its runs repeat the same
  jobs and find the same failures.
A job's `run` is the timed call into shiftlab; its `check` compares the
outcome with an independent reference (reference.py, tests/oracles.py)
outside the timed phase.  Job sizes come from the reference counts,
never from shiftlab's output.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from types import SimpleNamespace

import reference as ref

KNOWN_DEFECTS = {
    "certify-window-bound":
        "certify_automorphism certifies a non-endomorphism: its endomorphism "
        "check stops at image length 2*r_max+3 (ROADMAP item 2)",
    "exceeds-cap-below-Cn":
        "find_extension_window counts EXCEEDS_CAP as a hit although "
        "cap+1 < C*n (ROADMAP item 2)",
}

NAMED = {
    "full2": {"kind": "sft", "alphabet": ["0", "1"], "forbidden": []},
    "golden_mean": {"kind": "sft", "alphabet": ["0", "1"], "forbidden": [["1", "1"]]},
    "cycle2": {"kind": "sft", "alphabet": ["0", "1"],
               "forbidden": [["0", "0"], ["1", "1"]]},
    "at_most_one_1": {"kind": "sparse", "alphabet": ["0", "1"], "background": "0",
                      "families": [["1"]]},
    "hallway": {"kind": "sparse",
                "alphabet": ["0", "1", "a", "b", "p", "1p", "ap", "bp"],
                "background": "0",
                "families": [["1"], ["a"], ["b"], ["p"], ["1p"], ["ap"], ["bp"],
                             ["1", "p"], ["a", "p"], ["b", "p"]]},
}

# Hallway probes as position -> letter over the background "0".
HALLWAY_PROBES = {"zero": {}}
HALLWAY_PROBES.update({f"x{i}": {-i: "p", 0: "1"} for i in range(1, 9)})
HALLWAY_PROBES.update({label: {0: m} for m, label in (
    ("1", "nail_1"), ("a", "nail_a"), ("b", "nail_b"), ("p", "walker"),
    ("1p", "at_nail_1"), ("ap", "at_nail_a"), ("bp", "at_nail_b"))})
WALKS = ("phi_a", "phi_b", "phi_a_inv", "phi_b_inv")
INVERSE = {"phi_a": "phi_a_inv", "phi_b": "phi_b_inv",
           "phi_a_inv": "phi_a", "phi_b_inv": "phi_b"}


class Mismatch(Exception):
    """A job's outcome disagrees with its reference."""

    def __init__(self, reason, defect=None):
        super().__init__(reason)
        self.defect = defect


@dataclass
class Job:
    name: str
    kind: str
    backend: str
    cli: bool
    run: object     # () -> value; the timed call
    check: object   # (("ok", value) | ("raised", exc)) -> None, raises Mismatch


def expect(cond, reason, defect=None):
    if not cond:
        raise Mismatch(reason, defect)


def value_of(outcome):
    status, value = outcome
    if status == "raised":
        raise Mismatch(f"unexpected {type(value).__name__}: {value}")
    return value


def expect_raised(outcome, exc_type):
    status, value = outcome
    expect(status == "raised" and isinstance(value, exc_type),
           f"expected {exc_type.__name__}, got {status} {value!r:.200}")
    return value


def digest(desc):
    blob = json.dumps(desc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_report(outcome, command, exit_code=0):
    code, out, err = value_of(outcome)
    expect(code == exit_code, f"exit code {code}, expected {exit_code}: {err.strip()[:200]}")
    report = json.loads(out)
    expect(list(report) == ["command", "inputs", "seed", "results", "violations",
                            "elapsed_ms"], f"report keys {list(report)}")
    expect(report["command"] == command, f"command {report['command']!r}")
    return report


def schedule(menu):
    """Spread a weighted menu evenly over one cycle of job slots.

    Job i takes slot i mod len(cycle), so the job mix of a run does not
    depend on the seed; the seed picks each job's inputs.
    """
    slots = sorted(((j + 0.5) / weight, kind) for kind, weight in menu for j in range(weight))
    return tuple(kind for _, kind in slots)


def occurrence(cycle, i):
    """How many earlier jobs took the same kind of slot as job i."""
    kind = cycle[i % len(cycle)]
    return (i // len(cycle)) * cycle.count(kind) + cycle[:i % len(cycle)].count(kind)


def batch(params, call):
    """A job running `call` on each parameter in turn; its value lists the outcomes."""
    def run():
        outcomes = []
        for p in params:
            try:
                outcomes.append(("ok", call(p)))
            except Exception as exc:  # checked per parameter
                outcomes.append(("raised", exc))
        return outcomes
    return run


def check_batch(params, check_one):
    def check(outcome):
        for p, sub in zip(params, value_of(outcome), strict=True):
            check_one(p, sub)
    return check


def memo(s, key, fn):
    """A reference computed once per run (the memo outlives a traced re-setup)."""
    if key not in s.memo:
        s.memo[key] = fn()
    return s.memo[key]


def check_session(s):
    """The session's specs describe themselves exactly as their references."""
    for name, spec in getattr(s, "specs", {}).items():
        if spec.descriptor() != s.descs[name]:
            raise RuntimeError(f"{name}: descriptor differs from the reference")
    for name, closed_form in ref.CLOSED_FORMS.items():
        if name in getattr(s, "langs", {}):
            if [s.langs[name].count(n) for n in range(1, 13)] != [
                    closed_form(n) for n in range(1, 13)]:
                raise RuntimeError(f"{name}: reference counts differ from the closed form")


def with_forbidden(desc, extra):
    """The SFT descriptor `desc` with the words `extra` forbidden as well."""
    return canonical_sft(desc["alphabet"], [tuple(f) for f in desc["forbidden"]] + list(extra))


def modules(shiftlab_modules):
    return SimpleNamespace(**shiftlab_modules)


# -- seeded spec generators ----------------------------------------------------

def canonical_sft(letters, forbidden):
    index = {a: i for i, a in enumerate(letters)}
    words = sorted({tuple(f) for f in forbidden},
                   key=lambda w: (len(w), tuple(index[a] for a in w)))
    return {"kind": "sft", "alphabet": list(letters), "forbidden": [list(w) for w in words]}


def canonical_sparse(letters, background, families):
    index = {a: i for i, a in enumerate(letters)}
    fams = {tuple(sorted(f, key=index.get)) for f in families} - {()}
    fams = sorted(fams, key=lambda f: (len(f), tuple(index[a] for a in f)))
    return {"kind": "sparse", "alphabet": list(letters), "background": background,
            "families": [list(f) for f in fams]}


def random_sft(rng, letters_choices=(2, 3), lengths=(2, 4), max_words=4):
    """Nonempty SFT with a positive count at length 1."""
    while True:
        letters = ("0", "1", "2")[:rng.choice(letters_choices)]
        forbidden = [tuple(rng.choice(letters) for _ in range(rng.randint(*lengths)))
                     for _ in range(rng.randint(1, max_words))]
        desc = canonical_sft(letters, forbidden)
        lang = ref.ref_language(desc)
        if not lang.empty and lang.count(1) >= 2:
            return desc, lang


def random_sparse(rng, max_markers=3, max_family=4, max_repeat=3):
    letters = ("0",) + ("1", "2", "3")[:rng.randint(1, max_markers)]
    families = []
    for _ in range(rng.randint(1, 3)):
        family = []
        for _ in range(rng.randint(1, max_family)):
            a = rng.choice(letters[1:])
            if family.count(a) < max_repeat:
                family.append(a)
        families.append(family)
    desc = canonical_sparse(letters, "0", families)
    return desc, ref.ref_language(desc)


def random_product(rng):
    factors = []
    for _ in range(2):
        if rng.random() < 0.5:
            desc, _ = random_sft(rng, letters_choices=(2,), lengths=(2, 3), max_words=2)
        else:
            desc, _ = random_sparse(rng, max_markers=1, max_family=3)
        factors.append(desc)
    desc = {"kind": "product", "factors": factors}
    return desc, ref.ref_language(desc)


def size_for_budget(lang, budget, max_n, cumulative=False):
    """Largest n <= max_n with |L_n| (or |L_1|+...+|L_n|) <= budget.

    Counts come from the reference model, never from shiftlab.
    """
    n, total = 1, lang.count(1)
    while n < max_n:
        nxt = lang.count(n + 1) + (total if cumulative else 0)
        if nxt > budget:
            break
        n, total = n + 1, nxt
    return n


def small_oracle_words(oracles, desc, n):
    """L_n from tests/oracles.py as (words, letters); None if too costly."""
    kind = desc["kind"]
    if kind == "sft":
        return [tuple(w) for w in oracles.sft_language_oracle(
            desc["alphabet"], desc["forbidden"], n)], desc["alphabet"]
    if kind == "sparse":
        if max((len(f) for f in desc["families"]), default=0) > 3:
            return None
        return (oracles.sparse_language_oracle(desc["background"], desc["families"], n),
                desc["alphabet"])
    left = small_oracle_words(oracles, desc["factors"][0], n)
    right = small_oracle_words(oracles, desc["factors"][1], n)
    if left is None or right is None:
        return None
    return ([tuple(zip(u, v)) for u in left[0] for v in right[0]],
            [(a, b) for a in left[1] for b in right[1]])


def check_word_list(lang, words, n, counts):
    """words(n) equals the reference L_n in canonical order, and is extendable."""
    expect(len(words) == counts[n], f"|words({n})| = {len(words)}, reference {counts[n]}")
    expect(list(words) == lang.words(n), f"words({n}) differs from the reference L_{n}")
    if n >= 2:
        prefixes = {w[:-1] for w in words}
        expect(prefixes == {w[1:] for w in words} and len(prefixes) == counts[n - 1],
               f"words({n}) not factorially closed / extendable")


# -- language: bulk queries on cold specs ---------------------------------------

class Language:
    name = "language"
    why = ("cold specs, nothing reused: enumeration, the post-hoc sort and sparse "
           "permutation counting in subshifts do the work; autos does none")
    budget = 8000      # words in L_1 + ... + L_n of one job
    max_n = 32
    backends = schedule((("sft", 8), ("sparse", 7), ("product", 5)))
    chunk = 100        # whole backend cycles (every 4th job is a CLI job)
    period = None      # never repeats: every job parses a new spec

    def generate(self, seed, workdir, oracles, sl):
        return SimpleNamespace(seed=seed, workdir=workdir, oracles=oracles)

    def setup(self, sl, inputs):
        return SimpleNamespace(sl=modules(sl), **vars(inputs))

    def job(self, s, i):
        rng = random.Random(f"{s.seed}/language/{i}")
        backend = self.backends[i % len(self.backends)]
        desc, lang = {"sft": random_sft, "sparse": random_sparse,
                      "product": random_product}[backend](rng)
        n = size_for_budget(lang, self.budget, self.max_n, cumulative=True)
        counts = {j: lang.count(j) for j in range(1, n + 1)}
        if desc["kind"] == "sparse" and len(desc["families"]) == 1:
            family = desc["families"][0]
            counts = {j: ref.single_family_count(family, j) for j in counts}
        small = min(n, 4)
        oracle = small_oracle_words(s.oracles, desc, small)
        if oracle is not None and ref.canonical_sort(*oracle) != lang.words(small):
            raise RuntimeError(f"reference model disagrees with tests/oracles.py on {desc}")
        expected_id = digest(desc)
        name = f"language#{i}:{backend}:n={n}"
        if i % 4 == 0:
            path = os.path.join(s.workdir, f"lang-{i}.json")
            write_json(path, desc)
            with open(path, "rb") as fh:
                file_sha = hashlib.sha256(fh.read()).hexdigest()
            argv = ["complexity", "--spec", path, "--max-n", str(n)]

            def check_cli(outcome):
                report = cli_report(outcome, "complexity")
                expect(report["inputs"]["spec"]["sha256"] == file_sha, "input hash")
                results = report["results"]
                expect(results["subshift_id"] == expected_id, "subshift_id != digest")
                expect(results["table"] == {str(j): c for j, c in counts.items()},
                       "complexity table differs from reference counts")

            return Job(name, "cli-complexity", backend, True,
                       lambda: run_cli(s.sl.cli, argv), check_cli)

        def run():
            spec = s.sl.subshifts.parse_spec(desc)
            table = s.sl.complexity.complexity_table(spec, n)
            return table, spec.words(n)

        def check(outcome):
            table, words = value_of(outcome)
            expect(table.subshift_id == expected_id, "subshift_id != digest")
            expect(table.values == counts, "complexity table differs from reference counts")
            check_word_list(lang, words, n, counts)

        return Job(name, "table+words", backend, False, run, check)


# -- lemmas: a warm analysis session ------------------------------------------

class Lemmas:
    name = "lemmas"
    why = ("warm session on fixed specs: many small contains lookups and repeated "
           "words reads in the extension, chain and shadowing analyses")
    budget = 80        # largest |L_m| an extension-radius job walks
    menu = schedule((("radii", 3), ("k_n", 2), ("window", 3), ("removal", 2), ("chain", 1),
                     ("shadow", 1), ("syndetic", 1), ("cli", 1)))
    # The `extend` suite (about 1 s) is left out: alone it would outweigh the
    # rest of the workload; window jobs cover find_extension_window directly.
    suites = ("removal", "chain", "shadow", "syndetic", "subgroup", "subexp")
    chunk = 12 * 14    # whole menu cycles, and whole suite cycles of the CLI jobs
    period = 4 * chunk  # jobs repeat, so each run checks the same jobs
    random_sfts = 24

    def generate(self, seed, workdir, oracles, sl):
        rng = random.Random(f"{seed}/lemmas/session")
        descs = {name: NAMED[name] for name in ("hallway", "at_most_one_1", "full2",
                                                "golden_mean")}
        for k in range(self.random_sfts):
            descs[f"sft{k}"], _ = random_sft(rng, letters_choices=(2,), lengths=(2, 3),
                                             max_words=2)
        return SimpleNamespace(seed=seed, descs=descs, memo={},
                               langs={k: ref.ref_language(d) for k, d in descs.items()})

    def setup(self, sl, inputs):
        sl = modules(sl)
        specs = {name: (sl.systems.make_example(name).spec if name in NAMED
                        else sl.subshifts.parse_spec(desc))
                 for name, desc in inputs.descs.items()}
        return SimpleNamespace(sl=sl, specs=specs, **vars(inputs))

    def job(self, s, i):
        rng = random.Random(f"{s.seed}/lemmas/{i}")
        kind = self.menu[i % len(self.menu)]
        return getattr(self, f"_job_{kind}")(s, i, rng)

    def _target(self, s, i, rng, cycle):
        """The spec job i works on, taking each of `cycle` in turn ("sft": the
        random SFTs in turn), and the RNG for its parameters: seeded for a
        random SFT, fixed for a named system, so the costly jobs on named
        systems are the same on every seed."""
        turn = occurrence(self.menu, i)
        name = cycle[turn % len(cycle)]
        if name == "sft":
            return sfts(s)[occurrence(cycle, turn) % len(sfts(s))], rng
        return name, random.Random(f"lemmas/{i}")

    def _sized(self, s, i, rng):
        name, rng = self._target(s, i, rng, ("hallway", "at_most_one_1", "full2",
                                             "golden_mean") + ("sft",) * 8)
        lang = s.langs[name]
        m_max = size_for_budget(lang, self.budget, 12)
        return name, lang, rng.randint(1, m_max), rng

    def _job_radii(self, s, i, rng):
        name, lang, m, rng = self._sized(s, i, rng)
        cap = rng.randint(2, 4)
        spec, ext = s.specs[name], s.sl.complexity

        def check(outcome):
            reports = value_of(outcome)
            want = memo(s, ("radii", name, m, cap), lambda: [
                (w,) + ref.extension_radius(lang, w, cap) for w in lang.words(m)])
            got = [(r.word, "exceeds-cap" if r.radius == "at-least-cap" else r.radius,
                    r.extension) for r in reports]
            expect(got == want, f"extension radii over L_{m} differ from reference")

        return Job(f"lemmas#{i}:radii:{name}:m={m}:cap={cap}", "radii", lang_kind(s, name),
                   False, lambda: [ext.extension_radius(spec, w, cap) for w in spec.words(m)],
                   check)

    def _job_k_n(self, s, i, rng):
        name, lang, n_top, rng = self._sized(s, i, rng)
        cap = rng.randint(2, 4)
        spec = s.specs[name]

        def check_one(n, outcome):
            want = memo(s, ("k_n", name, n, cap),
                        lambda: ref.min_nonextendable_radius(lang, n, cap))
            expect(value_of(outcome) == want, f"k_{n} = {outcome[1]}, reference {want}")

        ns = range(1, n_top + 1)
        return Job(f"lemmas#{i}:k_n:{name}:n<={n_top}:cap={cap}", "k_n", lang_kind(s, name),
                   False, batch(ns, lambda n: s.sl.complexity.min_nonextendable_radius(
                       spec, n, cap)), check_batch(ns, check_one))

    def _job_window(self, s, i, rng):
        name, rng = self._target(s, i, rng, ("hallway", "at_most_one_1", "full2",
                                             "at_most_one_1", "hallway", "sft"))
        if name == "hallway":
            n, d, cap = rng.randint(6, 12), 3, rng.choice((2, 3, 50))
        elif name == "at_most_one_1":
            n, d, cap = rng.randint(8, 40), 2, rng.choice((1, 2, 3, 50))
        else:
            n, d, cap = rng.randint(6, 10), 2, 5
        spec, lang = s.specs[name], s.langs[name]
        errors = s.sl.errors

        def check(outcome):
            want = memo(s, ("window", name, n, d, cap),
                              lambda: ref.extension_window(lang, n, d, cap))
            if want[0] == "hit":
                expect(value_of(outcome) == want[1:], f"window {outcome[1]}, reference {want[1:]}")
                return
            if outcome[0] == "ok" and want[1] == "cap-below-Cn":
                raise Mismatch(f"returned {outcome[1]} though cap+1={cap + 1} < C*n="
                               f"{math.log(2) / (4 * d) * n:.3f}", "exceeds-cap-below-Cn")
            expect_raised(outcome, errors.LemmaWindowNotFoundError)

        return Job(f"lemmas#{i}:window:{name}:n={n}:d={d}:cap={cap}", "window",
                   lang_kind(s, name), False,
                   lambda: s.sl.complexity.find_extension_window(spec, n, d, cap), check)

    def _job_removal(self, s, i, rng):
        name, rng = self._target(s, i, rng, ("sft",) * 4 + ("golden_mean", "full2"))
        lang, spec = s.langs[name], s.specs[name]
        k = rng.randint(1, 3)
        n_max = rng.randint(6, 10)
        errors = s.sl.errors

        def expected(w):
            if not ref.cylinder_has_aperiodic(lang, w):
                return None
            removed = ref.ref_language(with_forbidden(s.descs[name], [w]))
            rows = []
            for n in range(len(w), n_max + 1):
                lhs = removed.count(n)
                rhs = lang.count(n) - (n - len(w) + 1)
                rows.append((n, lhs, rhs, rhs - lhs))
            return tuple(rows)

        def check_one(w, outcome):
            want = memo(s, ("removal", name, w, n_max), lambda: expected(w))
            if want is None:
                expect_raised(outcome, errors.NoAperiodicPointError)
                return
            report = value_of(outcome)
            expect(report.rows == want, f"removal rows differ from reference for {w!r}")
            expect(report.violations == tuple(r for r in want if r[1] > r[2]),
                   "violations differ")
            expect(not report.violations, f"removal bound violated for {w!r}")

        words = lang.words(k)
        return Job(f"lemmas#{i}:removal:{name}:L_{k}:n={n_max}", "removal", "sft", False,
                   batch(words, lambda w: s.sl.chains.verify_removal_bound(spec, w, n_max)),
                   check_batch(words, check_one))

    def _job_chain(self, s, i, rng):
        name, rng = self._target(s, i, rng, ("sft",) * 3 + ("hallway", "at_most_one_1",
                                                           "golden_mean"))
        lengths = (2,) if name == "hallway" else (1, 2)
        spec, lang = s.specs[name], s.langs[name]
        errors = s.sl.errors

        def check_one(max_len, outcome):
            if outcome[0] == "raised":
                exc = expect_raised(outcome, errors.NoUniqueExtenderError)
                expect(lang_kind(s, name) == "sft", "no unique extender on a sparse spec")
                current = ref.ref_language(with_forbidden(
                    s.descs[name], [lvl.extended for lvl in exc.partial]))
                expect(ref_unique_extender(current, 1, max_len) is None,
                       "NoUniqueExtenderError though the reference finds an extender")
                return
            check_chain(s, name, value_of(outcome), max_len)

        return Job(f"lemmas#{i}:chain:{name}", "chain", lang_kind(s, name), False,
                   batch(lengths, lambda max_len: s.sl.chains.build_chain(spec, 1, max_len, 40)),
                   check_batch(lengths, check_one))

    def _job_shadow(self, s, i, rng):
        name, rng = self._target(s, i, rng, ("sft",) * 4 + ("full2", "golden_mean"))
        lang, spec = s.langs[name], s.specs[name]
        f = rng.choice(lang.words(rng.randint(2, 3)))
        t_steps, cap = rng.randint(1, 2), 4
        errors = s.sl.errors

        def expected(u):
            shrunk = ref.ref_language(with_forbidden(s.descs[name], [f]))
            if shrunk.empty or not shrunk.contains(u):
                return None
            exts = ref.centered_extensions(shrunk, u, t_steps, stop_above=1)
            if not exts:
                return None
            (v,) = exts
            return v, ref.shadowing_distance(lang, [f], u, v, t_steps, cap)

        def check_one(u, outcome):
            want = memo(s, ("shadow", name, f, u, t_steps), lambda: expected(u))
            if want is None:
                expect_raised(outcome, errors.HypothesisError)
                return
            report = value_of(outcome)
            v, dist = want
            expect(report.target == v, "shadowing target differs")
            expect((report.status, report.distance) ==
                   (("ok", dist) if dist is not None else ("cap-exceeded", None)),
                   f"shadowing distance {report.distance}, reference {dist}")
            if report.counterexample is not None:
                at = report.distance - 1 if report.status == "ok" else cap
                expect(lang.contains(report.counterexample) and ref.shadow_violation(
                    report.counterexample, [f], u, v, t_steps, at), "counterexample invalid")

        us = lang.words(1) + lang.words(2)
        return Job(f"lemmas#{i}:shadow:{name}:f={''.join(f)}:T={t_steps}", "shadow", "sft",
                   False, batch(us, lambda u: s.sl.chains.shadowing_distance(
                       spec, [f], u, t_steps, cap)), check_batch(us, check_one))

    def _job_syndetic(self, s, i, rng):
        name, rng = self._target(s, i, rng, ("at_most_one_1", "hallway"))
        max_len = 1 if name == "at_most_one_1" else 2
        dist, cap = rng.randint(0, 4), 30
        spec, lang = s.specs[name], s.langs[name]
        chains = s.sl.chains

        def run():
            chain = chains.build_chain(spec, 1, max_len, 40)
            return chain, chains.syndetic_gap(spec, chain, dist, cap)

        def check(outcome):
            chain, report = value_of(outcome)
            check_chain(s, name, chain, max_len)
            anchors = chain.anchors()
            gap = memo(s, ("syndetic", name, anchors, dist),
                             lambda: ref.syndetic_gap(lang, anchors, dist, cap))
            expect((report.status, report.gap) ==
                   (("ok", gap) if gap is not None else ("cap-exceeded", None)),
                   f"syndetic gap {report.gap}, reference {gap}")

        return Job(f"lemmas#{i}:syndetic:{name}:D={dist}", "syndetic", "sparse", False,
                   run, check)

    def _job_cli(self, s, i, rng):
        suite = self.suites[occurrence(self.menu, i) % len(self.suites)]
        trials = random.Random(f"lemmas/{i}").randint(2, 6)   # the cost, fixed
        seed = rng.randint(1, 10_000)
        argv = ["verify-lemmas", "--suite", suite, "--trials", str(trials), "--seed", str(seed)]

        def check(outcome):
            report = cli_report(outcome, "verify-lemmas")
            expect(report["seed"] == seed and report["results"]["suite"] == suite, "echo")
            expect(report["violations"] == [], f"violations {report['violations']!r:.200}")
            if suite == "removal":
                expect(report["results"]["detail"]["instances"] == trials, "instances")

        return Job(f"lemmas#{i}:cli:verify-lemmas:{suite}:trials={trials}:seed={seed}",
                   "cli-verify-lemmas", "mixed", True, lambda: run_cli(s.sl.cli, argv), check)


def sfts(s):
    return sorted(k for k in s.descs if k.startswith("sft"))


def lang_kind(s, name):
    return s.descs[name]["kind"]


def ref_unique_extender(lang, radius, max_len):
    """Canonically smallest word of length <= L extending uniquely 2R times."""
    for n in range(1, max_len + 1):
        for w in lang.words(n):
            exts = ref.centered_extensions(lang, w, 2 * radius, stop_above=1)
            if exts and len(exts) == 1:
                return w, next(iter(exts))
    return None


def check_chain(s, name, chain, max_len):
    """Greedy chain invariants: each level's word is the reference's choice."""
    base = s.descs[name]
    levels = list(chain.levels) + [chain.terminal]
    forbidden = [tuple(f) for f in base.get("forbidden", [])]
    for depth, level in enumerate(levels):
        if base["kind"] == "sft":
            desc = canonical_sft(base["alphabet"], forbidden)
            expect(level.subshift.descriptor() == desc, f"level {depth} subshift differs")
            forbidden.append(level.extended)
        else:
            desc = level.subshift.descriptor()
        want = ref_unique_extender(ref.ref_language(desc), 1, max_len)
        expect(want == (level.word, level.extended),
               f"chain level {depth}: {level.word!r}, reference {want!r}")
    if base["kind"] == "sft":
        expect(ref.ref_language(canonical_sft(base["alphabet"], forbidden)).empty,
               "terminal forbid does not empty the shift")
    eff = max_len + 4
    bound = s.langs[name].count(2 * eff - 1)
    expect((chain.k, chain.bound_value, chain.bound_holds) ==
           (len(levels) - 1, bound, (len(levels) - 1) * eff < bound), "chain bound fields")


# -- automorphisms: code algebra --------------------------------------------------

class Automorphisms:
    name = "automorphisms"
    why = ("code algebra on cached short windows: compose, pad, BlockCode "
           "construction and apply_to_word dominate")
    menu = schedule((("certify", 4), ("walk", 4), ("enumerate", 3), ("free", 1), ("spacetime", 3),
                     ("subgroup", 1), ("commutator", 1), ("spacetime_lib", 2),
                     ("search_cap", 1)))
    # (spec, range, |Aut_R| where known by hand); None: range0_automorphism_oracle
    # "sft" stands for the random SFTs in turn.
    enumerations = (("full2", 1, 6), ("golden_mean", 1, 3), ("sft", 0, None),
                    ("at_most_one_1", 1, 3), ("sft", 0, None))
    chunk = 5 * 20     # whole menu cycles, and whole depth, enumeration and closure cycles
    period = 2 * chunk  # jobs repeat, so each run checks the same jobs
    random_sfts = 24

    def generate(self, seed, workdir, oracles, sl):
        rng = random.Random(f"{seed}/automorphisms/session")
        # The random SFTs, their codes and the certify order are the same on
        # every seed, like the named systems: the known certify defect shows
        # on some of them, and so on the same jobs in every run.
        fixed = random.Random("automorphisms/sfts")
        descs = dict(NAMED)
        descs["full3"] = canonical_sft(("0", "1", "2"), [])
        for k in range(self.random_sfts):
            descs[f"sft{k}"], _ = random_sft(fixed, letters_choices=(2 + k % 2,),
                                             lengths=(2, 5), max_words=2)
        hallway = sl["systems"].make_example("hallway")
        inputs = SimpleNamespace(
            seed=seed, workdir=workdir, oracles=oracles, descs=descs, memo={}, files={},
            walk_products=[],
            langs={k: ref.ref_language(d) for k, d in descs.items()},
            walk_rules={w: dict(hallway.codes[w].rule) for w in WALKS})
        self._write_inputs(inputs, rng, fixed)
        return inputs

    def setup(self, sl, inputs):
        sl = modules(sl)
        systems = {name: sl.systems.make_example(name)
                   for name in ("full2", "golden_mean", "cycle2", "at_most_one_1", "hallway")}
        specs = {name: (systems[name].spec if name in systems
                        else sl.subshifts.parse_spec(desc))
                 for name, desc in inputs.descs.items()}
        perms = [dict(zip("012", p)) for p in itertools.permutations("012")]
        letter_maps = [(p, sl.autos.BlockCode.letter_map(specs["full3"], p)) for p in perms]
        return SimpleNamespace(sl=sl, systems=systems, specs=specs, letter_maps=letter_maps,
                               **vars(inputs))

    def _write_inputs(self, s, seeded, fixed):
        """Spec and code files: random range-0/1 codes and walk products.

        Codes on the named systems and the walk products come from the
        `seeded` RNG, codes on the random SFTs from the `fixed` one.  The
        certify jobs visit `s.certify_order`, a fixed shuffle of the
        random codes, in turn; the walk jobs visit the hallway walks and
        `s.walk_products`.
        """
        names = sfts(s)
        for name in names:
            write_json(os.path.join(s.workdir, f"{name}.json"), s.descs[name])
        for name in ["full2", "golden_mean", "cycle2"] + names:
            rng = fixed if name in names else seeded
            letters = s.langs[name].letters
            perm = list(letters)
            rng.shuffle(perm)
            self._add_code(s, f"{name}-r0-perm", name, dict(zip(((a,) for a in letters), perm)), 0)
            self._add_code(s, f"{name}-r0-map", name,
                           {(a,): rng.choice(letters) for a in letters}, 0)
            rng.shuffle(perm)
            t = rng.choice((-1, 0, 1))
            windows = s.langs[name].words(3)
            if rng.random() < 0.5:
                rule = {w: perm[letters.index(w[1 + t])] for w in windows}
            else:
                rule = {w: rng.choice(letters) for w in windows}
            self._add_code(s, f"{name}-r1", name, rule, 1)
        hallway = s.langs["hallway"]
        for length in (2, 2, 3, 3):
            word = [seeded.choice(("phi_a", "phi_b")) for _ in range(length)]
            rule, radius = s.walk_rules[word[-1]], 1
            for g in reversed(word[:-1]):
                rule, radius = ref.compose_rules(hallway, s.walk_rules[g], 1, rule, radius)
            key = f"hallway-walk-{len(s.files)}-{'.'.join(word)}"
            self._add_code(s, key, "hallway", rule, radius)
            s.walk_products.append(key)
        s.certify_order = sorted(k for k in s.files if k not in s.walk_products)
        fixed.shuffle(s.certify_order)

    def _add_code(self, s, key, spec_name, rule, radius):
        path = os.path.join(s.workdir, f"code-{key}.json")
        write_json(path, ref.rule_to_json(s.langs[spec_name].letters, radius, rule,
                                          s.langs[spec_name]))
        s.files[key] = (spec_name, path, rule, radius)

    def job(self, s, i):
        rng = random.Random(f"{s.seed}/automorphisms/{i}")
        kind = self.menu[i % len(self.menu)]
        return getattr(self, f"_job_{kind}")(s, i, rng)

    def _spec_arg(self, s, name):
        if name in NAMED:
            return f"builtin:{name}"
        return os.path.join(s.workdir, f"{name}.json")

    def _job_walk(self, s, i, rng):
        """Certify a hallway walk (one slot in five) or a walk product."""
        turn = occurrence(self.menu, i)
        if turn % 5 == 0:
            walk = WALKS[(turn // 5) % len(WALKS)]
            return self._certify(s, i, "hallway", walk, s.walk_rules[walk], 1, 1)
        spec_name, path, rule, radius = s.files[s.walk_products[turn % 5 - 1]]
        return self._certify(s, i, spec_name, path, rule, radius, radius)

    def _job_certify(self, s, i, rng):
        turn = occurrence(self.menu, i)
        spec_name, path, rule, radius = s.files[s.certify_order[turn % len(s.certify_order)]]
        return self._certify(s, i, spec_name, path, rule, radius, turn % 3)

    def _certify(self, s, i, spec_name, code_ref, rule, radius, rmax):
        desc, lang = s.descs[spec_name], s.langs[spec_name]
        argv = ["autos", "certify", "--spec", self._spec_arg(s, spec_name),
                "--code", code_ref, "--rmax", str(rmax)]
        label = os.path.basename(code_ref)

        def check(outcome):
            code = value_of(outcome)[0]
            report = cli_report(outcome, "autos", exit_code=1 if code == 1 else 0)
            status = report["results"]["status"]
            if status == "not-endomorphism":
                expect(code == 1, "not-endomorphism must exit 1")
                v = report["violations"][0]
                word, image = tuple(v["word"]), tuple(v["image"])
                expect(lang.contains(word) and ref.slide(rule, radius, word) == image
                       and not lang.contains(image), "witness does not reproduce")
                return
            expect(code == 0, f"{status} must exit 0")
            if status == "unknown":
                return
            expect(status == "certified", f"status {status!r}")
            witness = memo(s, ("endo", spec_name, label), lambda:
                                 ref.non_endomorphism_witness(desc, lang, rule, radius))
            if witness is not None:
                raise Mismatch(f"certified, but {witness[0]!r} maps to {witness[1]!r} "
                               f"outside the language", "certify-window-bound")
            inverse = report["results"]["inverse"]
            inv_rule, inv_radius = ref.rule_from_json(inverse), inverse["range"]
            expect(ref.non_endomorphism_witness(desc, lang, inv_rule, inv_radius) is None,
                   "certified inverse leaves the language")
            expect(ref.is_two_sided_inverse(lang, rule, radius, inv_rule, inv_radius),
                   "certified inverse is not a two-sided inverse")

        return Job(f"automorphisms#{i}:certify:{spec_name}:{label}:rmax={rmax}",
                   "cli-certify", desc["kind"], True, lambda: run_cli(s.sl.cli, argv), check)

    def _job_enumerate(self, s, i, rng):
        turn = occurrence(self.menu, i)
        spec_name, radius, known = self.enumerations[turn % len(self.enumerations)]
        if spec_name == "sft":
            spec_name = sfts(s)[turn % len(sfts(s))]
        desc, lang = s.descs[spec_name], s.langs[spec_name]
        argv = ["autos", "enumerate", "--spec", self._spec_arg(s, spec_name),
                "--range", str(radius)]

        def expected_tables():
            language = {n: set(lang.words(n)) for n in range(1, 7)}
            return s.oracles.range0_automorphism_oracle(lang.letters, language)

        def check(outcome):
            report = cli_report(outcome, "autos")
            listed = report["results"]["automorphisms"]
            expect(report["results"]["count"] == len(listed), "count field")
            bad = []
            for item in listed:
                rule, r = ref.rule_from_json(item["code"]), item["code"]["range"]
                witness = ref.non_endomorphism_witness(desc, lang, rule, r)
                if witness is not None:
                    bad.append(witness)
                    continue
                inv = item["inverse"]
                expect(ref.is_two_sided_inverse(lang, rule, r, ref.rule_from_json(inv),
                                                inv["range"]), "listed inverse wrong")
            if bad:
                raise Mismatch(f"{len(bad)} listed maps are not endomorphisms, e.g. "
                               f"{bad[0][0]!r} -> {bad[0][1]!r}", "certify-window-bound")
            if known is not None:
                expect(len(listed) == known, f"|Aut_{radius}| = {len(listed)}, known {known}")
            else:
                tables = memo(s, ("aut0", spec_name), expected_tables)
                got = sorted(sorted(ref.rule_from_json(item["code"]).items()) for item in listed)
                want = sorted(sorted(t.items()) for t in tables)
                expect(got == want, f"Aut_0 differs from range0_automorphism_oracle "
                                    f"({len(got)} vs {len(want)})")

        return Job(f"automorphisms#{i}:enumerate:{spec_name}:R={radius}", "cli-enumerate",
                   desc["kind"], True, lambda: run_cli(s.sl.cli, argv), check)

    def _job_free(self, s, i, rng):
        depth = (5, 6, 5, 7, 6)[occurrence(self.menu, i) % 5]
        argv = ["certify-free", "--spec", "builtin:hallway", "--gen-a", "phi_a",
                "--gen-b", "phi_b", "--depth", str(depth), "--rmax", "1"]

        def check(outcome):
            report = cli_report(outcome, "certify-free")
            expect(report["results"] == {"status": "free-to-depth", "depth": depth,
                                         "products": 2 ** (depth + 1) - 2},
                   f"results {report['results']!r}")
            expect(s.memo["decoded_free_words"] >= depth, "free words do not decode")

        return Job(f"automorphisms#{i}:certify-free:depth={depth}", "cli-certify-free",
                   "sparse", True, lambda: run_cli(s.sl.cli, argv), check)

    def _job_spacetime(self, s, i, rng):
        fixed = random.Random(f"automorphisms/{i}")    # the cost, the same on every seed
        code = fixed.choice(WALKS)
        width, height = fixed.randint(7, 15), fixed.randint(3, 8)
        bound = fixed.randint(1, min(3, width - 1, height - 1))
        if occurrence(self.menu, i) % 3 == 0:
            probe_name = rng.choice(sorted(HALLWAY_PROBES))
            markers, probe_arg = HALLWAY_PROBES[probe_name], probe_name
        else:
            probe_name = f"probe-{i}"
            markers = {-rng.randint(1, 6): "p", 0: rng.choice(("1", "a", "b"))}
            lo, hi = min(markers), max(markers)
            probe_arg = os.path.join(s.workdir, f"{probe_name}.json")
            write_json(probe_arg, {"left_period": ["0"], "right_period": ["0"],
                                   "center": [markers.get(k, "0") for k in range(lo, hi + 1)],
                                   "origin_offset": -lo})
        argv = ["spacetime", "--spec", "builtin:hallway", "--code", code, "--probe", probe_arg,
                "--width", str(width), "--height", str(height),
                "--detect-periods", str(bound), "--rmax", "1"]

        def check(outcome):
            report = cli_report(outcome, "spacetime")
            grid = ref_grid(s.walk_rules[code], 1, markers, width, height)
            results = report["results"]
            expect(results["window"]["grid"] == [list(r) for r in grid], "grid differs")
            expect(results["period_vectors"] == [list(v) for v in ref_periods(grid, bound)],
                   "period vectors differ")

        return Job(f"automorphisms#{i}:spacetime:{code}:{probe_name}:{width}x{height}",
                   "cli-spacetime", "sparse", True, lambda: run_cli(s.sl.cli, argv), check)

    def _job_subgroup(self, s, i, rng):
        rng = random.Random(f"automorphisms/{i}")     # named systems only: fixed
        autos = s.sl.autos
        choice = occurrence(self.menu, i) % 5
        if choice == 0:
            spec, gens, expect_size = s.specs["full2"], [s.systems["full2"].codes["flip"]], 2
        elif choice == 1:
            spec, gens, expect_size = s.specs["full2"], [s.systems["full2"].codes["shift"]], None
        else:
            spec = s.specs["full3"]
            picked = rng.sample(s.letter_maps, choice - 1)
            gens = [code for _, code in picked]
            expect_size = ref.permutation_group_order([p for p, _ in picked])

        def run():
            certs = [autos.certify_automorphism(spec, g, 1).cert for g in gens]
            return autos.subgroup_closure(spec, certs, 10)

        def check(outcome):
            closure = value_of(outcome)
            if expect_size is None:
                expect(closure.status == "cap-exceeded", f"status {closure.status}")
            else:
                expect(closure.status == "ok" and len(closure.elements) == expect_size,
                       f"closure {closure.status} size "
                       f"{len(closure.elements or ())}, reference {expect_size}")

        return Job(f"automorphisms#{i}:subgroup:{choice}", "subgroup", "sft", False, run, check)

    def _job_commutator(self, s, i, rng):
        rng = random.Random(f"automorphisms/{i}")     # named systems only: fixed
        a, b = rng.sample(("phi_a", "phi_b", "phi_a_inv", "phi_b_inv"), 2)
        codes = s.systems["hallway"].codes
        lang = s.langs["hallway"]
        rules = [s.walk_rules[x] for x in (a, b, INVERSE[a], INVERSE[b])]
        autos = s.sl.autos

        def check(outcome):
            code = value_of(outcome)
            windows = lang.words(9)
            expect(code.radius == 4 and set(code.rule) == set(windows), "commutator domain")
            for w in windows:
                x = w
                for rule in reversed(rules):
                    x = ref.slide(rule, 1, x)
                expect(code.rule[w] == x[0], f"commutator differs on {w!r}")

        return Job(f"automorphisms#{i}:commutator:{a},{b}", "commutator", "sparse", False,
                   lambda: autos.commutator(codes[a], codes[b], codes[INVERSE[a]],
                                            codes[INVERSE[b]]), check)

    def _job_spacetime_lib(self, s, i, rng):
        rng = random.Random(f"automorphisms/{i}")     # named systems only: fixed
        code = rng.choice(WALKS)
        probe_name = rng.choice(sorted(HALLWAY_PROBES))
        width, height = rng.randint(8, 16), rng.randint(4, 8)
        n, k = rng.randint(1, 3), rng.randint(1, 3)
        power = rng.choice((1, -1))
        positions = rng.sample(range(-5, 6), 3)
        st, autos, words = s.sl.spacetime, s.sl.autos, s.sl.words
        hallway, am1 = s.systems["hallway"], s.systems["at_most_one_1"]
        shift = am1.codes["shift" if power == 1 else "shift_inv"]

        def run():
            cert = autos.certify_automorphism(hallway.spec, hallway.codes[code], 1).cert
            window = st.spacetime_window(hallway.spec, cert, hallway.probes[probe_name],
                                         width, height)
            rects = st.rect_complexity(window, n, k)
            shift_cert = autos.certify_automorphism(am1.spec, shift, 1).cert
            probes = [words.Configuration.from_markers("0", {p: "1"}) for p in positions]
            return window, rects, st.power_is_shift(am1.spec, shift_cert, probes, 3, 3)

        def check(outcome):
            window, rects, power_report = value_of(outcome)
            grid = ref_grid(s.walk_rules[code], 1, HALLWAY_PROBES[probe_name], width, height)
            expect(window.grid == grid, "grid differs")
            want = len({tuple(grid[j + dj][c:c + n] for dj in range(k))
                        for j in range(height - k + 1) for c in range(width - n + 1)})
            expect(rects == want, f"rect complexity {rects}, reference {want}")
            expect(power_report is not None and power_report.exponent == 1
                   and power_report.shifts == (power,) * 3, "power_is_shift differs")

        return Job(f"automorphisms#{i}:spacetime-lib:{code}:{probe_name}", "spacetime-lib",
                   "sparse", False, run, check)

    def _job_search_cap(self, s, i, rng):
        cap = rng.choice((1000, 10_000, 100_000))
        spec = s.specs["hallway"]
        errors = s.sl.errors
        size = len(s.langs["hallway"].letters) ** s.langs["hallway"].count(1)

        def check(outcome):
            exc = expect_raised(outcome, errors.SearchSpaceError)
            expect((exc.size, exc.cap) == (size, cap), "search-space size or cap differs")

        return Job(f"automorphisms#{i}:enumerate-cap:hallway:cap={cap}", "search-cap",
                   "sparse", False,
                   lambda: s.sl.autos.enumerate_automorphisms(spec, 0, table_cap=cap), check)

    def references(self, s):
        """decode_hallway_product on every free-semigroup word up to depth 7."""
        autos, hallway = s.sl.autos, s.systems["hallway"]
        codes = {("a",): hallway.codes["phi_a"], ("b",): hallway.codes["phi_b"]}
        s.memo["decoded_free_words"] = 0     # the memo outlives this session
        for depth in range(1, 8):
            for word in autos.semigroup_words(depth)[2 ** depth - 2:]:
                if word not in codes:
                    codes[word] = autos.compose(codes[word[:1]], codes[word[1:]])
                if s.sl.systems.decode_hallway_product(hallway, codes[word]) != word:
                    return
            s.memo["decoded_free_words"] = depth


def ref_grid(rule, radius, markers, width, height):
    """Space-time window of a hallway code from a marker probe, by sliding."""
    col0 = -(width // 2)
    lo, hi = col0 - radius * height, col0 + width + radius * height
    row = tuple(markers.get(k, "0") for k in range(lo, hi))
    grid = []
    for j in range(height):
        grid.append(row[radius * (height - j):][:width])
        row = ref.slide(rule, radius, row)
    return tuple(tuple(r) for r in grid)


def ref_periods(grid, bound):
    height, width = len(grid), len(grid[0])
    found = []
    for v1 in range(-bound, bound + 1):
        for v2 in range(-bound, bound + 1):
            if (v1, v2) == (0, 0):
                continue
            if all(grid[j][c] == grid[j + v2][c + v1]
                   for j in range(height) if 0 <= j + v2 < height
                   for c in range(width) if 0 <= c + v1 < width):
                found.append((v1, v2))
    return found


WORKLOADS = {w.name: w for w in (Language(), Lemmas(), Automorphisms())}
