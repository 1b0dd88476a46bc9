"""Tests of the benchmark's own machinery (run with pytest from the repo root)."""

import hashlib
import importlib
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "tests", HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import oracles  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def shiftlab_modules():
    # Reuse the modules already imported: a fresh import (run.import_shiftlab)
    # would swap the exception classes other test modules hold.
    return {m: importlib.import_module(f"shiftlab.{m}") for m in run.LAYERS}


# -- percentile with its sample-count rule --------------------------------------

def test_percentile_nearest_rank():
    samples = list(range(1, 101))
    assert run.percentile(samples, 0.9) == 90
    assert run.percentile(samples, 0.5) == 50
    assert run.percentile(list(reversed(samples)), 0.9) == 90


def test_percentile_needs_ten_samples_beyond():
    assert run.percentile(list(range(20)), 0.5) == 9
    with pytest.raises(ValueError):
        run.percentile(list(range(19)), 0.5)
    with pytest.raises(ValueError):
        run.percentile(list(range(99)), 0.9)


# -- self time from spans ---------------------------------------------------------

def test_self_times_on_synthetic_span_tree():
    spans = [
        (1, None, "root", 0.0, 10.0, 1.0),   # 1 s in hot calls directly under it
        (2, 1, "a", 1.0, 4.0, 0.0),
        (3, 1, "b", 5.0, 9.0, 0.5),
        (4, 3, "a", 6.0, 7.0, 0.0),
    ]
    assert tracing.self_times(spans) == {"root": 2.0, "a": 4.0, "b": 2.5}


def test_tracer_self_times_add_up_to_the_root():
    tracer = tracing.Tracer()

    def leaf(n):
        return sum(range(n))

    def hot_with_span_inside(n):        # hot frame that calls a span function
        return traced_leaf(n) + 1

    traced_leaf = tracer.wrap("m.leaf", leaf)
    traced_hot = tracer.wrap("subshifts.contains", hot_with_span_inside)

    def root():
        return traced_leaf(20_000) + traced_hot(20_000) + traced_leaf(1000)

    tracer.wrap("m.root", root)()
    tracer.finish()
    (root_span,) = [s for s in tracer.spans if s[2] == "m.root"]
    total = root_span[4] - root_span[3]
    parts = (tracer.self_s("m.root") + tracer.self_s("m.leaf")
             + tracer.self_s("subshifts.contains"))
    assert parts == pytest.approx(total, abs=1e-9)
    assert tracer.calls["m.leaf"] == 3
    assert len(tracer.spans) == 3          # the leaf inside the hot call keeps no span


# -- distinct-job accounting ------------------------------------------------------

def test_periodic_run_counts_distinct_jobs():
    from types import SimpleNamespace

    def job(session, i):
        def check(outcome):
            if i == 1:
                raise workloads.Mismatch("wrong", "some-defect")
        return workloads.Job(f"fake#{i}", "fake", "sft", False, lambda: i, check)

    fake = SimpleNamespace(chunk=2, period=4, job=job)
    tally = run.Tally()
    assert run.run_jobs(fake, None, tally, seconds=0) == 4     # one whole period
    assert run.run_jobs(fake, None, tally, count=10) == 10
    assert len(tally.latencies) == 14
    assert tally.attempted == {0, 1, 2, 3}
    assert list(tally.failures) == [1]


# -- seeded generator -------------------------------------------------------------

def generated_inputs(workload, seed, tmp_path, jobs=24):
    """Everything a workload hands to shiftlab for its first jobs, as bytes."""
    workdir = tmp_path / f"{workload.name}-{seed}"
    workdir.mkdir(parents=True)
    sl = shiftlab_modules()
    inputs = workload.generate(seed, str(workdir), oracles, sl)
    session = workload.setup(sl, inputs)
    names = [workload.job(session, i).name for i in range(jobs)]
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(workdir.iterdir())}
    blob = {"descs": getattr(inputs, "descs", None), "jobs": names, "files": files}
    return json.dumps(blob, sort_keys=True, default=repr).encode()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    first = generated_inputs(workload, 7, tmp_path / "a")
    again = generated_inputs(workload, 7, tmp_path / "b")
    other = generated_inputs(workload, 8, tmp_path / "c")
    assert first == again
    assert first != other


# -- references reject wrong answers ----------------------------------------------

def language_session(tmp_path):
    workload = workloads.WORKLOADS["language"]
    sl = shiftlab_modules()
    return workload, workload.setup(sl, workload.generate(3, str(tmp_path), oracles, sl))


def test_language_check_rejects_a_dropped_word(tmp_path):
    workload, session = language_session(tmp_path)
    job = workload.job(session, 1)            # a library job (every 4th is CLI)
    table, words = job.run()
    job.check(("ok", (table, words)))
    with pytest.raises(workloads.Mismatch):
        job.check(("ok", (table, words[:-1])))
    with pytest.raises(workloads.Mismatch):
        job.check(("ok", (table, tuple(reversed(words)))))


def test_language_cli_check_rejects_a_wrong_count(tmp_path):
    workload, session = language_session(tmp_path)
    job = workload.job(session, 0)
    code, out, err = job.run()
    job.check(("ok", (code, out, err)))
    report = json.loads(out)
    table = report["results"]["table"]
    last = max(table, key=int)
    table[last] += 1
    with pytest.raises(workloads.Mismatch):
        job.check(("ok", (code, json.dumps(report), err)))
    with pytest.raises(workloads.Mismatch):
        job.check(("ok", (2, out, err)))


def test_window_reference_flags_the_exceeds_cap_breach():
    lang = ref.ref_language(workloads.NAMED["at_most_one_1"])
    assert ref.extension_window(lang, 40, 2, 1) == ("error", "cap-below-Cn")
    assert ref.extension_window(lang, 12, 2, 50) == ("hit", 1, ref.EXCEEDS)


def test_reference_finds_the_certify_breach():
    # The letter flip on the SFT forbidding 11111 maps 00000 to 11111.
    desc = workloads.canonical_sft(("0", "1"), [("1",) * 5])
    lang = ref.ref_language(desc)
    flip = {("0",): "1", ("1",): "0"}
    witness = ref.non_endomorphism_witness(desc, lang, flip, 0)
    assert witness is not None and not lang.contains(witness[1])


def test_reference_language_matches_oracles_and_closed_forms():
    hallway = ref.ref_language(workloads.NAMED["hallway"])
    assert [hallway.count(n) for n in range(1, 9)] == [
        ref.CLOSED_FORMS["hallway"](n) for n in range(1, 9)]
    golden = ref.ref_language(workloads.NAMED["golden_mean"])
    assert golden.words(6) == [tuple(w) for w in oracles.sft_language_oracle("01", ["11"], 6)]
    assert ref.single_family_count(("1",) * 6, 20) == sum(math.comb(20, j) for j in range(7))
