"""Batch command-line entry point with deterministic JSON reports.

Every run emits one report object with fixed key order: command, inputs
(sha256 of each input), seed, results, violations, elapsed_ms.  With
identical inputs and seed the report is byte-identical except for the
elapsed_ms field.  Exit codes: 0 all checks pass, 1 a verified violation
(the report names the lemma and witness), 2 usage or input error, 3 an
internal error (an unexpected exception in a command or in writing its
report).
"""

import argparse
import functools
import hashlib
import itertools
import json
import os
import sys
import tempfile
import time

from . import autos, chains, spacetime, suites
from .complexity import complexity_table
from .errors import NoUniqueExtenderError, ShiftlabError, SpecFormatError
from .subshifts import _check_keys, _read_json, _read_word, parse_spec, spec_digest
from .systems import SYSTEM_NAMES, make_example
from .words import Configuration


class UsageError(Exception):
    pass


def _read_input(ref, what, inputs, key):
    """The JSON value of input file `ref`, read once; inputs[key] gets its
    path and the sha256 of the bytes parsed."""
    if not os.path.exists(ref):
        raise UsageError(f"{what} not found: {ref}")
    obj, digest = _read_json(ref)
    inputs[key] = {"path": ref, "sha256": digest}
    return obj


def _resolve_spec(ref, inputs):
    """A spec file path, or `builtin:NAME`; returns (spec, system-or-None)."""
    if ref.startswith("builtin:"):
        name = ref[len("builtin:"):]
        if name not in SYSTEM_NAMES:
            raise UsageError(f"unknown builtin system {name!r}")
        system = make_example(name)
        inputs["spec"] = {"builtin": name, "sha256": spec_digest(system.spec)}
        return system.spec, system
    return parse_spec(_read_input(ref, "spec file", inputs, "spec"), where=ref), None


def _resolve_code(ref, spec, system, inputs, key="code"):
    """A block-code file path, or a code name from the builtin system."""
    if system is not None and ref in system.codes:
        code = system.codes[ref]
        inputs[key] = {"builtin": ref,
                       "sha256": hashlib.sha256(
                           json.dumps(autos.code_to_json(code), sort_keys=True)
                           .encode()).hexdigest()}
        return code
    return autos.parse_code(spec, _read_input(ref, "code file", inputs, key), where=ref)


def _resolve_probe(ref, spec, system, inputs):
    if system is not None and ref in system.probes:
        inputs["probe"] = {"builtin": ref}
        return system.probes[ref]
    obj = _read_input(ref, "probe", inputs, "probe")
    _check_keys(obj, {"left_period", "center", "right_period", "origin_offset"}, ref)
    offset = obj["origin_offset"]
    if not isinstance(offset, int) or isinstance(offset, bool):
        raise SpecFormatError(f"{ref}.origin_offset: expected an integer")
    left, center, right = (_read_word(spec.alphabet, obj[key], f"{ref}.{key}")
                           for key in ("left_period", "center", "right_period"))
    if not left or not right:
        side = "right" if left else "left"
        raise SpecFormatError(f"{ref}.{side}_period: expected a nonempty list of letters")
    return Configuration(left, center, right, offset)


def cmd_complexity(args):
    inputs = {}
    spec, _ = _resolve_spec(args.spec, inputs)
    table = complexity_table(spec, args.max_n)
    return inputs, {"subshift_id": table.subshift_id,
                    "table": {str(n): table.values[n] for n in sorted(table.values)}}, []


def cmd_chain(args):
    inputs = {}
    spec, _ = _resolve_spec(args.spec, inputs)
    try:
        chain = chains.build_chain(spec, args.range, args.maxlen, args.cap)
    except NoUniqueExtenderError as exc:
        violation = {"lemma": "chain-construction",
                     "reason": "no-unique-extender",
                     "level": exc.level,
                     "partial_words": [list(lvl.word) for lvl in exc.partial]}
        return inputs, {"built": False}, [violation]
    results = chains.chain_to_json(chain)
    results["built"] = True
    violations = []
    if not chain.bound_holds:
        violations.append({"lemma": "chain-bound", "k": chain.k,
                           "P(2L'-1)": chain.bound_value,
                           "L_prime": chain.effective_len})
    return inputs, results, violations


def cmd_autos_enumerate(args):
    inputs = {}
    spec, _ = _resolve_spec(args.spec, inputs)
    certs = autos.enumerate_automorphisms(spec, args.range)
    listed = [{"code": autos.code_to_json(cert.code),
               "inverse": autos.code_to_json(cert.inverse),
               "r_certified": cert.r_certified} for cert in certs]
    return inputs, {"count": len(certs), "automorphisms": listed}, []


def cmd_autos_certify(args):
    inputs = {}
    spec, system = _resolve_spec(args.spec, inputs)
    code = _resolve_code(args.code, spec, system, inputs)
    result = autos.certify_automorphism(spec, code, args.rmax)
    results = {"status": result.status}
    violations = []
    if result.status == "certified":
        results["r_certified"] = result.cert.r_certified
        results["inverse"] = autos.code_to_json(result.cert.inverse)
    elif result.status == "not-endomorphism":
        witness_word, witness_image = result.witness
        violations.append({"lemma": "endomorphism",
                           "word": list(witness_word),
                           "image": list(witness_image)})
    return inputs, results, violations


def cmd_certify_free(args):
    inputs = {}
    spec, system = _resolve_spec(args.spec, inputs)
    code_a = _resolve_code(args.gen_a, spec, system, inputs, key="gen_a")
    code_b = _resolve_code(args.gen_b, spec, system, inputs, key="gen_b")
    cert_a = autos.certify_automorphism(spec, code_a, args.rmax)
    cert_b = autos.certify_automorphism(spec, code_b, args.rmax)
    violations = []
    for label, res in (("gen_a", cert_a), ("gen_b", cert_b)):
        if res.status != "certified":
            violations.append({"lemma": "automorphism-certification",
                               "generator": label, "status": res.status})
    if violations:
        return inputs, {"status": "generators-not-certified"}, violations
    report = autos.certify_free_semigroup(spec, cert_a.cert, cert_b.cert, args.depth)
    results = {"status": report.status, "depth": report.depth,
               "products": len(report.words)}
    if report.status == "collision":
        w1, w2 = report.collision
        violations.append({"lemma": "free-semigroup",
                           "word1": list(w1), "word2": list(w2)})
    return inputs, results, violations


def cmd_spacetime(args):
    inputs = {}
    spec, system = _resolve_spec(args.spec, inputs)
    code = _resolve_code(args.code, spec, system, inputs)
    probe = _resolve_probe(args.probe, spec, system, inputs)
    result = autos.certify_automorphism(spec, code, args.rmax)
    if result.status != "certified":
        raise UsageError(f"code did not certify as an automorphism ({result.status})")
    window = spacetime.spacetime_window(spec, result.cert, probe,
                                        args.width, args.height)
    results = {"window": spacetime.window_to_json(window),
               "text_grid": [" ".join(map(str, row)) for row in window.grid]}
    if args.detect_periods is not None:
        vectors = spacetime.detect_period_vectors(window, args.detect_periods)
        results["period_vectors"] = [list(v) for v in vectors]
        results["verdict"] = "window-consistent"
    return inputs, results, []


def cmd_verify_lemmas(args):
    results, violations = suites.run_suite(args.suite, args.trials, args.seed)
    return {}, {"suite": args.suite, "detail": results}, violations


@functools.cache
def _parser():
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="shiftlab",
        description="Exact computations on subshifts and their automorphisms.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write the report atomically")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complexity", parents=[common],
                       help="complexity table of a subshift")
    p.add_argument("--spec", required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.set_defaults(handler=cmd_complexity)

    p = sub.add_parser("chain", parents=[common],
                       help="build a forbidden-word chain")
    p.add_argument("--spec", required=True)
    p.add_argument("--range", type=int, required=True)
    p.add_argument("--maxlen", type=int, required=True)
    p.add_argument("--cap", type=int, required=True)
    p.set_defaults(handler=cmd_chain)

    p = sub.add_parser("autos", help="automorphism computations")
    autos_sub = p.add_subparsers(dest="autos_command", required=True)
    pe = autos_sub.add_parser("enumerate", parents=[common],
                              help="enumerate Aut_R(X)")
    pe.add_argument("--spec", required=True)
    pe.add_argument("--range", type=int, required=True)
    pe.set_defaults(handler=cmd_autos_enumerate)
    pc = autos_sub.add_parser("certify", parents=[common],
                              help="certify one block code")
    pc.add_argument("--spec", required=True)
    pc.add_argument("--code", required=True)
    pc.add_argument("--rmax", type=int, required=True)
    pc.set_defaults(handler=cmd_autos_certify)

    p = sub.add_parser("certify-free", parents=[common],
                       help="free-semigroup certification")
    p.add_argument("--spec", required=True)
    p.add_argument("--gen-a", required=True)
    p.add_argument("--gen-b", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--rmax", type=int, default=2)
    p.set_defaults(handler=cmd_certify_free)

    p = sub.add_parser("spacetime", parents=[common],
                       help="space-time window of an automorphism")
    p.add_argument("--spec", required=True)
    p.add_argument("--code", required=True)
    p.add_argument("--probe", required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--detect-periods", type=int, default=None)
    p.add_argument("--rmax", type=int, default=2)
    p.set_defaults(handler=cmd_spacetime)

    p = sub.add_parser("verify-lemmas", parents=[common],
                       help="run a lemma-verification suite")
    p.add_argument("--suite", choices=suites.SUITE_NAMES, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(handler=cmd_verify_lemmas)

    return parser


_string = json.encoder.encode_basestring_ascii
_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _layout(obj, pad):
    """The text of json.dumps(obj, indent=2) at nesting `pad` (a newline and
    the indent), with every string through the json module's C encoder.
    Lists of strings are joined in one call.  Any other value, or a key
    that is no string, raises TypeError: no command writes one."""
    if isinstance(obj, str):
        return _string(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) == {str}:
            items = map(_string, obj)
        else:
            items = map(_layout, obj, itertools.repeat(inner))
        return f"[{inner}{(',' + inner).join(items)}{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f"{_string(k)}: {_layout(v, inner)}" for k, v in obj.items())
        return f"{{{inner}{(',' + inner).join(items)}{pad}}}"
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _FLOATS.get(text, text)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_text(report):
    """The bytes of json.dumps(report, indent=2), without the pure-Python
    encoder that its indent selects."""
    return _layout(report, "\n")


def _emit(report, out_path):
    text = _json_text(report) + "\n"
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".shiftlab-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def main(argv=None):
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    started = time.monotonic()
    seed = getattr(args, "seed", None)
    try:
        try:
            inputs, results, violations = args.handler(args)
        except (UsageError, ShiftlabError, ValueError) as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2
        report = {
            "command": args.command,
            "inputs": inputs,
            "seed": seed,
            "results": results,
            "violations": violations,
            "elapsed_ms": int((time.monotonic() - started) * 1000),
        }
        # no limit on the digits of an int's str() while writing, so big counts
        # are exact; inputs are parsed under it, as it guards json.load from
        # quadratic parsing of huge literals
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            _emit(report, args.out)
        except OSError as exc:
            sys.stderr.write(f"error: cannot write report: {args.out}: {exc.strerror}\n")
            return 2
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
    except Exception as exc:
        # in a command or in writing its report: exit 1 would claim a
        # verified violation, so the bug is reported instead
        import traceback  # here alone: with linecache and tokenize it is a slow import

        traceback.print_exc()
        sys.stderr.write(f"error: internal: {type(exc).__name__}: {exc}\n")
        return 3
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
