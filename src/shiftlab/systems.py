"""Canonical desk-scale systems and their named block codes.

The hallway system is the centerpiece: a walker `p` moves right along a
bi-infinite corridor holding one nail that is empty (`1`) or carries
picture `a` or `b`; the combined letters `1p`, `ap`, `bp` mean the
walker stands at the nail.  The two walk codes act on arrival at the
nail by an involution: the `a`-walk hangs `a` on an empty nail, removes
a hanging `a`, and leaves `b` alone; the `b`-walk swaps the roles of
`a` and `b`.  Departure never touches the nail.  The inverse codes walk
left and act by the same involution on departure, undoing the arrival.
"""

from collections.abc import Mapping
from functools import partial
from typing import NamedTuple

from .autos import BlockCode, apply_to_config
from .subshifts import ProductSpec, SftSpec, SparseSpec
from .words import Alphabet, Configuration

SYSTEM_NAMES = ("full2", "golden_mean", "cycle2", "at_most_one_1",
                "salo_schraudner", "hallway")

HALLWAY_LETTERS = ("0", "1", "a", "b", "p", "1p", "ap", "bp")
_PERSON = {"p", "1p", "ap", "bp"}


class NamedSystem(NamedTuple):
    name: str
    spec: object
    codes: Mapping   # name -> BlockCode, complete on the spec's language
    probes: Mapping  # name -> Configuration inside the spec


class _Built(Mapping):
    """A read-only mapping that builds each value on first read and keeps it."""

    __slots__ = ("_builders", "_values")

    def __init__(self, builders):  # name -> function of no arguments
        self._builders, self._values = builders, {}

    def __getitem__(self, name):
        if name not in self._values:
            self._values[name] = self._builders[name]()
        return self._values[name]

    def __contains__(self, name):  # without building the value
        return name in self._builders

    def __iter__(self):
        return iter(self._builders)

    def __len__(self):
        return len(self._builders)


def _hallway_spec():
    alphabet = Alphabet(HALLWAY_LETTERS)
    families = [(m,) for m in ("1", "a", "b", "p", "1p", "ap", "bp")]
    families += [("p", m) for m in ("1", "a", "b")]
    return SparseSpec(alphabet, "0", families)


def _walk_rule(swap, back=False):
    """Range-1 local rule of a walk acting by the involution `act` on arrival;
    swap exchanges a and b, and back walks left, acting on departure."""
    act = {"1": "b", "b": "1", "a": "a"} if swap else {"1": "a", "a": "1", "b": "b"}

    def rule(win):
        here, come = win[1], win[2 if back else 0]
        if here == "p":
            return "0"
        if here == "0":
            return "p" if come in _PERSON else "0"
        if here not in act:  # the walker at the nail leaves it
            return act[here[0]] if back else here[0]
        if come != "p":
            return here
        return here + "p" if back else act[here] + "p"

    return rule


def _hallway_probes():
    probes = {"zero": partial(Configuration.constant, "0")}
    for i in range(1, 9):
        probes[f"x{i}"] = partial(Configuration.from_markers, "0", {-i: "p", 0: "1"})
    for m, label in (("1", "nail_1"), ("a", "nail_a"), ("b", "nail_b"),
                     ("p", "walker"), ("1p", "at_nail_1"),
                     ("ap", "at_nail_a"), ("bp", "at_nail_b")):
        probes[label] = partial(Configuration.from_markers, "0", {0: m})
    return probes


def make_example(name):
    """Construct one of the built-in named systems; each code and probe is
    built the first time it is read."""
    if name == "full2":
        alphabet = Alphabet(("0", "1"))
        spec = SftSpec(alphabet, [])
        codes = {
            "identity": partial(BlockCode.identity, spec, 0),
            "flip": partial(BlockCode.letter_map, spec, {"0": "1", "1": "0"}),
            "shift": partial(BlockCode.shift, spec, 1),
            "shift_inv": partial(BlockCode.shift, spec, -1),
        }
        probes = {
            "one": partial(Configuration.from_markers, "0", {0: "1"}),
            "alt": partial(Configuration.periodic, ("0", "1")),
            "zero": partial(Configuration.constant, "0"),
        }
    elif name == "golden_mean":
        alphabet = Alphabet(("0", "1"))
        spec = SftSpec(alphabet, [("1", "1")])
        codes = {"identity": partial(BlockCode.identity, spec, 0)}
        probes = {
            "zero": partial(Configuration.constant, "0"),
            "one": partial(Configuration.from_markers, "0", {0: "1"}),
        }
    elif name == "cycle2":
        alphabet = Alphabet(("0", "1"))
        spec = SftSpec(alphabet, [("0", "0"), ("1", "1")])
        codes = {"identity": partial(BlockCode.identity, spec, 0)}
        probes = {
            "alt": partial(Configuration.periodic, ("0", "1")),
            "alt_shifted": partial(Configuration.periodic, ("1", "0")),
        }
    elif name == "at_most_one_1":
        alphabet = Alphabet(("0", "1"))
        spec = SparseSpec(alphabet, "0", [("1",)])
        codes = {
            "identity": partial(BlockCode.identity, spec, 0),
            "shift": partial(BlockCode.shift, spec, 1),
            "shift_inv": partial(BlockCode.shift, spec, -1),
        }
        probes = {
            "zero": partial(Configuration.constant, "0"),
            "one": partial(Configuration.from_markers, "0", {0: "1"}),
        }
    elif name == "salo_schraudner":
        factor = make_example("at_most_one_1").spec
        spec = ProductSpec(factor, factor)
        codes = {"identity": partial(BlockCode.identity, spec, 0)}
        probes = {"zero": partial(Configuration.constant, ("0", "0"))}
    elif name == "hallway":
        spec = _hallway_spec()
        codes = {
            "identity": partial(BlockCode.identity, spec, 0),
            "phi_a": partial(BlockCode.from_function, spec, 1, _walk_rule(False)),
            "phi_b": partial(BlockCode.from_function, spec, 1, _walk_rule(True)),
            "phi_a_inv": partial(BlockCode.from_function, spec, 1, _walk_rule(False, back=True)),
            "phi_b_inv": partial(BlockCode.from_function, spec, 1, _walk_rule(True, back=True)),
        }
        probes = _hallway_probes()
    else:
        raise ValueError(f"unknown system name {name!r}")
    return NamedSystem(name, spec, _Built(codes), _Built(probes))


def decode_hallway_product(system, code):
    """Recover the generator word of a composed walk code from probes alone.

    The probe of x1..x8 with the walker arriving exactly at the nail
    reveals the word length; the nail state of each earlier probe's image
    then spells the letters.  Returns None when the images do not decode.
    """
    images = [apply_to_config(code, system.probes[f"x{i}"]) for i in range(1, 9)]
    at_origin = [i + 1 for i, y in enumerate(images) if y.get(0) in _PERSON]
    if len(at_origin) != 1:
        return None
    length = at_origin[0]
    letters = []
    for i in range(1, length + 1):
        state = images[length - i].get(0)
        if state in ("a", "ap"):
            letters.append("a")
        elif state in ("b", "bp"):
            letters.append("b")
        else:
            return None
    return tuple(letters)
