"""Sliding block codes as automorphism candidates.

A block code of range R is an exhaustive rule table on the language
windows of length 2R+1; applying a code to out-of-language data is an
error, never silently defaulted, because the maps under study only live
on the subshift.  Two codes are the same map on X exactly when their
reduced codes (`reduce_range`) share the range and the table.

Certification is not complete: a certificate carries an explicit
two-sided inverse verified on the language, while a failed inverse
search is merely inconclusive.  It is sound on every backend: the
endomorphism check is decided, not bounded.

Every slide walks window ranks: a code keeps `outputs`, its letter on
each window of L_{2R+1} by canonical rank, and the spec's language trie
(`SubshiftSpec._levels`) gives each next window's rank from the last
rank and the new letter, with no slice and no tuple hash.  One lazy
prefix pass (`_image_ranks`) yields, length by length, the rank of the
image of every word: `compose` takes its last level, `find_inverse` the
level of each range it tries, and the free-semigroup check every other
level.  A pass is split in two.  The source side, each word's parent
and last-window rank, depends only on the spec and the window length:
the spec walks it once per length (`SubshiftSpec._sources`), extending
each source word by the row of its automaton state, and every pass of
that range reads it.  The code's side is one fold of its outputs over
those levels.  With `_centres` counting paths from the states of
half-length words, the trie is grown only to the window length and the
longest image, never to the length of the source words.  The
endomorphism check walks the compiled automaton rows to a fixpoint,
expanding each key once and keeping keys, not words
(`_endomorphism_witness`).
"""

import functools
import itertools
import json
from operator import eq, itemgetter
from types import MappingProxyType
from typing import NamedTuple

from .errors import (
    InvalidChainError,
    RuleIncompleteError,
    SearchSpaceError,
    SpecFormatError,
)
from .complexity import _centred
from .subshifts import _as_letter, _check_keys, _read_word
from .words import Configuration, occurrences


class BlockCode:
    """Sliding block code of declared range with a total language table.

    `outputs[k]` is the letter on the window of rank k in L_{2R+1}, and it
    is all a code holds.  `rule`, the same table by window, is a read-only
    view built from `words(2R+1)` the first time it is read.  The
    constructor checks a rule table against the language, its size before
    listing L_{2R+1}; `_of` trusts outputs built on ranks (`compose`,
    `reduce_range`, `find_inverse`)."""

    __slots__ = ("spec", "radius", "outputs", "_rule")

    def __init__(self, spec, radius, rule):
        if radius < 0:
            raise ValueError("range must be >= 0")
        # a count past 10^99 stops there: it keeps no table of big counts, and
        # str() refuses 4,300+ digits
        size = spec._count_below(span := 2 * radius + 1, 10 ** 99)
        if len(rule) != size:
            shown = size if size < 10 ** 99 else "over 10^99"
            raise ValueError(f"rule table must cover exactly the language windows; "
                             f"it has {len(rule)}, L_{span} has {shown}")
        domain = spec.words(span)
        try:
            outputs = [rule[w] for w in domain]
        except KeyError:
            domain, keys = set(domain), set(rule)
            raise ValueError(
                f"rule table must cover exactly the language windows; "
                f"missing {len(domain - keys)}, extra {len(keys - domain)}") from None
        for letter in outputs:
            if letter not in spec.alphabet.letters:  # equality, not hashing: any value is refused
                raise ValueError(f"rule output {letter!r} not in alphabet")
        self.spec = spec
        self.radius = radius
        self.outputs = outputs
        self._rule = None

    @classmethod
    def _of(cls, spec, radius, outputs):
        """The code with these outputs by window rank, unchecked."""
        code = cls.__new__(cls)
        code.spec, code.radius, code.outputs, code._rule = spec, radius, outputs, None
        return code

    @property
    def rule(self):
        if self._rule is None:
            words = self.spec.words(2 * self.radius + 1)
            self._rule = MappingProxyType(dict(zip(words, self.outputs)))
        return self._rule

    @classmethod
    def from_function(cls, spec, radius, fn):
        return cls(spec, radius, {w: fn(w) for w in spec.words(2 * radius + 1)})

    @classmethod
    def identity(cls, spec, radius=0):
        return cls.from_function(spec, radius, lambda w: w[radius])

    @classmethod
    def shift(cls, spec, power=1):
        """sigma^power as a block code of range |power|; power 0 is the range-0 identity."""
        radius = abs(power)
        return cls.from_function(spec, radius, lambda w: w[radius + power])

    @classmethod
    def letter_map(cls, spec, mapping):
        """Range-0 code from a letter-to-letter map (not validated as endo)."""
        for (a,) in spec.words(1):
            if a not in mapping:
                raise ValueError(f"letter map misses letter {a!r}")
        return cls.from_function(spec, 0, lambda w: mapping[w[0]])

    def __repr__(self):
        return f"<BlockCode range={self.radius} on {type(self.spec).__name__}>"


def _missing_window(code, window):
    return RuleIncompleteError(
        f"window {window!r} missing from range-{code.radius} rule table")


def apply_to_word(code, word):
    """Slide the code over the word: output length |w| - 2R.  The first
    window's rank k is walked down the trie from the empty word, each next
    one is ext[tail[k]][a], and outputs[k] is emitted."""
    word = tuple(word)
    span = 2 * code.radius + 1
    if len(word) < span:
        raise ValueError(f"word of length {len(word)} shorter than window {span}")
    levels = code.spec._levels(span)
    ext, tail, _ = levels[span]
    outputs, out, k = code.outputs, [], 0
    try:
        for j, a in enumerate(word[:span], 1):
            k = levels[j][0][k][a]
        out.append(outputs[k])
        for a in word[span:]:
            k = ext[tail[k]][a]
            out.append(outputs[k])
    except KeyError:
        raise _missing_window(code, word[len(out):len(out) + span]) from None
    return tuple(out)


def apply_to_config(code, config):
    """Image of an eventually periodic point; tail periods are preserved."""
    radius = code.radius
    pure_l = -config.offset - radius - 1   # rightmost output drawn purely from the left tail
    pure_r = len(config.center) - config.offset + radius
    lp, mid, rp = len(config.left), pure_r - pure_l - 1, len(config.right)
    # one slide over the stretch whose outputs are a left period, the centre and a right period
    stretch = config.window(pure_l - lp + 1 - radius, lp + mid + rp + 2 * radius)
    image = apply_to_word(code, stretch)
    return Configuration(image[:lp], image[lp:lp + mid], image[lp + mid:], offset=-(pure_l + 1))


def _check_inputs(spec, codes, r_max=0):
    """Reject codes on another subshift (their window ranks are not spec's) and r_max < 0."""
    if any(code.spec is not spec and code.spec != spec for code in codes):
        raise ValueError("code lives on a different subshift")
    if r_max < 0:
        raise ValueError("r_max must be >= 0")


def _image_ranks(code, n):
    """Yield, for m = 2R+1..n, the rank in L_{m-2R} of the image of every
    word of L_m, by rank, growing the trie one image level per table read
    and never past max(2R+1, n-2R).  The source side is the spec's walk
    (`SubshiftSpec._sources`), grown as far as this pass reads and shared
    by every pass of range R: for each word u+(a,) of L_m, the rank p of u
    in L_{m-1} and the rank k of its last window.  The pass only folds the
    code's outputs over it: the image of u+(a,) is the image of u extended
    by outputs[k], of rank ext'[image[p]][outputs[k]], ext' the trie level
    one longer than u's image.  An image outside the language raises
    KeyError."""
    spec = code.spec
    span = 2 * code.radius + 1
    outputs = code.outputs
    letters = spec._levels(1)[1][0][0]  # letter -> rank in L_1
    image = [letters[b] for b in outputs]
    yield image
    for m in range(span + 1, n + 1):
        parent, last, _ = spec._sources(span, m)[m - span]
        image_ext = spec._levels(m - span + 1)[m - span + 1][0]
        image = [image_ext[image[p]][outputs[k]] for p, k in zip(parent, last)]
        yield image


def _middles(spec, n):
    """The rank in L_{n-2} of w[1:-1] for each word w of L_n, by rank:
    w[1:-1] is u[1:] for the parent u = w[:-1], so the tail of u's rank,
    once for each letter of the row of u's state.  The trie is read to
    L_{n-1}."""
    _, tail, states = spec._levels(n - 1)[n - 1]
    rows = spec._rows
    return [q for q, s in zip(tail, states) for _ in rows[s]]


def compose(outer, inner):
    """outer after inner; ranges add, table restricted to language windows.

    The output on a word of L_{2R+1}, R the sum of the ranges, is outer's
    output at the rank of the word's image under inner (`_image_ranks`).
    When an image leaves the language, the canonically first word with
    such an image is found by sliding each word, and its image is named.
    """
    spec, radius = outer.spec, outer.radius + inner.radius
    _check_inputs(spec, (inner,))
    try:
        for ranks in _image_ranks(inner, 2 * radius + 1):
            pass
    except KeyError:
        images = (apply_to_word(inner, w) for w in spec.words(2 * radius + 1))
        raise next(_missing_window(outer, u) for u in images if not spec.contains(u)) from None
    return BlockCode._of(spec, radius, [outer.outputs[k] for k in ranks])


def _centres(spec):
    """Yield the centre letter of each word of L_1, L_3, ... by rank, the
    centres of L_{2c+1} read off the trie's L_{c+1} and no longer level.

    The words of L_{2c+1} in canonical order come in blocks, one per word
    q of L_{c+1} in rank order: the words q+v.  As the automaton is
    deterministic and a word lies in the language exactly when its run
    never falls off, the v are the labels of the paths of length c from
    q's state, one word per path.  Each word q+v has centre letter q[c],
    the last letter of q, the letter of q's entry in its parent's `ext`
    row.  So level c is each such letter repeated once per path, and the
    path counts of length c+1 from each state s are the sums of those of
    length c over the targets of row s.
    """
    rows = spec._rows
    paths = [1] * len(rows)  # paths of length c from each state
    for c in itertools.count():
        ext, _, states = spec._levels(c + 1)[c + 1]
        yield list(itertools.chain.from_iterable(map(
            itertools.repeat, itertools.chain.from_iterable(ext), map(paths.__getitem__, states))))
        paths = [sum(map(paths.__getitem__, row.values())) for row in rows]


def _forced(keys, letters):
    """The letters as a list by key 0..k-1, or None if a key has two."""
    table = dict(zip(keys, letters))
    if list(map(table.get, keys)) != letters:
        return None
    return list(map(table.get, range(len(table))))


def reduce_range(code):
    """Smallest-range code equal to this one on the subshift.

    A code of range R > 0 has a table one range lower exactly when its
    output on each window w is a function of w[1:-1] (`_middles`), whose
    rank covers L_{2R-1} as a language extends on both sides.
    """
    while code.radius > 0:
        groups = _forced(_middles(code.spec, 2 * code.radius + 1), code.outputs)
        if groups is None:
            return code
        code = BlockCode._of(code.spec, code.radius - 1, groups)
    return code


def equal_on_shift(spec, a, b):
    """Equality as maps on X: the reduced codes (`reduce_range`) share the
    range and the outputs, as a map's table at its minimal range is unique."""
    _check_inputs(spec, (a, b))
    a, b = reduce_range(a), reduce_range(b)
    return a.radius == b.radius and a.outputs == b.outputs


class AutomorphismCert(NamedTuple):
    code: BlockCode
    inverse: BlockCode
    r_certified: int


class CertifyResult(NamedTuple):
    status: str  # "certified" | "unknown" | "not-endomorphism"
    cert: AutomorphismCert | None = None
    witness: tuple | None = None  # (word, image) leaving the language


def find_inverse(spec, code, r_max):
    """Search ranges 0..r_max for a two-sided inverse; None is inconclusive.

    At each candidate range r the inverse table is forced: the centre of
    a preimage word of length m = 2(r+R)+1 (`_centres`) must be a
    function of its image window, ranked in L_{2r+1} by level m of one
    lazy `_image_ranks` pass (`_forced`).  Conflicting constraints rule
    the range out, and so does a key set other than L_{2r+1}: an image
    outside the language (a KeyError from the pass) has no window in an
    inverse's table, and a language window that is no image leaves fewer
    than |L_{2r+1}| keys.  A consistent forced table is a left inverse by
    construction (its value on each image is the centre of every
    preimage), so only code after candidate is checked: on every word of
    L_m, the code applied to the candidate's image must give back the
    centre letter, an image outside the language failing the range.  At
    r = R that pass slides over the same words as the code's, so it reads
    the same source walk and only folds the candidate's outputs.  The
    candidate's image leaves the language for the centre flip of the golden
    mean, no endomorphism, at r = 0 (000 goes to 111); the back check fails
    at r = 1 on the SFT without 001 for `u[0] if u[1] == "0" else u[2]`, an
    endomorphism that is not onto (no image holds 1100).

    A key-set failure persists at every higher range, so the search stops
    there: languages extend on both sides, and each image at range r+1
    holds at its centre the image at range r of its source's centred
    subword.  So an image outside L_{2r+1}, or a word of L_{2r+1} that is
    no image, is the centre of such a word at range r+1.
    """
    _check_inputs(spec, (code,), r_max)
    span = 2 * code.radius + 1
    images = _image_ranks(code, span + 2 * r_max)
    passes = itertools.islice(images, 0, None, 2)
    for r, centres in zip(range(r_max + 1), itertools.islice(_centres(spec), code.radius, None)):
        try:
            forced = _forced(next(passes), centres)
        except KeyError:
            return None
        if r == r_max:
            images.close()  # its level lists are spent: free them before the candidate's pass
        if forced is None:
            continue
        if len(forced) != spec.count_words(2 * r + 1):
            return None
        candidate = BlockCode._of(spec, r, forced)
        try:
            for back in _image_ranks(candidate, span + 2 * r):
                pass
        except KeyError:
            continue
        if all(map(eq, map(code.outputs.__getitem__, back), centres)):
            return candidate
    return None


def _endomorphism_witness(spec, code):
    """A language word whose image leaves the language, or None.

    A walk over the compiled automaton rows decides it on every backend.
    A source word of length n+2R carries a key: its automaton state, the
    rank in L_{2R} of its last 2R letters (a one-to-one relabelling of
    the letters, so the witness is unchanged) and the automaton state of
    its length-n image.  Each step appends one image letter, the output
    on the last 2R+1 letters, whose rank the trie's level 2R+1 gives.
    Words with equal keys have the same extensions with the same
    verdicts, so each key is expanded once, by the canonically first word
    reaching it on the first level it appears, and the walk stops when a
    level brings no new key; there are finitely many keys.

    The walk starts from the keys of L_{2R} in rank order, read off the
    trie, and holds no word: each new key links to the key it was reached
    from and the letter appended (`links`).  Only a failing word is
    rebuilt, along its links back to L_{2R} and the word of that rank.

    The witness is the canonically first word of the shortest failing
    length, the one a scan of every word would find.  Every prefix of that
    word holds a key new at its level: otherwise a shorter failing word,
    or a canonically earlier one, would exist.  So every prefix is
    expanded, and extensions come in canonical order (parent, then letter).
    """
    rows = spec._rows
    span = 2 * code.radius + 1
    levels = code.spec._levels(span)
    ext, tail, _ = levels[span]
    outputs = code.outputs
    level = [(s, j, 0) for j, s in enumerate(levels[span - 1][2])]  # L_{2R} by rank
    links = dict.fromkeys(level)  # key -> (parent key, letter); None on L_{2R}
    while level:
        nxt = []
        for key in level:
            s, j, t = key
            windows = ext[j]
            for a, s2 in rows[s].items():
                k = windows[a]
                t2 = rows[t].get(outputs[k])
                if t2 is None:
                    word = _linked_word(code, links, key, a)
                    return word, apply_to_word(code, word)
                grown = (s2, tail[k], t2)
                if grown not in links:
                    links[grown] = (key, a)
                    nxt.append(grown)
        level = nxt
    return None


def _linked_word(code, links, key, a):
    """The source word of the key, by its links back to L_{2R}, then a."""
    letters = [a]
    while links[key] is not None:
        key, b = links[key]
        letters.append(b)
    prefix = code.spec.words(2 * code.radius)[key[1]] if code.radius else ()
    return prefix + tuple(reversed(letters))


def certify_automorphism(spec, code, r_max):
    """Decided endomorphism check, then inverse search up to range r_max.

    Code and inverse must both pass the endomorphism check, which is
    exact, so success is a sound certificate on every backend.
    "unknown" is inconclusive; an image word leaving the language is a
    definitive rejection.
    """
    _check_inputs(spec, (code,), r_max)
    witness = _endomorphism_witness(spec, code)
    if witness is not None:
        return CertifyResult("not-endomorphism", witness=witness)
    inverse = find_inverse(spec, code, r_max)
    if inverse is None or _endomorphism_witness(spec, inverse) is not None:
        return CertifyResult("unknown")
    cert = AutomorphismCert(code, inverse, max(code.radius, inverse.radius))
    return CertifyResult("certified", cert=cert)


def _periodic_windows(spec, radius, top):
    """(p, Per_p, ranks) for each p = 1..top with Per_p, the words u of L_p
    with u^infinity in X, not empty; `ranks` holds the ranks in L_{2R+1}
    of the windows of each u^infinity centred at 0..p-1, u after u."""
    span = 2 * radius + 1
    rank = {w: k for k, w in enumerate(spec.words(span))}
    periodic = []
    for p in range(1, top + 1):
        points, ranks = set(), []
        for u in spec.words(p):
            if spec.contains_config(Configuration.periodic(u)):
                points.add(u)
                stretch = tuple(u[c % p] for c in range(-radius, radius + p))  # on -R..R+p-1
                ranks.extend(rank[stretch[i:i + span]] for i in range(p))
        if points:  # every table permutes an empty Per_p, and `_gather` needs an index
            periodic.append((p, points, ranks))
    return periodic


def enumerate_automorphisms(spec, radius, table_cap=1_000_000):
    """All of Aut_R(X) over rule tables, canonically ordered.

    The tables are walked in `itertools.product` order, and a table is
    certified only when it permutes Per_p, the points of period p, for
    every p = 1..2R+2 (`_periodic_windows`): the image of u^infinity is
    v^infinity, v_i the output on its window centred at i, so the test is
    that the v of Per_p are Per_p.  Nothing certifiable is skipped.  A
    certified table is an automorphism, as `certify_automorphism` is
    sound: a bijection phi of X with phi(sigma x) = sigma(phi x).  So
    sigma^p x = x gives sigma^p phi(x) = phi(x), and phi maps the finite
    set Per_p one-to-one into itself, onto it.  A table failing the test
    for some p is no automorphism, and would not have certified.

    Periods past c = |L_{2R+1}| are not listed, as their tests follow from
    the others.  Only c <= 2R+1 cuts any.  A point of least period q
    carries at least min(n+1, q) words of length n (Morse-Hedlund: the
    count grows until it reaches q), so with n = 2R+1 every periodic
    point has least period q <= c.  Per_p is then the disjoint union of
    the Q_d, the points of least period d, over d | p with d <= c, and a
    table that permutes Per_d for every d <= c permutes each such Q_d
    (Per_d minus the Per_e, e | d, e < d, each permuted), so Per_p too.
    This keeps a finite shift at a large range from listing Per_p for
    every p up to 2R+2.
    """
    if radius < 0:
        raise ValueError("range must be >= 0")
    span, letters = 2 * radius + 1, len(spec.alphabet)
    # 2^W > cap once W > cap.bit_length(), so a count capped at 10^99 refuses before any power
    windows = spec._count_below(span, 10 ** 99)
    if (letters > 1 and windows > table_cap.bit_length()) or letters ** windows > table_cap:
        size = letters ** windows if windows < 15_000 else 10 ** 4300  # str() takes 4,300 digits
        raise SearchSpaceError(size if size < 10 ** 4300 else f"{letters}^" + (
            str(windows) if windows < 10 ** 99 else "(over 10^99)"), table_cap)
    periodic = _periodic_windows(spec, radius, min(2 * radius + 2, windows))

    def permutes(values):
        # the outputs on all windows of Per_p in one gather, cut into the words v
        return all(set(zip(*[iter(_gather(values, ranks))] * p)) == points
                   for p, points, ranks in periodic)

    certs = []
    # each table holds one alphabet letter per window of L_{2R+1}, by rank: nothing to check
    for values in filter(permutes, itertools.product(spec.alphabet.letters, repeat=windows)):
        result = certify_automorphism(spec, BlockCode._of(spec, radius, list(values)), radius)
        if result.status == "certified":
            certs.append(result.cert)
    return tuple(certs)


def preserves_occurrences(spec, code, target, anchors=None):
    """Whether the code maps the cylinder of `target` into itself.

    Plain form: every language word with `target` centered maps onto
    `target`.  Relative form (anchors = (words, D)): the same, restricted
    to occurrences whose D-stretch around the target avoids every anchor;
    the plain form is the relative one with no anchors and D = 0.  Both
    read E_{R+D} of `complexity._centred` (empty for a target outside L).
    The empty target holds at every range: its carriers' images are empty.
    """
    _check_inputs(spec, (code,))
    target = tuple(target)
    radius = code.radius
    if anchors is not None and len(target) <= 2 * radius:
        raise ValueError("relative form needs |target| > 2R")
    anchor_words, dist = ((), 0) if anchors is None else anchors
    if dist < 0:
        raise ValueError("anchor distance must be >= 0")
    if not target:
        return True
    anchor_words = [tuple(w) for w in anchor_words]
    for u in next(itertools.islice(_centred(spec, target), radius + dist, None)):
        # u[radius:len(u) - radius] is the D-stretch around the target
        if (not any(occurrences(u[radius:len(u) - radius], a) for a in anchor_words)
                and apply_to_word(code, u)[dist:dist + len(target)] != target):
            return False
    return True


def coset_count(spec, radius_n, chain):
    """f(n): distinct tuples of anchor images over Aut_n(X) at the chain range R:
    each code's slide at its own range, cut by R - n letters at each end."""
    anchors = chain.anchors()
    if not anchors:
        raise InvalidChainError("chain has no levels")
    if radius_n > chain.range_r:
        raise ValueError("n must embed into the chain's range")
    cut = chain.range_r - radius_n
    signatures = set()
    for cert in enumerate_automorphisms(spec, radius_n):
        images = (apply_to_word(cert.code, a) for a in anchors)
        signatures.add(tuple(image[cut:len(image) - cut] for image in images))
    return len(signatures)


class ClosureResult(NamedTuple):
    status: str  # "ok" | "cap-exceeded"
    elements: tuple | None  # BlockCodes: identity, the steps, then each sphere


def subgroup_closure(spec, gens, cap):
    """Close gens and their inverses under composition modulo equality on X.

    Each element is kept at its reduced range.  A `reduce_range` step
    succeeds exactly when the map has a table one range lower, so the
    descent stops at the map's minimal range, where its table is unique:
    two reduced codes are the same map on X exactly when they share the
    range and the outputs in canonical window order, and that pair is
    the key of a set of known maps.

    The steps are the distinct generators and inverses.  The search is
    breadth first: every step is applied after each element of the
    newest sphere, and the search stops when a sphere brings nothing new.
    Since the steps are closed under inverses, this reaches exactly the
    subgroup they generate.  Elements come in the order identity, the
    steps in the given order, then each sphere in discovery order.  The
    step is the outer code: `compose`'s pass over the inner images takes
    only 2R steps, from the inner window length 2R'+1 up to 2(R+R')+1, R
    the step's small range, with the element inside.
    """
    gens = tuple(gens)
    _check_inputs(spec, [code for cert in gens for code in (cert.code, cert.inverse)])
    elements = []
    keys = set()

    def add(code):
        code = reduce_range(code)
        key = (code.radius, tuple(code.outputs))
        if key in keys:
            return False
        keys.add(key)
        elements.append(code)
        return True

    add(BlockCode.identity(spec, 0))
    for cert in gens:
        add(cert.code)
        add(cert.inverse)
    if len(elements) > cap:
        return ClosureResult("cap-exceeded", None)
    steps = sphere = elements[1:]
    while sphere:
        known = len(elements)
        for a in sphere:
            for step in steps:
                if add(compose(step, a)) and len(elements) > cap:
                    return ClosureResult("cap-exceeded", None)
        sphere = elements[known:]
    return ClosureResult("ok", tuple(elements))


class FreeSemigroupReport(NamedTuple):
    status: str  # "free-to-depth" | "collision"
    depth: int
    words: tuple  # generator words over ("a", "b"), canonical order
    collision: tuple | None  # the first equal pair, when not free


def semigroup_words(depth):
    out = []
    for n in range(1, depth + 1):
        out.extend(itertools.product("ab", repeat=n))
    return tuple(out)


def _gather(table, index):
    """The tuple of table[k] for k in a non-empty index, looked up at C speed."""
    found = itemgetter(*index)(table)
    return found if len(index) > 1 else (found,)  # a lone item comes back bare


def certify_free_semigroup(spec, a_cert, b_cert, depth):
    """Pairwise-distinctness check of all generator words up to the depth.

    Freeness here means: distinct words in the two generators give
    distinct maps on the subshift.  The verdict is always relative to
    the depth, never an unconditional claim.

    The words are the nodes of a suffix trie, g+w being the child of w
    (the leftmost factor acts last).  A node is (m, ranks): the rank in
    L_m of the image of each window of L_n, n = 2*top+1, top the largest
    range of a product.  A child under a generator of range R gathers
    from level m of the generator's one `_image_ranks` pass to n, and its
    fingerprint from the centre letters of L_{m-2R} (`_centres`): its rule
    table padded to range top, so two words are the same map on X exactly
    when their fingerprints agree.  The collision reported is the first
    pair in the pairwise scan order: u the canonically first word that
    has a later equal, v the first such later word.

    A word of L_m, m <= n, is a factor of a word of L_n (a language
    extends on both sides), and so is its image.  So a generator's pass
    raises, and `RuleIncompleteError` names it, exactly when it maps a
    word of L_n outside the language; otherwise the result is exact.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    gens = (a_cert.code, b_cert.code)
    _check_inputs(spec, gens)
    words = semigroup_words(depth)
    top = depth * max(code.radius for code in gens)
    n = 2 * top + 1
    steps = []  # per generator: m -> `_image_ranks` table of L_m
    for name, code in zip("ab", gens):
        levels = range(2 * code.radius + 1, n + 1, 2)
        try:
            steps.append(dict(zip(levels, itertools.islice(_image_ranks(code, n), 0, None, 2))))
        except KeyError:
            raise RuleIncompleteError(
                f"generator {name} maps a word of L_{n} outside the language") from None
    centres = dict(zip(range(1, n + 1, 2), _centres(spec)))
    level = [(n, tuple(range(len(centres[n]))))]
    prints = []
    for _ in range(depth):
        # the next length in canonical order: "a"+w for each w, then "b"+w
        nxt = []
        for code, step in zip(gens, steps):
            for m, node in level:
                child_m = m - 2 * code.radius
                child = _gather(step[m], node)
                nxt.append((child_m, child))
                prints.append(_gather(centres[child_m], child))
        level = nxt
    first = {}
    pairs = ((first.setdefault(fingerprint, j), j) for j, fingerprint in enumerate(prints))
    collision = min((pair for pair in pairs if pair[0] != pair[1]), default=None)
    if collision:
        return FreeSemigroupReport("collision", depth, words, tuple(words[k] for k in collision))
    return FreeSemigroupReport("free-to-depth", depth, words, None)


def commutator(a, b, a_inv, b_inv):
    """a o b o a^-1 o b^-1 as a block code; range is the sum of ranges."""
    return compose(a, compose(b, compose(a_inv, b_inv)))


# -- strict JSON interface ---------------------------------------------------

_CODE_KEYS = {"range", "alphabet", "rule"}


def _string_letters(spec):
    """Whether rule keys join the letters with commas; else each key is the
    compact JSON array of its window (pair letters, nested in products, or
    a letter that holds a comma)."""
    return all(isinstance(a, str) and "," not in a for a in spec.alphabet.letters)


def code_to_json(code):
    key = functools.partial(json.dumps, separators=(",", ":"))
    if _string_letters(code.spec):
        key = ",".join
    return {"range": code.radius,
            "alphabet": list(code.spec.alphabet.letters),
            "rule": {key(w): letter for w, letter in
                     zip(code.spec.words(2 * code.radius + 1), code.outputs)}}


def parse_code(spec, obj, where="code"):
    """Strict block-code parser with a completeness check against L_{2R+1}(X)."""
    _check_keys(obj, _CODE_KEYS, where)
    radius = obj["range"]
    if not isinstance(radius, int) or isinstance(radius, bool) or radius < 0:
        raise SpecFormatError(f"{where}.range: expected an integer >= 0")
    if _read_word(spec.alphabet, obj["alphabet"], f"{where}.alphabet") != spec.alphabet.letters:
        raise SpecFormatError(f"{where}.alphabet: does not match the subshift alphabet")
    if not isinstance(obj["rule"], dict) or not obj["rule"]:  # an empty rule leaves `range` free
        raise SpecFormatError(f"{where}.rule: expected a nonempty object")
    strings, letters = _string_letters(spec), set(spec.alphabet.letters)
    rule = {}
    for key, value in obj["rule"].items():
        if strings:
            window = key.split(",")
        else:
            try:
                window = json.loads(key)
            except (ValueError, RecursionError):
                window = None
            if not isinstance(window, list):
                raise SpecFormatError(f"{where}.rule[{key!r}]: expected a JSON array of letters")
        if len(window) != 2 * radius + 1:
            raise SpecFormatError(f"{where}.rule[{key!r}]: window length != 2R+1")
        if not strings:
            window = _read_word(spec.alphabet, window, f"{where}.rule[{key!r}]")
        elif not letters.issuperset(window):  # a string window's letters, as one set
            _read_word(spec.alphabet, window, f"{where}.rule[{key!r}]")  # names the letter
        letter = _as_letter(value)
        if letter not in spec.alphabet:
            raise SpecFormatError(f"{where}.rule[{key!r}]: letter {value!r} not in alphabet")
        rule[tuple(window)] = letter
    try:
        return BlockCode(spec, radius, rule)
    except ValueError as exc:
        raise SpecFormatError(f"{where}: {exc}") from None
