"""Subshift backends answering all language queries exactly.

Three finite descriptions are supported:

* SFT: forbidden finite words, answered through the Aho-Corasick automaton
  of the forbidden words, its states with a forbidden suffix dropped and
  the rest trimmed by `_prune` to the live states.  Membership in the
  language means occurrence in a bi-infinite point; merely avoiding the
  forbidden words is not enough, which is why the automaton is trimmed
  until every state has an incoming and an outgoing edge.
* Sparse: a background letter plus families of marker multisets; points
  are all-background except for finitely many markers forming a
  sub-multiset of one family.
* Product: letterwise Cartesian product of two subshifts over the pair
  alphabet.

Each backend presents its language by one deterministic automaton
(Lind-Marcus, Symbolic Dynamics and Coding, 3.3-3.4): a word is in the
language exactly when its run from the start state never falls off.  The
states are the sets of live AC states a word can end in (SFT); the sorted
marker multisets in the downset of the families (sparse); pairs of the
factors' compiled states (product).  Compiled once into integer rows in
alphabet order, the automaton answers `words` by joining runs of half the
length, which emits canonical order (alphabet index, then lexicographic)
without sorting; `count_words` by one dynamic program over the states,
advanced from the longest length counted so far; `contains` by a run; and
`contains_config`, for every backend's eventually periodic points
...l l c r r..., by the run of l^N c r^N, N the number of states (N copies
of a tail pass some state twice).  `_levels` grows the language trie from
the rows, each word of L_j ranked canonically by its parent in L_{j-1} and
its letter, with the rank of its tail and its state; block codes slide,
compose and reduce on these ranks.  A word's state row lists its
extensions in the order that ranks them, so a slide extends its source
words by their states and grows the trie only to its window and image
lengths.  `_sources` keeps that source side once per window length, grown
one level per read: each word's parent and the rank of its last window,
which every code of that range reads.  `_live` prunes the rows to the
states on bi-infinite paths, whose labels are the points, by the `_prune`
loop that also trims the SFT's AC automaton; `_into` reverses the rows,
for the left side of `complexity.extension_radius`.  An SFT whose AC
automaton prunes away, and a product with an empty factor, is the empty
subshift: it has no automaton, so `_rows` refuses every read of its
language, while `contains`, `count_words` and `contains_config` answer
without one.
"""

import collections
import functools
import hashlib
import io
import itertools
import json

from .errors import EmptySubshiftError, SpecFormatError
from .words import Alphabet


class SubshiftSpec:
    """Common surface of all backends.  Instances are immutable.

    A backend supplies `_next(state, letter)`, None when the letter cannot
    follow, `_start()` if its start state is not the empty tuple,
    `descriptor()`, its canonical plain-data description (the JSON form),
    and `_forbid(word)` if it can forbid a word.
    """

    def __init__(self, alphabet):
        self.alphabet = alphabet
        self.is_empty = False
        self._word_cache = {}
        self._trie = [([dict.fromkeys(alphabet.letters, 0)], [0], [0])]  # L_0, see `_levels`
        self._walks = {}  # span -> `_sources` levels
        self._counts = [1]  # |L_m| for every m counted so far; L_0 holds the empty word
        self._front = None  # path counts per state at the longest length counted
        self._forbids = {}  # word -> this spec with it forbidden, see `chains.forbid`

    # -- language queries ------------------------------------------------

    def _start(self):
        return ()

    @functools.cached_property
    def _rows(self):
        """Rows of the compiled automaton: state 0 is the start, and row s
        maps each allowed letter, in alphabet order, to its target state.
        The empty subshift has none: every read of its language fails here."""
        if self.is_empty:
            raise EmptySubshiftError("empty subshift has no language")
        states = [self._start()]
        index = {states[0]: 0}
        rows = []
        for state in states:
            row = {}
            for a in self.alphabet.letters:
                nxt = self._next(state, a)
                if nxt is not None:
                    if nxt not in index:
                        index[nxt] = len(states)
                        states.append(nxt)
                    row[a] = index[nxt]
            rows.append(row)
        return rows

    @functools.cached_property
    def _into(self):
        """The compiled rows reversed: `_into[t]` maps each letter a to the
        states s whose row has s -a-> t, in state order."""
        into = [{} for _ in self._rows]
        for s, row in enumerate(self._rows):
            for a, t in row.items():
                into[t].setdefault(a, []).append(s)
        return into

    @functools.cached_property
    def _live(self):
        """`_prune` of the compiled rows: (rows, in_degree) of the live states."""
        return _prune(dict(enumerate(self._rows)))

    def _forbid(self, word):
        """The spec with the nonempty `word` forbidden, built in the backend's
        own class (see `chains.forbid`); a backend without a rule refuses."""
        raise ValueError(f"forbid is not supported for {type(self).__name__} specs")

    def words(self, n):
        """All words of length n in the language, canonically sorted.

        L_n is joined from runs of half the length (see `_runs`).  The
        halves come in canonical order and all have equal length, so the
        order of the pairs (u, v) is the canonical order of the words u+v,
        and no sort is needed.
        """
        if n not in self._word_cache:
            rows = self._rows
            if n < 1:
                raise ValueError("word length must be >= 1")
            if n == 1:
                words = [(a,) for a in rows[0]]
            else:
                memo, half = {}, n // 2
                words = [u + v for u, s in _runs(rows, memo, 0, n - half)
                         for v, _ in _runs(rows, memo, s, half)]
            self._word_cache[n] = tuple(words)
        return self._word_cache[n]

    def _levels(self, n):
        """The language trie to length n: `levels[j]` is (ext, tail, states)
        of L_j for j <= n (the cached list may hold more).

        `ext[p][a]` is the rank of u+(a,) for u of rank p in L_{j-1}, `tail[k]`
        the rank of w[1:] in L_{j-1} and `states[k]` the automaton state of
        w, for w of rank k.  L_j is the words of L_{j-1} extended by the
        letters of their states' rows, made in parent order and then row
        (alphabet) order, so the ranks are canonical.  For w = u+(a,),
        w[1:] = u[1:]+(a,), so tail[k] is read off the level below as
        ext_{j-1}[tail_{j-1}[p]][a].  L_0 = {()}, at the start state, is its
        own tail, and its one ext row, a sentinel, maps every letter to 0,
        the rank of (); so L_1 is built by the same step.
        """
        levels = self._trie
        rows = self._rows
        while len(levels) <= n:
            up_ext, up_tail, up_states = levels[-1]
            ext, tail, states = [], [], []
            k = 0  # rank of the next word of L_j
            for s, q in zip(up_states, up_tail):
                shifted = up_ext[q]  # ranks of u[1:]+(a,), for u[1:] of rank q
                row = {}
                for a, t in rows[s].items():
                    row[a] = k
                    k += 1
                    states.append(t)
                    tail.append(shifted[a])
                ext.append(row)
            levels.append((ext, tail, states))
        return levels

    def _sources(self, span, n):
        """The source walk of every slide with windows of length `span`, to
        length n: `walk[m - span]` is (parent, last, states) of L_m for
        span <= m <= n (the cached list may hold more), read off the trie's
        L_span and no longer level.

        For the word w of rank k, `parent[k]` is the rank of w[:-1] in
        L_{m-1} and `last[k]` the rank of its last `span` letters in L_span;
        `states`, the automaton states, are kept on the longest level only,
        to grow the next.  At m = span, `parent` is None and `last` the
        identity.  A word u extends by the letters a of its state's row, in
        the order `_levels` ranks them, and the last window of u+(a,) is
        u's with its first letter dropped and a appended: ext[tail[j]][a],
        j the last-window rank of u and ext, tail the trie's L_span.  The
        walk depends on the spec and the span alone, so every code of that
        range reads the same levels.
        """
        walk = self._walks.get(span)
        if walk is None:
            _, tail, states = self._levels(span)[span]
            walk = self._walks[span] = [(None, range(len(tail)), states)]
        if len(walk) + span <= n:
            rows = self._rows
            ext, tail, _ = self._trie[span]
            letters_of = [tuple(row) for row in rows]
            targets_of = [tuple(row.values()) for row in rows]
        while len(walk) + span <= n:
            parent_up, last_up, states = walk[-1]
            walk[-1] = (parent_up, last_up, None)
            parent, last = [], []
            for p, (j, s) in enumerate(zip(last_up, states)):
                windows = ext[tail[j]]
                for a in letters_of[s]:
                    parent.append(p)
                    last.append(windows[a])
            walk.append((parent, last,
                         list(itertools.chain.from_iterable(map(targets_of.__getitem__, states)))))
        return walk

    def count_words(self, n):
        """|L_n|; 1 for n <= 0 (the empty word); 0 for the empty subshift.
        Read off the one DP of `_count_below`, uncapped, which keeps every
        length it counts."""
        return self._count_below(n, None)

    def _count_below(self, n, cap):
        """|L_n| if it is below cap (or cap is None), else some |L_m| >= cap
        with m <= n, as |L_n| never decreases in n.

        One dynamic program over the states: `_front[s]` is the number of
        paths of length m from the start state to s, m the longest length
        counted, and the automaton is deterministic, so paths and words
        correspond.  Each step keeps its total in `_counts`; a capped read
        stops at the first count that reaches the cap."""
        counts = self._counts
        if 0 < n < len(counts):  # the empty subshift counts nothing, so never here
            return counts[n]
        if self.is_empty:
            return 0
        if n <= 0:
            return 1
        rows = self._rows
        front = self._front or [1] + [0] * (len(rows) - 1)
        while len(counts) <= n and (cap is None or counts[-1] < cap):
            nxt = [0] * len(rows)
            for s, c in enumerate(front):
                if c:
                    for t in rows[s].values():
                        nxt[t] += c
            front = nxt
            counts.append(sum(front))
        self._front = front
        return counts[min(n, len(counts) - 1)]

    def contains(self, word):
        """Whether the word occurs in some bi-infinite point."""
        word = self.alphabet.check_word(word)
        if self.is_empty:
            return False
        rows = self._rows
        state = 0
        for a in word:
            state = rows[state].get(a)
            if state is None:
                return False
        return True

    def contains_config(self, config):
        """Whether the eventually periodic point ...l l c r r... lies in X:
        exactly when l^N c r^N is in L, N the number of compiled states.

        Only if: the point carries the word.  If: the point lies in X when
        every word it carries is in L, and each is a factor of some
        l^A c r^M.  Right tail: two of the N+1 states after l^N c r^j,
        j = 0..N, coincide, at j = i and i+p, so r^p loops there and, by
        factoriality, l^N c r^M is in L for every M.  Left tail: two of the
        states after l^i, i = 0..N, coincide, at i = a and a+p, so l^p loops
        at the state after l^a, from which l^(N-a) c r^M is read; so
        l^(N+k*p) c r^M is in L for every k, and by factoriality so is
        l^A c r^M for every A.  A letter outside the alphabet is a ValueError.
        """
        n = 1 if self.is_empty else len(self._rows)  # empty: only check letters
        return self.contains(config.left * n + config.center + config.right * n)

    def __eq__(self, other):
        """Specs are equal exactly when their canonical descriptors are."""
        return isinstance(other, SubshiftSpec) and self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash(repr(self.descriptor()))

    def __repr__(self):
        return f"<{type(self).__name__} {self.descriptor()!r}>"


def _runs(rows, memo, state, k):
    """Runs of length k >= 1 from `state`, as (word, end state) in canonical order.

    A run of length k is a run of length k - k//2 joined to a run of length
    k//2 from that half's end state; runs of length 1 are the row itself.
    `memo` maps (state, k) to the runs and lives for one `words` call.
    """
    key = (state, k)
    runs = memo.get(key)
    if runs is None:
        if k == 1:
            runs = [((a,), t) for a, t in rows[state].items()]
        else:
            half = k // 2
            runs = [(u + v, t) for u, s in _runs(rows, memo, state, k - half)
                    for v, t in _runs(rows, memo, s, half)]
        memo[key] = runs
    return runs


def _prune(automaton):
    """(rows, in_degree) of the part of a labelled automaton on bi-infinite
    paths.

    `automaton` maps states to rows, letter -> target.  A state with no edge
    in or no edge out among the kept states is dropped; its edges come off
    the degrees of its kept neighbours (`sources` lists the edges in), and
    one left at degree 0 is dropped in turn, so each edge comes off once.
    `rows` keeps the automaton's order and the kept targets, `in_degree`
    counts the kept edges into each kept state.
    """
    sources = {s: [] for s in automaton}
    for s, row in automaton.items():
        for t in row.values():
            sources[t].append(s)
    in_degree = {s: len(edges) for s, edges in sources.items()}
    out_degree = {s: len(row) for s, row in automaton.items()}
    dead = [s for s in automaton if not in_degree[s] or not out_degree[s]]
    alive = set(automaton).difference(dead)
    while dead:
        s = dead.pop()
        for degree, ends in ((in_degree, automaton[s].values()), (out_degree, sources[s])):
            for t in ends:
                if t in alive:
                    degree[t] -= 1
                    if not degree[t]:
                        alive.remove(t)
                        dead.append(t)
    rows = {s: {a: t for a, t in row.items() if t in alive}
            for s, row in automaton.items() if s in alive}
    return rows, {s: in_degree[s] for s in rows}


class SftSpec(SubshiftSpec):
    """Shift of finite type, read through the Aho-Corasick automaton of its
    forbidden words F (Aho-Corasick, CACM 18(6), 1975), trimmed.

    The AC states are the prefixes of F; d(p, a) is the longest suffix of
    p+(a,) that is a prefix, found breadth-first through failure links, so
    reading a word from p ends in the longest suffix of p+word that is a
    prefix.  The states with a suffix in F are dropped and `_prune` keeps
    the live rest, `_live_ac` (state -> {letter: target}); the spec is
    empty when none survives.  The language is read by the subset
    construction (Lind-Marcus 3.3): `_start()` is the set of live states,
    `_next(S, a)` the set of their live a-targets, None when empty.

    (a) Same language.  Reading f in F from any state p ends in a suffix of
    p+f that is a prefix at least as long as f, so with suffix f: dropped.
    So kept paths avoid F, and bi-infinite live paths read points of X.
    For x in X, let s_i be the longest suffix of x(-inf, i] that is a
    prefix; one of length k > 0 ends a prefix-suffix of x(-inf, i-1] of
    length k-1, so d(s_{i-1}, x_i) = s_i.  A suffix of s_i in F would
    occur in x, so the s_i form a bi-infinite kept path reading x, and it
    is live.  Live paths are stretches of bi-infinite ones, so their
    labels, the words read from the start set, are L(X).

    (b) Polynomial size.  There are at most 1 + |proper prefixes of F| +
    |distinct nonempty factors of F| compiled states.  Each is the set S_u
    read from the start by some word u; its states are the longest
    suffixes of p+u, p live, that are prefixes.  If u is a factor of no
    word of F, such a state is shorter than u (else u would be a factor of a prefix), so it
    is P(u), the longest suffix of u that is a prefix: S_u is {P(u)}, P(u)
    a live proper prefix, or nothing.  Otherwise u is empty (the start) or
    one of the nonempty factors.
    """

    def __init__(self, alphabet, forbidden):
        super().__init__(alphabet)
        canon = [alphabet.check_word(f) for f in forbidden]
        if () in canon:
            raise ValueError("forbidden words must be nonempty")
        canon = sorted(set(canon), key=lambda w: (len(w), alphabet.word_key(w)))
        self.forbidden = tuple(canon)
        letters, forbidden = alphabet.letters, set(canon)
        prefixes = {()} | {f[:i] for f in canon for i in range(1, len(f) + 1)}
        rows, fail, kept = {}, {}, set()
        for p in sorted(prefixes, key=len):  # breadth-first: failure links point shorter
            back = rows[fail[p]] if p else dict.fromkeys(letters, ())
            if p not in forbidden and (not p or fail[p] in kept):
                kept.add(p)  # no suffix of p is forbidden
            rows[p] = row = dict(back)  # d(p, a) = d(fail(p), a) unless p+(a,) is a prefix
            for a in letters:
                if (grown := p + (a,)) in prefixes:
                    fail[grown], row[a] = back[a], grown
        self._live_ac, _ = _prune({p: {a: t for a, t in rows[p].items() if t in kept}
                                   for p in rows if p in kept})
        self.is_empty = not self._live_ac

    def _start(self):
        return frozenset(self._live_ac)

    def _next(self, state, a):
        rows = self._live_ac
        return frozenset(t for p in state if (t := rows[p].get(a)) is not None) or None

    def _forbid(self, word):
        return SftSpec(self.alphabet, self.forbidden + (word,))

    # bench/tracing.py traces contains_config per backend class; the bindings
    # go once it traces SubshiftSpec.contains_config by name (ROADMAP item 22)
    contains_config = SubshiftSpec.contains_config

    def descriptor(self):
        return {"kind": "sft",
                "alphabet": list(self.alphabet.letters),
                "forbidden": [list(f) for f in self.forbidden]}


class SparseSpec(SubshiftSpec):
    """Sparse-marker subshift over a background letter.

    A word is in the language iff its non-background letters, with
    multiplicity, form a sub-multiset of one of the families.  The empty
    family is always implicitly present, so a sparse spec is never empty.
    """

    def __init__(self, alphabet, background, families):
        super().__init__(alphabet)
        if background not in alphabet:
            raise ValueError("background letter not in alphabet")
        self.background = background
        canon = set()
        for fam in families:
            fam = alphabet.check_word(fam)
            if background in fam:
                raise ValueError("marker equal to background rejected")
            canon.add(tuple(sorted(fam, key=alphabet._index.__getitem__)))
        canon.discard(())
        self.families = tuple(sorted(canon, key=lambda f: (len(f), alphabet.word_key(f))))
        # the downset: dropping one marker from a sorted multiset keeps it sorted
        self._downset, frontier = set(), set(self.families)
        while frontier:
            self._downset |= frontier
            frontier = {f[:i] + f[i + 1:] for f in frontier for i in range(len(f))} - self._downset

    def _next(self, state, a):
        if a == self.background:
            return state
        grown = tuple(sorted(state + (a,), key=self.alphabet._index.__getitem__))
        return grown if grown in self._downset else None

    def _forbid(self, word):
        markers = collections.Counter(a for a in word if a != self.background)
        if not markers:
            return empty_sft(self.alphabet)
        keep = [f for f in self.families if not markers <= collections.Counter(f)]
        return SparseSpec(self.alphabet, self.background, keep)

    contains_config = SubshiftSpec.contains_config  # traced per class, see SftSpec

    def descriptor(self):
        return {"kind": "sparse",
                "alphabet": list(self.alphabet.letters),
                "background": self.background,
                "families": [list(f) for f in self.families]}


class ProductSpec(SubshiftSpec):
    """Letterwise Cartesian product over the pair alphabet; empty exactly
    when a factor is, as a pair of points needs a point of each factor.
    Its states are pairs of the factors' compiled states."""

    def __init__(self, left, right):
        pairs = tuple((a, b) for a in left.alphabet.letters for b in right.alphabet.letters)
        super().__init__(Alphabet(pairs))
        self.factor_left = left
        self.factor_right = right
        self.is_empty = left.is_empty or right.is_empty

    def _start(self):
        return (0, 0)

    def _next(self, state, a):
        left = self.factor_left._rows[state[0]].get(a[0])
        right = self.factor_right._rows[state[1]].get(a[1])
        return None if left is None or right is None else (left, right)

    contains_config = SubshiftSpec.contains_config  # traced per class, see SftSpec

    def descriptor(self):
        return {"kind": "product",
                "factors": [self.factor_left.descriptor(),
                            self.factor_right.descriptor()]}


def empty_sft(alphabet):
    """Canonical empty subshift over the alphabet (all letters forbidden)."""
    return SftSpec(alphabet, [(a,) for a in alphabet.letters])


# -- strict JSON interface ------------------------------------------------

_SPEC_KEYS = {
    "sft": {"kind", "alphabet", "forbidden"},
    "sparse": {"kind", "alphabet", "background", "families"},
    "product": {"kind", "factors"},
}


def _read_json(path):
    """(JSON value, sha256 of the bytes parsed) of an input file, read once;
    an unreadable file, invalid JSON or a key repeated in an object (the
    file would say two things) is a SpecFormatError."""

    def unique(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            key = next(k for k, n in collections.Counter(k for k, _ in pairs).items() if n > 1)
            raise SpecFormatError(f"{path}: repeated key {key!r}")
        return obj

    try:
        with open(path, "rb") as fh:
            data = fh.read()
        # decoded as open(path, encoding="utf-8") decodes, so errors name the same positions
        value = json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"),
                          object_pairs_hook=unique)
    except OSError as exc:
        raise SpecFormatError(f"{path}: cannot read ({exc.strerror})") from None
    except (ValueError, RecursionError) as exc:  # also a UnicodeDecodeError, or nesting too deep
        raise SpecFormatError(f"{path}: invalid JSON ({exc})") from None
    return value, hashlib.sha256(data).hexdigest()


def _check_keys(obj, keys, where):
    """Reject anything but an object whose key set is exactly `keys`."""
    if not isinstance(obj, dict):
        raise SpecFormatError(f"{where}: expected an object")
    extra = set(obj) - keys
    if extra:
        raise SpecFormatError(f"{where}: unknown keys {sorted(extra)}")
    missing = keys - set(obj)
    if missing:
        raise SpecFormatError(f"{where}: missing keys {sorted(missing)}")


def _as_letter(obj):
    """A letter of a file: a string, or an array (or tuple) of letters as a tuple; else None."""
    if isinstance(obj, (list, tuple)):
        return tuple(map(_as_letter, obj))
    return obj if isinstance(obj, str) else None


def _read_word(alphabet, obj, where):
    """The word an input file names: a list of letters of the alphabet."""
    if not isinstance(obj, list):
        raise SpecFormatError(f"{where}: expected a word as a list of letters")
    word = tuple(map(_as_letter, obj))
    for a, raw in zip(word, obj):
        if a not in alphabet:
            raise SpecFormatError(f"{where}: letter {raw!r} not in alphabet")
    return word


def _parse_letters(obj, where):
    if not isinstance(obj, list) or not obj:
        raise SpecFormatError(f"{where}: expected a nonempty list of letters")
    for a in obj:
        if not isinstance(a, str):
            raise SpecFormatError(f"{where}: letters must be strings, got {a!r}")
    return obj


def parse_spec(obj, where="spec"):
    """Strict parser for the subshift spec JSON schema; unknown keys rejected."""
    if not isinstance(obj, dict):
        raise SpecFormatError(f"{where}: expected an object")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _SPEC_KEYS:
        raise SpecFormatError(f"{where}.kind: expected one of sft|sparse|product")
    _check_keys(obj, _SPEC_KEYS[kind], where)
    if kind == "product":
        factors = obj["factors"]
        if not isinstance(factors, list) or len(factors) != 2:
            raise SpecFormatError(f"{where}.factors: expected exactly two factor specs")
        left = parse_spec(factors[0], f"{where}.factors[0]")
        right = parse_spec(factors[1], f"{where}.factors[1]")
        return ProductSpec(left, right)
    try:
        alphabet = Alphabet(_parse_letters(obj["alphabet"], f"{where}.alphabet"))
        if kind == "sft":
            if not isinstance(obj["forbidden"], list):
                raise SpecFormatError(f"{where}.forbidden: expected a list of words")
            return SftSpec(alphabet, [_read_word(alphabet, w, f"{where}.forbidden[{i}]")
                                      for i, w in enumerate(obj["forbidden"])])
        background, = _read_word(alphabet, [obj["background"]], f"{where}.background")
        if not isinstance(obj["families"], list):
            raise SpecFormatError(f"{where}.families: expected a list of families")
        return SparseSpec(alphabet, background,
                          [_read_word(alphabet, f, f"{where}.families[{i}]")
                           for i, f in enumerate(obj["families"])])
    except ValueError as exc:
        # the alphabet's or a backend's own check; the SpecFormatErrors pass through
        raise SpecFormatError(f"{where}: {exc}") from None


def spec_digest(spec):
    """Stable hash of the canonical JSON description."""
    blob = json.dumps(spec.descriptor(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
