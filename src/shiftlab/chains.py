"""Descending chains of subshifts obtained by forbidding words.

Forbidding a word whose cylinder holds an aperiodic point costs at least
n-|w|+1 words of every length n >= |w| (the removal bound), which caps
the length of any chain built from words of bounded length.  A spec
keeps each shift it forbids, so the chain, removal and shadowing
analyses of one spec build every X(w) once and read it warm.  On top of
the chain sit the shadowing and syndeticity searches: how far from the
forbidden words a surviving word behaves as if the forbidding never
happened, read off the canonical lists of `complexity._centred`, and
how often some chain word must recur in every point, read off the words
free of chain words grown one letter at a time.
"""

import functools
import itertools
from typing import NamedTuple

from .errors import (
    CapExceededError,
    HypothesisError,
    InvalidChainError,
    NoAperiodicPointError,
    NoUniqueExtenderError,
)
from .complexity import AT_LEAST_CAP, _centred, extension_radius
from .subshifts import empty_sft


# -- forbidding a word -----------------------------------------------------

def forbid(spec, word):
    """The subshift spec with `word` forbidden.

    A nonempty word goes to the backend's `_forbid`.  `SftSpec` appends it
    to the forbidden list and re-prunes (exact).  `SparseSpec` drops every
    family that admits the word's marker multiset; forbidding an
    all-background word empties the shift, since every sparse point has
    arbitrarily long background runs.  The sparse result lies inside X(w):
    it is X(w) for an all-background word, for markers no family admits,
    and for a word (a,) exactly when each family holding a, less its a's,
    lies within a kept family; in general it is smaller: (1,) under the
    family (1, 2) loses the point with one 2 (ROADMAP item 4).  Any other
    backend, `ProductSpec` among them, raises ValueError.  Every point
    carries the empty word, so forbidding it empties every backend.

    The result is built once per word and kept in `spec._forbids`, so a
    second call returns the same object, its language reads already warm.
    The child lives exactly as long as its parent, like the parent's word
    lists, counts and trie; nothing is kept when `_forbid` raises.
    """
    word = spec.alphabet.check_word(word)
    if not word:
        return empty_sft(spec.alphabet)
    child = spec._forbids.get(word)
    if child is None:
        child = spec._forbids[word] = spec._forbid(word)
    return child


# -- aperiodic points in cylinders ------------------------------------------

def cylinder_has_aperiodic(spec, word):
    """Whether some aperiodic point carries `word` at positions 0..|w|-1.

    Decided on the live automaton (`_live`): exactly when, for some live
    state s reading w along live edges, the walk from s along single
    out-edges into states of in-degree 1 does not close up at s.

    1. The points of X are the labels of the bi-infinite live paths: a
       stretch of such a path starts at a state reached from the start, so
       its label lies in L(X) by factoriality; for x in X each x[-n, n) is
       read from the start, and by compactness (Koenig's lemma) these runs
       hold one bi-infinite path reading x.
    2. A path whose left tail circles a cycle C, of length c, and whose
       label has period p circles C throughout: shifted by c*p it has the
       same label and agrees with itself far left, and in a deterministic
       automaton a state and the letters after it fix the rest.
    3. If the walk closes up, s lies on a cycle C whose states have one
       live edge in and one out, so every live path through s circles C.
    4. If not, some path through s reading w has an aperiodic label.  If
       none had, enter s from a cycle C, read w, go on: by 2 this circles C,
       so w's path and every path after it follow C, and each state of C
       has one edge out.  An edge e into C that is not C's gives such a
       path with a left tail circling some cycle C' into e; by 2 it
       circles C' throughout, and its right tail circles C, so e is C's.
       So each state of C has one edge in, and the walk follows C to s.

    With w = () the cylinder is all of X, and the proof holds as it
    stands: every point of X is periodic exactly when this is false.  That
    decides what Morse-Hedlund answers by a scan (P_X(n*) <= n* for some
    n* forces every point to be periodic; Amer. J. Math. 60, 1938).  When
    it is false no live state branches, so the live part is disjoint
    cycles and a live path is fixed by its first state; by 1 each word of
    L_n labels one, so P_X(n) <= N for every n, N the number of compiled
    states, and the scan's n* is at most N.
    """
    word = tuple(word)
    if not spec.contains(word):
        raise ValueError(f"word {word!r} not in the language")
    rows, in_degree = spec._live
    for s in rows:
        t = s
        for a in word:
            t = rows[t].get(a)
            if t is None:
                break
        else:
            u = s
            while len(rows[u]) == 1 and in_degree[u] == 1:
                (u,) = rows[u].values()
                if u == s:
                    break
            else:
                return True
    return False


# -- the removal bound -------------------------------------------------------

class RemovalBoundReport(NamedTuple):
    word: tuple
    rows: tuple  # (n, lhs, rhs, slack) for |w| <= n <= n_max
    violations: tuple  # rows with lhs > rhs


def verify_removal_bound(spec, word, n_max):
    """Check P_{X(w)}(n) <= P_X(n) - (n-|w|+1) on |w| <= n <= n_max.

    An n_max below |w| leaves no row to check, so it is refused rather
    than reported as a bound that holds.
    """
    word = tuple(word)
    if n_max < len(word):
        raise ValueError(f"n_max must be >= |w| = {len(word)}")
    if not cylinder_has_aperiodic(spec, word):
        raise NoAperiodicPointError(
            f"cylinder of {word!r} has no aperiodic point")
    removed = forbid(spec, word)
    rows = []
    violations = []
    for n in range(len(word), n_max + 1):
        lhs = removed.count_words(n)
        rhs = spec.count_words(n) - (n - len(word) + 1)
        row = (n, lhs, rhs, rhs - lhs)
        rows.append(row)
        if lhs > rhs:
            violations.append(row)
    return RemovalBoundReport(word, tuple(rows), tuple(violations))


# -- chain construction -------------------------------------------------------

class ChainLevel(NamedTuple):
    subshift: object
    word: tuple        # w_i, |w_i| <= L, extends uniquely >= 2R times
    extended: tuple    # w~_i, the unique extension, |w~_i| = |w_i| + 4R
    aperiodic_cylinder: bool


class Chain(NamedTuple):
    """X_0 > X_1 > ... > X_k with X_{i+1} = X_i(w~_i) and X_k(w~_k) empty.

    `levels` holds the k forbidding steps; `terminal` is level k.  The
    length bound is checked against L' = L + 4R because the words
    actually forbidden are the extended ones.
    """

    levels: tuple
    terminal: object   # ChainLevel or None for hand-built partial chains
    range_r: int
    max_len: int       # L
    effective_len: int  # L' = L + 4R
    bound_value: int = 0      # P_{X_0}(2L'-1)
    bound_holds: bool = False  # k*L' < P_{X_0}(2L'-1)
    raw_bound_value: int = 0   # P_{X_0}(2L-1), informational
    raw_bound_holds: bool = False

    @property
    def k(self):
        return len(self.levels)

    def anchors(self):
        """The extended words w~_0 .. w~_k in chain order."""
        out = [lvl.extended for lvl in self.levels]
        if self.terminal is not None:
            out.append(self.terminal.extended)
        return tuple(out)


def _smallest_unique_extender(spec, radius, max_len):
    """Canonically smallest word of length <= L extending uniquely 2R times."""
    for n in range(1, max_len + 1):
        for w in spec.words(n):
            report = extension_radius(spec, w, 2 * radius)
            if report.radius == AT_LEAST_CAP:
                return w, report.extension
    return None


def build_chain(spec, radius, max_len, cap):
    """Greedy chain construction, forbidding the extended word at each level."""
    if radius < 1 or max_len < 1:
        raise ValueError("radius and max_len must be >= 1")
    if cap < 0:
        raise ValueError("cap must be >= 0")
    levels = []
    current = spec
    while True:
        found = _smallest_unique_extender(current, radius, max_len)
        if found is None:
            raise NoUniqueExtenderError(len(levels), tuple(levels))
        w, ext = found
        level = ChainLevel(current, w, ext,
                           cylinder_has_aperiodic(current, ext))
        nxt = forbid(current, ext)
        if nxt.is_empty:
            terminal = level
            break
        if len(levels) == cap:  # this would be non-terminal level cap+1
            raise CapExceededError(f"chain exceeded {cap} levels without terminating")
        levels.append(level)
        current = nxt
    k = len(levels)
    eff = max_len + 4 * radius
    bound_value = spec.count_words(2 * eff - 1)
    raw_value = spec.count_words(2 * max_len - 1)
    return Chain(
        levels=tuple(levels),
        terminal=terminal,
        range_r=radius,
        max_len=max_len,
        effective_len=eff,
        bound_value=bound_value,
        bound_holds=k * eff < bound_value,
        raw_bound_value=raw_value,
        raw_bound_holds=k * max_len < raw_value,
    )


def chain_to_json(chain):
    def level(lvl, i):
        """The level's dict, after the w_tilde of the i levels before it."""
        return {"forbidden_so_far": [list(u.extended) for u in chain.levels[:i]],
                "w": list(lvl.word),
                "w_tilde": list(lvl.extended),
                "aperiodic_cylinder": lvl.aperiodic_cylinder}

    terminal = chain.terminal
    return {
        "levels": [level(lvl, i) for i, lvl in enumerate(chain.levels)],
        "terminal": None if terminal is None else level(terminal, len(chain.levels)),
        "range": chain.range_r,
        "max_len": chain.max_len,
        "effective_len": chain.effective_len,
        "k": chain.k,
        "bound": {"P(2L'-1)": chain.bound_value, "holds": chain.bound_holds},
        "raw_bound": {"P(2L-1)": chain.raw_bound_value, "holds": chain.raw_bound_holds},
    }


# -- shadowing ---------------------------------------------------------------

class ShadowingReport(NamedTuple):
    status: str            # "ok" | "cap-exceeded"
    distance: int | None   # minimal D, when status == "ok"
    cap: int
    target: tuple          # v, the unique T-extension of u in Y
    counterexample: tuple | None  # word failing at D-1 (or at cap)


def shadowing_distance(spec, forbidden_words, u, t_steps, cap):
    """Minimal D such that u far from the forbidden words forces v around it.

    Y is X minus the forbidden words; u must extend uniquely at least
    `t_steps` times in L(Y) to v.  Every word of X carrying u centered,
    with no forbidden word starting within D of u's start, must then
    carry v centered.  The words carrying u centered at distance D are
    E_{T+D} of `_centred`, one extension step per distance, in canonical
    order; the counterexample at each D is the first failing word.
    """
    if t_steps < 0:
        raise ValueError("t_steps must be >= 0")
    if cap < 0:
        raise ValueError("cap must be >= 0")
    u = tuple(u)
    forbidden_words = tuple(tuple(f) for f in forbidden_words)
    shrunk = functools.reduce(forbid, forbidden_words, spec)
    if not shrunk.contains(u):
        raise HypothesisError(f"word {u!r} not in the language after forbidding")
    report = extension_radius(shrunk, u, t_steps)
    if report.radius != AT_LEAST_CAP:
        raise HypothesisError(
            f"word {u!r} does not extend uniquely {t_steps} times after forbidding")
    v = report.extension
    prev_cex = None
    levels = itertools.islice(_centred(spec, u), t_steps, t_steps + cap + 1)
    for dist, extensions in enumerate(levels):
        # a forbidden word starting in [T, T+2D], within D of u's start, excuses w
        starts = range(t_steps, t_steps + 2 * dist + 1)
        cex = next((w for w in extensions if w[dist:dist + len(v)] != v
                    and not any(w[p:p + len(f)] == f for f in forbidden_words for p in starts)),
                   None)
        if cex is None:
            return ShadowingReport("ok", dist, cap, v, prev_cex)
        prev_cex = cex
    return ShadowingReport("cap-exceeded", None, cap, v, prev_cex)


# -- syndeticity of chain-word occurrences ------------------------------------

class SyndeticReport(NamedTuple):
    status: str           # "ok" | "cap-exceeded"
    gap: int | None       # minimal G, when status == "ok"
    distance: int         # the D asked for, echoed: it changes no answer
    cap: int
    counterexample: tuple | None  # word with no qualifying occurrence at G-1


def syndetic_gap(spec, chain, dist, cap):
    """Minimal G <= cap with a qualifying anchor occurrence in every length-G word.

    The search keeps the frontier of anchor-free words of length G-1, each
    with its automaton state, and returns `ok` at the first G whose
    frontier is empty; the counterexample is the previous frontier's
    first word.  It rests on three facts:

    1. A word has a qualifying occurrence exactly when it contains some
       anchor.  An occurrence of w~_i at j qualifies unless an earlier
       anchor w~_h, h < i, occurs in the word starting in
       [j-D, j+D+|w~_i|-1].  For the least i with w~_i in the word, no
       earlier anchor occurs in the word at all, so an occurrence of w~_i
       qualifies for every D.  So under this word-clipped rule D changes
       neither G nor the counterexample, and the report only echoes
       `distance`.  In the paper's S_x a chain word partly or wholly
       outside the word may block too, which only removes qualifying
       occurrences, so this G is only a lower bound for the gap of S_x.
    2. A prefix of an anchor-free word is anchor-free.  So the anchor-free
       words of L_G are exactly the one-letter extensions of those of
       L_{G-1}, read along the row of each word's state, that do not end
       in an anchor: an anchor inside the extension that is no suffix lies
       in the parent word.
    3. The extensions are made in parent order and then row (alphabet)
       order, so each frontier is in canonical order, and its first word
       is the least word without a qualifying occurrence.
    """
    anchors = chain.anchors()
    if not anchors:
        raise InvalidChainError("chain has no levels")
    if dist < 0:
        raise ValueError("anchor distance must be >= 0")
    if cap < 1:
        return SyndeticReport("cap-exceeded", None, dist, cap, None)
    rows, anchor_set = spec._rows, set(anchors)
    cuts = [slice(-k, None) for k in {len(a) for a in anchor_set}]  # the suffixes to test
    # the anchor-free words of length 0; an empty anchor occurs in every word
    frontier = [] if () in anchor_set else [((), 0)]
    prev_cex = None
    for gap in range(1, cap + 1):
        # a cut longer than v takes all of v, which is then an anchor only if v is one
        frontier = [(v, t) for u, s in frontier for a, t in rows[s].items()
                    for v in (u + (a,),) if anchor_set.isdisjoint(map(v.__getitem__, cuts))]
        if not frontier:
            return SyndeticReport("ok", gap, dist, cap, prev_cex)
        prev_cex = frontier[0][0]
    return SyndeticReport("cap-exceeded", None, dist, cap, prev_cex)
