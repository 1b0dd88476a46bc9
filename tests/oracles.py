"""Independent brute-force oracles the tests freeze expected values from.

Each oracle deliberately avoids the code paths it checks: the SFT oracle
works on raw forbidden-word avoidance with bounded two-sided
extendability (no graph pruning), the sparse oracle enumerates actual
marker placements of whole points, and the automorphism oracle searches
letter maps with explicit word-level bijectivity checks.  The
endomorphism-witness oracle slides the code over every language word of
every length up to a proven bound and tests each image with `contains`,
and the free-semigroup oracle composes and pads a full rule table per generator
word and scans all pairs; the library replaces both with single walks.
The syndetic oracle scans every word of L_G for every G and tests each
anchor occurrence against every earlier anchor, where the library grows
only the anchor-free words; the prune oracle recounts in-degrees over
every kept edge in rounds, where the library drops states from a
worklist; the
closure oracle compares every new element with every known one through
padded tables and recomposes every pair each round, where the library
keys reduced tables and applies the generators and inverses after the
newest sphere only; the inverse oracle
checks both compositions against the identity, where the library checks
one direction without composing.  These oracles compose through
`compose_oracle`, the word-by-word composition, not `autos.compose`,
slide through `apply_to_word_oracle`, which slices each window and
looks it up in the rule table, reduce through `reduce_range_oracle`,
which groups the rule table by each window's middle, and compare through
`equal_on_shift_oracle`, which pads through `compose_oracle`, where the
library composes and reduces on the trie's window ranks.
The SFT graph oracle reads the language through the de Bruijn graph of
the words of length q, listing every one and scanning vertices and edge
windows for forbidden factors, where the library reads the subsets of the
trimmed Aho-Corasick automaton of the forbidden words.
The language-engine oracles walk the compiled rows level by level, rerun
the count DP from length 0 on every call, and test each two-sided
extension with `contains`, where the library joins half-length runs,
advances one count DP and reads the end state's row.  The
aperiodic-cylinder oracle censuses cycles on each side of an SFT word
and builds every eventually periodic through-point, and the backend
oracle adds the per-backend rules for sparse and product specs, where
the library walks from each live automaton state reading the word,
checking degrees, on every backend alike.
The shadowing oracle rebuilds the extensions of u from u for every
distance and takes the first failing word in sorted order, where the
library reads the canonical lists of `complexity._centred`, one
extension step per distance, and takes the first failing word; the
unique-extension oracle iterates the `contains`-based extension step on
a set, where the library reads the automaton's rows; the
extension-radius oracle counts the two-sided lists of `_centred`, where
the library walks each side of the word apart, right along the rows and
left back along their reversal; the
occurrence-preservation oracle scans all of L_n for the words with the
target at the centre, where the library reads them off `_centred`.  The
point-membership oracle keeps the per-backend rules (an SFT window, a
sparse tail rule, a product projected onto its factors), where the
library pumps each tail through the compiled automaton on every backend.
The Morse-Hedlund oracle scans P_X(n) <= n for n up to a cap, where
the library decides periodicity on the live automaton
(`chains.cylinder_has_aperiodic` of the empty word).
The space-time oracle builds each row of the array as a whole point with
`apply_to_config` and reads each cell with `get`, where the library
slides one word of row 0's light cone.
The period-vector oracle tests each vector cell by cell, where the
library compares row slices.  The enumeration oracle certifies every
rule table, where the library certifies only those that permute the
periodic points of each period up to 2R+2.
The hallway walk oracles spell out each walk's case analysis, the
forward walks acting on arrival and the back walks undoing that action
on departure, where the library derives all four walks from one rule
and the involution a walk applies to the nail.
They import shiftlab when called, so importing this module loads no
shiftlab code (the benchmark imports it before its own cold imports).
"""

import itertools
from collections import Counter
from functools import lru_cache


def _contains_factor(word, forbidden):
    for f in forbidden:
        k = len(f)
        if k <= len(word) and any(word[i:i + k] == f for i in range(len(word) - k + 1)):
            return True
    return False


def sft_language_oracle(letters, forbidden, n):
    """Centers of forbidden-avoiding words of length n+2m, m = order + n.

    Equivalent to enumerating the avoiders and keeping centers, computed
    as bounded extendability with memoized suffix states.
    """
    letters = tuple(letters)
    forbidden = tuple(tuple(f) for f in forbidden)
    order = max((len(f) for f in forbidden), default=1)
    q = order - 1
    if n < q:
        # left and right extensions of a word shorter than q interact, so
        # take the prefixes of the length-q language instead
        return sorted({w[:n] for w in sft_language_oracle(letters, forbidden, q)})
    m = order + n

    @lru_cache(maxsize=None)
    def extend_right(state, depth):
        if depth == 0:
            return True
        for a in letters:
            grown = state + (a,)
            if not _contains_factor(grown, forbidden):
                if extend_right(grown[-q:] if q else (), depth - 1):
                    return True
        return False

    @lru_cache(maxsize=None)
    def extend_left(state, depth):
        if depth == 0:
            return True
        for a in letters:
            grown = (a,) + state
            if not _contains_factor(grown, forbidden):
                if extend_left(grown[:q] if q else (), depth - 1):
                    return True
        return False

    out = []
    for w in itertools.product(letters, repeat=n):
        if _contains_factor(w, forbidden):
            continue
        if extend_right(w[-q:] if q else (), m) and extend_left(w[:q] if q else (), m):
            out.append(w)
    return sorted(out)


def sft_graph_oracle(spec):
    """The SFT spec again, read through its essential de Bruijn graph built
    by brute force: a second engine over the same descriptor.

    The vertices are the words of length q, the longest forbidden word's
    length less one.  Every one is listed and scanned for forbidden
    factors, every edge window is scanned again, pruning keeps the
    vertices with an in-edge and an out-edge, and the survivors are
    sorted into `graph`, vertex -> {letter: target}.  The automaton reads
    a word shorter than q as a prefix of a vertex, then walks the graph.
    """
    from shiftlab.subshifts import SftSpec

    class BruteForceSft(SftSpec):
        def __init__(self, alphabet, forbidden):
            super().__init__(alphabet, forbidden)
            q = self.window_len = max(map(len, self.forbidden), default=1) - 1
            verts = [u for u in itertools.product(self.alphabet.letters, repeat=q)
                     if not _contains_factor(u, self.forbidden)]
            vert_set = set(verts)
            out = {}
            for u in verts:
                letters = []
                for a in self.alphabet.letters:
                    win = u + (a,)
                    if win[1:] in vert_set and not _contains_factor(win, self.forbidden):
                        letters.append(a)
                out[u] = letters
            alive = set(verts)
            while True:
                has_in = set()
                for u in alive:
                    for a in out[u]:
                        v = (u + (a,))[1:]
                        if v in alive:
                            has_in.add(v)
                keep = {u for u in alive
                        if u in has_in and any((u + (a,))[1:] in alive for a in out[u])}
                if keep == alive:
                    break
                alive = keep
            self.graph = {u: {a: v for a in out[u] if (v := (u + (a,))[1:]) in alive}
                          for u in sorted(alive, key=self.alphabet.word_key)}
            self.is_empty = not self.graph
            self._prefixes = {v[:i] for v in self.graph for i in range(1, len(v) + 1)}

        def _start(self):
            return ()

        def _next(self, state, a):
            if len(state) < self.window_len:
                grown = state + (a,)
                return grown if grown in self._prefixes else None
            return self.graph[state].get(a)

    return BruteForceSft(spec.alphabet, spec.forbidden)


def prune_oracle(graph):
    """`subshifts._prune` by rounds: recount the in-degrees over every kept
    edge and keep the states with an edge in and an edge out, until a round
    keeps every state."""
    alive = set(graph)
    while True:
        in_degree = Counter(t for s in alive for t in graph[s].values() if t in alive)
        keep = {s for s in in_degree if not alive.isdisjoint(graph[s].values())}
        if keep == alive:
            return ({s: {a: t for a, t in row.items() if t in alive}
                     for s, row in graph.items() if s in alive}, in_degree)
        alive = keep


def sparse_language_oracle(background, families, n):
    """Length-n windows of explicit marker placements of whole points.

    Every family's full multiset is laid out at distinct positions in a
    range wide enough that any marker can also fall outside the window,
    so sub-multiset windows arise on their own.
    """
    span = range(-(n + 2), 2 * n + 3)
    windows = {(background,) * n}
    for fam in families:
        fam = tuple(fam)
        for positions in itertools.permutations(span, len(fam)):
            point = dict(zip(positions, fam))
            windows.add(tuple(point.get(i, background) for i in range(n)))
    return sorted(windows)


def range0_automorphism_oracle(letters, language, max_n=6):
    """Rule tables of range 0 acting bijectively on the language.

    `language` maps n to the set of words of length n.  A table passes if
    it is injective on letters, maps every word of length <= max_n into
    the language, and so does its inverse table.
    """
    letters = tuple(letters)
    used = sorted(language[1])

    def preserves(table):
        for n in range(1, max_n + 1):
            for w in language[n]:
                if tuple(table[(a,)] for a in w) not in language[n]:
                    return False
        return True

    tables = []
    for values in itertools.product(letters, repeat=len(used)):
        table = {u: v for u, v in zip(used, values)}
        image = [table[u] for u in used]
        if len(set(image)) != len(image):
            continue
        if set(image) != {u[0] for u in used}:
            continue
        inverse = {(v,): u[0] for u, v in table.items()}
        if preserves(table) and preserves(inverse):
            tables.append(table)
    return tables


def enumerate_automorphisms_oracle(spec, radius, table_cap=1_000_000):
    """Aut_R(X) by certifying every rule table, in `itertools.product`
    order, where the library first skips the tables that do not permute
    the points of each period p <= 2R+2."""
    from shiftlab.autos import BlockCode, certify_automorphism
    from shiftlab.errors import SearchSpaceError

    if radius < 0:
        raise ValueError("range must be >= 0")
    windows = spec.count_words(2 * radius + 1)
    size = len(spec.alphabet) ** windows
    if size > table_cap:
        raise SearchSpaceError(size, table_cap)
    certs = []
    for values in itertools.product(spec.alphabet.letters, repeat=windows):
        result = certify_automorphism(spec, BlockCode._of(spec, radius, list(values)), radius)
        if result.status == "certified":
            certs.append(result.cert)
    return tuple(certs)


def image_length_bound(spec, code):
    """An image length by which some image leaves X, if any does.

    A failing source word whose image is shortest passes through keys
    (automaton state, last 2R letters, image state) without repeating
    one, or cutting out the loop would leave a shorter failing word; so
    its image is no longer than K, the number of keys reachable from the
    words of length 2R.  On an SFT the order is also enough: an image
    point outside X shows a forbidden word inside one window of length
    `order`.
    """
    rows = spec._rows
    keys = set()
    frontier = [((), 0)]
    for _ in range(2 * code.radius):
        frontier = [(w + (a,), t) for w, s in frontier for a, t in rows[s].items()]
    todo = [(s, w, 0) for w, s in frontier]
    keys.update(todo)
    for s, last, t in todo:
        for a, s2 in rows[s].items():
            t2 = rows[t].get(code.rule.get(last + (a,)))
            key = (s2, (last + (a,))[1:], t2)
            if t2 is not None and key not in keys:
                keys.add(key)
                todo.append(key)
    if spec.descriptor()["kind"] == "sft":
        return min(len(keys), max(map(len, spec.forbidden), default=1))
    return len(keys)


def endomorphism_witness_oracle(spec, code):
    """First language word, shortest length first, whose image leaves X.

    Every language word of every image length up to `image_length_bound`
    is slid through `apply_to_word_oracle` and its image tested with `contains`.
    """
    for n in range(1, image_length_bound(spec, code) + 1):
        for w in spec.words(n + 2 * code.radius):
            image = apply_to_word_oracle(code, w)
            if not spec.contains(image):
                return w, image
    return None


def free_semigroup_oracle(spec, a_cert, b_cert, depth):
    """Rule tables of every generator word, composed and padded to the top
    range through `compose_oracle`, then a pairwise scan."""
    from shiftlab.autos import BlockCode, FreeSemigroupReport, semigroup_words

    gens = {"a": a_cert.code, "b": b_cert.code}
    words = semigroup_words(depth)
    codes = {}
    for w in words:
        codes[w] = gens[w[0]] if len(w) == 1 else compose_oracle(gens[w[0]], codes[w[1:]])
    top = max(code.radius for code in codes.values())
    window_order = spec.words(2 * top + 1)
    prints = {}
    for w in words:
        code = codes[w]
        if code.radius < top:
            code = compose_oracle(code, BlockCode.identity(spec, top - code.radius))
        prints[w] = tuple(map(code.rule.__getitem__, window_order))
    collision = None
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            if prints[words[i]] == prints[words[j]]:
                collision = (words[i], words[j])
                break
        if collision:
            break
    status = "collision" if collision else "free-to-depth"
    return FreeSemigroupReport(status, depth, words, collision)


def has_qualifying_occurrence(word, anchors, dist):
    """An anchor occurrence counting towards S_x inside this word.

    The first anchor always qualifies; a later anchor w~_i qualifies at j
    when no earlier anchor starts within [j-D, j+D+|w~_i|-1] (visible
    inside the word).
    """
    from shiftlab.words import occurrences

    if occurrences(word, anchors[0]):
        return True
    for i in range(1, len(anchors)):
        anchor = anchors[i]
        for j in occurrences(word, anchor):
            lo = j - dist
            hi = j + dist + len(anchor) - 1
            blocked = False
            for earlier in anchors[:i]:
                starts = [s for s in occurrences(word, earlier) if lo <= s <= hi]
                if starts:
                    blocked = True
                    break
            if not blocked:
                return True
    return False


def syndetic_gap_oracle(spec, chain, dist, cap):
    """Minimal G <= cap with a qualifying occurrence in every length-G word."""
    from shiftlab.chains import SyndeticReport
    from shiftlab.errors import InvalidChainError

    anchors = chain.anchors()
    if not anchors:
        raise InvalidChainError("chain has no levels")
    prev_cex = None
    for gap in range(1, cap + 1):
        cex = None
        for w in spec.words(gap):
            if not has_qualifying_occurrence(w, anchors, dist):
                cex = w
                break
        if cex is None:
            return SyndeticReport("ok", gap, dist, cap, prev_cex)
        prev_cex = cex
    return SyndeticReport("cap-exceeded", None, dist, cap, prev_cex)


def apply_to_word_oracle(code, word):
    """Slide the code over the word by slicing each window and looking it up."""
    from shiftlab.errors import RuleIncompleteError

    word = tuple(word)
    span = 2 * code.radius + 1
    if len(word) < span:
        raise ValueError(f"word of length {len(word)} shorter than window {span}")
    rule = code.rule
    try:
        return tuple([rule[word[i:i + span]] for i in range(len(word) - span + 1)])
    except KeyError as exc:
        raise RuleIncompleteError(f"window {exc.args[0]!r} missing from "
                                  f"range-{code.radius} rule table") from None


def compose_oracle(outer, inner):
    """outer after inner, sliding `inner` and then `outer` over each window
    through `apply_to_word_oracle`."""
    from shiftlab.autos import BlockCode

    spec = outer.spec
    radius = outer.radius + inner.radius
    return BlockCode(spec, radius, {
        w: apply_to_word_oracle(outer, apply_to_word_oracle(inner, w))[0]
        for w in spec.words(2 * radius + 1)})


def reduce_range_oracle(code):
    """Drop a range while the rule table is a function of each window's middle."""
    from shiftlab.autos import BlockCode

    while code.radius > 0:
        groups = {}
        for w, letter in code.rule.items():
            if groups.setdefault(w[1:-1], letter) != letter:
                return code
        code = BlockCode(code.spec, code.radius - 1, groups)
    return code


def equal_on_shift_oracle(spec, a, b):
    """Both codes padded to the larger range through `compose_oracle`, then
    compared window by window on L_{2R+1}."""
    from shiftlab.autos import BlockCode

    radius = max(a.radius, b.radius)
    padded = [code if code.radius == radius else
              compose_oracle(code, BlockCode.identity(spec, radius - code.radius))
              for code in (a, b)]
    return all(padded[0].rule[w] == padded[1].rule[w] for w in spec.words(2 * radius + 1))


def find_inverse_oracle(spec, code, r_max):
    """Forced inverse tables, accepted when both compositions equal the identity."""
    from shiftlab.autos import BlockCode
    from shiftlab.errors import RuleIncompleteError

    ident = BlockCode.identity(spec, 0)
    for r in range(r_max + 1):
        forced = {}
        consistent = True
        for w in spec.words(2 * (r + code.radius) + 1):
            image = apply_to_word_oracle(code, w)
            center = w[r + code.radius]
            if forced.setdefault(image, center) != center:
                consistent = False
                break
        if not consistent:
            continue
        domain = spec.words(2 * r + 1)
        if any(u not in forced for u in domain):
            continue
        candidate = BlockCode(spec, r, {u: forced[u] for u in domain})
        try:
            if (equal_on_shift_oracle(spec, compose_oracle(candidate, code), ident)
                    and equal_on_shift_oracle(spec, compose_oracle(code, candidate), ident)):
                return candidate
        except RuleIncompleteError:
            continue
    return None


def subgroup_closure_oracle(spec, gens, cap):
    """Pairwise closure: every new element against every known one, all pairs each round."""
    from shiftlab.autos import BlockCode, ClosureResult

    elements = []

    def add(code):
        code = reduce_range_oracle(code)
        for known in elements:
            if equal_on_shift_oracle(spec, known, code):
                return False
        elements.append(code)
        return True

    add(BlockCode.identity(spec, 0))
    for cert in gens:
        add(cert.code)
        add(cert.inverse)
    if len(elements) > cap:
        return ClosureResult("cap-exceeded", None)
    changed = True
    while changed:
        changed = False
        snapshot = list(elements)
        for a in snapshot:
            for b in snapshot:
                if add(compose_oracle(a, b)):
                    changed = True
                    if len(elements) > cap:
                        return ClosureResult("cap-exceeded", None)
    return ClosureResult("ok", tuple(elements))


def words_oracle(spec, n):
    """L_n by a level-by-level walk of the rows, every prefix materialized."""
    rows = spec._rows
    frontier = [((), 0)]
    for _ in range(n):
        frontier = [(w + (a,), t) for w, s in frontier for a, t in rows[s].items()]
    return tuple(w for w, _ in frontier)


def count_words_oracle(spec, n):
    """|L_n| by the state DP rerun from length 0; 1 for n <= 0, 0 when empty."""
    if spec.is_empty:
        return 0
    rows = spec._rows
    counts = [1] + [0] * (len(rows) - 1)
    for _ in range(n):
        nxt = [0] * len(rows)
        for s, c in enumerate(counts):
            if c:
                for t in rows[s].values():
                    nxt[t] += c
        counts = nxt
    return sum(counts)


def centered_extensions_oracle(spec, wordset):
    """One-step two-sided extensions (a,)+w+(b,), each tested with `contains`."""
    out = set()
    for w in wordset:
        for a in spec.alphabet.letters:
            left = (a,) + w
            if not spec.contains(left):
                continue
            for b in spec.alphabet.letters:
                if spec.contains(left + (b,)):
                    out.add(left + (b,))
    return out


def unique_extension_oracle(spec, word, steps):
    """The unique `steps`-fold extension by iterated `centered_extensions_oracle`, or None.

    None for a word outside the language at every `steps`: it starts from
    no word at all.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    word = tuple(word)
    current = {word} if spec.contains(word) else set()
    for _ in range(steps):
        if len(current) != 1:
            return None
        current = centered_extensions_oracle(spec, current)
    return current.pop() if len(current) == 1 else None


def extension_radius_oracle(spec, word, cap):
    """The extension radius by the two-sided lists of `complexity._centred`:
    the first level k that does not hold exactly one word ends the search at
    k-1, and a single word at the cap answers `at-least-cap`."""
    from shiftlab.complexity import AT_LEAST_CAP, ExtensionReport, _centred

    word = tuple(word)
    if cap < 0:
        raise ValueError("cap must be >= 0")
    for k, level in enumerate(_centred(spec, word)):
        if len(level) != 1:
            if not k:
                raise ValueError(f"word {word!r} not in the language")
            return ExtensionReport(word, k - 1, cap, unique_ext)
        (unique_ext,) = level
        if k == cap:
            return ExtensionReport(word, AT_LEAST_CAP, cap, unique_ext)


def preserves_occurrences_oracle(spec, code, target, anchors=None):
    """Occurrence preservation by a scan of all of L_{|target|+2(R+D)} for
    the words with `target` at the centre, each slid by `apply_to_word_oracle`."""
    from shiftlab.words import occurrences

    if code.spec is not spec and code.spec != spec:
        raise ValueError("code lives on a different subshift")
    target = tuple(target)
    radius = code.radius
    if anchors is not None and len(target) <= 2 * radius:
        raise ValueError("relative form needs |target| > 2R")
    anchor_words, dist = ((), 0) if anchors is None else anchors
    if dist < 0:
        raise ValueError("anchor distance must be >= 0")
    if not target:
        return True  # the images of the words carrying () are all empty
    anchor_words = [tuple(w) for w in anchor_words]
    spec.alphabet.check_word(target)
    off = radius + dist
    for u in spec.words(len(target) + 2 * off):
        # u[radius:len(u) - radius] is the D-stretch around the target
        if (u[off:off + len(target)] == target
                and not any(occurrences(u[radius:len(u) - radius], a) for a in anchor_words)
                and apply_to_word_oracle(code, u)[dist:dist + len(target)] != target):
            return False
    return True


def shadowing_distance_oracle(spec, forbidden_words, u, t_steps, cap):
    """Shadowing distance with the extensions of u rebuilt from u for every D."""
    from shiftlab.chains import ShadowingReport, forbid
    from shiftlab.errors import HypothesisError

    u = tuple(u)
    forbidden_words = tuple(tuple(f) for f in forbidden_words)
    shrunk = spec
    for f in forbidden_words:
        shrunk = forbid(shrunk, f)
    if not shrunk.contains(u):
        raise HypothesisError(f"word {u!r} not in the language after forbidding")
    v = unique_extension_oracle(shrunk, u, t_steps)
    if v is None:
        raise HypothesisError(
            f"word {u!r} does not extend uniquely {t_steps} times after forbidding")

    def counterexample(dist):
        n = len(u) + 2 * (dist + t_steps)
        extensions = {u}
        for _ in range(dist + t_steps):
            extensions = centered_extensions_oracle(spec, extensions)
        for w in sorted(extensions, key=spec.alphabet.word_key):
            clean = True
            for f in forbidden_words:
                for p in range(t_steps, 2 * dist + t_steps + 1):
                    if p + len(f) <= n and w[p:p + len(f)] == f:
                        clean = False
                        break
                if not clean:
                    break
            if clean and w[dist:dist + len(v)] != v:
                return w
        return None

    prev_cex = None
    for dist in range(cap + 1):
        cex = counterexample(dist)
        if cex is None:
            return ShadowingReport("ok", dist, cap, v, prev_cex)
        prev_cex = cex
    return ShadowingReport("cap-exceeded", None, cap, v, prev_cex)


def _forward_adj(graph):
    return {u: tuple(row.values()) for u, row in graph.items()}


def _backward_adj(graph):
    rev = {u: [] for u in graph}
    for u, row in graph.items():
        for v in row.values():
            rev[v].append(u)
    return {u: tuple(vs) for u, vs in rev.items()}


def _reach(adj, start):
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


def _cycle_structure(adj, verts):
    """Cycle census of the induced subgraph on `verts`.

    Returns (at_least_two_cycles, cycles) where cycles lists every
    cycle-SCC as a vertex list in successor order; the list is only
    meaningful when the first component is False (then each cycle-SCC is
    a simple cycle).
    """
    sub = {u: tuple(v for v in adj[u] if v in verts) for u in verts}
    reach = {u: _reach(sub, u) for u in verts}
    seen = set()
    sccs = []
    for u in sorted(verts):
        if u in seen:
            continue
        comp = {v for v in reach[u] if u in reach[v]}
        comp.add(u)
        seen |= comp
        sccs.append(comp)
    cycles = []
    for comp in sccs:
        within = {u: [v for v in sub[u] if v in comp] for u in comp}
        edge_count = sum(len(vs) for vs in within.values())
        if edge_count == 0:
            continue  # transient singleton, no cycle here
        if edge_count > len(comp) or any(len(vs) != 1 for vs in within.values()):
            return True, []  # an SCC holding two distinct cycles
        start = min(comp)
        cyc = [start]
        v = within[start][0]
        while v != start:
            cyc.append(v)
            v = within[v][0]
        cycles.append(cyc)
    return len(cycles) >= 2, cycles


def _paths_to_cycle(adj, start, cycle_set):
    """Simple paths from `start` up to the first contact with the cycle."""
    paths = []
    stack = [([start], {start})]
    while stack:
        path, seen = stack.pop()
        u = path[-1]
        if u in cycle_set:
            paths.append(path)
            continue
        for v in adj[u]:
            if v not in seen:
                stack.append((path + [v], seen | {v}))
    return paths


def _rotate_to(cycle, vertex):
    i = cycle.index(vertex)
    return cycle[i:] + cycle[:i]


def _through_configuration(wpath, alpha, beta, cb_cycle, cf_cycle):
    """The eventually periodic point following alpha, w's path, beta.

    Time t carries a graph vertex; the point's letter at t is the first
    letter of that vertex's window.
    """
    from shiftlab.words import Configuration

    t_end = len(wpath) - 1
    back = len(alpha) - 1
    fwd = len(beta) - 1
    pb, pf = len(cb_cycle), len(cf_cycle)

    def vertex_at(t):
        if t >= t_end + fwd:
            return cf_cycle[(t - t_end - fwd) % pf]
        if t >= t_end:
            return beta[t - t_end]
        if t >= 0:
            return wpath[t]
        if t >= -back:
            return alpha[-t]
        return cb_cycle[(t + back) % pb]

    left = tuple(vertex_at(t)[0] for t in range(-back - pb, -back))
    center = tuple(vertex_at(t)[0] for t in range(-back, t_end + fwd))
    right = tuple(vertex_at(t)[0] for t in range(t_end + fwd, t_end + fwd + pf))
    return Configuration(left, center, right, offset=back)


def cylinder_has_aperiodic_oracle(spec, word):
    """SFT only: search the explicit through-points of the word's vertex path.

    Each side's reachable part gets its own cycle census; two cycles on
    one side decide at once, and otherwise every eventually periodic point
    made of a simple path to each side's single cycle is built and tested
    with `Configuration.is_periodic`.  The word must be in the language.
    """
    word, ref = tuple(word), sft_graph_oracle(spec)
    q = ref.window_len
    if q == 0:
        # order-1 SFT: cycles are the allowed self-loops
        return len(ref.graph[()]) >= 2
    if len(word) < q:
        return any(cylinder_has_aperiodic_oracle(ref, u)
                   for u in ref.words(q) if u[:len(word)] == word)
    wpath = [word[i:i + q] for i in range(len(word) - q + 1)]
    fwd, bwd = _forward_adj(ref.graph), _backward_adj(ref.graph)
    many, f_cycles = _cycle_structure(fwd, _reach(fwd, wpath[-1]))
    if many:
        return True
    many, b_cycles = _cycle_structure(fwd, _reach(bwd, wpath[0]))
    if many:
        return True
    (cf,) = f_cycles
    (cb,) = b_cycles
    # single cycle on each side: finitely many through-points, test each
    betas = _paths_to_cycle(fwd, wpath[-1], set(cf))
    alphas = _paths_to_cycle(bwd, wpath[0], set(cb))
    for alpha in alphas:
        cb_rot = _rotate_to(cb, alpha[-1])
        for beta in betas:
            cf_rot = _rotate_to(cf, beta[-1])
            x = _through_configuration(wpath, alpha, beta, cb_rot, cf_rot)
            if x.window(0, len(word)) != word:
                raise AssertionError(f"through-point misses {word!r}")
            if not x.is_periodic():
                return True
    return False


def backend_cylinder_aperiodic_oracle(spec, word):
    """The per-backend rules: the through-point search on an SFT; on a
    sparse spec every point with a marker is aperiodic, so the cylinder
    holds one exactly when the word has a marker or some family is
    nonempty; a product point is aperiodic exactly when a factor's is, so
    the cylinder holds one when either projected cylinder does."""
    from shiftlab.subshifts import ProductSpec, SparseSpec

    word = tuple(word)
    if isinstance(spec, SparseSpec):
        return any(a != spec.background for a in word) or bool(spec.families)
    if isinstance(spec, ProductSpec):
        return (backend_cylinder_aperiodic_oracle(spec.factor_left, tuple(a for a, _ in word))
                or backend_cylinder_aperiodic_oracle(spec.factor_right,
                                                     tuple(b for _, b in word)))
    return cylinder_has_aperiodic_oracle(spec, word)


def morse_hedlund_oracle(spec, max_n):
    """All-periodic as soon as P_X(n*) <= n* for some n* <= max_n.

    By Morse-Hedlund, complexity bounded by n at some n forces every
    point to be periodic; returns the least such n*, or None when the
    scan finds none up to max_n.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    for n in range(1, max_n + 1):
        if spec.count_words(n) <= n:
            return n
    return None


def contains_config_oracle(spec, config):
    """Point membership by the per-backend rules, once every letter is
    checked.  SFT: the window that covers one tail period beyond the centre
    on each side, widened by the vertex length, is in L.  Sparse: both
    tails are background and the centre is in L.  Product: both projected
    points lie in their factors."""
    from shiftlab.words import Configuration

    spec.alphabet.check_word(config.left + config.center + config.right)
    kind = spec.descriptor()["kind"]
    if kind == "product":
        return all(
            contains_config_oracle(factor, Configuration(
                *(tuple(a[side] for a in part)
                  for part in (config.left, config.center, config.right)),
                config.offset))
            for side, factor in enumerate((spec.factor_left, spec.factor_right)))
    if kind == "sparse":
        return (set(config.left + config.right) == {spec.background}
                and spec.contains(config.center))
    q = max(map(len, spec.forbidden), default=1) - 1
    lo = -config.offset - len(config.left) - q
    hi = len(config.center) - config.offset + len(config.right) + q
    return spec.contains(config.window(lo, hi - lo))


def spacetime_window_oracle(code, config, width, height):
    """`spacetime.spacetime_window` point by point: row j is code^j of the
    base point, built whole, and each cell is read off its row."""
    from shiftlab.autos import apply_to_config
    from shiftlab.spacetime import SpaceTimeWindow

    col0 = -(width // 2)
    rows = [config]
    for _ in range(height - 1):
        rows.append(apply_to_config(code, rows[-1]))
    grid = tuple(tuple(row.get(col0 + i) for i in range(width)) for row in rows)
    return SpaceTimeWindow(width, height, col0, grid)


def period_vectors_oracle(window, bound):
    """`spacetime.detect_period_vectors` cell by cell: each vector is tested
    on every pair of cells v apart inside the window, where the library
    compares row slices."""
    found = []
    for v1 in range(-bound, bound + 1):
        for v2 in range(-bound, bound + 1):
            if (v1, v2) == (0, 0):
                continue
            consistent = True
            for j in range(window.height):
                if not 0 <= j + v2 < window.height:
                    continue
                for i in range(window.width):
                    if not 0 <= i + v1 < window.width:
                        continue
                    if window.grid[j][i] != window.grid[j + v2][i + v1]:
                        consistent = False
                        break
                if not consistent:
                    break
            if consistent:
                found.append((v1, v2))
    return tuple(found)


_PERSON = {"p", "1p", "ap", "bp"}  # the hallway letters that hold the walker


def hallway_walk_oracle(swap):
    """Range-1 local rule of the rightward walk; swap exchanges a and b."""
    hang = "bp" if swap else "ap"
    on_a = "ap" if swap else "1p"   # arriving at a hanging `a`
    on_b = "1p" if swap else "bp"   # arriving at a hanging `b`

    def rule(win):
        left, here, _right = win
        if here == "p":
            return "0"
        if here == "0":
            return "p" if left in _PERSON else "0"
        if here == "1":
            return hang if left == "p" else "1"
        if here == "a":
            return on_a if left == "p" else "a"
        if here == "b":
            return on_b if left == "p" else "b"
        return {"1p": "1", "ap": "a", "bp": "b"}[here]

    return rule


def hallway_walk_back_oracle(swap):
    """Inverse walk: move left, undoing the arrival action on departure."""
    undo_1p = "b" if swap else "a"   # 1p arose from removing a picture
    undo_ap = "a" if swap else "1"
    undo_bp = "1" if swap else "b"

    def rule(win):
        _left, here, right = win
        if here == "p":
            return "0"
        if here == "0":
            return "p" if right in _PERSON else "0"
        if here == "1":
            return "1p" if right == "p" else "1"
        if here == "a":
            return "ap" if right == "p" else "a"
        if here == "b":
            return "bp" if right == "p" else "b"
        return {"1p": undo_1p, "ap": undo_ap, "bp": undo_bp}[here]

    return rule
