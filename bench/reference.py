"""Independent references the benchmark checks shiftlab's answers against.

Nothing here imports shiftlab.  Languages are rebuilt from the plain JSON
spec descriptors: SFTs by trimming their own de Bruijn graph, sparse
shifts by the multinomial count of marker placements, products
letterwise.  Block codes are plain rule dicts keyed by letter tuples.
The oracles in tests/oracles.py cross-check these models at small sizes.
"""

import itertools
import math
from collections import Counter

EXCEEDS = "exceeds-cap"


def canonical_sort(words, letters):
    """Sort by alphabet index; plain tuple order when the letters already sort so."""
    if list(letters) == sorted(letters):
        return sorted(words)
    index = {a: i for i, a in enumerate(letters)}
    return sorted(words, key=lambda w: tuple(index[a] for a in w))


class RefSft:
    def __init__(self, desc):
        self.letters = tuple(desc["alphabet"])
        self.forbidden = [tuple(f) for f in desc["forbidden"]]
        self.order = max((len(f) for f in self.forbidden), default=1)
        self.q = self.order - 1
        clean = [u for u in itertools.product(self.letters, repeat=self.q)
                 if self._clean(u)]
        succ = {u: [a for a in self.letters
                    if self._clean(u + (a,))] for u in clean}
        alive = set(clean)
        while True:
            has_in = {(u + (a,))[1:] for u in alive for a in succ[u]
                      if (u + (a,))[1:] in alive}
            keep = {u for u in alive if u in has_in
                    and any((u + (a,))[1:] in alive for a in succ[u])}
            if keep == alive:
                break
            alive = keep
        self.alive = alive
        self.succ = {u: [a for a in succ[u] if (u + (a,))[1:] in alive]
                     for u in alive}
        self._counts = {}

    def _clean(self, word):
        for f in self.forbidden:
            k = len(f)
            for i in range(len(word) - k + 1):
                if word[i:i + k] == f:
                    return False
        return True

    @property
    def empty(self):
        return not self.alive

    def _short(self, n):
        return {v[i:i + n] for v in self.alive for i in range(self.q - n + 1)}

    def count(self, n):
        if n <= self.q:
            return len(self._short(n))
        if n not in self._counts:
            paths = {u: 1 for u in self.alive}
            for _ in range(n - self.q):
                paths = {u: sum(paths[(u + (a,))[1:]] for a in self.succ[u])
                         for u in self.alive}
            self._counts[n] = sum(paths.values())
        return self._counts[n]

    def contains(self, word):
        word = tuple(word)
        if len(word) <= self.q:
            return any(word == v[i:i + len(word)]
                       for v in self.alive for i in range(self.q - len(word) + 1))
        u = word[:self.q]
        if u not in self.alive:
            return False
        for a in word[self.q:]:
            if a not in self.succ[u]:
                return False
            u = (u + (a,))[1:]
        return True

    def words(self, n):
        if n <= self.q:
            return canonical_sort(self._short(n), self.letters)
        out = []
        stack = [(u, u) for u in reversed(canonical_sort(self.alive, self.letters))]
        while stack:
            word, u = stack.pop()
            if len(word) == n:
                out.append(word)
                continue
            for a in reversed(self.succ[u]):
                stack.append((word + (a,), (u + (a,))[1:]))
        return out


def multiset_permutations(items):
    """Distinct orderings of a multiset, in sorted order of `items`."""
    items = sorted(items)
    out = []

    def rec(prefix, left):
        if not left:
            out.append(tuple(prefix))
            return
        last = None
        for i, a in enumerate(left):
            if a == last:
                continue
            last = a
            rec(prefix + [a], left[:i] + left[i + 1:])

    rec([], items)
    return out


class RefSparse:
    def __init__(self, desc):
        self.letters = tuple(desc["alphabet"])
        self.background = desc["background"]
        downset = {()}
        for fam in desc["families"]:
            counts = Counter(fam)
            kinds = sorted(counts)
            for picks in itertools.product(*(range(counts[a] + 1) for a in kinds)):
                downset.add(tuple(sorted(itertools.chain.from_iterable(
                    [a] * k for a, k in zip(kinds, picks)))))
        self.downset = downset
        self.empty = False

    def count(self, n):
        total = 0
        for sub in self.downset:
            if len(sub) <= n:
                arrangements = math.factorial(len(sub))
                for k in Counter(sub).values():
                    arrangements //= math.factorial(k)
                total += math.comb(n, len(sub)) * arrangements
        return total

    def contains(self, word):
        markers = tuple(sorted(a for a in word if a != self.background))
        return markers in self.downset and all(a in self.letters for a in word)

    def words(self, n):
        out = []
        for sub in self.downset:
            if len(sub) > n:
                continue
            perms = multiset_permutations(sub)
            for positions in itertools.combinations(range(n), len(sub)):
                for perm in perms:
                    w = [self.background] * n
                    for p, a in zip(positions, perm):
                        w[p] = a
                    out.append(tuple(w))
        return canonical_sort(out, self.letters)

    def max_family_size(self):
        return max(len(s) for s in self.downset)


class RefProduct:
    def __init__(self, desc):
        self.left = ref_language(desc["factors"][0])
        self.right = ref_language(desc["factors"][1])
        self.letters = tuple((a, b) for a in self.left.letters for b in self.right.letters)
        self.empty = False

    def count(self, n):
        return self.left.count(n) * self.right.count(n)

    def contains(self, word):
        return (self.left.contains(tuple(a for a, _ in word))
                and self.right.contains(tuple(b for _, b in word)))

    def words(self, n):
        return canonical_sort([tuple(zip(u, v)) for u in self.left.words(n)
                               for v in self.right.words(n)], self.letters)


def ref_language(desc):
    kind = desc["kind"]
    if kind == "sft":
        return RefSft(desc)
    if kind == "sparse":
        return RefSparse(desc)
    if kind == "product":
        return RefProduct(desc)
    raise ValueError(f"unknown spec kind {kind!r}")


# -- closed forms for the named systems --------------------------------------

CLOSED_FORMS = {
    "full2": lambda n: 2 ** n,
    "hallway": lambda n: 3 * n * n + 4 * n + 1,
    "at_most_one_1": lambda n: n + 1,
}


def single_family_count(family, n):
    """sum over sub-multisets S of the family: C(n, |S|) * |S|! / prod(mult!)"""
    counts = Counter(family)
    total = 0
    for picks in itertools.product(*(range(k + 1) for k in counts.values())):
        size = sum(picks)
        if size > n:
            continue
        ways = math.factorial(size)
        for k in picks:
            ways //= math.factorial(k)
        total += math.comb(n, size) * ways
    return total


# -- extension analysis --------------------------------------------------------

def centered_extensions(lang, word, steps, stop_above=None):
    """Words of L_{|w|+2*steps} with `word` centered (None once above `stop_above`)."""
    current = {tuple(word)}
    for _ in range(steps):
        nxt = set()
        for w in current:
            for a in lang.letters:
                for b in lang.letters:
                    u = (a,) + w + (b,)
                    if lang.contains(u):
                        nxt.add(u)
                        if stop_above is not None and len(nxt) > stop_above:
                            return None
        current = nxt
    return current


def extension_radius(lang, word, cap):
    """(radius or EXCEEDS, unique extension at that radius)."""
    ext = tuple(word)
    for k in range(1, cap + 1):
        found = centered_extensions(lang, ext, 1, stop_above=1)
        if found is None or len(found) != 1:
            return k - 1, ext
        (ext,) = found
    return EXCEEDS, ext


def min_nonextendable_radius(lang, n, cap):
    best = 0
    for w in lang.words(n):
        radius, _ = extension_radius(lang, w, cap)
        if radius == EXCEEDS:
            return EXCEEDS
        best = max(best, radius)
    return best + 1


def extension_window(lang, n, d, cap):
    """Expected outcome of the extension-window search, cap semantics included.

    Returns ("hit", m, k_m) or ("error", reason).  EXCEEDS only proves
    k_m >= cap + 1, so it counts as a hit only when cap + 1 >= C*n.
    """
    horizon = math.floor(n * math.log(n))
    for j in range(n, horizon + 1):
        if lang.count(j) > j ** d:
            return ("error", "hypothesis")
    threshold = math.log(2) / (4 * d) * n
    for m in range(1, horizon + 1):
        k_m = min_nonextendable_radius(lang, m, cap)
        if k_m == EXCEEDS:
            if cap + 1 >= threshold:
                return ("hit", m, EXCEEDS)
            return ("error", "cap-below-Cn")
        if k_m >= threshold:
            return ("hit", m, k_m)
    return ("error", "not-found")


def cylinder_has_aperiodic(lang, word):
    """SFT only: does some aperiodic point carry `word` at 0..|w|-1?

    With |w| >= q the word fixes a vertex path.  No aperiodic point means
    exactly one point, and a periodic one; any branching shows within
    |V| steps, and a window of 3|V|+2 on each side decides periodicity
    of the single forced point (Fine-Wilf on the periodic tails).
    """
    if len(word) < lang.q:
        return any(cylinder_has_aperiodic(lang, u)
                   for u in lang.words(lang.q) if u[:len(word)] == tuple(word))
    reach = 3 * max(len(lang.alive), 1) + 2
    found = centered_extensions(lang, word, reach, stop_above=1)
    if found is None:
        return True
    (u,) = found
    return not any(all(u[i] == u[i + p] for i in range(len(u) - p))
                   for p in range(1, max(len(lang.alive), 1) + 1))


# -- block codes as plain data -------------------------------------------------

def slide(rule, radius, word):
    span = 2 * radius + 1
    return tuple(rule[word[i:i + span]] for i in range(len(word) - span + 1))


def rule_from_json(obj):
    return {tuple(k.split(",")): v for k, v in obj["rule"].items()}


def rule_to_json(letters, radius, rule, lang):
    return {"range": radius, "alphabet": list(letters),
            "rule": {",".join(w): rule[w] for w in lang.words(2 * radius + 1)}}


def compose_rules(lang, outer, r_outer, inner, r_inner):
    """outer after inner, as a rule on L_{2(r_outer+r_inner)+1}."""
    radius = r_outer + r_inner
    return {w: slide(outer, r_outer, slide(inner, r_inner, w))[0]
            for w in lang.words(2 * radius + 1)}, radius


def image_window(desc, lang, radius):
    """Image-word length that decides "maps X into X" for a range-R code.

    SFT: the order.  Sparse, m the largest family size: m(2R+1) + 4R,
    since clusters of markers more than 2R apart act independently.
    """
    if desc["kind"] == "sft":
        return lang.order
    return lang.max_family_size() * (2 * radius + 1) + 4 * radius


def non_endomorphism_witness(desc, lang, rule, radius):
    """A language word whose image leaves the language, or None."""
    n = image_window(desc, lang, radius)
    for w in lang.words(n + 2 * radius):
        image = slide(rule, radius, w)
        if not lang.contains(image):
            return w, image
    return None


def is_two_sided_inverse(lang, rule, radius, inv, inv_radius):
    n = 2 * (radius + inv_radius) + 1
    for w in lang.words(n):
        centre = w[radius + inv_radius]
        if slide(inv, inv_radius, slide(rule, radius, w)) != (centre,):
            return False
        if slide(rule, radius, slide(inv, inv_radius, w)) != (centre,):
            return False
    return True


def permutation_group_order(perms):
    """Order of the group generated by letter permutations (dicts)."""
    letters = sorted(perms[0]) if perms else []
    ident = tuple(letters)
    gens = [tuple(p[a] for a in letters) for p in perms]
    index = {a: i for i, a in enumerate(letters)}
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                gh = tuple(h[index[a]] for a in g)
                if gh not in seen:
                    seen.add(gh)
                    nxt.append(gh)
        frontier = nxt
    return len(seen)


# -- shadowing and syndeticity -------------------------------------------------

def occurrences(word, factor):
    k = len(factor)
    return [i for i in range(len(word) - k + 1) if word[i:i + k] == factor]


def shadow_violation(word, forbidden, u, v, t_steps, dist):
    off = dist + t_steps
    if word[off:off + len(u)] != tuple(u):
        return False
    for f in forbidden:
        for p in occurrences(word, f):
            if t_steps <= p <= 2 * dist + t_steps:
                return False
    return word[dist:dist + len(v)] != tuple(v)


def shadowing_distance(lang, forbidden, u, v, t_steps, cap):
    """Minimal D <= cap with no violating word, or None."""
    for dist in range(cap + 1):
        exts = centered_extensions(lang, u, dist + t_steps)
        if not any(shadow_violation(w, forbidden, u, v, t_steps, dist) for w in exts):
            return dist
    return None


def qualifying_occurrence(word, anchors, dist):
    if occurrences(word, anchors[0]):
        return True
    for i in range(1, len(anchors)):
        for j in occurrences(word, anchors[i]):
            lo, hi = j - dist, j + dist + len(anchors[i]) - 1
            if not any(lo <= s <= hi for earlier in anchors[:i]
                       for s in occurrences(word, earlier)):
                return True
    return False


def syndetic_gap(lang, anchors, dist, cap):
    for gap in range(1, cap + 1):
        if all(qualifying_occurrence(w, anchors, dist) for w in lang.words(gap)):
            return gap
    return None
