"""Exact complexity functions and unique-extension analysis.

The counting side is straightforward; the interesting parts are the
extension radii (how far a word determines its surroundings) and the
window search behind the slow-complexity growth argument:  whenever
P_X(n) <= n^d from some point on, some m <= n*ln(n) has every word of
length m pinned down Cn deep on both sides, with C = ln(2)/(4d).  Every
unique-extension question is asked of `extension_radius`, which reads
the two sides of a word apart: right along the compiled rows, left back
along their reversal.  The lists of all two-sided extensions, which the
shadowing and occurrence searches scan, come from `_centred`, in
canonical order as made.
"""

import itertools
import math
from typing import NamedTuple

from .errors import EmptySubshiftError, LemmaWindowNotFoundError
from .subshifts import spec_digest

EXCEEDS_CAP = "exceeds-cap"
AT_LEAST_CAP = "at-least-cap"


class ComplexityTable(NamedTuple):
    subshift_id: str
    values: dict  # n -> P_X(n), for 1 <= n <= N


def complexity_table(spec, max_n):
    """P_X(n) = |L_n(X)| for 1 <= n <= max_n; errors on the empty subshift."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if spec.is_empty:
        raise EmptySubshiftError("complexity undefined on the empty subshift")
    values = {n: spec.count_words(n) for n in range(1, max_n + 1)}
    return ComplexityTable(subshift_id=spec_digest(spec), values=values)


class ExtensionReport(NamedTuple):
    word: tuple
    radius: object  # int, or AT_LEAST_CAP when still unique at the cap
    cap: int
    extension: tuple  # the unique centered extension at min(radius, cap)


def _centred(spec, word):
    """Yield E_0, E_1, ...: E_k lists the words of L_{|w|+2k} with w at the
    centre, in canonical order.  E_0 is [w] if w is in the language
    (`contains` also checks the letters), else every E_k is [].  E_{k+1}
    runs a+u for a in the start row, then u in E_k, and appends a+u+b for
    b in the end state's row, so it is made in canonical order; it misses
    no word, as the middle of each lies in E_k (factoriality)."""
    if not spec.contains(word):
        yield from itertools.repeat([])
    level, rows = [word], spec._rows
    while True:
        yield level
        nxt = []
        for a, start in rows[0].items():
            for u in level:
                state = start
                for c in u:
                    state = rows[state].get(c)
                    if state is None:
                        break  # the language is factorial
                else:
                    left = (a,) + u
                    for b in rows[state]:
                        nxt.append(left + (b,))
        level = nxt


def extension_radius(spec, word, cap):
    """Largest k <= cap such that exactly one u in L_{|w|+2k} has w centered.

    For w in L, |E_k(w)| = 1 exactly when w has one left k-extension (x of
    length k with xw in L) and one right one (y with wy in L).  Every word
    of L extends on both sides, so each such x extends to some xwy in E_k,
    and each such y to some xwy; and every word of E_k restricts to a left
    and a right extension.  So the radius is the lesser of two one-sided
    radii, and the unique extension joins the two unique sides.

    The compiled states are the d(0, u), u in L.  Right: wy is in L
    exactly when y is read from d(0, w), and every state has a letter out
    (u extends), so y is unique exactly while the walk from d(0, w) meets
    rows of one letter.  Left: xw is in L exactly when x leads some
    compiled state into P_w, the states that read w (uxw in L gives xw by
    factoriality; u empty gives the converse).  So the left letters one
    step out are those of the edges into the current set, read off `_into`,
    the reversed rows; x is unique while they carry a single letter, and
    the set steps back along it.  P_w is found by the same steps back along
    w from all states.  Uniqueness is monotone in k, and the left walk
    stops at the right radius.  Each step back reads at most the E compiled
    edges, so a radius k costs O((|w| + k)*E) and no two-sided list.

    Every word of L is its own 0-fold extension, so at cap 0 the answer
    is `at-least-cap` with w itself: cap 0 asks only whether w is in L.
    At cap 0 `min_nonextendable_radius` is then `exceeds-cap`, proving
    only k_m >= 1, which `find_extension_window` takes only when 1 >= C*n.
    """
    word = tuple(word)
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if not spec.contains(word):
        raise ValueError(f"word {word!r} not in the language")
    rows, state = spec._rows, 0
    for a in word:
        state = rows[state][a]
    right = []
    while len(right) < cap and len(rows[state]) == 1:
        ((a, state),) = rows[state].items()
        right.append(a)
    left = []
    if right:
        into, states = spec._into, range(len(rows))
        for a in reversed(word):  # P_w, the states that read w
            states = {s for t in states for s in into[t].get(a, ())}
        while len(left) < len(right):
            letters = {a for t in states for a in into[t]}
            if len(letters) != 1:
                break
            (a,) = letters
            left.append(a)
            states = {s for t in states for s in into[t].get(a, ())}
    k = len(left)
    extension = tuple(reversed(left)) + word + tuple(right[:k])
    return ExtensionReport(word, AT_LEAST_CAP if k == cap else k, cap, extension)


def min_nonextendable_radius(spec, n, cap):
    """k_n: least k <= cap with no length-n word extending uniquely k times.

    Returns EXCEEDS_CAP when some word is still uniquely extendable at
    the cap (the minimum, if it exists at all, lies beyond the cap).
    """
    if spec.is_empty:
        return 1
    best = 0
    for w in spec.words(n):
        report = extension_radius(spec, w, cap)
        if report.radius == AT_LEAST_CAP:
            return EXCEEDS_CAP
        best = max(best, report.radius)
    return best + 1


def find_extension_window(spec, n, d, cap):
    """Search m <= floor(n*ln n) with k_m >= C*n, C = ln(2)/(4d).

    The polynomial hypothesis P_X(j) <= j^d is checked on the scanned
    range j in [n, floor(n*ln n)] before searching; a violation there (or
    an exhausted search) raises, signalling that the growth hypothesis
    fails for this subshift or that the cap is too small.  An EXCEEDS_CAP
    radius only proves k_m >= cap+1, so it counts as a hit only when
    cap+1 >= C*n; otherwise the search raises, naming the cap.  The empty
    subshift is refused, as `complexity_table` refuses it.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if d < 1:
        raise ValueError("d must be >= 1")
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if spec.is_empty:
        raise EmptySubshiftError("complexity undefined on the empty subshift")
    horizon = math.floor(n * math.log(n))
    for j in range(n, horizon + 1):
        if (count := spec.count_words(j)) > (bound := j ** d):
            # str() refuses 4,300+ digits: past them P(j) is named by a bound, j^d as a power
            raise LemmaWindowNotFoundError(
                f"hypothesis P(n) <= n^{d} fails at n={j}: "
                f"{count if count < 10 ** 4300 else 'at least 10^4300'} > "
                f"{bound if bound < 10 ** 4300 else f'{j}^{d}'}")
    threshold = math.log(2) / (4 * d) * n
    if cap + 1 < threshold:
        # finite radii are <= cap and EXCEEDS_CAP only proves k_m >= cap+1
        raise LemmaWindowNotFoundError(
            f"cap {cap} too small: cap+1 < C*n = {threshold:.3f}")
    for m in range(1, horizon + 1):
        k_m = min_nonextendable_radius(spec, m, cap)
        if k_m == EXCEEDS_CAP or k_m >= threshold:
            return m, k_m
    raise LemmaWindowNotFoundError(
        f"no m <= {horizon} with k_m >= {threshold:.3f} at cap {cap}")


def slow_growth_window(table, k, eps):
    """Smallest x with (f(x+k)-f(x))/f(x) < eps, or None.

    `table` lists f(0..N); f must be nondecreasing and positive.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if len(table) < k + 1:
        raise ValueError("table must cover at least 0..k")
    for i, v in enumerate(table):
        if v <= 0:
            raise ValueError("f must be positive")
        if i and v < table[i - 1]:
            raise ValueError("f must be nondecreasing")
    for x in range(len(table) - k):
        if (table[x + k] - table[x]) / table[x] < eps:
            return x
    return None
