"""Alphabets, finite words, and eventually periodic bi-infinite points.

Words are plain tuples of letters; letters are opaque hashable tokens
(strings for the built-in systems, letter pairs for product shifts).
All canonical orderings are by alphabet index, so every enumeration in
the package is reproducible byte for byte.
"""

from math import lcm


class Alphabet:
    """Ordered finite alphabet of distinct letter tokens.

    The letter order is fixed at construction and drives every canonical
    ordering (word sorting, rule-table enumeration, report layout).
    """

    __slots__ = ("letters", "_index")

    def __init__(self, letters):
        letters = tuple(letters)
        if not letters:
            raise ValueError("alphabet needs at least one letter")
        if len(set(letters)) != len(letters):
            raise ValueError("alphabet letters must be pairwise distinct")
        self.letters = letters
        self._index = {a: i for i, a in enumerate(letters)}

    def __len__(self):
        return len(self.letters)

    def __contains__(self, letter):
        return letter in self._index

    def __repr__(self):
        return f"Alphabet({list(self.letters)!r})"

    def word_key(self, word):
        """Canonical sort key of a word: its tuple of letter indices."""
        return tuple(self._index[a] for a in word)

    def sort_words(self, words):
        return sorted(words, key=self.word_key)

    def check_word(self, word):
        """Validate that every letter of `word` belongs to this alphabet."""
        word = tuple(word)
        for a in word:
            if a not in self._index:
                raise ValueError(f"letter {a!r} not in alphabet")
        return word


def occurrences(word, factor):
    """Start positions of `factor` inside `word`."""
    k = len(factor)
    return [i for i in range(len(word) - k + 1) if word[i:i + k] == factor]


class Configuration:
    """A bi-infinite point that is eventually periodic on both sides.

    Coordinate i carries the letter at virtual position j = i + offset,
    where the center block occupies positions 0..len(center)-1, positions
    left of it repeat `left`, and positions right of it repeat `right`.
    This class is closed under shifts and sliding block codes, which is
    all the probing done here ever needs.
    """

    __slots__ = ("left", "center", "right", "offset")

    def __init__(self, left, center, right, offset=0):
        left = tuple(left)
        right = tuple(right)
        if not left or not right:
            raise ValueError("periodic tails must have length >= 1")
        self.left = left
        self.center = tuple(center)
        self.right = right
        self.offset = offset

    @classmethod
    def constant(cls, letter):
        return cls((letter,), (), (letter,), 0)

    @classmethod
    def periodic(cls, word):
        """The point word^infinity with coordinate 0 on word[0]."""
        word = tuple(word)
        return cls(word, (), word, 0)

    @classmethod
    def from_markers(cls, background, markers):
        """All-background point with `markers` (a position -> letter map)."""
        if not markers:
            return cls.constant(background)
        lo = min(markers)
        hi = max(markers)
        center = tuple(markers.get(i, background) for i in range(lo, hi + 1))
        return cls((background,), center, (background,), -lo)

    def get(self, i):
        j = i + self.offset
        if j < 0:
            return self.left[j % len(self.left)]
        if j < len(self.center):
            return self.center[j]
        return self.right[(j - len(self.center)) % len(self.right)]

    def window(self, start, n):
        """The word at coordinates start .. start+n-1."""
        return tuple(self.get(start + k) for k in range(n))

    def shift(self, t=1):
        """sigma^t of this point: coordinate i of the result is self at i+t."""
        return Configuration(self.left, self.center, self.right, self.offset + t)

    def __eq__(self, other):
        if not isinstance(other, Configuration):
            return NotImplemented
        # Compare on a window wide enough that both points are purely
        # periodic beyond it; agreement there propagates to all of Z.
        lp = lcm(len(self.left), len(other.left))
        rp = lcm(len(self.right), len(other.right))
        lo = min(-self.offset, -other.offset) - lp
        hi = max(len(self.center) - self.offset,
                 len(other.center) - other.offset) + rp
        return self.window(lo, hi - lo) == other.window(lo, hi - lo)

    __hash__ = None

    def is_periodic(self):
        """Whether some nonzero shift fixes the point.

        A point fixed by any shift is fixed by a shift of its left tail
        period, so one comparison decides.
        """
        return self.shift(len(self.left)) == self

    def __repr__(self):
        return (f"Configuration(left={self.left!r}, center={self.center!r}, "
                f"right={self.right!r}, offset={self.offset})")
