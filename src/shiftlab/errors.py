"""Exception types shared across the package.

Most bounded searches that run out of room (extension radii, shadowing
distances, syndetic gaps, subgroup closures) return explicit "cap" results.
Two raise: `build_chain` past its level cap (CapExceededError), and
`enumerate_automorphisms` on too many rule tables (SearchSpaceError, before
it builds any).  The other exceptions mark violated preconditions and
searches whose failure signals a broken hypothesis.
"""


class ShiftlabError(Exception):
    """Base class for all package-specific errors."""


class EmptySubshiftError(ShiftlabError):
    """A language query was made against the empty subshift."""


class SpecFormatError(ShiftlabError):
    """A subshift-spec or block-code file failed strict parsing."""


class RuleIncompleteError(ShiftlabError):
    """A block code was applied to a window missing from its rule table."""


class SearchSpaceError(ShiftlabError):
    """A brute-force enumeration would exceed its hard cap."""

    def __init__(self, size, cap):
        super().__init__(f"search space of {size} rule tables exceeds cap {cap}")
        self.size = size
        self.cap = cap


class NoUniqueExtenderError(ShiftlabError):
    """Chain construction found no admissible word at some level.

    Signals that the unique-extension hypothesis fails for the given
    (subshift, length bound) pair.  Carries the failing level and the
    partial chain built so far.
    """

    def __init__(self, level, partial):
        super().__init__(f"no word with the required unique extension at level {level}")
        self.level = level
        self.partial = partial


class LemmaWindowNotFoundError(ShiftlabError):
    """The extension-window search failed: hypothesis violated or cap too small."""


class CapExceededError(ShiftlabError):
    """A bounded construction ran past its explicit cap."""


class InvalidChainError(ShiftlabError):
    """An operation received a chain with no levels."""


class NoAperiodicPointError(ShiftlabError):
    """The removal-bound check requires an aperiodic point in the cylinder."""


class HypothesisError(ShiftlabError):
    """A stated lemma hypothesis fails for the given inputs."""
