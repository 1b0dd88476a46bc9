import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# CI passes --hypothesis-profile=ci, so a CI failure replays locally with the same flag
settings.register_profile("ci", derandomize=True, deadline=None)

# hypothesis imports this module when it reports a falsified example, and
# the import chain (libcst, mypy_extensions) warns; under -W error that
# warning would end the run as INTERNALERROR and lose the failure report
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from shiftlab import make_example


@pytest.fixture(scope="session")
def systems():
    """All built-in systems, constructed once per session."""
    return {name: make_example(name)
            for name in ("full2", "golden_mean", "cycle2", "at_most_one_1",
                         "salo_schraudner", "hallway")}
