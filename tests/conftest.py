import contextlib
import os
import sys
import warnings

sys.path.insert(0, os.path.dirname(__file__))

# When a hypothesis test fails, hypothesis imports libcst to write its patch
# hint, inside pytest's report hook.  libcst's import raises a
# DeprecationWarning from mypy_extensions, which under `-W error` ends the
# run in an INTERNALERROR that does not name the failing test.  So libcst, if
# installed, is imported here once with only that warning ignored; every
# other warning stays an error.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                            DeprecationWarning)
    import libcst  # noqa: F401
