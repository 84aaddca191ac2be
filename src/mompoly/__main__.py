"""`python -m mompoly` runs the command line; see mompoly.cli."""

import sys

from .cli import main

if __name__ == "__main__":  # not when a tool imports every submodule
    sys.exit(main())
