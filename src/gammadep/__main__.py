"""`python -m gammadep` runs the same entry point as the `gammadep` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
