"""``python -m polyfract``: the same command line as the ``polyfract`` script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
