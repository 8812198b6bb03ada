"""`python -m tropical_refine`: the entry point of the tropical-refine script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
