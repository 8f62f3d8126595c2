"""``python -m repro.experiments`` entry point."""

import sys

from .cli import main

if __name__ == "__main__":  # worker processes started by ``spawn`` re-import this
    sys.exit(main())
