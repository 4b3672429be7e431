"""``python -m summability``: the command-line interface of :mod:`summability.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
