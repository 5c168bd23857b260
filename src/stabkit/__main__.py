"""``python -m stabkit <command>``: the CLI, as the ``stabkit`` script runs it."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
