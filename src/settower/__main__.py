"""``python -m settower``: the same command as the ``settower`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
