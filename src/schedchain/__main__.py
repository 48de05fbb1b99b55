"""Process entry point: ``python -m schedchain`` and the ``schedchain`` script."""

import gc
import sys

from .cli import main


def entry() -> None:
    """Run the command line as a whole process and exit with its code.

    Objects made by the imports live until exit.  Frozen, they are left out
    of every collection from here on, including the ones the interpreter
    runs at exit.  ``main`` does not freeze, because it also runs in-process.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
