"""Process entry of the command line: ``python -m ergodec`` and the ``ergodec`` script.

Each command is one short process, and CPython's cyclic collector would
spend a large share of it walking the objects that ``import ergodec.cli``
leaves alive: numpy's modules and this package's, about 22 thousand.
Imports trigger young-generation collections that walk them again and
again, and interpreter shutdown collects them all once more, although the
process is about to end.  None of them becomes garbage during a command,
which itself creates only a few hundred cyclic objects (argparse's), so
``run`` imports the CLI with the collector off, then freezes what is alive
(``gc.freeze`` moves it to a generation the collector never walks) and
turns the collector on for the command.  When the command returns it
freezes again, so shutdown has nothing left to collect.

``ergodec.cli.main`` leaves the collector alone, so a caller that runs it
in its own process keeps its own policy.
"""

import gc
import sys


def run() -> int:
    """Run the command named by ``sys.argv`` and return its exit code."""
    gc.disable()
    from .cli import main

    gc.freeze()
    gc.enable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
