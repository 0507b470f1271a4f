"""Process entry of `python -m triwords` and of the installed `triwords` script.

`run` freezes the objects the imports made (`gc.freeze`) before `cli.main`
runs, so the full collections the interpreter makes at exit skip them;
that is about a tenth of a run that computes in milliseconds.  `cli.main`
itself leaves the collector alone, since tests and tools call it in process.
"""

import gc
import sys

from .cli import main


def run() -> int:
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
