"""Process entry of `python -m triwords` and of the installed `triwords` script.

`run` calls `cli.main`, flushes, and ends with `os._exit(status)`: a finished
command needs none of the interpreter's teardown.  An exception that escapes
`main`, a bug or Ctrl-C, takes the normal exit.
"""

import os
import sys
from contextlib import suppress

from .cli import main


def run():
    status = main()
    with suppress(BrokenPipeError):  # the reader is gone; os._exit drops what is still buffered
        sys.stdout.flush()
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
