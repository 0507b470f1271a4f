"""Process entry of `python -m triwords` and of the installed `triwords` script.

`run` calls `cli.main`, flushes, and ends with `os._exit(status)`: a finished
command needs none of the interpreter's teardown.  `main` returns a status
for every exception, so only Ctrl-C escapes it, and takes the normal exit.
"""

import os
import sys
from contextlib import suppress

from .cli import main


def run():
    status = main()
    for stream in filter(None, (sys.stdout, sys.stderr)):  # a stream closed at start-up is None
        with suppress(OSError):  # a failed write is main's to report; os._exit drops what is still buffered
            stream.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
