"""The process entry point: `python -m powcov` and the `powcov` script.

run() imports the command line with the cyclic garbage collector off and
then freezes what the import built (powcov's modules, classes and functions
and those of the standard library it imports), so no collection in the run
walks those objects again.  It freezes once more after the command, so the
collections the interpreter makes at exit skip the run's objects too.  Exit
still runs the atexit handlers and flushes stdout and stderr, and every file
powcov writes is closed before the command returns.  cli.main is left
alone: code that calls it in its own process keeps its collector as it was.
"""

import gc
import sys


def run() -> int:
    gc.disable()
    try:
        from .cli import main
    finally:
        gc.freeze()
        gc.enable()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
