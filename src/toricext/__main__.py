"""Process entry point: ``python -m toricext`` and the installed ``toricext``.

Two things here concern the process, not the CLI, so ``cli.main`` (which tests
and in-process callers use) does neither:

* A reader that closes stdout early (``toricext ... | head``) ends the call
  with exit 141, as a shell reports a process killed by SIGPIPE, and nothing
  on stderr.  Exit 1 would read as a failed verification.
* After the command, every object is moved to the GC's permanent generation,
  so interpreter shutdown does not walk the whole heap in a final
  collection.  Atexit handlers and stdio shutdown still run.
"""

import gc
import os
import sys

from . import cli

# 128 + SIGPIPE, the status of a process that SIGPIPE ended
_BROKEN_PIPE = 141


def main(argv=None) -> int:
    try:
        code = cli.main(argv)
        sys.stdout.flush()  # a small output would otherwise fail at exit
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout once more at exit; point it at
        # devnull so that flush cannot raise again (Python docs, "Note on
        # SIGPIPE")
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return _BROKEN_PIPE
    finally:  # also when the parser exits (--help, a bad argument)
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
