"""Process entry point: ``python -m toricext`` and the installed ``toricext``.

Two things here concern the process, not the CLI, so ``cli.main`` (which tests
and in-process callers use) does neither:

* OpenBLAS runs on one thread.  Only bridge-check loads numpy, and it hands
  OpenBLAS no LAPACK operand at all, so the thread pool would only cost
  start-up time; output is the same either way.  It must be set before numpy
  is first imported, and it is a constant, not a default.  The other
  commands load no numpy, so for them it has no effect.
* After the command, every object is moved to the GC's permanent generation,
  so interpreter shutdown does not walk the whole heap (numpy's included) in
  a final collection.  Atexit handlers and stdio shutdown still run.
"""

import gc
import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"

# cli imports no numpy; the commands that use it import it inside main, so
# after the pin
from . import cli  # noqa: E402


def main(argv=None) -> int:
    try:
        return cli.main(argv)
    finally:  # also when argparse exits (--help, a bad argument)
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
