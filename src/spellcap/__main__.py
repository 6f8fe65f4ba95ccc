"""The ``spellcap`` command (the console script, and ``python -m spellcap``).

BLAS runs one thread unless the caller set one of the thread variables. On a
2-core machine, ``spellcap train`` on 700 samples took as long with one
thread as with OpenBLAS's default of one per core when the machine was idle,
and half as long when another process kept a core busy. BLAS reads the
variables once, when numpy loads, so they are set here, before the CLI
imports numpy; ``import spellcap`` leaves them alone.
"""

import os
import sys

# the thread variables of OpenBLAS, the BLAS timed above
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def limit_blas_threads() -> None:
    """One BLAS thread unless the caller set a thread variable; call it
    before anything imports numpy."""
    if not any(var in os.environ for var in THREAD_VARS):
        for var in THREAD_VARS:
            os.environ[var] = "1"


def main() -> int:
    limit_blas_threads()
    from .cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
