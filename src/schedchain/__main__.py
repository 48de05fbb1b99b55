"""Process entry point: ``python -m schedchain`` and the ``schedchain`` script.

A command-line call is a short batch job, and :func:`entry` runs it as one.
It turns the cyclic garbage collector off, gives OpenBLAS one thread unless
the caller chose a thread count, and ends the process without interpreter
teardown once the output is out.  ``import schedchain`` and an in-process
``schedchain.cli.main`` do none of this.
"""

import atexit
import gc
import os
import sys

#: Variables through which a caller sets the OpenBLAS thread count.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def entry() -> None:
    """Run the command line as a whole process and exit with its code.

    Both settings act before ``cli`` imports numpy.  The call keeps few
    objects and makes few cycles, so the collector would only walk the
    import-time heap.  The CLI makes no matrix product big enough to thread,
    and a second BLAS thread costs CPU time at start-up; a thread count the
    caller set still wins.

    When ``main`` returns, the ``atexit`` handlers run and both standard
    streams are flushed before ``os._exit``, which skips only the teardown
    (module clean-up and its collections).  If a flush fails, the process
    exits through ``sys.exit`` as usual.  An exception from ``main``,
    ``SystemExit`` included, takes the interpreter's usual path.
    """
    gc.disable()
    if not any(name in os.environ for name in _THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .cli import main

    code = main()
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
