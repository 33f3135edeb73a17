"""Entry point for ``python -m repro``."""

import os
import sys

from .cli import main


def _observed() -> bool:
    """Whether a profiler, tracer or coverage tool watches this run.

    Such tools write their results when the interpreter exits normally.
    Since CPython 3.12 cProfile and coverage may run on ``sys.monitoring``
    and then set neither ``sys.setprofile`` nor ``sys.settrace``.
    """
    if sys.getprofile() is not None or sys.gettrace() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(
        monitoring.get_tool(tool_id) is not None for tool_id in range(6)
    )


def _exit(code) -> None:
    """Leave with ``code``, skipping the interpreter's heap teardown.

    A finished campaign holds hundreds of thousands of small objects whose
    deallocation at exit costs a noticeable share of a run.  Once ``main``
    has returned, every output file is closed, so after flushing the standard
    streams ``os._exit`` loses nothing.  The normal exit stays for a code
    ``SystemExit`` must interpret, an observed run (see :func:`_observed`),
    live worker processes, and standard streams that cannot be flushed.
    """
    multiprocessing = sys.modules.get("multiprocessing")
    if (
        not (code is None or isinstance(code, int))
        or _observed()
        or (multiprocessing is not None and multiprocessing.active_children())
    ):
        raise SystemExit(code)
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        raise SystemExit(code)
    os._exit(code or 0)


def _run():
    """``main()``, with a reader that closed the pipe early (``repro … | head``)
    ending the run quietly with code 1 instead of a traceback."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Later writes, the interpreter's final flush included, go nowhere.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    _exit(_run())
