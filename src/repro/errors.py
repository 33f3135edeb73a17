"""The errors a ``repro`` run reports to its user instead of as a bug.

:func:`repro.cli.main` catches :class:`ReproError` and nothing else: it prints
the error as one ``error: ...`` line on stderr and returns the error's
:attr:`~ReproError.exit_code`.  Any other exception is a bug and keeps its
traceback.  The module imports nothing, so subcommands that never load the
measurement pipeline can raise and catch these errors too.
"""


class ReproError(Exception):
    """A run the user asked for cannot go ahead (or cannot finish)."""

    #: Exit code of ``python -m repro`` when this error ends the run.
    exit_code = 2


class InputError(ReproError, ValueError):
    """An argument value, or a combination of them, that no run accepts."""
