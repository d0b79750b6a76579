"""Exception types shared across the package, and the bounded echo of a value in an error line."""

ECHO = 40  # characters of a value that an error line shows


def echo(value, show=repr) -> str:
    """``show(value)``, or for a value of more than ``ECHO`` characters ``show`` of its first ``ECHO`` and its length.

    A value that is not a string is bounded as the text ``show`` gives it.
    """
    if not isinstance(value, str):
        value, show = show(value), str
    if len(value) <= ECHO:
        return show(value)
    return f"{show(value[:ECHO])}… ({len(value)} characters)"


class ConvergenceError(RuntimeError):
    """An iterative numerical procedure failed to reach its tolerance."""


class MissingDataError(RuntimeError):
    """An expected input file or data subset is absent."""
