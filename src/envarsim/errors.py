"""Exception types shared across the package, and the bounded echo of a value in an error line."""

ECHO = 40  # characters of a value that an error line shows


def echo(value, show=repr) -> str:
    """``show(value)``, or for a value of more than ``ECHO`` characters ``show`` of its first ``ECHO`` and its length.

    A value that is not a string is bounded as the text ``show`` gives it. Escapes and
    wide characters can show one character in up to ten bytes, so a head that shows in
    more than ``3 * ECHO`` bytes is shortened until it fits.
    """
    if not isinstance(value, str):
        value, show = show(value), str
    head = value[:ECHO]
    while len(show(head).encode(errors="surrogatepass")) > 3 * ECHO:
        head = head[:-1]
    return show(value) if head == value else f"{show(head)}… ({len(value)} characters)"


class ConvergenceError(RuntimeError):
    """An iterative numerical procedure failed to reach its tolerance."""


class MissingDataError(RuntimeError):
    """An expected input file or data subset is absent."""
