"""Exception types shared across the package, and the bounded echo of a value in an error line."""

import os
import re

ECHO = 40  # characters of a value that an error line shows
PATH_ECHO = 160  # characters, and bytes as shown, of a path that an error line shows
# control characters, which would split or garble the one error line, and lone surrogates
# (undecodable bytes of a path), which stderr writes as their escapes anyway
_UNPRINTABLE = re.compile("[\x00-\x1f\x7f-\x9f\u2028\u2029\ud800-\udfff]")


def escape(text: str) -> str:
    """``text`` as an error line prints it: each control character or lone surrogate as its escape."""
    return _UNPRINTABLE.sub(lambda m: ascii(m[0])[1:-1], text)


def echo(value, show=repr, width=ECHO, size=3 * ECHO) -> str:
    """``show(value)``, or for a value of more than ``width`` characters ``show`` of its first ``width`` and its length.

    A value that is not a string is bounded as the text ``show`` gives it. Escapes and
    wide characters can show one character in up to ten bytes, so a head that shows in
    more than ``size`` bytes is shortened until it fits.
    """
    if not isinstance(value, str):
        value, show = show(value), str
    head = value[:width]
    while len(show(head).encode(errors="surrogatepass")) > size:
        head = head[:-1]
    return show(value) if head == value else f"{show(head)}… ({len(value)} characters)"


def echo_path(path) -> str:
    """``path`` as an error line names it: whole, as ``escape`` prints it, if that takes at most
    ``PATH_ECHO`` bytes, else its head and its length."""
    return echo(os.fspath(path), show=escape, width=PATH_ECHO, size=PATH_ECHO)


class ConvergenceError(RuntimeError):
    """An iterative numerical procedure failed to reach its tolerance."""


class MissingDataError(RuntimeError):
    """An expected input file or data subset is absent."""
