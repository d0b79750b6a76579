"""Exception types shared across the package, the bounded echo of a value in an error line, the
two rules every numeric argument of the library is checked by: a finite real number in an
interval, and an integer in a range closed below and, if given, above, neither of which takes a
bool, Python's or numpy's, for a number; and the rule a plan, a noise model, a record or a
projector set is checked by."""

import math
import numbers
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


def check_real(value, message: str, *, ge=-math.inf, gt=None, le=math.inf, lt=None, name=None) -> None:
    """A ValueError ``<message>, not <value>`` unless ``value`` is a finite real number, not a bool,
    above ``gt`` (if given, else at least ``ge``) and below ``lt`` (if given, else at most ``le``).

    The bounds are checked on ``float(value)``, so nan, an infinity and an integer that no float
    holds all fail. With ``name`` the value shows as ``<name>=<value>``, for a message that speaks
    of several arguments. numpy's bool is not a ``numbers.Real``.
    """
    try:
        x = float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an integer or a fraction past the float range
        x = math.nan
    if not (math.isfinite(x) and (x > gt if gt is not None else x >= ge) and (x < lt if lt is not None else x <= le)):
        raise ValueError(f"{message}, not {echo(value) if name is None else f'{name}={echo(value)}'}")


def check_integer(value, message: str, ge: int, le: int | None = None) -> None:
    """A ValueError ``<message>, not <value>`` unless ``value`` is a Python or numpy integer, not a
    bool, of at least ``ge`` and, if ``le`` is given, at most ``le``."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool) and ge <= value and (le is None or value <= le)):
        raise ValueError(f"{message}, not {echo(value)}")


def check_instance(value, kind: type | tuple[type, ...], message: str) -> None:
    """A ValueError ``<message>, not <value>`` unless ``value`` is a ``kind``, or one of a tuple of kinds."""
    if not isinstance(value, kind):
        raise ValueError(f"{message}, not {echo(value)}")


class ConvergenceError(RuntimeError):
    """An iterative numerical procedure failed to reach its tolerance."""


class MissingDataError(RuntimeError):
    """An expected input file or data subset is absent."""
