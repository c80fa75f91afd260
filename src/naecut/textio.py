"""The line grammar shared by every naecut text format.

Input is UTF-8 text or bytes with LF or CRLF line ends; blank lines and
lines starting with `c` are skipped; values are whitespace-separated
integer tokens; malformed input raises FormatError.
"""

from __future__ import annotations

from .errors import FormatError

# The largest header count or map vertex id: storage is sized from these before
# the rest of the file is read.  At the limit a graph takes about 90 MB and a split
# formula about 300 MB; the largest benchmark graph has 53,324 vertices.
MAX_COUNT = 1_000_000


def decoded(text: str | bytes) -> str:
    """The text itself, or the bytes decoded as UTF-8; FormatError if they are not."""
    if isinstance(text, bytes):
        try:
            return text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"input is not UTF-8: {exc}") from None
    return text


def records(text: str | bytes):
    """(line, tokens) for each non-blank line that is not a `c` comment.

    `line` is the stripped line; `str.split` and `str.strip` share one notion
    of whitespace, so the tokens of a line are those of its stripped form.
    """
    for raw in decoded(text).splitlines():
        tokens = raw.split()
        if tokens and tokens[0][0] != "c":
            yield raw.strip(), tokens


def ints(tokens, what: str, line: str) -> tuple[int, ...]:
    """The tokens as integers; FormatError naming the line otherwise."""
    try:
        return tuple(map(int, tokens))
    except ValueError:
        raise FormatError(f"malformed {what}: {line!r}") from None


def read_header(tokens, tag: str, line: str) -> tuple[int, ...]:
    """The two counts of a `p <tag> <a> <b>` line; callers' constructors reject negatives."""
    if len(tokens) != 4 or tokens[0] != "p" or tokens[1] != tag:
        raise FormatError(f"malformed header: {line!r}")
    counts = ints(tokens[2:], "header", line)
    if max(counts) > MAX_COUNT:
        raise FormatError(f"header count {max(counts)} exceeds the limit of {MAX_COUNT}")
    return counts
