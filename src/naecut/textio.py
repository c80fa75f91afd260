"""The line grammar shared by every naecut text format.

Input is UTF-8 text or bytes with LF or CRLF line ends; blank lines and
lines starting with `c` are skipped; values are whitespace-separated
integer tokens; malformed input raises FormatError.

A graph or reduction map in exactly its emitter's form (single spaces, LF
line ends, ASCII digits, no comments, lines in emitted order) is tokenised
in one pass through `columns`; any other text is read line by line through
`records`.  Both readers yield the same counts and tables, and one set of
checks turns them into the object or the error, so neither depends on the
path.  A text whose fault only the line reader can name (a repeated map id,
a header count over MAX_COUNT) goes to the line reader.
"""

from __future__ import annotations

import re

from .errors import FormatError

# The largest header count or map vertex id: storage is sized from these before
# the rest of the file is read.  At the limit a parsed graph keeps about 87 MB (a
# million vertices and edges) and a split formula takes about 300 MB; the largest
# benchmark graph has 53,324 vertices.
MAX_COUNT = 1_000_000

# `columns` checks and splits its span in pieces of about this many characters, so
# the regex's match stack and the token lists stay small on large files.
_CHUNK = 1 << 16


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


def columns(text: str, start: int, stop: int, kind: str, count: int) -> list[list[int]] | None:
    """The `count` integer columns of text[start:stop] when each of its lines is
    exactly `kind` and `count` ASCII-digit tokens, single-spaced and LF-ended; None
    for any other span, a line longer than a chunk or a token over `int`'s digit limit."""
    form = re.compile(f"(?:{kind}{' [0-9]+' * count}\n)*")
    lead = len(kind.split())
    width = lead + count
    cols: list[list[int]] = [[] for _ in range(count)]
    while start < stop:
        cut = text.rfind("\n", start, min(start + _CHUNK, stop)) + 1
        if cut <= start or form.fullmatch(text, start, cut) is None:
            return None
        tokens = text[start:cut].split()
        try:
            for k, col in enumerate(cols, lead):
                col.extend(map(int, tokens[k::width]))
        except ValueError:
            return None
        start = cut
    return cols


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
