import random

import pytest

from naecut import FormatError
from naecut.textio import records


def reference_lines(text):
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"input is not UTF-8: {exc}") from None
    for raw in text.splitlines():
        line = raw.strip()
        if line:
            yield line


def reference_records(text):
    """The two-generator reader that `records` replaced for speed; the reference."""
    for line in reference_lines(text):
        if not line.startswith("c"):
            yield line, line.split()


# Every line break and blank that `splitlines`, `split` or `strip` treats specially.
PIECES = (
    "\t", " ", "\r", "\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
    "\x85", "\xa0", "\u2028", "\u3000", "c", "p", "e", "0", "1", "7", "42",
)


def outcome(reader, text):
    try:
        return list(reader(text))
    except FormatError as exc:
        return str(exc)


def test_records_matches_the_reference_reader():
    rng = random.Random(0)
    for i in range(20000):
        text = "".join(rng.choice(PIECES) for _ in range(rng.randrange(25)))
        inputs = [text, text.encode()]
        if i % 10 == 0:
            raw = text.encode()
            cut = rng.randrange(len(raw) + 1)
            inputs.append(raw[:cut] + rng.choice((b"\xff", b"\xc3", b"\xe2\x80")) + raw[cut:])
        for data in inputs:
            assert outcome(records, data) == outcome(reference_records, data), data

