import random
import tracemalloc

import pytest

from naecut import (
    FormatError,
    build_graph,
    emit_graph,
    emit_reduction_map,
    generate_instance,
    parse_graph,
    parse_reduction_map,
    split_repeated_variables,
)
from naecut.graphs import _edge_lines, _emitted_edges
from naecut.reduction import _emitted_tables, _map_lines
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



def _reduction_texts(seed, n, m):
    g, rm = build_graph(split_repeated_variables(generate_instance(seed, n, m))[0])
    return emit_graph(g), emit_reduction_map(rm)


def _mutated(text, rng):
    """The emitted text with one edit: an id, a line, the spacing, the line ends,
    a comment, a loop, a vertex past every id or a digit written in another script."""
    lines = text.splitlines(keepends=True)
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    tokens = lines[i].split()
    k = rng.choice([k for k, t in enumerate(tokens) if t.isdigit()])
    edit = rng.randrange(11)
    if edit == 0:
        tokens[k] = str(int(tokens[k]) + rng.choice((-3, -2, -1, 1, 2, 3)))
    elif edit == 1:
        tokens[k] = tokens[k - 1] if tokens[k - 1].isdigit() else tokens[k]  # a self-loop, equal apexes
    elif edit == 2:
        tokens[k] = str(sum(map(len, lines)))
    elif edit == 3:
        tokens[k] = tokens[k].replace(rng.choice(tokens[k]), rng.choice("\u0663\uff13\u0b67"), 1)
    elif edit == 4:
        del lines[i]
    elif edit == 5:
        lines.insert(j, lines[i])
    elif edit == 6:
        lines[i], lines[j] = lines[j], lines[i]
    elif edit == 7:
        lines.insert(j, "c note\n")
    elif edit == 8:
        lines[i] = lines[i].replace("\n", "\r\n")
    elif edit == 9:
        return "".join(lines).replace("\n", "\r\n")
    if edit < 4:
        lines[i] = " ".join(tokens) + "\n"
    elif edit == 10:
        lines[i] = lines[i].replace(" ", rng.choice(("\t", "  ")), 1)
    return "".join(lines)


def outcome_or_error(parse, text):
    try:
        return parse(text)
    except FormatError as exc:
        return f"FormatError: {exc}"


def test_emitted_form_reads_as_the_line_reader_does():
    # The one-pass reader returns the line reader's tables or None; everything after
    # is shared.  A leading comment sends any text to the line reader.
    rng = random.Random(0)
    readers = ((parse_graph, _emitted_edges, _edge_lines), (parse_reduction_map, _emitted_tables, _map_lines))
    one_pass = differ = 0
    for seed in range(40):
        texts = _reduction_texts(seed, 4 + seed % 9, 3 + seed % 13)
        for text, (parse, emitted, lines) in zip(texts, readers):
            assert emitted(text) == lines(text)  # an emitter's own text takes the one-pass read
            original = parse(text)
            for _ in range(60):
                mutated = _mutated(text, rng)
                tables = emitted(mutated)
                if tables is not None:
                    assert tables == lines(mutated), mutated
                    one_pass += 1
                expected = outcome_or_error(parse, "c\n" + mutated)
                assert outcome_or_error(parse, mutated) == expected, mutated
                assert outcome_or_error(parse, mutated.encode()) == expected, mutated
                differ += expected != original
    assert one_pass > 1000 and differ > 2000  # about half the edits make a fault or another object
    # A token over int's digit limit fails the one-pass read; the line reader names its line.
    for text, (parse, emitted, _), kind in zip(_reduction_texts(1, 5, 4), readers, ("edge", "gad")):
        head, _, _ = text[:-1].rpartition(" ")
        text = f"{head} {'9' * 5000}\n"
        assert emitted(text) is None
        error = outcome_or_error(parse, text)
        assert error.startswith(f"FormatError: malformed {kind} line: ")
        assert error == outcome_or_error(parse, "c\n" + text)


def _peak(parse, text):
    tracemalloc.start()
    try:
        parse(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_pass_read_holds_no_more_than_the_line_reader():
    # The graph has 53,324 vertices; the one-pass read splits its text in bounded
    # chunks, never whole (a whole split alone peaks near the graph line reader).
    graph, rmap = _reduction_texts(0, 5000, 7500)
    assert _peak(_emitted_edges, graph) <= _peak(_edge_lines, graph)
    assert _peak(_emitted_tables, rmap) <= _peak(_map_lines, rmap)
