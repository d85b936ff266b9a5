"""Unit tests for the trace container."""

import numpy as np
import pytest

from repro.workloads.trace import AccessTrace, concat_traces


def simple(n=5, tail=0):
    return AccessTrace.from_lists(
        [2] * n, list(range(n)), [i % 2 == 0 for i in range(n)], tail_instructions=tail
    )


def test_length_and_counts():
    tr = simple(5)
    assert len(tr) == 5
    assert tr.read_count == 2
    assert tr.write_count == 3


def test_total_instructions():
    tr = simple(5, tail=7)
    assert tr.total_instructions == 17


def test_footprint():
    tr = AccessTrace.from_lists([1, 1, 1], [5, 5, 9], [False] * 3)
    assert tr.footprint_lines == 2


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        AccessTrace.from_lists([1], [1, 2], [False])


def test_negative_gaps_rejected():
    with pytest.raises(ValueError):
        AccessTrace.from_lists([-1], [1], [False])


def test_content_digest_covers_every_field():
    base = simple(5, tail=7)
    assert base.content_digest() == simple(5, tail=7).content_digest()
    changed = [
        simple(5, tail=8),
        simple(6, tail=7),
        base.offset_lines(1),
        AccessTrace(base.gaps, base.lines, ~base.writes, tail_instructions=7),
        AccessTrace(base.gaps + 1, base.lines, base.writes, tail_instructions=7),
        AccessTrace(base.gaps.astype(np.int32), base.lines, base.writes, tail_instructions=7),
    ]
    digests = {base.content_digest()} | {t.content_digest() for t in changed}
    assert len(digests) == len(changed) + 1


def test_slice():
    tr = simple(5, tail=9)
    sub = tr.slice(1, 3)
    assert list(sub.lines) == [1, 2]
    assert sub.tail_instructions == 0  # interior slice loses the tail
    assert tr.slice(0, 5).tail_instructions == 9


def test_offset_lines():
    tr = simple(3)
    moved = tr.offset_lines(1000)
    assert list(moved.lines) == [1000, 1001, 1002]
    assert moved.total_instructions == tr.total_instructions


def test_save_load_roundtrip(tmp_path):
    tr = simple(5, tail=3)
    path = tmp_path / "trace.npz"
    tr.save(path)
    back = AccessTrace.load(path)
    assert np.array_equal(back.gaps, tr.gaps)
    assert np.array_equal(back.lines, tr.lines)
    assert np.array_equal(back.writes, tr.writes)
    assert back.tail_instructions == 3


def test_concat_preserves_instructions():
    a = simple(3, tail=5)
    b = simple(2, tail=1)
    joined = concat_traces([a, b])
    assert joined.total_instructions == a.total_instructions + b.total_instructions
    assert len(joined) == 5
    # a's tail becomes part of b's first gap
    assert joined.gaps[3] == b.gaps[0] + 5


def test_concat_empty_rejected():
    with pytest.raises(ValueError):
        concat_traces([])


def test_concat_single():
    a = simple(3, tail=2)
    j = concat_traces([a])
    assert j.total_instructions == a.total_instructions
