"""Property-based tests of the pure algebraic components.

Three families:

* address mapping — ``decode``/``encode`` round-trip on every scheme,
  and the vectorized ``decode_array`` agreeing element-for-element with
  scalar ``decode``;
* the prediction table's saturating counters — halving on overflow
  keeps every frequency below ``FREQ_CAP`` while preserving relative
  order;
* ``MetricsRegistry.merge`` — associative and commutative over snapshot
  dicts (the parallel runner merges per-spec metrics in arbitrary
  completion order, so this is load-bearing, not aesthetic).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, strategies as st

from repro import MemoryOrganization
from repro.config import AddressMapScheme
from repro.core.prediction_table import BankEntry, FREQ_CAP
from repro.dram.address_mapping import AddressMapper
from repro.telemetry import MetricsRegistry

# ---------------------------------------------------------------- address map

_ORGS = st.builds(
    MemoryOrganization,
    channels=st.sampled_from([1, 2]),
    ranks=st.sampled_from([1, 2, 4]),
    banks=st.sampled_from([4, 8]),
    rows=st.sampled_from([1 << 8, 1 << 10]),
    columns=st.sampled_from([32, 128]),
)

_SCHEMES = st.sampled_from(list(AddressMapScheme))


@given(org=_ORGS, scheme=_SCHEMES, data=st.data())
def test_decode_encode_round_trip(org, scheme, data):
    mapper = AddressMapper(org, scheme)
    line = data.draw(st.integers(0, org.total_lines - 1))
    coord = mapper.decode(line)
    assert 0 <= coord.channel < org.channels
    assert 0 <= coord.rank < org.ranks
    assert 0 <= coord.bank < org.banks
    assert 0 <= coord.row < org.rows
    assert 0 <= coord.col < org.columns
    assert mapper.encode(coord) == line


@given(org=_ORGS, scheme=_SCHEMES, data=st.data())
def test_decode_array_matches_scalar(org, scheme, data):
    mapper = AddressMapper(org, scheme)
    lines = data.draw(
        st.lists(st.integers(0, org.total_lines - 1), min_size=1, max_size=64)
    )
    arr = np.asarray(lines, dtype=np.int64)
    chan, rank, bank, row, col = mapper.decode_array(arr)
    for i, line in enumerate(lines):
        c = mapper.decode(line)
        assert (chan[i], rank[i], bank[i], row[i], col[i]) == (
            c.channel,
            c.rank,
            c.bank,
            c.row,
            c.col,
        )


# ------------------------------------------------------------ delta counters


@given(
    deltas=st.lists(st.sampled_from([1, 1, 1, 2, -3, 64]), min_size=1, max_size=600)
)
def test_frequency_counters_never_reach_cap(deltas):
    """Overflow halving keeps every counter strictly below FREQ_CAP."""
    entry = BankEntry(0)
    addr = 1 << 20
    entry.update(addr)
    for d in deltas:
        addr += d
        entry.update(addr)
        assert entry.f1 < FREQ_CAP
        assert entry.f2 < FREQ_CAP
        assert entry.f3 < FREQ_CAP


def test_halving_fires_and_preserves_order():
    """A long unit-stride stream overflows f1; all three halve together."""
    entry = BankEntry(0)
    addr = 0
    entry.update(addr)
    peak = 0
    halved = False
    for _ in range(3 * FREQ_CAP):
        prev = (entry.f1, entry.f2, entry.f3)
        addr += 1
        entry.update(addr)
        peak = max(peak, entry.f1)
        if entry.f1 < prev[0]:
            halved = True
            # the halving event divides every counter by two at once
            assert entry.f1 == (prev[0] + 1) // 2
            assert entry.f2 in ((prev[1] + 1) // 2, (prev[1] + 1) // 2 + 1)
        # relative order among the three patterns survives halving
        assert entry.f1 >= entry.f2 >= entry.f3
    assert halved, "3*FREQ_CAP identical deltas must overflow the counters"
    assert peak == FREQ_CAP - 1


# ------------------------------------------------------------- metrics merge

# integer-valued floats keep float addition exactly associative, so the
# algebraic properties are tested without FP-rounding noise
_VALUES = st.integers(0, 1000).map(float)

_BOUNDS = (10.0, 100.0)


@st.composite
def _snapshots(draw):
    reg = MetricsRegistry()
    for name in draw(st.lists(st.sampled_from(["a", "b", "c"]), max_size=3)):
        reg.count(f"ctr.{name}", int(draw(_VALUES)))
    for name, kind in draw(
        st.lists(
            st.tuples(st.sampled_from(["g", "h"]), st.sampled_from(["", ".max", ".min"])),
            max_size=3,
        )
    ):
        reg.gauge(f"gauge.{name}{kind}", draw(_VALUES), weight=draw(st.integers(1, 4)))
    for _ in range(draw(st.integers(0, 3))):
        reg.observe("hist.lat", draw(_VALUES), bounds=_BOUNDS)
    return reg.snapshot()


@given(a=_snapshots(), b=_snapshots())
def test_merge_commutative(a, b):
    assert MetricsRegistry.merge([a, b]) == MetricsRegistry.merge([b, a])


@given(a=_snapshots(), b=_snapshots(), c=_snapshots())
def test_merge_associative(a, b, c):
    left = MetricsRegistry.merge([MetricsRegistry.merge([a, b]), c])
    right = MetricsRegistry.merge([a, MetricsRegistry.merge([b, c])])
    assert left == right


@given(a=_snapshots())
def test_merge_identity(a):
    """Merging with an empty snapshot is a normalization no-op."""
    merged = MetricsRegistry.merge([a, {}])
    assert merged == MetricsRegistry.merge([a])
