"""Each narrow column holds its limit exactly, and one past it never wraps.

The span log keeps a row as a 16-bit site index, two 64-bit times and
three 32-bit ids, and an int attr value in 32 bits; a reservoir keeps its
samples as 64-bit ints.  At each column's limit a value must read back
exactly, through ``observer.spans`` or ``percentile``.  One past it, a row
field or a sample raises, and an attr value is kept whole in the side
table.
"""

import struct

import pytest

from repro.hardware.packet import Site
from repro.obs.metrics import Reservoir
from repro.obs.observer import Observer
from repro.obs.span import TraceContext
from repro.simkernel.env import Environment

I32 = 2 ** 31
I64 = 2 ** 63
SITE = Site("test", "span", "node0/test", "value")


def site_index(observer, index):
    """Record spans at ``index + 1`` sites; the last one's index is read
    back through its name."""
    for i in range(index + 1):
        observer.record(Site("test", str(i), "node0/test"), 0, t_end=1)
    return int(observer.spans[-1].name)


def span_id(observer, value):
    observer.record(SITE, 0, 1, t_end=1, span_id=value)
    return observer.spans[-1].span_id


def trace_id(observer, value):
    observer.record(SITE, 0, 1, t_end=1, ctx=TraceContext(value, 1))
    return observer.spans[-1].trace_id


def parent_id(observer, value):
    observer.record(SITE, 0, 1, t_end=1, ctx=TraceContext(1, value))
    return observer.spans[-1].parent_id


def t_end(observer, value):
    observer.record(SITE, 0, 1, t_end=value)
    return observer.spans[-1].t_end


def int_attr(observer, value):
    """An attr value at a site whose first span put its values in the
    32-bit column."""
    observer.record(SITE, 0, 1, t_end=1)
    observer.record(SITE, 0, value, t_end=1)
    return observer.spans[-1].attrs["value"]


def sample(_observer, value):
    reservoir = Reservoir("test.samples")
    reservoir.record(0)
    reservoir.record(value)
    return reservoir.percentile(100) if value > 0 else reservoir.percentile(0)


@pytest.mark.parametrize("read, limit", [
    (site_index, 2 ** 16 - 1),
    (span_id, I32 - 1),
    (trace_id, I32 - 1),
    (parent_id, I32 - 1),
    (t_end, I64 - 1),
    (int_attr, I32 - 1),
    (int_attr, -I32),
    (sample, I64 - 1),
    (sample, -I64),
])
def test_a_value_at_its_columns_limit_reads_back_exactly(read, limit):
    assert read(Observer().attach(Environment()), limit) == limit


@pytest.mark.parametrize("read, past, outcome", [
    (site_index, 2 ** 16, OverflowError),
    (span_id, I32, OverflowError),
    (trace_id, I32, OverflowError),
    (parent_id, I32, OverflowError),
    (t_end, I64, OverflowError),
    (int_attr, I32, I32),
    (int_attr, -I32 - 1, -I32 - 1),
    (int_attr, "ok", "ok"),
    (sample, I64, OverflowError),
    (sample, 1.5, TypeError),
])
def test_one_past_its_columns_limit_raises_or_is_kept_whole(read, past, outcome):
    observer = Observer().attach(Environment())
    if isinstance(outcome, type):
        with pytest.raises((outcome, struct.error)):
            read(observer, past)
    else:
        assert read(observer, past) == outcome


def test_a_value_that_does_not_fit_keeps_its_place_in_a_packed_chunk():
    """Values past 32 bits, ``None`` and a string among thousands of narrow
    ones, interleaved with a site that keeps its values as objects (its
    first span carries a string): every span reads back what was recorded
    (a ``None`` leaves its attr out)."""
    observer = Observer().attach(Environment())
    odd = {1000: I32, 3000: None, 5000: "five", 7000: -I32 - 1}
    values = [odd.get(i, i) for i in range(9000)]
    wide = Site("test", "wide", "node0/test", "name", "value")
    for value in values:
        observer.record(SITE, 0, value, t_end=1)
        observer.record(wide, 0, "w", value, t_end=1)
    spans = observer.spans
    assert len(spans) == len(observer) == 2 * len(values)
    assert [span.attrs.get("value") for span in spans] == [
        value for value in values for _site in (SITE, wide)]
    assert {span.attrs["name"] for span in spans[1::2]} == {"w"}
