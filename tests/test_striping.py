"""Unit + property tests for stripe layout arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.iosys.locks import ExtentLockTracker
from repro.iosys.striping import StripeLayout
from tests.test_erasure_properties import coded_layouts
from tests.test_replication_properties import replicated_layouts

MiB = 1024 * 1024


def layout(stripe_count=4, n_osts=8, stripe_size=MiB, start_ost=0):
    return StripeLayout(
        stripe_size=stripe_size,
        stripe_count=stripe_count,
        n_osts=n_osts,
        start_ost=start_ost,
    )


class TestExtents:
    def test_single_stripe_extent(self):
        lo = layout()
        exts = lo.extents(0, 1000)
        assert len(exts) == 1
        assert exts[0].ost == 0 and exts[0].length == 1000

    def test_boundary_crossing_splits(self):
        lo = layout()
        exts = lo.extents(MiB - 100, 200)
        assert [e.length for e in exts] == [100, 100]
        assert [e.stripe_index for e in exts] == [0, 1]
        assert [e.ost for e in exts] == [0, 1]

    def test_round_robin_wraps_at_stripe_count(self):
        lo = layout(stripe_count=4, n_osts=8)
        exts = lo.extents(0, 6 * MiB)
        assert [e.ost for e in exts] == [0, 1, 2, 3, 0, 1]

    def test_start_ost_offsets_mapping(self):
        lo = layout(stripe_count=3, n_osts=8, start_ost=6)
        exts = lo.extents(0, 3 * MiB)
        assert [e.ost for e in exts] == [6, 7, 0]

    def test_zero_length(self):
        assert layout().extents(500, 0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            layout().extents(-1, 10)
        with pytest.raises(ValueError):
            layout().extents(0, -10)


class TestCounts:
    def test_boundary_crossings(self):
        lo = layout()
        assert lo.boundary_crossings(0, MiB) == 0
        assert lo.boundary_crossings(0, MiB + 1) == 1
        assert lo.boundary_crossings(MiB // 2, MiB) == 1
        assert lo.boundary_crossings(0, 3 * MiB) == 2
        assert lo.boundary_crossings(0, 0) == 0

    def test_partial_stripes_aligned_write(self):
        lo = layout()
        assert lo.partial_stripes(0, 2 * MiB) == 0

    def test_partial_stripes_unaligned_record(self):
        lo = layout()
        # the GCRM case: a 1.6 MB record at an unaligned offset
        n = lo.partial_stripes(int(1.6 * MiB), int(1.6 * MiB))
        assert n == 2

    def test_partial_stripes_interior_full(self):
        lo = layout()
        # half-stripe head, two full stripes, half-stripe tail
        assert lo.partial_stripes(MiB // 2, 3 * MiB) == 2

    def test_is_aligned(self):
        lo = layout()
        assert lo.is_aligned(0, MiB)
        assert lo.is_aligned(3 * MiB, 2 * MiB)
        assert not lo.is_aligned(1, MiB)
        assert not lo.is_aligned(0, MiB - 1)

    def test_rpcs_for(self):
        lo = layout()
        assert lo.rpcs_for(0, MiB) == 0
        assert lo.rpcs_for(1, MiB) == 1
        assert lo.rpcs_for(MiB, MiB) == 1
        assert lo.rpcs_for(MiB + 1, MiB) == 2

    def test_bytes_per_ost_totals(self):
        lo = layout(stripe_count=2, n_osts=4)
        per = lo.bytes_per_ost(0, 5 * MiB)
        assert per == {0: 3 * MiB, 1: 2 * MiB}


class TestValidation:
    def test_stripe_count_bounds(self):
        with pytest.raises(ValueError):
            layout(stripe_count=0)
        with pytest.raises(ValueError):
            layout(stripe_count=9, n_osts=8)

    def test_start_ost_bounds(self):
        with pytest.raises(ValueError):
            layout(start_ost=8, n_osts=8)

    def test_stripe_size_positive(self):
        with pytest.raises(ValueError):
            layout(stripe_size=0)


@settings(max_examples=200, deadline=None)
@given(
    offset=st.integers(min_value=0, max_value=100 * MiB),
    length=st.integers(min_value=0, max_value=32 * MiB),
    stripe_count=st.integers(min_value=1, max_value=8),
    start_ost=st.integers(min_value=0, max_value=7),
)
def test_extents_partition_the_range(offset, length, stripe_count, start_ost):
    """Extents exactly tile [offset, offset+length): contiguous, complete,
    each within one stripe, each mapped to the round-robin OST."""
    lo = StripeLayout(
        stripe_size=MiB, stripe_count=stripe_count, n_osts=8, start_ost=start_ost
    )
    exts = lo.extents(offset, length)
    assert sum(e.length for e in exts) == length
    pos = offset
    for e in exts:
        assert e.offset == pos
        assert e.length > 0
        # within one stripe
        assert e.offset // MiB == (e.end - 1) // MiB
        assert e.stripe_index == e.offset // MiB
        assert e.ost == lo.ost_of_stripe(e.stripe_index)
        pos = e.end
    assert pos == offset + length


@settings(max_examples=200, deadline=None)
@given(
    offset=st.integers(min_value=0, max_value=50 * MiB),
    length=st.integers(min_value=1, max_value=16 * MiB),
)
def test_partial_plus_full_equals_touched(offset, length):
    """partial + full stripes == total stripes touched."""
    lo = layout()
    exts = lo.extents(offset, length)
    touched = len(exts)
    partial = lo.partial_stripes(offset, length)
    full = sum(1 for e in exts if e.length == MiB and e.offset % MiB == 0)
    assert partial + full == touched


@settings(max_examples=100, deadline=None)
@given(
    offset=st.integers(min_value=0, max_value=50 * MiB),
    length=st.integers(min_value=1, max_value=16 * MiB),
)
def test_aligned_extents_have_no_partials(offset, length):
    lo = layout()
    aligned_off = (offset // MiB) * MiB
    aligned_len = ((length + MiB - 1) // MiB) * MiB
    assert lo.partial_stripes(aligned_off, aligned_len) == 0
    assert lo.is_aligned(aligned_off, aligned_len)


# -- closed forms vs the extent walk ------------------------------------------
#
# ``bytes_per_ost``, ``partial_stripes`` and the lock tracker compute from
# the first and last stripe index alone.  ``extents()`` is the reference:
# folding its records must give the same values, the same dict key order
# (callers iterate the dict) and the same floats.


def walk_bytes_per_ost(lo, offset, length):
    acc = {}
    for ext in lo.extents(offset, length):
        acc[ext.ost] = acc.get(ext.ost, 0) + ext.length
    return acc


def walk_partial_stripes(lo, offset, length):
    if length <= 0:
        return 0
    return sum(
        1
        for ext in lo.extents(offset, length)
        if not (
            ext.offset == ext.stripe_index * lo.stripe_size
            and ext.length == lo.stripe_size
        )
    )


def assert_closed_forms_match_walk(lo, offset, length):
    closed = lo.bytes_per_ost(offset, length)
    walked = walk_bytes_per_ost(lo, offset, length)
    assert list(closed.items()) == list(walked.items())
    assert lo.partial_stripes(offset, length) == walk_partial_stripes(
        lo, offset, length
    )


@st.composite
def layouts_and_extents(draw):
    """Any layout -- stripe sizes of one byte and of non-powers of two
    included -- with an extent spanning up to a few round-robin wraps."""
    n_osts = draw(st.integers(1, 64))
    lo = StripeLayout(
        stripe_size=draw(
            st.one_of(
                st.just(1),
                st.integers(1, 5000),
                st.sampled_from([4096, 64 * 1024, MiB, 3 * MiB + 17]),
            )
        ),
        stripe_count=draw(st.integers(1, n_osts)),
        n_osts=n_osts,
        start_ost=draw(st.integers(0, n_osts - 1)),
    )
    size = lo.stripe_size
    offset = draw(st.integers(0, 40 * size + size - 1))
    length = draw(
        st.one_of(st.just(0), st.integers(0, (2 * lo.stripe_count + 3) * size))
    )
    return lo, offset, length


@settings(max_examples=400, deadline=None)
@given(layouts_and_extents())
def test_closed_forms_equal_extent_walk(case):
    assert_closed_forms_match_walk(*case)


@settings(max_examples=200, deadline=None)
@given(
    replicated_layouts(),
    coded_layouts(),
    st.integers(0, 64 * MiB),
    st.integers(0, 8 * MiB),
)
def test_closed_forms_equal_walk_on_redundant_bases(rep, ec, offset, length):
    """Every copy of a mirrored file and the data layout of a coded file
    answer the same closed forms as the walk."""
    for lo in (*rep.copies, ec.base):
        assert_closed_forms_match_walk(lo, offset, length)


def test_closed_forms_reject_negative_extents():
    lo = layout()
    for offset, length in ((-1, 10), (0, -10)):
        with pytest.raises(ValueError):
            lo.bytes_per_ost(offset, length)
    with pytest.raises(ValueError):
        lo.partial_stripes(-1, 10)


class WalkingLockTracker:
    """The lock tracker as an extent walk: the reference the stripe-index
    loop of :class:`ExtentLockTracker` is checked against."""

    def __init__(self, revoke_cost):
        self.revoke_cost = float(revoke_cost)
        self._owner = {}
        self.revocations = 0
        self.grants = 0

    def write_penalty(self, client, layout, offset, length, scale=1.0,
                      full_stripe_discount=0.2):
        if length <= 0:
            return 0.0
        penalty = 0.0
        for ext in layout.extents(offset, length):
            stripe = ext.stripe_index
            owner = self._owner.get(stripe)
            if owner is None:
                self.grants += 1
            elif owner != client:
                self.revocations += 1
                full = (
                    ext.offset == stripe * layout.stripe_size
                    and ext.length == layout.stripe_size
                )
                discount = full_stripe_discount if full else 1.0
                penalty += self.revoke_cost * scale * discount
            self._owner[stripe] = client
        return penalty


@settings(max_examples=150, deadline=None)
@given(
    layouts_and_extents(),
    st.floats(1e-6, 1e-2),
    st.lists(
        st.tuples(
            st.integers(0, 5),  # client
            st.integers(0, 30),  # offset, in units of a third of a stripe
            st.integers(0, 12),  # length, same unit
            st.sampled_from([1.0, 0.37, 3.0]),  # contention scale
            st.integers(-2, 2),  # byte jitter on both ends
        ),
        max_size=25,
    ),
)
def test_lock_tracker_equals_extent_walk(case, revoke_cost, writes):
    """Several clients' interleaved writes cost the same penalty (to the
    last bit), grant and revoke the same locks, and leave the same owner
    map as the extent walk."""
    lo = case[0]
    third = max(lo.stripe_size // 3, 1)
    fast, ref = ExtentLockTracker(revoke_cost), WalkingLockTracker(revoke_cost)
    for client, off, ln, scale, jitter in writes:
        offset = max(off * third + jitter, 0)
        length = max(ln * third - jitter, 0)
        assert fast.write_penalty(client, lo, offset, length, scale) == (
            ref.write_penalty(client, lo, offset, length, scale)
        )
        assert list(fast._owner.items()) == list(ref._owner.items())
        assert (fast.grants, fast.revocations) == (ref.grants, ref.revocations)
