"""Lustre-style stripe layout arithmetic.

A file's byte stream is chopped into ``stripe_size`` stripes distributed
round-robin over ``stripe_count`` OSTs starting at ``start_ost``.  The
functions here answer the questions the penalty model needs:

- which OSTs (and how many bytes each) does an extent touch,
- how many stripe *boundaries* does an extent cross,
- which stripes are only *partially* covered (triggering read-modify-write
  at the server for writes).

These are answered in closed form from the first and last stripe index:
``bytes_per_ost``, ``osts_touched``, ``boundary_crossings`` and
``partial_stripes`` build no per-stripe records, so their cost does not
grow with the number of stripes a write spans.  ``extents`` materialises
one :class:`Extent` per stripe for the callers that need the records
themselves (the stripe-group maths of erasure coding) and serves as the
reference the closed forms are tested against.

Every file's *placement* answers the small :class:`Placement` contract.
A plain file's placement is its :class:`StripeLayout`; mirrored and
erasure-coded files wrap one (``replication.py``, ``erasure.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Protocol, Sequence, Tuple

__all__ = ["StripeLayout", "Extent", "Placement"]


class Placement(Protocol):
    """Where a file's bytes live: the contract the client, the OST pool
    and telemetry consult without knowing the placement scheme."""

    @property
    def layout(self) -> "StripeLayout":
        """The data (or primary-copy) stripe layout."""

    @property
    def copies(self) -> Tuple["StripeLayout", ...]:
        """The layouts that each receive the full payload of a write."""

    def parity_updates(self, offset: int, length: int) -> Sequence:
        """Parity work a write extent owes (empty unless coded)."""

    def bytes_per_ost(self, offset: int, length: int) -> Dict[int, int]:
        """Bytes each device holds of the extent: the full footprint."""

    def osts_touched(self, offset: int, length: int) -> Tuple[int, ...]:
        """The full footprint's devices, without duplicates."""


@dataclass(frozen=True)
class Extent:
    """A contiguous byte range of one stripe, mapped to its OST."""

    ost: int
    stripe_index: int
    offset: int  # file offset of the first byte
    length: int

    @property
    def end(self) -> int:
        return self.offset + self.length


@dataclass(frozen=True)
class StripeLayout:
    """Immutable layout descriptor for one file."""

    stripe_size: int
    stripe_count: int
    n_osts: int
    start_ost: int = 0

    def __post_init__(self) -> None:
        if self.stripe_size <= 0:
            raise ValueError("stripe_size must be positive")
        if not (1 <= self.stripe_count <= self.n_osts):
            raise ValueError(
                f"stripe_count must be in [1, n_osts]: "
                f"{self.stripe_count} vs {self.n_osts}"
            )
        if not (0 <= self.start_ost < self.n_osts):
            raise ValueError("start_ost out of range")

    # -- the placement contract: a plain file is its own single copy --------
    @property
    def layout(self) -> "StripeLayout":
        return self

    @property
    def copies(self) -> Tuple["StripeLayout", ...]:
        return (self,)

    def parity_updates(self, offset: int, length: int) -> Tuple[()]:
        return ()

    def ost_of_stripe(self, stripe_index: int) -> int:
        """OST serving the given stripe (round-robin placement)."""
        return (self.start_ost + stripe_index % self.stripe_count) % self.n_osts

    def stripe_of_offset(self, offset: int) -> int:
        if offset < 0:
            raise ValueError("offset must be non-negative")
        return offset // self.stripe_size

    def extents(self, offset: int, length: int) -> List[Extent]:
        """Split ``[offset, offset+length)`` into per-stripe extents."""
        if offset < 0 or length < 0:
            raise ValueError("offset/length must be non-negative")
        out: List[Extent] = []
        pos = offset
        end = offset + length
        while pos < end:
            stripe = pos // self.stripe_size
            stripe_end = (stripe + 1) * self.stripe_size
            chunk = min(end, stripe_end) - pos
            out.append(
                Extent(
                    ost=self.ost_of_stripe(stripe),
                    stripe_index=stripe,
                    offset=pos,
                    length=chunk,
                )
            )
            pos += chunk
        return out

    def bytes_per_ost(self, offset: int, length: int) -> Dict[int, int]:
        """Total bytes an extent sends to each OST, keyed in the order the
        extent first touches each device.

        Closed form: every touched OST holds whole stripes of the range
        ``first..last`` (one per ``stripe_count`` stripes), less the head
        trim on the first stripe and the tail trim on the last.
        """
        if offset < 0 or length < 0:
            raise ValueError("offset/length must be non-negative")
        if length == 0:
            return {}
        size = self.stripe_size
        count = self.stripe_count
        end = offset + length
        first = offset // size
        last = (end - 1) // size
        if first == last:
            return {self.ost_of_stripe(first): length}
        acc: Dict[int, int] = {}
        for k in range(first, min(last + 1, first + count)):
            acc[self.ost_of_stripe(k)] = ((last - k) // count + 1) * size
        acc[self.ost_of_stripe(first)] -= offset - first * size
        acc[self.ost_of_stripe(last)] -= (last + 1) * size - end
        return acc

    def osts_touched(self, offset: int, length: int) -> Tuple[int, ...]:
        """The devices an extent touches, in stripe order -- the cheap
        footprint query (pure integer math, no per-extent records) for
        callers that need the set but not the byte split."""
        if length <= 0:
            return ()
        first = offset // self.stripe_size
        last = (offset + length - 1) // self.stripe_size
        if first == last:  # single-stripe extent: the overwhelmingly
            return (       # common case on record-sized workloads
                (self.start_ost + first % self.stripe_count) % self.n_osts,
            )
        nstripes = last - first + 1
        out = []
        seen = set()
        for k in range(first, first + min(nstripes, self.stripe_count)):
            ost = self.ost_of_stripe(k)
            if ost not in seen:
                seen.add(ost)
                out.append(ost)
        return tuple(out)

    def boundary_crossings(self, offset: int, length: int) -> int:
        """Number of stripe boundaries strictly inside the extent."""
        if length <= 0:
            return 0
        first = offset // self.stripe_size
        last = (offset + length - 1) // self.stripe_size
        return last - first

    def partial_stripes(self, offset: int, length: int) -> int:
        """Stripes touched but not fully covered by the extent.

        A write to a partial stripe forces the server to read-modify-write
        the stripe (or take a sub-stripe lock), which is the mechanism the
        GCRM alignment optimization removes.
        """
        if length <= 0:
            return 0
        if offset < 0:
            raise ValueError("offset/length must be non-negative")
        size = self.stripe_size
        end = offset + length
        head = offset % size != 0
        tail = end % size != 0
        if offset // size == (end - 1) // size:  # one stripe: partial
            return int(head or tail)              # unless covered exactly
        return int(head) + int(tail)  # interior stripes are always full

    def is_aligned(self, offset: int, length: int) -> bool:
        """True when the extent starts and ends on stripe boundaries."""
        return (
            offset % self.stripe_size == 0
            and (offset + length) % self.stripe_size == 0
        )

    def rpcs_for(self, length: int, rpc_size: int) -> int:
        """Number of bulk RPCs needed to move ``length`` bytes."""
        if length <= 0:
            return 0
        return (length + rpc_size - 1) // rpc_size
