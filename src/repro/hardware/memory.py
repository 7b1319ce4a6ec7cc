"""Host memory: buffers and a metered, byte-accurate copy model.

Every data copy in the stack goes through :meth:`HostCpu.memcpy`, which both
moves the actual bytes between :class:`Buffer` objects and charges simulated
time.  A per-host :class:`CopyMeter` counts copies and bytes copied, so tests
and ablation benchmarks can *assert* copy elimination rather than infer it
from bandwidth alone (e.g. "MPI over FM 2.x performs exactly one copy per
received byte; over FM 1.x it performs three").
"""

from __future__ import annotations

from typing import Optional


class Buffer:
    """A named, fixed-size region of host memory backed by a bytearray.

    Buffers are plain data: all timing lives in the CPU/DMA models that
    operate on them.  :meth:`read` returns ``bytes`` (immutable, snapshot);
    :meth:`view` returns a read-only :class:`memoryview` for zero-copy
    plumbing.  A view aliases live memory, so holders must snapshot it (e.g.
    by constructing a ``Packet``, whose payload is always ``bytes``) before
    yielding control back to whoever owns the buffer.
    """

    __slots__ = ("name", "data", "pinned")

    def __init__(self, size: int, name: str = "", pinned: bool = False,
                 fill: Optional[bytes] = None):
        if size < 0:
            raise ValueError(f"buffer size must be non-negative, got {size}")
        self.name = name
        self.data = bytearray(size)
        self.pinned = pinned
        if fill is not None:
            if len(fill) > size:
                raise ValueError(f"fill ({len(fill)} B) larger than buffer ({size} B)")
            self.data[: len(fill)] = fill

    @classmethod
    def from_bytes(cls, payload: bytes, name: str = "", pinned: bool = False) -> "Buffer":
        return cls(len(payload), name=name, pinned=pinned, fill=payload)

    @property
    def size(self) -> int:
        return len(self.data)

    def read(self, offset: int = 0, nbytes: Optional[int] = None) -> bytes:
        """Read ``nbytes`` starting at ``offset`` (default: to the end)."""
        if nbytes is None:
            nbytes = len(self.data) - offset
        self._check_range(offset, nbytes)
        return bytes(memoryview(self.data)[offset: offset + nbytes])

    def view(self, offset: int = 0, nbytes: Optional[int] = None) -> memoryview:
        """Zero-copy read-only window onto ``nbytes`` starting at ``offset``.

        Unlike :meth:`read` this does not snapshot: the view tracks later
        writes to the buffer.  See the class docstring for the aliasing
        invariant the send paths rely on.
        """
        if nbytes is None:
            nbytes = len(self.data) - offset
        self._check_range(offset, nbytes)
        return memoryview(self.data).toreadonly()[offset: offset + nbytes]

    def write(self, payload: bytes, offset: int = 0) -> None:
        """Write a bytes-like object (``bytes``/``bytearray``/``memoryview``)."""
        self._check_range(offset, len(payload))
        self.data[offset: offset + len(payload)] = payload

    def _check_range(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > len(self.data):
            raise IndexError(
                f"range [{offset}, {offset + nbytes}) out of bounds for "
                f"buffer {self.name!r} of {len(self.data)} bytes"
            )

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        kind = "pinned " if self.pinned else ""
        return f"<{kind}Buffer {self.name!r} {len(self.data)} B>"


class CopyMeter:
    """Counts memory-to-memory copies, grouped by a free-form label.

    Labels name the *architectural role* of the copy (``"mpi1.send_assembly"``,
    ``"fm2.receive_delivery"`` ...) so the ablation benchmarks can report
    where each byte of copying happened.
    """

    def __init__(self) -> None:
        self.copies: int = 0
        self.bytes: int = 0
        self.by_label: dict[str, int] = {}

    def record(self, nbytes: int, label: str = "unlabelled") -> None:
        if nbytes < 0:
            raise ValueError(f"copy of negative size: {nbytes}")
        self.copies += 1
        self.bytes += nbytes
        self.by_label[label] = self.by_label.get(label, 0) + nbytes

    def bytes_for(self, label: str) -> int:
        return self.by_label.get(label, 0)

    def labels(self) -> list[str]:
        return sorted(self.by_label)

    def reset(self) -> None:
        self.copies = 0
        self.bytes = 0
        self.by_label.clear()

    def __repr__(self) -> str:
        return f"<CopyMeter copies={self.copies} bytes={self.bytes}>"


def copy_bytes(src: Buffer, src_off: int, dst: Buffer, dst_off: int, nbytes: int) -> None:
    """Move bytes between buffers (data only — time is charged by the CPU)."""
    # View, not read(): one host-Python copy per byte moved, not two.
    dst.write(src.view(src_off, nbytes), dst_off)
