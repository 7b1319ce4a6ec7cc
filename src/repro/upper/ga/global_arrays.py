"""Global Arrays: block-row-distributed 2-D float64 arrays over Shmem.

The second global-address-space API the paper lists as implemented on
FM 2.x.  The subset here is the classic GA core: collective creation,
one-sided ``get``/``put``/``acc`` on arbitrary rectangular patches, and a
synchronising ``sync``.  Distribution is by contiguous blocks of rows, so a
patch access decomposes into at most one contiguous shmem transfer per
owner row — each of which FM 2.x scatters directly into the symmetric
region (put/acc) or reads from it (get).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.hardware.packet import Site
from repro.upper.shmem.shmem import Shmem, ShmemError

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


class GaError(Exception):
    """Global Arrays usage errors."""


#: Bytes per element: every global array is float64.
_ITEM = 8


class GlobalArray:
    """One PE's handle to a distributed (rows x cols) float64 array."""

    def __init__(self, shmem: Shmem, region_id: int, rows: int, cols: int):
        if rows < 1 or cols < 1:
            raise GaError(f"array shape must be positive, got {rows}x{cols}")
        self.shmem = shmem
        self.region_id = region_id
        self.rows = rows
        self.cols = cols
        self.n_pes = shmem.n_pes
        self.me = shmem.me
        track = f"node{shmem.me}/ga"
        self._get_site, self._put_site, self._acc_site = (
            Site("ga", name, track, "region", "rows", "bytes")
            for name in ("GA_get", "GA_put", "GA_acc"))
        self._sync_site = Site("ga", "GA_sync", track, "region")
        self.rows_per_pe = -(-rows // self.n_pes)
        local_rows = self._local_rows(self.me)
        # Every PE registers a region even if it owns zero rows (symmetry).
        self.local = shmem.register_region(region_id,
                                           max(local_rows, 1) * cols * _ITEM)

    # -- distribution ------------------------------------------------------------
    def owner_of(self, row: int) -> int:
        self._check_row(row)
        return row // self.rows_per_pe

    def _local_rows(self, pe: int) -> int:
        start = pe * self.rows_per_pe
        return max(0, min(self.rows_per_pe, self.rows - start))

    def _row_offset(self, row: int) -> int:
        """Byte offset of a row within its owner's region."""
        return (row % self.rows_per_pe) * self.cols * _ITEM

    def local_view(self) -> np.ndarray:
        """My block as a numpy view (mutating it mutates the array)."""
        import numpy as np
        n = self._local_rows(self.me)
        return np.frombuffer(self.local.data, dtype=np.float64,
                             count=n * self.cols).reshape(n, self.cols)

    # -- one-sided patch operations ------------------------------------------------
    def get(self, row_lo: int, row_hi: int, col_lo: int = 0,
            col_hi: int | None = None) -> Generator:
        """Fetch the patch [row_lo, row_hi) x [col_lo, col_hi) as an ndarray."""
        import numpy as np
        col_hi = self.cols if col_hi is None else col_hi
        self._check_patch(row_lo, row_hi, col_lo, col_hi)
        obs = self.shmem.env.obs
        t0 = self.shmem.env.now
        out = np.empty((row_hi - row_lo, col_hi - col_lo), dtype=np.float64)
        for row in range(row_lo, row_hi):
            owner = self.owner_of(row)
            off = self._row_offset(row) + col_lo * _ITEM
            nbytes = (col_hi - col_lo) * _ITEM
            if owner == self.me:
                raw = self.local.read(off, nbytes)
            else:
                raw = yield from self.shmem.get(owner, self.region_id, off, nbytes)
            out[row - row_lo] = np.frombuffer(raw, dtype=np.float64)
        if obs is not None:
            obs.record(self._get_site, t0, self.region_id, row_hi - row_lo, out.nbytes)
        return out

    def put(self, row_lo: int, values: np.ndarray, col_lo: int = 0) -> Generator:
        """Store a 2-D patch starting at (row_lo, col_lo)."""
        import numpy as np
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise GaError(f"put needs a 2-D patch, got shape {values.shape}")
        self._check_patch(row_lo, row_lo + values.shape[0],
                          col_lo, col_lo + values.shape[1])
        obs = self.shmem.env.obs
        t0 = self.shmem.env.now
        for i, row in enumerate(range(row_lo, row_lo + values.shape[0])):
            owner = self.owner_of(row)
            off = self._row_offset(row) + col_lo * _ITEM
            raw = values[i].tobytes()
            if owner == self.me:
                self.local.write(raw, off)
            else:
                yield from self.shmem.put(owner, self.region_id, off, raw)
        if obs is not None:
            obs.record(self._put_site, t0, self.region_id, values.shape[0],
                       values.nbytes)

    def acc(self, row_lo: int, values: np.ndarray, col_lo: int = 0) -> Generator:
        """Accumulate (add) a 2-D patch starting at (row_lo, col_lo)."""
        import numpy as np
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise GaError(f"acc needs a 2-D patch, got shape {values.shape}")
        self._check_patch(row_lo, row_lo + values.shape[0],
                          col_lo, col_lo + values.shape[1])
        obs = self.shmem.env.obs
        t0 = self.shmem.env.now
        for i, row in enumerate(range(row_lo, row_lo + values.shape[0])):
            owner = self.owner_of(row)
            off = self._row_offset(row) + col_lo * _ITEM
            if owner == self.me:
                n = values.shape[1]
                current = np.frombuffer(self.local.read(off, n * _ITEM),
                                        dtype=np.float64)
                self.local.write((current + values[i]).tobytes(), off)
            else:
                yield from self.shmem.acc(owner, self.region_id, off, values[i])
        if obs is not None:
            obs.record(self._acc_site, t0, self.region_id, values.shape[0],
                       values.nbytes)

    def sync(self) -> Generator:
        """Complete my outstanding updates, then barrier (GA_Sync)."""
        obs = self.shmem.env.obs
        t0 = self.shmem.env.now
        yield from self.shmem.fence()
        yield from self.shmem.barrier()
        if obs is not None:
            obs.record(self._sync_site, t0, self.region_id)

    # -- checks -------------------------------------------------------------------
    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise GaError(f"row {row} out of range [0, {self.rows})")

    def _check_patch(self, row_lo: int, row_hi: int, col_lo: int, col_hi: int) -> None:
        if not (0 <= row_lo < row_hi <= self.rows):
            raise GaError(f"row range [{row_lo}, {row_hi}) invalid for {self.rows} rows")
        if not (0 <= col_lo < col_hi <= self.cols):
            raise GaError(f"col range [{col_lo}, {col_hi}) invalid for {self.cols} cols")

    def __repr__(self) -> str:
        return (f"<GlobalArray {self.rows}x{self.cols} region={self.region_id} "
                f"pe={self.me}/{self.n_pes}>")
