"""Eval-only item-score table snapshots, scored in one-row tiles.

The prediction layer scores a user vector against every item embedding
(Eq. 31).  The serving path keeps a snapshot of
:meth:`~repro.core.encoder.SequentialEncoderBase.score_context` in the
model's own dtype and scores straight from it.  No cast happens per
request: numpy has no BLAS kernel for float16, so a half-precision
snapshot had to be cast back to float32 block by block on every
request, and at Table-I width (V≈11.7k, d=64, one BLAS thread) that
cast took ~1–1.5 ms per 8192-column block against ~0.15 ms for the
float32 GEMV of the whole catalog.  The float32 table costs 3 MB.

**Batch-invariance contract**: each user row is scored as its own
``(1, d) @ (d, block)`` product, written into one ``(B, width)``
output, so a row's score bits never depend on which other rows share
its batch.  One multi-row GEMM does not give this: BLAS picks kernels
by row count, and at B >= 2 the rows round differently from the
one-row product.  A user served inside any micro-batch gets exactly
the scores (and therefore the top-k) it gets when served alone under
the same ``block_size``.  :meth:`ItemTable.score_all` scores on the
same column-block grid as the blocked path, so its rows equal the
concatenated :meth:`ItemTable.score_block` rows bitwise.  Products over
a *different* blocking are not pinned equal: a column's bits can
depend on where its block starts.  One-row tiles cost nothing at the
served mean batch of ~1.3–1.5 and scale linearly past it (~3.1 ms at
B=32 against ~0.8 ms for one GEMM at V≈11.7k).

**Staleness contract**: a snapshot is valid only while
``model.inference_version()`` is unchanged.  :meth:`ItemTable.is_stale`
detects any parameter mutation that went through the optimizer /
``load_state_dict`` / ``Module.to`` (they bump the global parameter
version); the serving service checks it per batch and calls
:meth:`refresh`.  Hand-edited parameter buffers bypass the version
counter — see ``SequentialEncoderBase.inference_version``.

Thread safety: scoring reads only the snapshot; the owning service
serializes :meth:`refresh` against scoring under its lock.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["ItemTable"]


class ItemTable:
    """A scoring snapshot of the model's item-embedding table.

    Parameters
    ----------
    model:
        Any model exposing ``score_context()`` and
        ``inference_version()`` (every
        :class:`~repro.core.encoder.SequentialEncoderBase` subclass).
    block_size:
        Column-block width of :meth:`score_all`'s grid; the serving
        service scores :meth:`score_block` on the same grid.
    """

    def __init__(self, model, block_size: int = 8192) -> None:
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.block_size = int(block_size)
        self.table: Optional[np.ndarray] = None
        self.version = -1
        self.refreshes = 0
        self.refresh(model)

    # ------------------------------------------------------------------
    @property
    def num_columns(self) -> int:
        """Catalog columns scored (``V + 1``; column 0 is padding)."""
        return self.table.shape[1]

    def refresh(self, model) -> None:
        """Re-snapshot the table from the model's current parameters."""
        self.table = model.score_context()  # (d, V+1), contiguous, model dtype
        self.version = model.inference_version()
        self.refreshes += 1

    def rebuilt(self, model) -> "ItemTable":
        """A fresh snapshot as a **new** table (double-buffered refresh).

        :meth:`refresh` mutates this table in place, which is fine when
        the caller owns the serving lock for the duration — but a
        re-snapshot is exactly the work the serving lock must *not* be
        held across.  ``rebuilt`` builds a complete replacement off to
        the side (same blocking, cumulative ``refreshes`` counter
        carried forward) so the owner can do the build lock-free and
        swap the reference in O(1) under the lock.  The old table stays
        fully serviceable until the swap — a failed build leaves it
        live.
        """
        new = ItemTable(model, block_size=self.block_size)
        new.refreshes += self.refreshes
        return new

    def is_stale(self, model) -> bool:
        """Whether parameters changed since this snapshot was taken."""
        return model.inference_version() != self.version

    # ------------------------------------------------------------------
    def prepare_users(self, users: np.ndarray) -> np.ndarray:
        """Cast a ``(B, d)`` user-vector stack to the table dtype."""
        return np.ascontiguousarray(users, dtype=self.table.dtype)

    def _score_rows(self, users: np.ndarray, start: int, stop: int, out: np.ndarray) -> None:
        """Write each row's ``(1, d) @ (d, stop-start)`` product into ``out``."""
        block = self.table[:, start:stop]
        for row in range(users.shape[0]):
            np.matmul(users[row : row + 1], block, out=out[row : row + 1])

    def score_block(self, users: np.ndarray, start: int, stop: int) -> np.ndarray:
        """Scores of ``users`` against table columns ``[start, stop)``.

        ``users`` must come from :meth:`prepare_users`.  Returns a
        freshly written ``(B, stop-start)`` array the caller owns (the
        blocked top-k masks seen items into it in place); each row is
        its own one-row product.
        """
        stop = min(stop, self.num_columns)
        out = np.empty((users.shape[0], stop - start), self.table.dtype)
        self._score_rows(users, start, stop, out)
        return out

    def score_all(self, users: np.ndarray) -> np.ndarray:
        """Full ``(B, V+1)`` scores on the ``block_size`` column grid.

        The full-sort reference arm: row for row, bitwise equal to the
        blocks :meth:`score_block` yields over the same grid.
        """
        out = np.empty((users.shape[0], self.num_columns), self.table.dtype)
        for start in range(0, self.num_columns, self.block_size):
            stop = min(start + self.block_size, self.num_columns)
            self._score_rows(users, start, stop, out[:, start:stop])
        return out

    def nbytes(self) -> int:
        return int(self.table.nbytes)

    def __repr__(self) -> str:
        return (
            f"ItemTable(shape={self.table.shape}, dtype={self.table.dtype}, "
            f"version={self.version}, refreshes={self.refreshes})"
        )
