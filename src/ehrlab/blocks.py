"""Row blocks of large batches, shared between the caller and one worker thread.

Large batches are cut into row blocks: ehrling._sample and
veryweak.very_weak_norm_batch (through _blockwise) evaluate theirs in blocks
of about _BLOCK_BYTES, so each block's chain of kernels stays in cache, and
optimize.ball_points draws its sample in fixed chunks. _each_block shares a
batch of more than _SERIAL_BLOCKS blocks with one worker thread that lives
for that call. Each block writes only its own rows, so no value depends on
which thread computed it.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

# rows are evaluated in blocks of about this many bytes, so each block's
# chain of apply, norm and enclosure stays in cache
_BLOCK_BYTES = 1 << 20
# blocks start at multiples of this many rows, and none is shorter than a full
# block: each row then takes the BLAS kernel path it takes in a whole-array
# call (OpenBLAS 0.3.31 gives other last bits to a block of a few rows, and
# at d >= 32 to one of under 64 rows)
_BLOCK_ROWS = 64
# a batch of more blocks than this shares them with one worker thread; the
# certify and CLI samples (at most 4 blocks at d <= 64) stay on the caller
_SERIAL_BLOCKS = 8


def _row_blocks(n: int, dim: int):
    """Slices cutting n rows of width dim into blocks of about _BLOCK_BYTES;
    the last block takes the remainder. Rows of width 0 count as width 1."""
    step = max(1, _BLOCK_BYTES // (8 * max(dim, 1) * _BLOCK_ROWS)) * _BLOCK_ROWS
    if n < 2 * step:  # one block, the common case of a search batch
        return [slice(0, n)]
    starts = range(0, n - step + 1, step)
    return [slice(a, b) for a, b in zip(starts, [*starts[1:], n])]


def _each_block(fn, blocks) -> None:
    """fn(s) for every slice s of blocks, each writing only its own rows.

    The first block always runs on the calling thread, so lazy caches (a
    family's prefix_matrix, coordinate_weights and functional members) are
    built once, by one thread. Past _SERIAL_BLOCKS blocks, every other later
    block goes to a worker thread started for this call; no value depends on
    which thread computed it. If a caller block raises, the worker's blocks
    not yet started are cancelled; otherwise the first worker error is
    raised. Either way, only after every started block has ended.
    """
    if len(blocks) <= _SERIAL_BLOCKS:
        for s in blocks:
            fn(s)
        return
    fn(blocks[0])
    with ThreadPoolExecutor(max_workers=1) as worker:
        jobs = [worker.submit(fn, s) for s in blocks[1::2]]
        try:
            for s in blocks[2::2]:
                fn(s)
        except BaseException:
            worker.shutdown(cancel_futures=True)
            raise
    for job in jobs:
        job.result()


def _blockwise(fn, U: np.ndarray) -> np.ndarray:
    """fn(U) for a map fn from rows to one value each, evaluated by row
    blocks through _each_block; a batch of one block is passed whole."""
    blocks = _row_blocks(*U.shape)
    if len(blocks) == 1:
        return fn(U)
    out = np.empty(U.shape[0])

    def block(s):
        out[s] = fn(U[s])

    _each_block(block, blocks)
    return out
