"""Reproducible Brownian increments for all particles.

Generation is counter-keyed rather than sequential: replicates come in
blocks of four, and block b = rep // 4 draws one Philox stream, keyed by
(seed, b) at counter block [0, 1, 0, 0], so any block can be produced
independently and in parallel with bit-identical results.  The stream is
step-major, then by replicate, then by particle: its normal
(4n + rep % 4)·P + p is the increment of particle p of replicate rep at
step n, so the next k steps of a block are the stream's next 4·k·P normals.
A replicate's values depend only on (seed, rep, P, step); a range that
starts or ends inside a block draws that block whole and keeps its own rows.

A window is held in that order, (blocks, k, 4, P), so a draw makes one
standard_normal call per block straight into its slab and scales it by
sqrt(dt) in place.  Each call holds the interpreter lock a while, so with a
call per replicate two threads' draws barely overlapped.  A draw builds one
Philox generator and re-keys it for each block, which draws what a fresh
generator per block would at a fraction of the set-up cost; generators are
never shared between draws, so concurrent draws stay independent.  A block
that spans several windows keeps a generator of its own between them.

Increments are Normal(0, dt).  The simulator applies the 1/sqrt(gamma)
scaling itself; noise is gamma-free.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

from .model import TimeGrid, _count

__all__ = ["ensemble_increments"]

_Q = 4  # replicates per Philox stream: rep is slot rep % _Q of block rep // _Q
_GROUP_BYTES = 1 << 20  # the blocks ensemble_increments draws at a time


def ensemble_increments(
    seed: int, replicates: range, grid: TimeGrid, n_streams: int
) -> np.ndarray:
    """Increments for a block of replicates, shape (R, n_streams, M): the
    whole path of an IncrementStream, returned as a view of step-major
    (R, M, n_streams) rows.  Replicate r alone is
    ensemble_increments(seed, range(r, r + 1), grid, n_streams)[0], the
    same values, though it draws the other three replicates of its block
    too.  replicates is a range with step 1."""
    stream = IncrementStream(seed, replicates, grid, n_streams)
    R, P, M = stream.shape
    rows = np.empty((stream.blocks, _Q, M, P))
    # whole blocks are drawn about 1 MB at a time, each group copied once
    # into its replicates' rows while it is in cache: on 2 vCPUs, two
    # threads drawing 1,250 replicates of 1,000 steps each took 35-37 ms so,
    # against 42-43 ms when the whole window was drawn first and then
    # rearranged in place
    per = max(1, _GROUP_BYTES // (8 * _Q * M * max(P, 1)))
    window = np.empty((min(per, stream.blocks), M, _Q, P))
    first = replicates.start - stream.offset  # slot 0 of the first block
    for b in range(0, stream.blocks, per):
        part = rows[b : b + per]
        group = range(first + _Q * b, first + _Q * (b + len(part)))
        IncrementStream(seed, group, grid, P).fill(window[: len(part)])
        np.copyto(part, window[: len(part)].transpose(0, 2, 1, 3))
    rows = rows.reshape(stream.blocks * _Q, M, P)
    return rows[stream.offset : stream.offset + R].transpose(0, 2, 1)


class IncrementStream:
    """The increments of a range of replicates, drawn a window at a time.

    shape is (R, n_streams, M), the array ensemble_increments returns.
    fill(out) writes the next k steps of the blocks of four replicates that
    the range touches into a block-major window of shape (blocks, k, 4,
    n_streams) whose blocks are C-contiguous: out[b, n, s] is step n of
    replicate start - offset + 4·b + s, so readers keep slots [offset,
    offset + R) of the window's blocks·4.  Successive windows hold exactly
    the values of one draw of all M steps, while only one window is held.
    """

    def __init__(
        self, seed: int, replicates: range, grid: TimeGrid, n_streams: int
    ):
        # seed and block are the two 64-bit key words.  A seed or replicate
        # outside [0, 2**64), or not an integer, would alias another
        # stream, so it is rejected before any draw; a step-1 range holds
        # only words if its ends do, and keeps each block's rows together.
        if not (isinstance(replicates, range) and replicates.step == 1):
            raise ValueError(
                f"replicates must be a range with step 1, got {replicates!r}"
            )
        ends = (replicates[0], replicates[-1]) if replicates else ()
        for name, values in (("seed", (seed,)), ("replicate", ends)):
            for value in values:
                if not 0 <= _count(name, value) < 2**64:
                    raise ValueError(
                        f"{name} must be an integer in [0, 2**64), got {value}"
                    )
        if _count("n_streams", n_streams) < 0:
            raise ValueError(f"n_streams must not be negative, got {n_streams}")
        R = len(replicates)
        self.shape = (R, n_streams, grid.steps)
        self._first, self.offset = divmod(replicates.start, _Q)
        self.blocks = -(-(self.offset + R) // _Q) if R else 0
        self._seed = seed
        self._scale = np.sqrt(grid.dt)
        self._drawn = 0
        self._open = None  # each block's generator, while a window follows

    def fill(self, out: np.ndarray) -> np.ndarray:
        """Draw the next out.shape[1] steps of every block into out."""
        _, P, M = self.shape
        k = out.shape[1] if out.ndim == 4 else -1
        if (out.shape != (self.blocks, k, _Q, P) or k > M - self._drawn
                or not out[:1].flags.c_contiguous):
            raise ValueError("window does not fit the streams left")
        more = self._drawn + k < M
        bit = Philox(key=0)  # re-keyed for every block below
        rng = Generator(bit)
        # block b has key (seed, b) and counter block [0, 1, 0, 0].  The
        # buffer is emptied, so each stream starts as a fresh Philox would.
        # The state setter takes the key words as exact 64-bit integers.
        key = [self._seed, 0]
        fresh = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 1, 0, 0], "key": key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        opened = []
        for j, block in enumerate(out):
            key[1] = self._first + j
            if self._open is not None:
                g = self._open[j]
            elif more:
                # a stream that outlives this window keeps a generator of
                # its own, opened where the re-keyed one would be: once,
                # instead of saving and restoring a state at every window
                g = Generator(Philox(key=np.array(key, dtype=np.uint64),
                                     counter=[0, 1, 0, 0]))
                opened.append(g)
            else:
                bit.state = fresh
                g = rng
            # block is (k, _Q, P) and C-contiguous: its next normals,
            # step-major, scaled while they are in cache
            g.standard_normal(out=block)
            np.multiply(block, self._scale, out=block)
        if not more:
            self._open = None
        elif self._open is None and k:
            self._open = opened
        self._drawn += k
        return out
