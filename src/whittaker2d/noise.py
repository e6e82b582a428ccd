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

A draw makes one standard_normal call per block into a scratch buffer of
whole blocks, scales each full buffer by sqrt(dt) with one multiply, and
copies it into the replicates' rows.  Each call holds the interpreter lock a while, so with
a call per replicate two threads' draws barely overlapped.  A draw
builds one Philox generator and re-keys it for each block, which draws what
a fresh generator per block would at a fraction of the set-up cost;
generators are never shared between draws, so concurrent draws stay
independent.  IncrementStream draws a path a window of steps at a time; a
block that spans several windows keeps a generator of its own between them.

Increments are Normal(0, dt).  The simulator applies the 1/sqrt(gamma)
scaling itself; noise is gamma-free.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

from .model import TimeGrid, _count

__all__ = ["ensemble_increments"]

_Q = 4  # replicates per Philox stream: rep is slot rep % _Q of block rep // _Q
_SCRATCH_BYTES = 1 << 18  # a fill's scratch, or one block's window if larger


def ensemble_increments(
    seed: int, replicates: range, grid: TimeGrid, n_streams: int
) -> np.ndarray:
    """Increments for a block of replicates, shape (R, n_streams, M): the
    whole path of an IncrementStream drawn as one window, returned as a
    view of the step-major (R, M, n_streams) draw.  Replicate r alone is
    ensemble_increments(seed, range(r, r + 1), grid, n_streams)[0], the
    same values, though it draws the other three replicates of its block
    too.  replicates is a range with step 1."""
    R, P, M = len(replicates), n_streams, grid.steps
    out = IncrementStream(seed, replicates, grid, P).fill(np.empty((R, M, P)))
    return out.transpose(0, 2, 1)


class IncrementStream:
    """The increments of a range of replicates, drawn a window at a time.

    shape is (R, n_streams, M), the array ensemble_increments returns.
    fill(out) writes the next k steps of every replicate's stream into out,
    laid out step-major as (R, k, n_streams) with its last axis contiguous,
    so successive windows hold exactly the values of one draw of all M
    steps, while only one window is held.  Each fill draws every block of
    four replicates that the range touches, whole, one standard_normal call
    per block.
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
        self.shape = (len(replicates), n_streams, grid.steps)
        self._seed, self._replicates = seed, replicates
        self._scale = np.sqrt(grid.dt)
        self._drawn = 0
        self._open = None  # each block's generator, while a window follows

    def fill(self, out: np.ndarray) -> np.ndarray:
        """Draw the next out.shape[1] steps of every replicate into out."""
        R, P, M = self.shape
        k = out.shape[1]
        if out.shape != (R, k, P) or k > M - self._drawn:
            raise ValueError("window does not fit the streams left")
        more = self._drawn + k < M
        # out row i is replicate start + i, slot (off + i) % _Q of the
        # range's block (off + i) // _Q
        first, off = divmod(self._replicates.start, _Q)
        nblocks = -(-(off + R) // _Q) if R * P else 0
        # the scratch holds the whole windows of nb blocks: as many as fit
        # in _SCRATCH_BYTES, and at least one
        window = _Q * max(k * P, 1) * 8  # bytes of one block's window
        nb = max(1, min(nblocks, _SCRATCH_BYTES // window))
        scratch = np.empty((nb, k, _Q, P))
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
        for g0 in range(0, nblocks, nb):
            buf = scratch[: min(nb, nblocks - g0)]
            for j, block in enumerate(buf, g0):
                key[1] = first + j
                if self._open is not None:
                    g = self._open[j]
                elif more:
                    # a stream that outlives this window keeps a generator
                    # of its own, opened where the re-keyed one would be:
                    # once, instead of saving and restoring a state at
                    # every window
                    g = Generator(Philox(key=np.array(key, dtype=np.uint64),
                                         counter=[0, 1, 0, 0]))
                    opened.append(g)
                else:
                    bit.state = fresh
                    g = rng
                # block is (k, _Q, P) and C-contiguous: its next normals,
                # step-major
                g.standard_normal(out=block)
            self._place(buf, out, g0, off)
        if not more:
            self._open = None
        elif self._open is None and k:
            self._open = opened
        self._drawn += k
        return out

    def _place(self, buf, dst, g0, off):
        """Scale buf, the range's blocks from g0 on, by sqrt(dt) and copy
        it into their rows of dst: the full blocks in one copy, a block cut
        by the range's ends alone."""
        np.multiply(buf, self._scale, out=buf)
        # a step's P values move as one item: a numpy loop over the 1 to 7
        # particles of a step costs more than the values it moves
        item = np.dtype((np.void, buf.itemsize * buf.shape[3]))
        src = buf.view(item)[..., 0].transpose(0, 2, 1)  # (block, slot, step)
        dst = dst.view(item)[..., 0]  # (row, step)
        R, n = dst.shape[0], buf.shape[0]
        lo, hi = g0 * _Q - off, (g0 + n) * _Q - off
        a, z = int(lo < 0), n - int(hi > R)  # full blocks buf[a:z]
        if a < z:
            rows = dst[lo + a * _Q : lo + z * _Q]
            # splitting the row axis is always a view, so this writes dst
            np.copyto(rows.reshape(z - a, _Q, rows.shape[1]), src[a:z])
        for j in {0, n - 1} - set(range(a, z)):
            r0, r1 = max(lo + j * _Q, 0), min(lo + (j + 1) * _Q, R)
            np.copyto(dst[r0:r1], src[j, r0 - lo - j * _Q : r1 - lo - j * _Q])
