"""Reproducible Brownian increments for all particles.

Generation is counter-keyed rather than sequential: replicate rep draws one
Philox stream, keyed by (seed, rep) at counter block [0, 1, 0, 0], so any
replicate can be produced independently and in parallel with bit-identical
results.  The stream is step-major: its normal n*P + p is the increment of
particle p at step n, so the next k steps of a path are the stream's next
k*P normals.  A draw builds one Philox generator and re-keys it for each
replicate, which draws what a fresh generator per replicate would at a
fraction of the set-up cost; generators are never shared between draws, so
concurrent draws stay independent.  IncrementStream draws a path a window
of steps at a time; a replicate that spans several windows keeps a
generator of its own between them.

Increments are Normal(0, dt).  The simulator applies the 1/sqrt(gamma)
scaling itself; noise is gamma-free.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

from .model import TimeGrid

__all__ = ["ensemble_increments"]


def ensemble_increments(
    seed: int, replicates: range, grid: TimeGrid, n_streams: int
) -> np.ndarray:
    """Increments for a block of replicates, shape (R, n_streams, M): the
    whole path of an IncrementStream drawn as one window, returned as a
    view of the step-major (R, M, n_streams) draw.  Replicate r alone is
    ensemble_increments(seed, range(r, r + 1), grid, n_streams)[0]."""
    R, P, M = len(replicates), n_streams, grid.steps
    out = IncrementStream(seed, replicates, grid, P).fill(np.empty((R, M, P)))
    return out.transpose(0, 2, 1)


class IncrementStream:
    """The increments of a block of replicates, drawn a window at a time.

    shape is (R, n_streams, M), the array ensemble_increments returns.
    fill(out) writes the next k steps of every replicate's stream into out,
    laid out step-major as (R, k, n_streams), so successive windows hold
    exactly the values of one draw of all M steps, while only one window is
    held.
    """

    def __init__(
        self, seed: int, replicates: range, grid: TimeGrid, n_streams: int
    ):
        # seed and replicate are the two 64-bit key words.  Outside
        # [0, 2**64) they would wrap onto another stream, so they are
        # rejected before any draw.
        for name, values in (("seed", (seed,)), ("replicate", replicates)):
            for value in values:
                if not 0 <= value < 2**64:
                    raise ValueError(
                        f"{name} must be in [0, 2**64), got {value}"
                    )
        self.shape = (len(replicates), n_streams, grid.steps)
        self._seed, self._replicates = seed, replicates
        self._scale = np.sqrt(grid.dt)
        self._drawn = 0
        self._open = None  # each replicate's generator, while a window follows

    def fill(self, out: np.ndarray) -> np.ndarray:
        """Draw the next out.shape[1] steps of every replicate into out."""
        R, P, M = self.shape
        k = out.shape[1]
        if out.shape != (R, k, P) or k > M - self._drawn:
            raise ValueError("window does not fit the streams left")
        more = self._drawn + k < M
        bit = Philox(key=0)  # re-keyed for every replicate below
        rng = Generator(bit)
        # replicate rep has key (seed, rep) and counter block [0, 1, 0, 0].
        # The buffer is emptied, so each stream starts as a fresh Philox
        # would.  The state setter takes the key words as exact 64-bit
        # integers.
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
        for i, rep in enumerate(self._replicates):
            key[1] = rep
            if self._open is not None:
                g = self._open[i]
            elif more:
                # a stream that outlives this window keeps a generator of
                # its own, opened where the re-keyed one would be: once,
                # instead of saving and restoring a state at every window
                g = Generator(Philox(key=np.array(key, dtype=np.uint64),
                                     counter=[0, 1, 0, 0]))
            else:
                bit.state = fresh
                g = rng
            # out[i] is (k, P) and C-contiguous: the stream's next k*P
            # normals, step-major
            g.standard_normal(out=out[i])
            if more:
                opened.append(g)
        self._open = opened if more else None
        self._drawn += k
        out *= self._scale
        return out
