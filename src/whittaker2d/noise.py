"""Reproducible Brownian increments for all particles.

Generation is counter-keyed rather than sequential: the Philox stream for a
particle is addressed by (seed, replicate) through the key and by the
particle index through the counter block, so any (replicate, particle) slice
can be produced independently and in parallel with bit-identical results.
Replicate streams never overlap (particle blocks are 2**64 counter values
apart and a path uses far fewer).  A draw builds one Philox generator and
re-keys it for each stream, which draws what a fresh generator per stream
would at a fraction of the set-up cost; generators are never shared between
draws, so concurrent draws stay independent.  IncrementStream draws a path
a window of steps at a time; a stream that spans several windows keeps a
generator of its own between them.

Increments are Normal(0, dt).  The simulator applies the 1/sqrt(gamma)
scaling itself; noise is gamma-free.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

from .model import TimeGrid

__all__ = ["sample_increments", "ensemble_increments"]


def sample_increments(
    seed: int, replicate: int, grid: TimeGrid, n_streams: int
) -> np.ndarray:
    """Raw increment matrix of shape (n_streams, M), Normal(0, dt)."""
    return ensemble_increments(
        seed, range(replicate, replicate + 1), grid, n_streams
    )[0]


def ensemble_increments(
    seed: int, replicates: range, grid: TimeGrid, n_streams: int
) -> np.ndarray:
    """Increments for a block of replicates, shape (R, n_streams, M): the
    whole path of an IncrementStream drawn as one window."""
    stream = IncrementStream(seed, replicates, grid, n_streams)
    return stream.fill(np.empty(stream.shape))


class IncrementStream:
    """The increments of a block of replicates, drawn a window at a time.

    shape is (R, n_streams, M), the array ensemble_increments returns.
    fill(out) writes the next k steps of every (replicate, particle) stream
    into out, shape (R, n_streams, k), so successive windows hold exactly
    the values of one draw of all M steps, while only one window is held.
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
        self._open = None  # the streams' generators, while a window follows

    def fill(self, out: np.ndarray) -> np.ndarray:
        """Draw the next out.shape[2] steps of every stream into out."""
        R, P, M = self.shape
        k = out.shape[2]
        if out.shape != (R, P, k) or k > M - self._drawn:
            raise ValueError("window does not fit the streams left")
        more = self._drawn + k < M
        bit = Philox(key=0)  # re-keyed for every stream below
        rng = Generator(bit)
        # stream (rep, p) has key (seed, rep) and counter block
        # [0, p+1, 0, 0]: particle streams sit 2**64 draws apart, far beyond
        # any path length.  The buffer is emptied, so each stream starts as
        # a fresh Philox would.  The state setter takes the key words as
        # exact 64-bit integers.
        key, counter = [self._seed, 0], [0, 0, 0, 0]
        fresh = {
            "bit_generator": "Philox",
            "state": {"counter": counter, "key": key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        opened = []
        for i, rep in enumerate(self._replicates):
            key[1] = rep
            for p in range(P):
                if self._open is not None:
                    g = self._open[i * P + p]
                elif more:
                    # a stream that outlives this window keeps a generator
                    # of its own, opened where the re-keyed one would be:
                    # once, instead of saving and restoring a state at
                    # every window
                    g = Generator(Philox(key=np.array(key, dtype=np.uint64),
                                         counter=[0, p + 1, 0, 0]))
                else:
                    counter[1] = p + 1
                    bit.state = fresh
                    g = rng
                g.standard_normal(out=out[i, p])
                if more:
                    opened.append(g)
        self._open = opened if more else None
        self._drawn += k
        out *= self._scale
        return out
