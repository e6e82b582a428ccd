"""Reproducible Brownian increments for all particles.

Generation is counter-keyed rather than sequential: the Philox stream for a
particle is addressed by (seed, replicate) through the key and by the
particle index through the counter block, so any (replicate, particle) slice
can be produced independently and in parallel with bit-identical results.
Replicate streams never overlap (particle blocks are 2**64 counter values
apart and a path uses far fewer).  A call builds one Philox generator and
re-keys it for each stream, which draws what a fresh generator per stream
would at a fraction of the set-up cost; generators are never shared between
calls, so concurrent calls stay independent.

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
    """Increments for a block of replicates, shape (R, n_streams, M)."""
    # seed and replicate are the two 64-bit key words.  Outside [0, 2**64)
    # they would wrap onto another stream, so they are rejected before any
    # draw.
    for name, values in (("seed", (seed,)), ("replicate", replicates)):
        for value in values:
            if not 0 <= value < 2**64:
                raise ValueError(f"{name} must be in [0, 2**64), got {value}")
    out = np.empty((len(replicates), n_streams, grid.steps))
    bit = Philox(key=0)  # re-keyed for every stream below
    rng = Generator(bit)
    # stream (rep, p) has key (seed, rep) and counter block [0, p+1, 0, 0]:
    # particle streams sit 2**64 draws apart, far beyond any path length.
    # The buffer is emptied, so each stream starts as a fresh Philox would.
    # The state setter takes the key words as exact 64-bit integers.
    key, counter = [seed, 0], [0, 0, 0, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for i, rep in enumerate(replicates):
        key[1] = rep
        for p in range(n_streams):
            counter[1] = p + 1
            bit.state = state
            rng.standard_normal(out=out[i, p])
    out *= np.sqrt(grid.dt)
    return out
