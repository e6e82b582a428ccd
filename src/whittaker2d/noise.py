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

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .model import TimeGrid, tri_size

__all__ = ["Seed", "NoiseBundle", "sample_noise", "sample_increments",
           "ensemble_increments"]


@dataclass(frozen=True)
class Seed:
    """Root seed plus replicate index; together they name a stream family."""

    seed: int
    replicate: int = 0

    def with_replicate(self, replicate: int) -> "Seed":
        return Seed(self.seed, replicate)


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


@dataclass(frozen=True)
class NoiseBundle:
    """Brownian increments per triangular particle on a grid.

    increments has shape (P, M); cumulative() gives W on the grid points
    with W(a) = 0, shape (P, M+1).
    """

    grid: TimeGrid
    increments: np.ndarray

    def __post_init__(self):
        inc = np.array(self.increments, dtype=float)
        if inc.ndim != 2 or inc.shape[1] != self.grid.steps:
            raise ValueError(
                f"increments shape {inc.shape} does not match grid with "
                f"{self.grid.steps} steps"
            )
        inc.flags.writeable = False
        object.__setattr__(self, "increments", inc)

    @property
    def n_streams(self) -> int:
        return self.increments.shape[0]

    def cumulative(self) -> np.ndarray:
        P = self.n_streams
        w = np.zeros((P, self.grid.npoints))
        np.cumsum(self.increments, axis=1, out=w[:, 1:])
        return w

    def path(self, p: int) -> np.ndarray:
        """Cumulative W for one stream, starting at 0."""
        return np.concatenate(([0.0], np.cumsum(self.increments[p])))

    @staticmethod
    def zero(grid: TimeGrid, n_streams: int) -> "NoiseBundle":
        return NoiseBundle(grid, np.zeros((n_streams, grid.steps)))


def sample_noise(seed: Seed, grid: TimeGrid, N: int) -> NoiseBundle:
    """Noise for a full triangle of N levels (N(N+1)/2 streams)."""
    inc = sample_increments(seed.seed, seed.replicate, grid, tri_size(N))
    return NoiseBundle(grid, inc)
