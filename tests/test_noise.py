import numpy as np
import pytest
from numpy.random import Generator, Philox

from whittaker2d import (
    NoiseBundle,
    Seed,
    TimeGrid,
    ensemble_increments,
    sample_noise,
)
from whittaker2d.noise import sample_increments


def test_determinism():
    grid = TimeGrid(0.0, 1.0, 100)
    a = sample_noise(Seed(12345, 7), grid, 3)
    b = sample_noise(Seed(12345, 7), grid, 3)
    np.testing.assert_array_equal(a.increments, b.increments)


def test_replicates_differ():
    grid = TimeGrid(0.0, 1.0, 100)
    a = sample_noise(Seed(1, 0), grid, 2)
    b = sample_noise(Seed(1, 1), grid, 2)
    assert not np.array_equal(a.increments, b.increments)


def test_seeds_differ():
    grid = TimeGrid(0.0, 1.0, 100)
    a = sample_noise(Seed(1), grid, 2)
    b = sample_noise(Seed(2), grid, 2)
    assert not np.array_equal(a.increments, b.increments)


def test_key_words_outside_64_bits_rejected():
    grid = TimeGrid(0.0, 1.0, 10)
    with pytest.raises(ValueError, match="seed"):
        ensemble_increments(-1, range(2), grid, 1)
    with pytest.raises(ValueError, match="seed"):
        sample_increments(2**64, 0, grid, 1)
    with pytest.raises(ValueError, match="replicate"):
        ensemble_increments(0, range(-1, 1), grid, 1)


def test_large_key_words_name_their_own_streams():
    # words above 2**53 must not be rounded onto a neighbour, nor 2**64 - 1
    # onto 0
    grid = TimeGrid(0.0, 1.0, 10)
    top = sample_increments(2**64 - 1, 0, grid, 1)
    assert not np.array_equal(top, sample_increments(0, 0, grid, 1))
    assert not np.array_equal(
        sample_increments(2**63, 0, grid, 1),
        sample_increments(2**63 + 1, 0, grid, 1),
    )
    assert not np.array_equal(
        sample_increments(0, 2**64 - 1, grid, 1),
        sample_increments(0, 0, grid, 1),
    )


def test_particle_slices_are_addressable():
    # a particle's stream does not depend on how many other streams exist
    grid = TimeGrid(0.0, 1.0, 50)
    small = sample_increments(9, 0, grid, 1)
    big = sample_increments(9, 0, grid, 6)
    np.testing.assert_array_equal(small[0], big[0])


@pytest.mark.parametrize("seed", [0, 2**53 + 1, 2**64 - 1])
@pytest.mark.parametrize("rep", [0, 2**53 + 1, 2**64 - 1])
def test_streams_match_fresh_philox(seed, rep):
    # stream (rep, p) is what a fresh Philox with key (seed, rep) and
    # counter block [0, p+1, 0, 0] draws, scaled by sqrt(dt)
    grid = TimeGrid(0.0, 1.0, 33)
    block = ensemble_increments(seed, range(rep, rep + 1), grid, 3)
    key = np.array([seed, rep], dtype=np.uint64)
    for p in range(3):
        rng = Generator(Philox(key=key, counter=[0, p + 1, 0, 0]))
        expect = rng.standard_normal(grid.steps) * np.sqrt(grid.dt)
        np.testing.assert_array_equal(block[0, p], expect)


def test_stream_layout_pinned():
    # literal draws: any change to the stream layout must fail here
    grid = TimeGrid(0.0, 1.0, 4)
    block = ensemble_increments(2024, range(3), grid, 2)
    assert block[0, 0, 0] == -0.5357376862198944
    assert block[2, 1, 3] == -0.4811932550391372
    top = ensemble_increments(2**64 - 1, range(2**64 - 1, 2**64), grid, 1)
    assert top[0, 0, 1] == 0.9403915178539011


def test_ensemble_matches_per_replicate():
    grid = TimeGrid(0.0, 1.0, 20)
    block = ensemble_increments(3, range(5, 8), grid, 2)
    for i, rep in enumerate(range(5, 8)):
        single = sample_increments(3, rep, grid, 2)
        np.testing.assert_array_equal(block[i], single)


def test_marginal_moments():
    # 10^5 increments at dt=10^-3: mean within 4 sqrt(dt/1e5) of 0,
    # variance within 5% of dt
    grid = TimeGrid(0.0, 1.0, 1000)
    inc = ensemble_increments(2024, range(100), grid, 1).ravel()
    assert inc.size == 100000
    dt = grid.dt
    assert abs(inc.mean()) <= 4.0 * np.sqrt(dt / inc.size)
    assert abs(inc.var() - dt) <= 0.05 * dt


def test_cross_replicate_independence():
    # correlation between replicate streams should be noise-level small
    grid = TimeGrid(0.0, 1.0, 1000)
    a = sample_increments(77, 0, grid, 1)[0]
    b = sample_increments(77, 1, grid, 1)[0]
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 4.0 / np.sqrt(grid.steps)


def test_cumulative_starts_at_zero():
    grid = TimeGrid(0.0, 1.0, 10)
    noise = sample_noise(Seed(5), grid, 2)
    w = noise.cumulative()
    assert w.shape == (3, 11)
    np.testing.assert_array_equal(w[:, 0], 0.0)
    np.testing.assert_allclose(w[:, -1], noise.increments.sum(axis=1))
    np.testing.assert_allclose(noise.path(1), w[1])


def test_zero_bundle():
    grid = TimeGrid(0.0, 1.0, 4)
    z = NoiseBundle.zero(grid, 3)
    assert z.n_streams == 3
    np.testing.assert_array_equal(z.cumulative(), 0.0)


def test_shape_validation():
    grid = TimeGrid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        NoiseBundle(grid, np.zeros((2, 5)))


def test_with_replicate():
    s = Seed(10)
    assert s.replicate == 0
    assert s.with_replicate(3) == Seed(10, 3)
