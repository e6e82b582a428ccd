import numpy as np
import pytest
from numpy.random import Generator, Philox

from whittaker2d import (
    ModelConfig,
    TimeGrid,
    TriangularConfiguration,
    ensemble_increments,
    simulate,
)
from whittaker2d import noise
from whittaker2d.noise import IncrementStream


def test_determinism():
    grid = TimeGrid(0.0, 1.0, 100)
    a = ensemble_increments(12345, range(7, 8), grid, 3)[0]
    b = ensemble_increments(12345, range(7, 8), grid, 3)[0]
    np.testing.assert_array_equal(a, b)


def test_replicates_differ():
    grid = TimeGrid(0.0, 1.0, 100)
    a = ensemble_increments(1, range(0, 1), grid, 2)[0]
    b = ensemble_increments(1, range(1, 2), grid, 2)[0]
    assert not np.array_equal(a, b)


def test_seeds_differ():
    grid = TimeGrid(0.0, 1.0, 100)
    a = ensemble_increments(1, range(0, 1), grid, 2)[0]
    b = ensemble_increments(2, range(0, 1), grid, 2)[0]
    assert not np.array_equal(a, b)


def test_key_words_outside_64_bits_rejected():
    grid = TimeGrid(0.0, 1.0, 10)
    with pytest.raises(ValueError, match="seed"):
        ensemble_increments(-1, range(2), grid, 1)
    with pytest.raises(ValueError, match="seed"):
        ensemble_increments(2**64, range(0, 1), grid, 1)[0]
    with pytest.raises(ValueError, match="replicate"):
        ensemble_increments(0, range(-1, 1), grid, 1)


def test_large_key_words_name_their_own_streams():
    # words above 2**53 must not be rounded onto a neighbour, nor 2**64 - 1
    # onto 0
    grid = TimeGrid(0.0, 1.0, 10)
    top = ensemble_increments(2**64 - 1, range(0, 1), grid, 1)[0]
    assert not np.array_equal(
        top, ensemble_increments(0, range(0, 1), grid, 1)[0]
    )
    assert not np.array_equal(
        ensemble_increments(2**63, range(0, 1), grid, 1)[0],
        ensemble_increments(2**63 + 1, range(0, 1), grid, 1)[0],
    )
    assert not np.array_equal(
        ensemble_increments(0, range(2**64 - 1, 2**64), grid, 1)[0],
        ensemble_increments(0, range(0, 1), grid, 1)[0],
    )


def test_step_prefixes_are_addressable():
    # the first m steps of a path do not depend on how many steps follow
    grid, short = TimeGrid(0.0, 1.0, 50), TimeGrid(0.0, 0.4, 20)
    long = ensemble_increments(9, range(2), grid, 3)
    head = ensemble_increments(9, range(2), short, 3)
    assert head.tobytes() == long[:, :, :20].tobytes()


@pytest.mark.parametrize("seed", [0, 2**53 + 1, 2**64 - 1])
@pytest.mark.parametrize("rep", [0, 2**53 + 1, 2**64 - 1])
def test_streams_match_fresh_philox(seed, rep):
    # replicate rep is what a fresh Philox with key (seed, rep) and counter
    # block [0, 1, 0, 0] draws, scaled by sqrt(dt), step-major: normal
    # n*P + p is particle p's increment at step n
    grid = TimeGrid(0.0, 1.0, 33)
    key = np.array([seed, rep], dtype=np.uint64)
    for P in (1, 3):
        block = ensemble_increments(seed, range(rep, rep + 1), grid, P)
        rng = Generator(Philox(key=key, counter=[0, 1, 0, 0]))
        expect = rng.standard_normal(grid.steps * P).reshape(grid.steps, P)
        np.testing.assert_array_equal(block[0], expect.T * np.sqrt(grid.dt))


def test_stream_layout_pinned():
    # literal draws: any change to the stream layout must fail here
    grid = TimeGrid(0.0, 1.0, 4)
    block = ensemble_increments(2024, range(3), grid, 2)
    assert block[0, 0, 0] == -0.5357376862198944
    assert block[0, 1, 0] == 0.36174300649031693
    assert block[2, 1, 3] == 0.2625354043771897
    top = ensemble_increments(2**64 - 1, range(2**64 - 1, 2**64), grid, 1)
    assert top[0, 0, 1] == 0.9403915178539011


@pytest.mark.parametrize("seed, rep", [(5, 0), (2**64 - 1, 2**64 - 3)])
def test_stream_windows_concatenate_to_one_draw(seed, rep):
    # uneven windows, each stream carried across three window ends, give
    # one draw's values byte for byte; nothing is left to draw after them
    grid = TimeGrid(0.0, 1.0, 1000)
    reps = range(rep, rep + 3)
    stream = IncrementStream(seed, reps, grid, 2)
    assert stream.shape == (3, 2, 1000)
    parts = [stream.fill(np.empty((3, k, 2))) for k in (1, 299, 600, 100)]
    whole = ensemble_increments(seed, reps, grid, 2)
    drawn = np.concatenate(parts, axis=1).transpose(0, 2, 1)
    assert drawn.tobytes() == whole.tobytes()
    with pytest.raises(ValueError):
        stream.fill(np.empty((3, 1, 2)))


def test_stream_opens_one_generator_per_replicate(monkeypatch):
    # three windows of 4 replicates x 3 particles: each fill builds the one
    # generator it re-keys, and each replicate opens one generator of its
    # own that it keeps across windows, not one per particle
    opened = []

    def counting(*args, **kwargs):
        opened.append(1)
        return Philox(*args, **kwargs)

    monkeypatch.setattr(noise, "Philox", counting)
    stream = IncrementStream(11, range(4), TimeGrid(0.0, 1.0, 30), 3)
    for _ in range(3):
        stream.fill(np.empty((4, 10, 3)))
    assert len(opened) == 4 + 3


def test_ensemble_matches_per_replicate():
    grid = TimeGrid(0.0, 1.0, 20)
    block = ensemble_increments(3, range(5, 8), grid, 2)
    for i, rep in enumerate(range(5, 8)):
        single = ensemble_increments(3, range(rep, rep + 1), grid, 2)[0]
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
    a = ensemble_increments(77, range(0, 1), grid, 1)[0, 0]
    b = ensemble_increments(77, range(1, 2), grid, 1)[0, 0]
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 4.0 / np.sqrt(grid.steps)


def test_shape_validation():
    # simulate takes one row of grid.steps increments per particle
    grid = TimeGrid(0.0, 1.0, 4)
    config = ModelConfig(N=2, gamma=8.0,
                         initial=TriangularConfiguration.zeros(2))
    for shape in [(3, 5), (2, 4), (1, 3, 4)]:
        with pytest.raises(ValueError):
            simulate(config, grid, np.zeros(shape))
