"""Evaluate the action functional on hand-built path bundles.

Shows the three regimes of the rate: smooth interior motion priced by the
quadratic action, barrier-glued motion priced one-sidedly, and order
violations returning the infinite sentinel with a diagnosis.
"""

import numpy as np

from whittaker2d import (
    ALTERNATE,
    LEMMA,
    ModelConfig,
    PathBundle,
    SamplePath,
    TimeGrid,
    TriangularConfiguration,
    particle_rate,
    total_rate,
)


def main():
    grid = TimeGrid(0.0, 1.0, 1000)
    eps = 1e-6

    # interior motion: straight lines cost half the squared slope, summed
    init = TriangularConfiguration(2, np.array([0.0, 2.0, -2.0]))
    end = TriangularConfiguration(2, np.array([0.5, 2.5, -1.0]))
    cfg = ModelConfig(N=2, gamma=8.0, initial=init)
    bundle = PathBundle.linear(2, grid, init, end)
    br = total_rate(bundle, cfg, eps)
    slopes = end.entries - init.entries
    print(f"linear bundle: rate {br.total:.4f}"
          f" (expected {np.sum(slopes ** 2) / 2:.4f})")

    # glued motion: riding a rising lower barrier is free, descending
    # against it costs the full quadratic price
    rising = SamplePath.from_function(grid, lambda t: t)
    falling = SamplePath.from_function(grid, lambda t: -t)
    print(f"glued ascent:  {particle_rate(rising, None, rising, eps):.4f}")
    print(f"glued descent: {particle_rate(falling, None, falling, eps):.4f}")
    alternate = particle_rate(rising, None, rising, eps, convention=ALTERNATE)
    print("alternate one-sided convention charges the ascent instead:",
          f"{alternate:.4f}", f"(default {LEMMA!r})")

    # order violation: the sentinel names the offending particle pair
    crossing_end = TriangularConfiguration(2, np.array([-0.5, 0.5, 0.5]))
    bad = PathBundle.linear(
        2, grid, TriangularConfiguration.zeros(2), crossing_end
    )
    cfg0 = ModelConfig(
        N=2, gamma=8.0, initial=TriangularConfiguration.zeros(2)
    )
    br = total_rate(bad, cfg0, 1e-3)
    print(f"crossing bundle: rate {br.total}, reason {br.infinity_reason},"
          f" offending {br.offending}")


if __name__ == "__main__":
    main()
