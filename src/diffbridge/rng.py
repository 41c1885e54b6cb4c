"""Counter-based random streams for reproducible sampling.

Every stochastic draw in a sampler trajectory is keyed by the triple
(seed, sample_index, step), so the stream a draw comes from does not
depend on execution order.  Two workers processing different samples of
a batch in any interleaving produce bit-identical results.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def step_rng(seed: int, sample_index: int, step: int) -> np.random.Generator:
    """Generator for one (seed, sample_index, step) cell.

    Backed by the Philox counter-based bit generator: the triple selects a
    disjoint stream regardless of how many values earlier cells consumed.
    """
    if sample_index < 0 or step < 0:
        raise ValueError("sample_index and step must be nonnegative")
    key = np.array([seed & _MASK64, sample_index & _MASK64], dtype=np.uint64)
    # step occupies the second counter word: adjacent steps are 2^64
    # blocks apart, so in-step draws can never run into a neighbour.
    counter = np.array([0, step & _MASK64, 0, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))
