"""The bulk seeding of the path streams against numpy's own constructor:
every seed's PCG64 state, and numpy's errors for the seeds it refuses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovbsde import build_chain_spec, simulate_paths
from markovbsde.seeding import pcg64_states

# the word boundaries of SeedSequence's entropy: 1, 2, 4 and more words
EDGES = [2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**127, 2**128, 2**200]


def states(seeds):
    return list(pcg64_states(seeds))


def test_bulk_states_are_numpys():
    seeds = [*range(3000), *EDGES]
    assert states(seeds) == [np.random.PCG64(s).state for s in seeds]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**256 - 1), min_size=1, max_size=8))
def test_bulk_states_are_numpys_below_2_256(seeds):
    # short and long seeds in one pass: the rounds of the words past the
    # pool apply to the long ones only
    assert states(seeds) == [np.random.PCG64(s).state for s in seeds]


def test_numpy_integer_seeds_are_their_values():
    seeds = [np.uint64(2**64 - 1), np.int32(7), np.uint8(0), True]
    assert states(seeds) == [np.random.PCG64(s).state for s in seeds]


@pytest.mark.parametrize("seed", [-1, -2**70, 1.5, 2.0, np.float64(3.0), "4"])
def test_refused_seeds_raise_what_numpy_raises(seed):
    with pytest.raises((TypeError, ValueError)) as want:
        np.random.PCG64(seed)
    with pytest.raises(want.type) as got:
        simulate_paths(build_chain_spec(2, [[-1.0, 1.0], [1.0, -1.0]], 0, 1.0),
                       [0, seed])
    assert str(got.value) == str(want.value)
