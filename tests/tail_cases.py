"""Hypothesis strategy shared by the tail-functional oracle tests."""

import numpy as np
from hypothesis import strategies as st

from kothe import FiniteProbSpace


@st.composite
def tail_cases(draw):
    """(space, values, t): non-uniform masses, one-atom spaces, ties from a
    small integer grid, and t = 1, t in (0, 1) or t below the smallest mass."""
    n = draw(st.integers(1, 9))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    space = FiniteProbSpace(weights / weights.sum())
    value = st.one_of(st.integers(-3, 3).map(float), st.floats(-10.0, 10.0))
    x = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    t = draw(
        st.one_of(
            st.just(1.0),
            st.floats(1e-3, 1.0),
            st.floats(0.01, 0.99).map(lambda f: f * float(space.probs.min())),
        )
    )
    return space, x, t
