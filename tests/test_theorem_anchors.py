"""Known EFX existence results as property tests on small tie-rich instances.

EFX allocations exist for two additive agents (cut and choose; Plaut &
Roughgarden, SIAM J. Discrete Math 2020), for three additive agents
(Chaudhury, Garg & Mehlhorn, "EFX exists for three agents", EC 2020) and
for identical valuations with any number of agents (Plaut & Roughgarden
2020).  On each such instance the exhaustive oracle must find EFX, and
every witness it lists must certify itself in all three continuous
formulations: the DC objective at its encoding, the clamp map's fixed
points and the Lovász relaxation at its indicator.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from efxkit import (
    Instance,
    clamp_map,
    dc_objective,
    encode_allocation,
    enumerate_efx,
    normalize,
    relaxation_objective,
)
from efxkit.instance import DEFAULT_EFX_TOL

MAX_ITEMS = 6
ANCHOR_SETTINGS = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.filter_too_much],
)

# Small integers are rich in ties and zeros; floats cover the generic case.
ENTRIES = st.one_of(st.integers(0, 2).map(float), st.floats(0.0, 1.0, allow_subnormal=False))


@st.composite
def additive_values(draw, n: int):
    m = draw(st.integers(1, MAX_ITEMS))
    return np.array(draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=m, max_size=m)))


@st.composite
def identical_values(draw):
    n = draw(st.integers(2, 4))
    column = draw(st.lists(ENTRIES, min_size=1, max_size=MAX_ITEMS))
    return np.tile(np.array(column)[:, None], (1, n))


def _assert_efx_anchored(values: np.ndarray) -> None:
    assume(np.all(values.sum(axis=0) > 0.0))
    inst = normalize(Instance(values))
    result = enumerate_efx(inst, tol=DEFAULT_EFX_TOL)
    assert result.exists
    for witness in result.witnesses:
        y = encode_allocation(inst, witness)
        assert dc_objective(inst, y) <= DEFAULT_EFX_TOL
        assert np.abs(clamp_map(inst, y) - y).max() <= DEFAULT_EFX_TOL
        indicator = np.eye(inst.n)[witness.owner]
        assert relaxation_objective(inst, indicator) <= 1.0 + 1e-9


@ANCHOR_SETTINGS
@given(additive_values(2))
def test_two_additive_agents_have_efx(values):
    _assert_efx_anchored(values)


@ANCHOR_SETTINGS
@given(additive_values(3))
def test_three_additive_agents_have_efx(values):
    _assert_efx_anchored(values)


@ANCHOR_SETTINGS
@given(identical_values())
def test_identical_valuations_have_efx(values):
    _assert_efx_anchored(values)
