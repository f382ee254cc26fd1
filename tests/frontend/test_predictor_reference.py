"""The hybrid predictor agrees with the reference formulation.

:mod:`tests.frontend.reference_predictor` keeps the predictor whose
tables update through ``_CounterTable`` method calls.  Random streams
of conditional branches and indirect jumps, on small tables (so
indices alias and wrap) and on the default geometry, must give equal
predictions, counter tables, global history and BTB contents.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.frontend.branch_predictor import HybridPredictor
from tests.frontend.reference_predictor import ReferenceHybridPredictor

branches = st.lists(
    st.tuples(
        st.booleans(),  # indirect jump
        st.integers(min_value=0, max_value=5000),  # pc
        st.booleans(),  # taken
        st.integers(min_value=0, max_value=7),  # target
    ),
    min_size=1,
    max_size=300,
)


def predictor_state(predictor):
    return (
        predictor.bimodal.counters,
        predictor.gshare.counters,
        predictor.chooser.counters,
        predictor.history,
        predictor.btb,
        predictor.btb_targets,
        predictor.branches,
        predictor.mispredictions,
        predictor.btb_misses,
    )


@given(
    bits=st.sampled_from([(2, 3, 1, 2), (4, 2, 3, 1), (11, 11, 11, 11)]),
    stream=branches,
)
def test_predictor_matches_reference(bits, stream):
    fast = HybridPredictor(*bits)
    ref = ReferenceHybridPredictor(*bits)
    for indirect, pc, taken, target in stream:
        if indirect:
            assert fast.predict_indirect(pc, target) == ref.predict_indirect(
                pc, target
            )
        else:
            assert fast.predict_and_update(pc, taken, target) == (
                ref.predict_and_update(pc, taken, target)
            )
    assert predictor_state(fast) == predictor_state(ref)
