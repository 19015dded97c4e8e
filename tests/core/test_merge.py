"""The canonical earliest-ending k-way merge that composes Phase 2.

``TwoDimTree.phase2`` hands :func:`repro.core.merge.merge_earliest` one
run per marked subtree: each run is that subtree's ascending ``(et, uid)``
secondary array, and only the suffix from ``bisect_left(keys, (er, -1))``
on is feasible.  The marked subtrees hold disjoint leaves, so a run is an
arbitrary sorted subset of the keys, not a contiguous slice of their
global order.  Whatever the assignment and the offsets, the merge must
return the ``need`` smallest live keys in order.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.merge import merge_earliest

_KEYS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.integers(min_value=0, max_value=10_000),
    ),
    max_size=60,
    unique=True,
)


@given(
    keys=_KEYS,
    n_runs=st.integers(min_value=1, max_value=6),
    data=st.data(),
    need=st.integers(min_value=-1, max_value=70),
)
@settings(max_examples=200, deadline=None)
def test_merge_earliest_equals_global_sort_for_any_partition(keys, n_runs, data, need):
    """Deal the keys to runs in any interleaved way, sort each run and
    start it at any offset: the merge equals the sorted live keys cut
    to ``need`` (nothing for a non-positive ``need``)."""
    owners = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=n_runs - 1),
            min_size=len(keys),
            max_size=len(keys),
        ),
        label="owners",
    )
    runs = []
    live = []
    for run in range(n_runs):
        run_keys = sorted(key for key, owner in zip(keys, owners) if owner == run)
        start = data.draw(
            st.integers(min_value=0, max_value=len(run_keys) + 1), label=f"start{run}"
        )
        runs.append((run_keys, start))
        live.extend(run_keys[start:])
    assert merge_earliest(runs, need) == sorted(live)[: max(need, 0)]

