"""The split of a scheme's terms into two bins, on random term lists: the
catalog's own bins are pinned in `test_schemes.TestPlan`."""

from hypothesis import given, settings
from hypothesis import strategies as st

from mpesplit.schemes import _split

# a term's cost is its count of non-zero substeps, at least one; each term
# starts with an A substep or not
TERMS = st.lists(st.tuples(st.integers(1, 12), st.booleans()), min_size=1, max_size=12)


@settings(derandomize=True, max_examples=300)
@given(TERMS)
def test_split(terms):
    costs = [cost for cost, _ in terms]
    a_first = tuple(i for i, (_, starts_a) in enumerate(terms) if starts_a)
    bins = _split(costs, a_first)
    assert sorted(bins[0] + bins[1]) == list(range(len(terms)))
    assert all(list(b) == sorted(b) for b in bins)
    loads = [sum(costs[i] for i in b) for b in bins]
    assert abs(loads[0] - loads[1]) <= max(costs)
    assert (bins[1] == ()) == (len(terms) == 1)
