"""Tree smoothing in the extreme regimes against a log-space reference and
the enumeration oracle.

The generated trees take every topology kind of conftest.random_topology,
and their models have near-deterministic transitions (entries 1e-300 and
1 - 1e-16), initial laws with a 1e-300 entry and Poisson observations far
in the tail, where probabilities leave the double range.  Stars of 10^4+
leaves multiply more child messages into one vertex than a double holds as
a product.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmmentropy import (Categorical, HmmModel, ImpossibleObservationError,
                        ObservedTree, Poisson, TreeTopology, enumerate_tree,
                        simulate_tree, smooth_tree, upward_pass)

from conftest import (M1, TOPOLOGY_KINDS, extreme_model, log_space_tree,
                      random_topology, with_tails)


def extreme_tree(rng, kind, n, j, near_deterministic, tiny_initial,
                 tail_share):
    """conftest.extreme_model and a tree of n vertices simulated from it,
    with tail observations in a share tail_share of its Poisson values."""
    model, kinds = extreme_model(rng, j, near_deterministic, tiny_initial)
    topo = random_topology(rng, n, kind=kind)
    _, tree = simulate_tree(model, topo, int(rng.integers(0, 2 ** 31)))
    return model, ObservedTree(topo, with_tails(rng, tree.values, kinds,
                                                tail_share))


@st.composite
def extreme_trees(draw, max_vertices=40, max_states=6):
    """(model, tree) of any topology kind."""
    kind = draw(st.sampled_from(TOPOLOGY_KINDS))
    n = draw(st.integers(1, max_vertices))
    j = draw(st.integers(1, max_states))
    flags = draw(st.booleans()), draw(st.booleans())
    tail_share = draw(st.sampled_from([0.0, 0.2, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return extreme_tree(rng, kind, n, j, *flags, tail_share)


def subtree_sums(tree, per_vertex):
    """Per vertex u, the sum of per_vertex over the subtree rooted at u."""
    topo = tree.topology
    total = per_vertex.copy()
    for d in range(topo.num_levels - 1, 0, -1):
        level = topo.downward_order[slice(*topo.level(d))]
        np.add.at(total, topo.parent[level], total[level])
    return total


def assert_matches_log_space(model, tree, post):
    smoothed, subtree_log_evidence, log_likelihood = log_space_tree(model, tree)
    np.testing.assert_allclose(post.smoothed, smoothed, rtol=0, atol=1e-10)
    np.testing.assert_allclose(subtree_sums(tree, post.log_normalizers),
                               subtree_log_evidence, rtol=1e-12, atol=1e-9)
    assert post.log_likelihood == pytest.approx(log_likelihood, rel=1e-12,
                                                abs=1e-9)


@given(extreme_trees())
@settings(deadline=None)
def test_extreme_trees_match_log_space_reference(instance):
    model, tree = instance
    assert_matches_log_space(model, tree, smooth_tree(model, tree))


@given(extreme_trees(max_vertices=7, max_states=3))
@settings(deadline=None)
def test_small_extreme_trees_match_oracle(instance):
    """Where the probability-space oracle itself stays in double range."""
    model, tree = instance
    try:
        res = enumerate_tree(model, tree)
    except ImpossibleObservationError:  # its products underflowed
        return
    if not res.evidence > 1e-200:
        return
    post = smooth_tree(model, tree)
    for u in range(tree.num_vertices):
        np.testing.assert_allclose(post.smoothed[u], res.marginal(u), atol=1e-10)
    assert post.log_likelihood == pytest.approx(np.log(res.evidence), rel=1e-9)


def star(values):
    return ObservedTree(TreeTopology(np.r_[-1, np.zeros(len(values) - 1,
                                                        dtype=np.int64)]),
                        values)


SLOW_SWITCHING = HmmModel([0.5, 0.5], [[0.99, 0.01], [0.01, 0.99]],
                          M1.emissions)


@pytest.mark.parametrize("model, tree", [
    # the root's 19,999 leaf messages multiply past 1e308 ...
    (SLOW_SWITCHING, star(np.zeros(20_000, dtype=np.int64))),
    # ... and 4,000 alternating ones below the smallest normal double
    (SLOW_SWITCHING, star(np.arange(4_001) % 2)),
    (*extreme_tree(np.random.default_rng(11), "star", 10_000, 3, True, True,
                   0.2),),
    (*extreme_tree(np.random.default_rng(12), "star", 12_000, 4, False, False,
                   1.0),),
], ids=["20000 equal leaves", "4001 alternating leaves",
        "10000 leaves near-deterministic", "12000 leaves in the tail"])
def test_wide_stars_compute(model, tree):
    assert_matches_log_space(model, tree, smooth_tree(model, tree))


def test_rare_observation_is_not_impossible():
    """log b(3000) is about -21025 and -18947: both emission probabilities
    are 0 in double precision, the observation's probability is not."""
    model = HmmModel([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]],
                     [[Poisson(1.0)], [Poisson(2.0)]])
    tree = star([0, 3000, 1])
    post = smooth_tree(model, tree)
    assert post.log_likelihood == pytest.approx(-18950.386797, abs=1e-6)
    assert_matches_log_space(model, tree, post)


def test_state_with_a_tiny_prior_is_kept():
    """The states swap at every edge.  The child's prior puts 1e-300 on
    state 0 and its observation 40 makes state 0 exp(-101) times less likely
    than state 1, so that state 0 holds exp(-792) of the child's joint mass;
    the root's 3000 makes state 1 there, and so state 0 at the child, the
    likely one after all.  Shifting a row that included the prior would
    lose that state and, with it, 590 nats of the evidence."""
    model = HmmModel([1.0, 1e-300], [[1e-300, 1.0], [1.0, 1e-300]],
                     [[Poisson(1.0)], [Poisson(20.0)]])
    tree = ObservedTree(TreeTopology([-1, 0]), [3000, 40])
    post = smooth_tree(model, tree)
    assert post.smoothed[1, 0] == pytest.approx(1.0)
    assert_matches_log_space(model, tree, post)


def test_subnormal_prior_overflows_the_edge_message():
    """P(X) = 1e-310: the child's law is all on state 1, whose prior is
    subnormal, so beta / prior overflows in its edge message.  That must be
    reported at the child, not as an impossible observation at the root,
    whose row the infinite message turns into NaN."""
    model = HmmModel([1.0, 1e-310], np.eye(2),
                     [[Categorical([1.0, 0.0])], [Categorical([0.0, 1.0])]])
    tree = ObservedTree(TreeTopology([-1, 0]), [1, 1])
    with pytest.raises(FloatingPointError, match=r"vertex 1\b"):
        upward_pass(model, tree)
