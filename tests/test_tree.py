"""Upward-downward smoothing and tree Viterbi against hand cases, the chain
module (path topologies) and the enumeration oracle."""

import math

import numpy as np
import pytest

import hmmentropy.tree as tree_passes
from hmmentropy import (Categorical, HmmModel, ImpossibleObservationError,
                        ObservedSequence, ObservedTree, TreeTopology,
                        enumerate_tree, simulate_tree, smooth_chain,
                        smooth_tree, upward_pass, viterbi_chain,
                        viterbi_profiles, viterbi_tree)
from hmmentropy.model import log_emission_matrix
from hmmentropy.tree_entropy import (parent_conditional_profile,
                                     subtree_entropies_approach1)

from conftest import (TOPOLOGY_KINDS, oracle_tree_instances,
                      random_chain_instance, random_model,
                      random_tree_instance, random_topology,
                      state_revealing_model, uniform_model)


def star_tree():
    return ObservedTree(TreeTopology([-1, 0, 0]), [0, 0, 0])


def subtree_log_evidence(model, tree, u):
    """log P(observed subtree at u), enumerating that subtree alone with the
    marginal law of S_u as its root law."""
    topo = tree.topology
    below = [v for v in topo.subtree_vertices(u).tolist() if v != u]
    index = {v: k for k, v in enumerate([u] + below)}
    parent = [-1] + [index[int(topo.parent[v])] for v in below]
    root_law = model.initial @ np.linalg.matrix_power(model.transition,
                                                      int(topo.depth[u]))
    sub_model = HmmModel(root_law, model.transition, model.emissions)
    sub_tree = ObservedTree(TreeTopology(parent), tree.values[[u] + below])
    return math.log(enumerate_tree(sub_model, sub_tree).evidence)


class TestUpwardDownward:
    def test_single_vertex(self, m1):
        tree = ObservedTree(TreeTopology([-1]), [[0]])
        post = smooth_tree(m1, tree)
        np.testing.assert_allclose(post.beta[0], [0.8, 0.2], rtol=1e-12)
        assert np.exp(post.log_normalizers[0]) == pytest.approx(0.5, rel=1e-12)
        np.testing.assert_array_equal(post.smoothed[0], post.beta[0])

    def test_star_evidence(self, m1):
        post = upward_pass(m1, star_tree())
        assert np.exp(post.log_normalizers.sum()) == pytest.approx(0.2258, rel=1e-12)
        assert math.exp(post.log_likelihood) == pytest.approx(0.2258, rel=1e-12)

    def test_star_smoothed(self, m1):
        post = smooth_tree(m1, star_tree())
        np.testing.assert_allclose(post.smoothed[0],
                                   [0.970062001771479, 0.029937998228521], atol=1e-12)
        np.testing.assert_allclose(post.smoothed[1],
                                   [0.9530558015943312, 0.0469441984056688], atol=1e-12)
        np.testing.assert_allclose(post.smoothed[1], post.smoothed[2], atol=1e-15)

    def test_deterministic_emissions(self):
        model = state_revealing_model(2)
        topo = random_topology(np.random.default_rng(0), 12)
        values = np.random.default_rng(1).integers(0, 2, size=12)
        tree = ObservedTree(topo, values)
        post = smooth_tree(model, tree)
        np.testing.assert_allclose(post.smoothed, np.eye(2)[values], atol=1e-12)

    def test_uniform_degenerate(self):
        model = uniform_model(3, alphabet=2)
        topo = random_topology(np.random.default_rng(2), 9)
        tree = ObservedTree(topo, np.zeros(9, dtype=int))
        post = smooth_tree(model, tree)
        np.testing.assert_allclose(post.smoothed, np.full((9, 3), 1 / 3), atol=1e-12)

    def test_path_tree_equals_chain(self):
        for seed in range(25):
            model, seq = random_chain_instance(seed, max_states=3, max_length=10)
            tree = ObservedTree(
                TreeTopology(np.arange(-1, seq.length - 1)), seq.values)
            chain_post = smooth_chain(model, seq)
            tree_post = smooth_tree(model, tree)
            np.testing.assert_allclose(tree_post.smoothed, chain_post.smoothed,
                                       atol=1e-10)
            assert tree_post.log_likelihood == pytest.approx(
                chain_post.log_likelihood, abs=1e-10)

    def test_matches_oracle(self):
        for model, tree in oracle_tree_instances(60, poisson=True):
            post = smooth_tree(model, tree)
            res = enumerate_tree(model, tree)
            for u in range(tree.num_vertices):
                np.testing.assert_allclose(post.smoothed[u], res.marginal(u),
                                           atol=1e-10)
                # the log normalizers of a subtree sum to its log evidence
                subtree = tree.topology.subtree_vertices(u)
                assert post.log_normalizers[subtree].sum() == pytest.approx(
                    subtree_log_evidence(model, tree, u), abs=1e-9)
            assert math.exp(post.log_likelihood) == pytest.approx(
                res.evidence, rel=1e-9)

    def test_invariants(self):
        for seed in range(25):
            model, tree = random_tree_instance(seed)
            post = smooth_tree(model, tree)
            for table in (post.prior, post.beta, post.smoothed):
                np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(np.isfinite(post.log_normalizers))
            assert np.array_equal(post.smoothed[0], post.beta[0])

    def test_impossible_observation_names_vertex(self):
        model = HmmModel([1.0, 0.0], np.eye(2),
                         [[Categorical([1.0, 0.0])], [Categorical([1.0, 0.0])]])
        tree = ObservedTree(TreeTopology([-1, 0, 0]), [0, 1, 0])
        with pytest.raises(ImpossibleObservationError, match="vertex 1"):
            upward_pass(model, tree)


class TestViterbiTree:
    def test_star(self, m1):
        states, log_joint = viterbi_tree(m1, star_tree())
        np.testing.assert_array_equal(states, [0, 0, 0])
        assert math.exp(log_joint) == pytest.approx(0.20736, rel=1e-12)

    def test_deterministic_emissions(self):
        model = state_revealing_model(3)
        topo = random_topology(np.random.default_rng(4), 10)
        values = np.random.default_rng(5).integers(0, 3, size=10)
        states, _ = viterbi_tree(model, ObservedTree(topo, values))
        np.testing.assert_array_equal(states, values)

    def test_uniform_tie_break(self):
        model = uniform_model(3, alphabet=2)
        topo = random_topology(np.random.default_rng(6), 7)
        tree = ObservedTree(topo, np.zeros(7, dtype=int))
        states, _ = viterbi_tree(model, tree)
        np.testing.assert_array_equal(states, np.zeros(7, dtype=int))

    def test_matches_oracle(self):
        for model, tree in oracle_tree_instances(60):
            states, log_joint = viterbi_tree(model, tree)
            res = enumerate_tree(model, tree)
            best, best_prob = res.best_configuration(
                order=tree.topology.downward_order)
            np.testing.assert_array_equal(states, best)
            assert math.exp(log_joint) == pytest.approx(best_prob, rel=1e-9)

    def test_path_equals_chain(self):
        for seed in range(25):
            model, seq = random_chain_instance(seed, max_states=3, max_length=10)
            tree = ObservedTree(
                TreeTopology(np.arange(-1, seq.length - 1)), seq.values)
            chain_path, chain_lj = viterbi_chain(model, seq)
            tree_path, tree_lj = viterbi_tree(model, tree)
            np.testing.assert_array_equal(chain_path, tree_path)
            assert chain_lj == pytest.approx(tree_lj, abs=1e-10)

    def test_all_impossible(self):
        model = HmmModel([1.0, 0.0], np.eye(2),
                         [[Categorical([1.0, 0.0])], [Categorical([0.0, 1.0])]])
        tree = ObservedTree(TreeTopology([-1, 0]), [0, 1])
        with pytest.raises(ImpossibleObservationError):
            viterbi_tree(model, tree)


class TestViterbiProfiles:
    def test_single_vertex_equals_smoothed(self, m1):
        tree = ObservedTree(TreeTopology([-1]), [[0]])
        _, prof = viterbi_profiles(m1, tree)
        post = smooth_tree(m1, tree)
        np.testing.assert_allclose(prof[0], post.smoothed[0], atol=1e-12)

    def test_star_constrained_value(self, m1):
        _, prof = viterbi_profiles(m1, star_tree())
        assert prof[0, 1] == pytest.approx(0.1 * 0.18 ** 2 / 0.2258, rel=1e-10)

    def test_deterministic_rows_are_indicators(self):
        model = state_revealing_model(2)
        topo = random_topology(np.random.default_rng(7), 8)
        values = np.random.default_rng(8).integers(0, 2, size=8)
        _, prof = viterbi_profiles(model, ObservedTree(topo, values))
        np.testing.assert_allclose(prof, np.eye(2)[values], atol=1e-12)

    def test_row_maxima_equal_viterbi_posterior(self):
        for seed in range(30):
            model, tree = random_tree_instance(seed)
            vstates, prof = viterbi_profiles(model, tree)
            states, log_joint = viterbi_tree(model, tree)
            assert np.array_equal(vstates, states)
            ll = upward_pass(model, tree).log_likelihood
            np.testing.assert_allclose(prof.max(axis=1),
                                       math.exp(log_joint - ll), rtol=1e-9)

    def test_matches_oracle(self):
        for model, tree in oracle_tree_instances(60):
            _, prof = viterbi_profiles(model, tree)
            res = enumerate_tree(model, tree)
            for u in range(tree.num_vertices):
                for j in range(model.num_states):
                    assert prof[u, j] == pytest.approx(
                        res.viterbi_profile(u, j), abs=1e-10)

    def test_completion_is_the_3d_max(self):
        """The completion's slice maxima are the (vertices, J, J) form's max
        bit for bit, with -inf scores from exact-zero transitions."""
        instances = [random_tree_instance(seed, max_states=5, max_vertices=40,
                                          zeros_prob=1.0)
                     for seed in range(40)]
        instances += [(model, tree) for _, model, tree in scatter_instances()]
        for model, tree in instances:
            states, prof = viterbi_profiles(model, tree)
            ref_states, ref = viterbi_profiles_3d(model, tree)
            np.testing.assert_array_equal(states, ref_states)
            np.testing.assert_array_equal(prof, ref)


def viterbi_profiles_3d(model, tree):
    """viterbi_profiles with the completion's max over the parent's state
    taken along the middle axis of one (vertices, J, J) array."""
    topo = tree.topology
    log_b = log_emission_matrix(model, tree.values)[topo.downward_order]
    states, m, best = tree_passes._max_product(model, tree, log_b.copy())
    log_likelihood = tree_passes._upward(model, tree, log_b).log_likelihood
    with np.errstate(divide="ignore", invalid="ignore"):
        log_a = np.log(model.transition)
        down = np.empty_like(m)
        down[0] = np.log(model.initial)
        for d in range(1, topo.num_levels):
            start, stop = topo.level(d)
            parent = topo.parent_position[start:stop]
            outside = down[parent] + m[parent] - best[start:stop]
            np.copyto(outside, -np.inf, where=best[start:stop] == -np.inf)
            down[start:stop] = (outside[:, :, None] + log_a).max(axis=1)
    return states, np.exp(m + down - log_likelihood)[topo.position]


def scatter_instances():
    """A tree of every topology kind with structural zeros, so that some
    scattered rows hold -inf, and a star of 10^4 leaves."""
    for i, kind in enumerate(TOPOLOGY_KINDS):
        rng = np.random.default_rng([31, i])
        model = random_model(rng, 4, zeros=True)
        topo = random_topology(rng, 300, kind=kind)
        yield kind, model, simulate_tree(model, topo,
                                         int(rng.integers(2 ** 31)))[1]
    rng = np.random.default_rng(32)
    model = random_model(rng, 3)
    yield "star of 10^4 leaves", model, simulate_tree(
        model, random_topology(rng, 10_001, kind="star"), 5)[1]


def level_pass_tables(model, tree):
    """Every table the level passes scatter into, and what is built on them."""
    post = smooth_tree(model, tree)
    states, m, best = tree_passes._max_product(
        model, tree,
        log_emission_matrix(model, tree.values)[tree.topology.downward_order])
    parent_cond = parent_conditional_profile(model, tree, post)
    sums = subtree_entropies_approach1(model, tree, post, parent_cond)
    return [post.ratio, post.beta_edge, post.log_normalizers,
            np.array(post.log_likelihood), post.smoothed, states, m, best,
            *viterbi_profiles(model, tree), *sums[:3], np.array(sums[3])]


class TestLevelScatter:
    def test_flat_scatter_is_the_2d_scatter(self, monkeypatch):
        """np.add.at on the flattened table adds the same terms in the same
        order as on the 2-D table, so every table is bit for bit the same."""
        neg_inf_rows = 0
        for kind, model, tree in scatter_instances():
            flat = level_pass_tables(model, tree)
            with monkeypatch.context() as patch:
                patch.setattr(tree_passes, "_add_rows_at", np.add.at)
                two_d = level_pass_tables(model, tree)
            for got, want in zip(flat, two_d):
                assert got.dtype == want.dtype and got.shape == want.shape, kind
                assert got.tobytes() == want.tobytes(), kind
            best = flat[7]
            neg_inf_rows += int(np.isneginf(best[1:]).any(axis=1).sum())
        assert neg_inf_rows > 0


def test_marginal_entropy_is_built_once_and_read_only(m1):
    """Both posteriors carry H(S_u | X) as one shared, read-only column,
    summed in row blocks, which is the whole table's row sums (the long
    chain ends in a one-row block, the wide star spans three blocks)."""
    from hmmentropy.numutil import BLOCK_CELLS, entr
    rows = BLOCK_CELLS // m1.num_states
    long_chain = [0, 1, 0] * rows + [1]
    wide_star = ObservedTree(TreeTopology([-1] + [0] * (2 * rows)),
                             [0, 1] * rows + [0])
    for post in (smooth_chain(m1, ObservedSequence([0, 1, 0])),
                 smooth_chain(m1, ObservedSequence(long_chain)),
                 smooth_tree(m1, star_tree()), smooth_tree(m1, wide_star)):
        marginal = post.marginal_entropy
        assert marginal is post.marginal_entropy
        np.testing.assert_array_equal(marginal,
                                      entr(post.smoothed).sum(axis=1))
        with pytest.raises(ValueError, match="read-only"):
            marginal[0] = 0.0
    with pytest.raises(ValueError, match="lacks the smoothed table"):
        upward_pass(m1, star_tree()).marginal_entropy
