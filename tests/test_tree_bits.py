"""The tree level passes and entropy profiles, bit for bit against
test-local copies of their earlier forms.

Those forms reduced row maxima with numpy, built every mask whether or not
a 0 or a -inf was there, gathered rows by fancy indexing, laid the
max-product scores out as numpy's broadcast sum does and built the profile
blocks vertex-major, (vertices, J, J^c), with numpy's sum over the parent's
state.  None of that changes a rounding, so every table keeps its bits, the
sign of zero included, on instances that reach every branch: J from 1 to 9,
binary trees (wide levels, where row maxima take column slices), stars,
paths and caterpillars, a profile block of one vertex, exact zeros in the
level priors and in beta_edge, and trees where only some blocks hold a 0."""

import math

import numpy as np
import pytest

import hmmentropy.tree as tree_passes
from hmmentropy import (Categorical, HmmModel, ObservedTree, TreeTopology,
                        children_conditional_profile, downward_pass,
                        parent_conditional_profile, simulate_tree,
                        smooth_tree, upward_pass, viterbi_profiles)
from hmmentropy.model import log_emission_matrix
from hmmentropy.numutil import BLOCK_CELLS, entr, tie_argmax

from conftest import random_model


def safe_div_reference(num, den):
    out = np.zeros(np.broadcast(num, den).shape)
    np.divide(num, den, out=out, where=den != 0)
    return out


def xlogy_reference(x, y):
    with np.errstate(all="ignore"):
        out = np.asarray(x * np.log(y))
    np.copyto(out, 0.0, where=(x == 0) & ~np.isnan(y))
    return out


def upward_reference(model, tree):
    """(prior, ratio, beta_edge, log_normalizers, log_likelihood) of
    upward_pass, for observations of positive probability."""
    topo = tree.topology
    n, j = topo.num_vertices, model.num_states
    level_prior = tree_passes._level_priors(model, topo)
    ratio = log_emission_matrix(model, tree.values)[topo.downward_order]
    beta_edge = np.ones((n, j))
    top, total = np.empty((2, n))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio[(level_prior == 0.0)[topo.depth[topo.downward_order]]] = -np.inf
        for d in range(topo.num_levels - 1, -1, -1):
            start, stop = topo.level(d)
            level = ratio[start:stop]
            top[start:stop] = level.max(axis=1)
            level -= top[start:stop, None]
            np.exp(level, out=level)
            total[start:stop] = level @ level_prior[d]
            level /= total[start:stop, None]
            if d:
                edge = beta_edge[start:stop] = level @ model.transition.T
                tree_passes._add_rows_at(
                    ratio, topo.parent_position[start:stop], np.log(edge))
        log_normalizers = np.log(total) + top
    at = topo.position
    return (level_prior[topo.depth], ratio[at], beta_edge[at],
            log_normalizers[at], math.fsum(log_normalizers.tolist()))


def downward_reference(model, tree, ratio, beta_edge, prior):
    """The smoothed table of downward_pass."""
    topo = tree.topology
    order = topo.downward_order
    beta_edge = beta_edge[order]
    smoothed = ratio[order]
    smoothed[0] *= prior[0]
    for d in range(1, topo.num_levels):
        start, stop = topo.level(d)
        weight = safe_div_reference(smoothed[topo.parent_position[start:stop]],
                                    beta_edge[start:stop])
        smoothed[start:stop] *= weight @ model.transition
    return smoothed[topo.position]


def max_product_reference(model, tree, m):
    """(states, m, best) of tree._max_product on plan-ordered log
    emissions m, which it overwrites."""
    topo = tree.topology
    n, j = topo.num_vertices, model.num_states
    with np.errstate(divide="ignore"):
        log_a = np.log(model.transition)
        log_initial = np.log(model.initial)
    best = np.zeros((n, j))
    back = np.zeros((n, j), dtype=np.min_scalar_type(j - 1))
    for d in range(topo.num_levels - 1, 0, -1):
        start, stop = topo.level(d)
        back[start:stop], best[start:stop] = tie_argmax(
            log_a.T[:, None, :] + m[start:stop].T[:, :, None])
        tree_passes._add_rows_at(m, topo.parent_position[start:stop],
                                 best[start:stop])
    states = np.empty(n, dtype=np.int64)
    states[0] = tie_argmax(log_initial + m[0])[0]
    flat_back = back.reshape(-1)
    row = np.arange(0, n * j, j)
    for d in range(1, topo.num_levels):
        start, stop = topo.level(d)
        states[start:stop] = flat_back[row[start:stop]
                                       + states[topo.parent_position[start:stop]]]
    return states[topo.position], m, best


def viterbi_profiles_reference(model, tree):
    topo = tree.topology
    log_b = log_emission_matrix(model, tree.values)[topo.downward_order]
    states, m, best = max_product_reference(model, tree, log_b.copy())
    log_likelihood = upward_reference(model, tree)[4]
    impossible_below = best == -np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        log_a = np.log(model.transition)
        down = np.empty_like(m)
        down[0] = np.log(model.initial)
        for d in range(1, topo.num_levels):
            start, stop = topo.level(d)
            parent = topo.parent_position[start:stop]
            outside = down[parent] + m[parent] - best[start:stop]
            np.copyto(outside, -np.inf, where=impossible_below[start:stop])
            completion = down[start:stop]
            np.add(outside[:, :1], log_a[0], out=completion)
            for i in range(1, len(log_a)):
                np.maximum(completion, outside[:, i, None] + log_a[i],
                           out=completion)
    return states, np.exp(m + down - log_likelihood)[topo.position]


def child_given_parent_reference(model, posterior, v):
    """W[..., i, k], vertex-major."""
    return safe_div_reference(model.transition * posterior.ratio[v][..., None, :],
                              posterior.beta_edge[v][..., :, None])


def blocks(start, stop, cells_per_row):
    rows = max(1, BLOCK_CELLS // cells_per_row)
    return ((lo, min(stop, lo + rows)) for lo in range(start, stop, rows))


def parent_profile_reference(model, tree, posterior):
    parent = tree.topology.parent
    n, j = tree.num_vertices, model.num_states
    out = np.empty(n)
    out[0] = float(entr(posterior.smoothed[0]).sum())
    for lo, hi in blocks(1, n, j * j):
        block = slice(lo, hi)
        cond = child_given_parent_reference(model, posterior, block)
        joint = cond * posterior.smoothed[parent[block]][:, :, None]
        out[block] = -xlogy_reference(joint, cond).sum(axis=(1, 2))
    return out


def children_profile_reference(model, tree, posterior):
    topo = tree.topology
    j = model.num_states
    order, first = topo.by_parent
    out = entr(posterior.smoothed).sum(axis=1)
    for c in np.unique(topo.child_count[topo.child_count > 0]).tolist():
        group = np.flatnonzero(topo.child_count == c)
        for lo, hi in blocks(0, group.size, j ** (c + 1)):
            us = group[lo:hi]
            table = posterior.smoothed[us][:, :, None]
            for t in range(c):
                w = child_given_parent_reference(model, posterior,
                                                 order[first[us] + t])
                table = (table[:, :, :, None] * w[:, :, None, :]).reshape(
                    us.size, j, -1)
            cond = safe_div_reference(table, table.sum(axis=1)[:, None, :])
            out[us] = -xlogy_reference(table, cond).sum(axis=(1, 2))
    return out


def topology(kind, n):
    if kind == "binary":
        parent = (np.arange(n) - 1) // 2
    elif kind == "star":
        parent = np.zeros(n, dtype=np.int64)
    elif kind == "path":
        parent = np.arange(n) - 1
    else:  # caterpillar: a spine of (n + 1) // 2 vertices, a leaf on each
        spine = (n + 1) // 2
        parent = np.concatenate(([0], np.arange(spine - 1),
                                 np.arange(n - spine)))
    parent[0] = -1
    return TreeTopology(parent)


KINDS = ("binary", "star", "path", "caterpillar")
# a star's children profile is one block of J^n cells, its root alone
STAR_SIZES = {1: 300, 2: 15, 4: 8, 8: 5, 9: 5}


def level_instances(j):
    """One tree of each kind with a random model, with exact zeros in every
    other one.  From J = 8 on, the last parent-profile block holds one
    vertex."""
    n = BLOCK_CELLS // j ** 2 + 2 if j >= 8 else 300
    for i, kind in enumerate(KINDS):
        rng = np.random.default_rng([23, j, i])
        model = random_model(rng, j, zeros=i % 2 == 0)
        topo = topology(kind, STAR_SIZES[j] if kind == "star" else n)
        yield f"J={j}-{kind}", model, simulate_tree(model, topo, 100 + i)[1]
    if j == 9:  # a level of 256 vertices, so that row maxima take slices
        model = random_model(np.random.default_rng([23, j, len(KINDS)]), j,
                             zeros=True)
        yield "J=9-binary-wide", model, simulate_tree(
            model, topology("binary", 600), 100 + len(KINDS))[1]


def zero_block_instances():
    """Binary trees of 4,000 vertices, J = 3, where symbol 0 is observed only
    at vertices before the second parent-profile block (1,821 at J = 3), so
    that the zeros it brings sit in some blocks and not in others.

    'emission zero': every transition positive, state 2 never emits 0, so
    the conditionals of those vertices hold a 0 but no beta_edge does.
    'absorbing state': state 2 leads only to itself and never emits 0, and
    the root never starts there, so the first level priors and the
    beta_edge rows of those vertices hold a 0."""
    boundary = 1 + BLOCK_CELLS // 9
    emissions = [[Categorical([0.5, 0.3, 0.2])], [Categorical([0.3, 0.4, 0.3])],
                 [Categorical([0.0, 0.5, 0.5])]]
    models = {
        "emission zero": HmmModel([0.5, 0.3, 0.2],
                                  [[0.8, 0.15, 0.05], [0.1, 0.8, 0.1],
                                   [0.2, 0.2, 0.6]], emissions),
        "absorbing state": HmmModel([0.5, 0.5, 0.0],
                                    [[0.8, 0.15, 0.05], [0.1, 0.8, 0.1],
                                     [0.0, 0.0, 1.0]], emissions),
    }
    topo = topology("binary", 4000)
    for name, model in models.items():
        values = np.array(simulate_tree(model, topo, 9)[1].values)
        values[boundary:][values[boundary:] == 0] = 1
        yield name, model, ObservedTree(topo, values)


INSTANCES = {name: (model, tree) for j in (1, 2, 4, 8, 9)
             for name, model, tree in level_instances(j)}
INSTANCES.update((name, (model, tree))
                 for name, model, tree in zero_block_instances())


def assert_same_bits(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


@pytest.fixture(params=sorted(INSTANCES), scope="module")
def instance(request):
    model, tree = INSTANCES[request.param]
    return model, tree, smooth_tree(model, tree)


class TestLevelPasses:
    def test_upward(self, instance):
        model, tree, _ = instance
        up = upward_pass(model, tree)
        got = (up.prior, up.ratio, up.beta_edge, up.log_normalizers,
               up.log_likelihood)
        for name, g, w in zip(("prior", "ratio", "beta_edge",
                               "log_normalizers", "log_likelihood"),
                              got, upward_reference(model, tree)):
            assert_same_bits(g, w, name)

    def test_downward(self, instance):
        model, tree, _ = instance
        prior, ratio, beta_edge, _, _ = upward_reference(model, tree)
        got = downward_pass(model, tree, upward_pass(model, tree)).smoothed
        assert_same_bits(got, downward_reference(model, tree, ratio,
                                                 beta_edge, prior), "smoothed")

    def test_viterbi_profiles(self, instance):
        model, tree, _ = instance
        states, prof = viterbi_profiles(model, tree)
        ref_states, ref = viterbi_profiles_reference(model, tree)
        assert_same_bits(states, ref_states, "states")
        assert_same_bits(prof, ref, "profiles")


class TestProfiles:
    def test_parent_conditional(self, instance):
        model, tree, post = instance
        assert_same_bits(parent_conditional_profile(model, tree, post),
                         parent_profile_reference(model, tree, post),
                         "parent_conditional")

    def test_children_conditional(self, instance):
        model, tree, post = instance
        assert_same_bits(children_conditional_profile(model, tree, post),
                         children_profile_reference(model, tree, post),
                         "children_conditional")


def test_instances_reach_every_branch():
    """Zero level priors, zero beta_edge entries and impossible subtrees
    (best = -inf) occur, every J has levels on both sides of the upward
    pass's switch to column-slice row maxima (8 J vertices), and the
    zero-block trees hold their zeros in the first parent-profile block
    only."""
    zero_prior = zero_edge = impossible_below = 0
    widths = {}
    for model, tree in INSTANCES.values():
        topo = tree.topology
        widths.setdefault(model.num_states, []).extend(
            stop - start for start, stop in map(topo.level,
                                                range(topo.num_levels)))
        up = upward_pass(model, tree)
        zero_prior += not up.prior.all()
        zero_edge += not up.beta_edge.all()
        log_b = log_emission_matrix(model, tree.values)
        best = tree_passes._max_product(
            model, tree, log_b[tree.topology.downward_order])[2]
        impossible_below += bool(np.isneginf(best).any())
    assert zero_prior and zero_edge and impossible_below
    for j, width in widths.items():
        assert min(width) == 1 and max(width) >= 16 * j, j
    boundary = 1 + BLOCK_CELLS // 9
    for name in ("emission zero", "absorbing state"):
        model, tree = INSTANCES[name]
        post = smooth_tree(model, tree)
        zero_ratio = (post.ratio[:, 2] == 0) if name == "emission zero" \
            else (post.beta_edge[:, 2] == 0)
        assert zero_ratio[1:boundary].any() and not zero_ratio[boundary:].any()
