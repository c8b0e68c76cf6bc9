"""Shared fixtures and random instance generators.

The generators draw models with optional structural zeros (the zero-handling
paths matter) and always pair them with data simulated from the same model,
so every generated instance has positive evidence.
"""

import numpy as np
import pytest
from hypothesis import settings

from hmmentropy import (Categorical, HmmModel, ObservedSequence, ObservedTree,
                        Poisson, TreeTopology, simulate_chain, simulate_tree)

# --hypothesis-profile=ci: no per-example deadline on shared runners, and
# four times the default number of examples for the tests that set none
settings.register_profile("ci", deadline=None, max_examples=400)

M1 = HmmModel(
    [0.5, 0.5],
    [[0.9, 0.1], [0.1, 0.9]],
    [[Categorical([0.8, 0.2])], [Categorical([0.2, 0.8])]],
)


@pytest.fixture
def m1():
    return M1


def uniform_model(num_states=2, alphabet=2):
    """Uniform initial/transition laws and identical emissions everywhere."""
    j = num_states
    emission = Categorical(np.full(alphabet, 1.0 / alphabet))
    return HmmModel(np.full(j, 1.0 / j), np.full((j, j), 1.0 / j),
                    [[emission]] * j)


def state_revealing_model(num_states=2):
    """b_j(x) = 1 iff x == j: the observation identifies the state."""
    j = num_states
    emissions = [[Categorical(np.eye(j)[s])] for s in range(j)]
    return HmmModel(np.full(j, 1.0 / j), np.full((j, j), 1.0 / j), emissions)


def random_prob_vector(rng, k, zeros=False):
    v = rng.dirichlet(np.ones(k))
    if zeros and k > 1:
        nz = int(rng.integers(0, k))  # at most k-1 zeroed entries
        if nz >= k:
            nz = k - 1
        if nz:
            idx = rng.choice(k, size=nz, replace=False)
            v[idx] = 0.0
            v = v / v.sum()
    return v


def random_model(rng, num_states, num_variables=1, zeros=False, poisson=False):
    j = num_states
    initial = random_prob_vector(rng, j, zeros=zeros)
    transition = np.stack([random_prob_vector(rng, j, zeros=zeros)
                           for _ in range(j)])
    emissions = []
    kinds = ["poisson" if poisson and rng.random() < 0.5 else "categorical"
             for _ in range(num_variables)]
    sizes = [int(rng.integers(2, 4)) for _ in range(num_variables)]
    for s in range(j):
        state_vars = []
        for v in range(num_variables):
            if kinds[v] == "poisson":
                state_vars.append(Poisson(float(rng.uniform(0.2, 6.0))))
            else:
                state_vars.append(
                    Categorical(random_prob_vector(rng, sizes[v], zeros=zeros)))
        emissions.append(state_vars)
    return HmmModel(initial, transition, emissions)


def random_topology(rng, n, kind=None):
    if kind is None:
        kind = rng.choice(["path", "star", "binary", "random", "shuffled"])
    if n == 1:
        return TreeTopology([-1])
    if kind == "path":
        parent = np.arange(-1, n - 1)
    elif kind == "star":
        parent = np.zeros(n, dtype=np.int64)
        parent[0] = -1
    elif kind == "binary":
        parent = np.array([-1] + [(u - 1) // 2 for u in range(1, n)])
    elif kind == "kary":
        k = int(rng.integers(3, 6))
        parent = np.array([-1] + [(u - 1) // k for u in range(1, n)])
    else:
        parent = np.array([-1] + [int(rng.integers(0, u)) for u in range(1, n)])
        if kind == "shuffled":
            # relabel so parent ids can exceed child ids
            perm = np.concatenate(([0], 1 + rng.permutation(n - 1)))
            new_parent = np.empty(n, dtype=np.int64)
            new_parent[perm[0]] = -1
            for u in range(1, n):
                new_parent[perm[u]] = perm[parent[u]]
            parent = new_parent
    return TreeTopology(parent)


def random_chain_instance(seed, max_states=3, max_length=8, zeros_prob=0.3,
                          poisson=False):
    rng = np.random.default_rng(seed)
    j = int(rng.integers(2, max_states + 1))
    t = int(rng.integers(1, max_length + 1))
    zeros = bool(rng.random() < zeros_prob)
    model = random_model(rng, j, zeros=zeros, poisson=poisson)
    _, seq = simulate_chain(model, t, int(rng.integers(0, 2 ** 31)))
    return model, seq


def random_tree_instance(seed, max_states=3, max_vertices=8, zeros_prob=0.3,
                         kind=None, poisson=False):
    rng = np.random.default_rng(seed)
    j = int(rng.integers(2, max_states + 1))
    n = int(rng.integers(1, max_vertices + 1))
    zeros = bool(rng.random() < zeros_prob)
    model = random_model(rng, j, zeros=zeros, poisson=poisson)
    topo = random_topology(rng, n, kind=kind)
    _, tree = simulate_tree(model, topo, int(rng.integers(0, 2 ** 31)))
    return model, tree


TOPOLOGY_KINDS = ("path", "star", "binary", "kary", "random", "shuffled")


def ordering_instances(num_vertices=16):
    """One J = 2 instance per topology kind of random_topology, so that the
    level plan meets paths, stars, complete and random trees and parent ids
    larger than child ids."""
    instances = []
    for i, kind in enumerate(TOPOLOGY_KINDS):
        rng = np.random.default_rng(900 + i)
        model = random_model(rng, 2, zeros=i % 2 == 1)
        topo = random_topology(rng, num_vertices, kind=kind)
        _, tree = simulate_tree(model, topo, int(rng.integers(0, 2 ** 31)))
        instances.append((model, tree))
    return instances


def oracle_tree_instances(count, **kwargs):
    """random_tree_instance for seeds 0 .. count - 1, then the
    ordering_instances."""
    return [random_tree_instance(seed, **kwargs)
            for seed in range(count)] + ordering_instances()
