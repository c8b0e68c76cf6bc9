"""Shared fixtures, random instance generators and malformed model
documents.

The generators draw models with optional structural zeros (the zero-handling
paths matter) and always pair them with data simulated from the same model,
so every generated instance has positive evidence.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import settings
from scipy.special import logsumexp

from hmmentropy import (Categorical, HmmModel, ObservedSequence, ObservedTree,
                        Poisson, TreeTopology, simulate_chain, simulate_tree)
from hmmentropy.model import log_emission_matrix

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


def near_deterministic_row(rng, j):
    """Entries 1e-300 around one of 1 - 1e-16 (next to a 1e-16) or 1."""
    row = np.full(j, 1e-300)
    d = int(rng.integers(j))
    if j > 1 and rng.random() < 0.5:
        row[(d + 1 + int(rng.integers(j - 1))) % j] = 1e-16
        row[d] = 1.0 - 1e-16
    else:
        row[d] = 1.0
    return row


def extreme_model(rng, j, near_deterministic, tiny_initial):
    """(model, kinds): j states, near-deterministic transition rows or
    Dirichlet ones, an initial law with a 1e-300 entry or without, and one
    or two variables, each Poisson (rates 0.5-20) or categorical; kinds
    names them."""
    initial = rng.dirichlet(np.ones(j))
    if tiny_initial and j > 1:
        initial[int(rng.integers(j))] = 1e-300
        initial /= initial.sum()
    transition = np.stack([near_deterministic_row(rng, j) if near_deterministic
                           else rng.dirichlet(np.ones(j)) for _ in range(j)])
    kinds = ["poisson" if rng.random() < 0.7 else "categorical"
             for _ in range(int(rng.integers(1, 3)))]
    sizes = [int(rng.integers(2, 5)) for _ in kinds]
    emissions = [[Poisson(rng.uniform(0.5, 20.0)) if kind == "poisson"
                  else Categorical(rng.dirichlet(np.ones(n)))
                  for kind, n in zip(kinds, sizes)] for _ in range(j)]
    return HmmModel(initial, transition, emissions), kinds


def with_tails(rng, values, kinds, tail_share):
    """A copy of values whose Poisson observations are replaced, each with
    probability tail_share, by values in [200, 3000)."""
    values = values.copy()
    for k, kind in enumerate(kinds):
        if kind == "poisson":
            tail = rng.random(len(values)) < tail_share
            values[tail, k] = rng.integers(200, 3000, size=int(tail.sum()))
    return values


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


def stack(seqs):
    """The dataset of the given sequences, in order: their rows stacked
    into one ObservedSequence with their offsets."""
    return ObservedSequence(np.concatenate([seq.values for seq in seqs]),
                            np.cumsum([0] + [seq.length for seq in seqs]))


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


def log_space_tree(model, tree):
    """(smoothed, subtree_log_evidence, log_likelihood) of a tree from
    unnormalized upward messages in log space,
    log m_u(i) = log P(observed subtree at u | S_u = i)
               = log b_u(i) + sum over children c of log P(subtree at c | S_u = i),
    each child term a logsumexp over the child's state and each sum over
    children exact (math.fsum), and the downward completion
    P(S_c = k | X) = sum_i P(S_u = i | X) a_ik m_c(k) / sum_l a_il m_c(l) on
    logarithms.  subtree_log_evidence[u] is log P(observed subtree at u)."""
    topo = tree.topology
    n, j = topo.num_vertices, model.num_states
    order = topo.downward_order
    with np.errstate(divide="ignore"):
        log_a = np.log(model.transition)
        log_prior = np.empty((topo.num_levels, j))
        log_prior[0] = np.log(model.initial)
    for d in range(1, topo.num_levels):
        log_prior[d] = logsumexp(log_prior[d - 1][:, None] + log_a, axis=0)
    log_m = log_emission_matrix(model, tree.values)
    to_parent = np.empty((n, j))  # log P(subtree at u | S_parent(u) = i)
    for d in range(topo.num_levels - 1, -1, -1):
        level = order[slice(*topo.level(d))]
        for u in level[topo.child_count[level] > 0].tolist():
            log_m[u] += [math.fsum(col) for col in to_parent[topo.children[u]].T]
        to_parent[level] = logsumexp(log_a + log_m[level][:, None, :], axis=2)
    log_joint = log_prior[topo.depth] + log_m
    subtree_log_evidence = logsumexp(log_joint, axis=1)
    log_smoothed = np.empty((n, j))
    log_smoothed[0] = log_joint[0] - subtree_log_evidence[0]
    with np.errstate(invalid="ignore"):
        for d in range(1, topo.num_levels):
            level = order[slice(*topo.level(d))]
            # a parent state under which the child's subtree is impossible
            # has no mass itself
            given = np.where(to_parent[level] > -np.inf,
                             log_smoothed[topo.parent[level]] - to_parent[level],
                             -np.inf)
            log_smoothed[level] = (logsumexp(given[:, :, None] + log_a, axis=1)
                                   + log_m[level])
    return (np.exp(log_smoothed), subtree_log_evidence,
            float(subtree_log_evidence[0]))


def one_state_doc(field, value):
    """A one-state model document, categorical over {0, 1}, with one of its
    fields (num_states, initial, transition or probs) replaced."""
    doc = {"num_states": 1, "initial": [1.0], "transition": [[1.0]],
           "emissions": [[{"type": "categorical", "probs": [0.5, 0.5]}]]}
    if field == "probs":
        doc["emissions"][0][0]["probs"] = value
    else:
        doc[field] = value
    return doc


# (field, value, the DataFormatError message)
MALFORMED_NUMBERS = [
    ("initial", {"a": 1}, "initial must be a list"),
    ("transition", {"a": [1]}, "transition must be a list"),
    ("transition", [1.0], "transition[0] must be a list"),
    ("initial", ["1.0"], 'initial[0] "1.0" is not a number'),
    ("initial", [True], "initial[0] true is not a number"),
    ("initial", [[1.0]], "initial[0] [1.0] is not a number"),
    ("initial", [10 ** 400], "initial[0] is outside the double range"),
    ("transition", [["1"]], 'transition[0][0] "1" is not a number'),
    ("transition", [[None]], "transition[0][0] null is not a number"),
    ("transition", [[-10 ** 400]],
     "transition[0][0] is outside the double range"),
    ("probs", [True, False],
     "emissions[0][0]: probs[0] true is not a number"),
    ("probs", [0.5, "0.5"],
     'emissions[0][0]: probs[1] "0.5" is not a number'),
    ("probs", {"0": 1.0}, "emissions[0][0]: probs must be a list"),
    ("num_states", "1", 'num_states "1" is not an integer'),
    ("num_states", True, "num_states true is not an integer"),
    ("num_states", 1.0, "num_states 1.0 is not an integer"),
]
MALFORMED_IDS = [f"{field} {json.dumps(value)[:12]}"
                 for field, value, _ in MALFORMED_NUMBERS]
