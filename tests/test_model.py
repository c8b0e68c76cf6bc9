"""Model construction, validation, emission evaluation and simulation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from hmmentropy import (Categorical, HmmModel, ObservedSequence, ObservedTree,
                        Poisson, TreeTopology, ValidationError, emission_prob,
                        simulate_chain, simulate_tree, validate_model)
from hmmentropy.model import _draw_observations, log_emission_matrix
from hmmentropy.numutil import log_factorial, xlogy

from conftest import (M1, TOPOLOGY_KINDS, random_model, random_topology,
                      state_revealing_model)

PINE_TRANSITION = [
    [0.18, 0.47, 0.33, 0.02, 0.00],
    [0.01, 0.51, 0.45, 0.00, 0.03],
    [0.00, 0.00, 0.04, 0.96, 0.00],
    [0.00, 0.00, 0.00, 0.00, 1.00],
    [0.00, 0.00, 1.00, 0.00, 0.00],
]


def pine_model():
    # 5-state transition matrix with structural zeros; root state 0
    emissions = [[Categorical([0.5, 0.5])] for _ in range(5)]
    return HmmModel([1.0, 0.0, 0.0, 0.0, 0.0], PINE_TRANSITION, emissions)


class TestValidation:
    def test_pine_matrix_ok(self):
        assert validate_model(pine_model()).ok

    def test_single_state_ok(self):
        model = HmmModel([1.0], [[1.0]], [[Categorical([1.0])]])
        assert validate_model(model).ok

    def test_row_sum_violation(self):
        model = HmmModel([0.5, 0.5], [[0.5, 0.6], [0.5, 0.5]],
                         [[Categorical([1.0])], [Categorical([1.0])]])
        report = validate_model(model)
        assert not report.ok
        assert any("row 0" in v and "1.1" in v for v in report.violations)

    def test_initial_sum_violation(self):
        model = HmmModel([0.6, 0.6], np.eye(2),
                         [[Categorical([1.0])], [Categorical([1.0])]])
        report = validate_model(model)
        assert any(v.startswith("initial") for v in report.violations)

    def test_negative_entry_violation(self):
        model = HmmModel([1.2, -0.2], np.eye(2),
                         [[Categorical([1.0])], [Categorical([1.0])]])
        assert not validate_model(model).ok

    def test_signature_mismatch(self):
        model = HmmModel([0.5, 0.5], np.full((2, 2), 0.5),
                         [[Categorical([0.5, 0.5])], [Categorical([0.3, 0.3, 0.4])]])
        report = validate_model(model)
        assert any("signature" in v for v in report.violations)

    def test_categorical_sum_violation(self):
        model = HmmModel([0.5, 0.5], np.full((2, 2), 0.5),
                         [[Categorical([0.5, 0.6])], [Categorical([0.5, 0.5])]])
        report = validate_model(model)
        assert any("state 0, variable 0" in v for v in report.violations)

    def test_poisson_rate_violation(self):
        model = HmmModel([1.0], [[1.0]], [[Poisson(-1.0)]])
        assert not validate_model(model).ok

    @pytest.mark.parametrize("table", ["initial", "transition", "emissions"])
    def test_nan_entry_rejected(self, table):
        # a NaN sum is not "far from 1", so the entry checks must catch it
        tables = {"initial": np.array([0.5, 0.5]),
                  "transition": np.full((2, 2), 0.5),
                  "emissions": np.array([0.5, 0.5])}
        tables[table].flat[0] = np.nan
        model = HmmModel(tables["initial"], tables["transition"],
                         [[Categorical(tables["emissions"])],
                          [Categorical([0.5, 0.5])]])
        report = validate_model(model)
        assert not report.ok
        assert all(v.startswith(table) for v in report.violations)

    def test_generated_models_validate(self):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            model = random_model(rng, int(rng.integers(1, 5)),
                                 num_variables=int(rng.integers(1, 3)),
                                 zeros=bool(seed % 2), poisson=True)
            assert validate_model(model).ok

    @given(seed=st.integers(0, 10 ** 6), delta=st.sampled_from([0.01, -0.01]))
    @settings(max_examples=60, deadline=None)
    def test_perturbation_rejected(self, seed, delta):
        # any +-0.01 bump of a single probability entry must be caught
        rng = np.random.default_rng(seed)
        model = random_model(rng, int(rng.integers(2, 4)), zeros=False)
        which = rng.integers(0, 3)
        initial = model.initial.copy()
        transition = model.transition.copy()
        emissions = [list(sv) for sv in model.emissions]
        if which == 0:
            initial[rng.integers(0, model.num_states)] += delta
        elif which == 1:
            transition[rng.integers(0, model.num_states),
                       rng.integers(0, model.num_states)] += delta
        else:
            probs = emissions[0][0].probs.copy()
            probs[rng.integers(0, probs.size)] += delta
            emissions[0][0] = Categorical(probs)
        perturbed = HmmModel(initial, transition, emissions)
        assert not validate_model(perturbed).ok


class TestEmissionProb:
    def test_poisson_at_zero(self):
        model = HmmModel([1.0], [[1.0]], [[Poisson(2.0)]])
        assert emission_prob(model, 0, [0]) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_categorical_product(self):
        model = HmmModel([1.0], [[1.0]],
                         [[Categorical([0.8, 0.2]), Categorical([0.5, 0.5])]])
        assert emission_prob(model, 0, [0, 1]) == pytest.approx(0.40, rel=1e-12)

    def test_state_revealing_identity(self):
        model = state_revealing_model(3)
        assert emission_prob(model, 2, [2]) == 1.0
        assert emission_prob(model, 2, [1]) == 0.0

    def test_out_of_alphabet(self):
        model = HmmModel([1.0], [[1.0]],
                         [[Categorical([0.5, 0.5]), Categorical([0.5, 0.5])]])
        with pytest.raises(ValidationError, match="variable 1.*value 7|variable 1.*7"):
            emission_prob(model, 0, [0, 7])

    def test_poisson_zero_rate(self):
        model = HmmModel([1.0], [[1.0]], [[Poisson(0.0)]])
        assert emission_prob(model, 0, [0]) == 1.0
        assert emission_prob(model, 0, [3]) == 0.0

    def test_sums_to_one_categorical(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, 3, num_variables=2, zeros=True)
        sizes = [var.alphabet_size for var in model.emissions[0]]
        for j in range(3):
            total = math.fsum(
                emission_prob(model, j, [a, b])
                for a in range(sizes[0]) for b in range(sizes[1])
            )
            assert abs(total - 1.0) <= 1e-12

    def test_sums_to_one_with_poisson(self):
        model = HmmModel([1.0], [[1.0]],
                         [[Categorical([0.3, 0.7]), Poisson(4.5)]])
        lam = 4.5
        cutoff = 0
        acc = 0.0
        while acc < 1.0 - 1e-12:
            acc += math.exp(-lam) * lam ** cutoff / math.factorial(cutoff)
            cutoff += 1
        total = math.fsum(
            emission_prob(model, 0, [a, x])
            for a in range(2) for x in range(cutoff)
        )
        assert total == pytest.approx(1.0, abs=1e-11)

    def test_negative_value(self):
        model = HmmModel([1.0], [[1.0]], [[Categorical([0.5, 0.5]), Poisson(2.0)]])
        with pytest.raises(ValidationError, match="variable 0: value -1 outside"):
            emission_prob(model, 0, [-1, 0])
        with pytest.raises(ValidationError, match="variable 1: Poisson values"):
            emission_prob(model, 0, [0, -1])

    def test_wrong_variable_count(self):
        model = HmmModel([1.0], [[1.0]], [[Categorical([0.5, 0.5])]])
        with pytest.raises(ValidationError,
                           match="data has 2 variables, model has 1"):
            emission_prob(model, 0, [0, 1])

    def test_log_prob_matches_prob(self):
        model = HmmModel([1.0], [[1.0]], [[Poisson(3.0), Categorical([0.4, 0.6])]])
        lp = log_emission_matrix(model, np.array([[2, 1]]))[0, 0]
        assert math.exp(lp) == pytest.approx(emission_prob(model, 0, [2, 1]), rel=1e-12)


def reference_log_emissions(model, values, log_factorial=log_factorial,
                            xlogy=xlogy):
    """Per state, per variable sums of the log pmfs, in that order, with
    the given log x! and x log y kernels; and per cell the summed magnitudes
    of the finite terms, the scale of the sum's rounding."""
    out = np.zeros((values.shape[0], model.num_states))
    scale = np.zeros_like(out)
    for j, state_vars in enumerate(model.emissions):
        for k, var in enumerate(state_vars):
            x = values[:, k]
            if isinstance(var, Categorical):
                with np.errstate(divide="ignore"):
                    log_p = np.log(var.probs[x])
                out[:, j] += log_p
                scale[:, j] -= np.nan_to_num(log_p, neginf=0.0)
            else:
                x_log_rate = xlogy(x.astype(float), var.rate)
                log_x_factorial = log_factorial(x)
                out[:, j] += x_log_rate - var.rate - log_x_factorial
                scale[:, j] += (np.abs(np.nan_to_num(x_log_rate, neginf=0.0))
                                + var.rate + log_x_factorial)
    return out, scale


@st.composite
def emission_instances(draw):
    """A model of random per-variable kinds, with zero categorical entries
    and zero Poisson rates, and values valid for it."""
    j = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    prob = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    rate = st.one_of(st.just(0.0), st.floats(0.0, 50.0))
    variables, columns = [], []
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 4))
        if draw(st.booleans()):
            variables.append([Categorical(draw(st.lists(prob, min_size=size,
                                                        max_size=size)))
                              for _ in range(j)])
            top = size - 1
        else:
            variables.append([Poisson(draw(rate)) for _ in range(j)])
            top = 60
        columns.append(draw(st.lists(st.integers(0, top), min_size=n,
                                     max_size=n)))
    model = HmmModel(np.full(j, 1.0 / j), np.full((j, j), 1.0 / j),
                     [list(state_vars) for state_vars in zip(*variables)])
    return model, np.array(columns, dtype=np.int64).T


class TestLogEmissionMatrix:
    @given(emission_instances())
    @settings(max_examples=200)
    def test_bit_identical_to_per_state_sum(self, instance):
        model, values = instance
        got = log_emission_matrix(model, values)
        want, _ = reference_log_emissions(model, values)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @given(emission_instances())
    @settings(max_examples=200)
    def test_poisson_terms_agree_with_scipy(self, instance):
        """The numpy x log y and the exact-or-lgamma log x! against scipy's
        xlogy and gammaln: within 16 eps of the terms' summed magnitudes,
        room for the few ulps by which each of log y and log x! may differ
        between the two libraries, and -inf in the same cells."""
        model, values = instance
        got = log_emission_matrix(model, values)
        want, scale = reference_log_emissions(
            model, values, lambda x: special.gammaln(x + 1.0), special.xlogy)
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), finite)
        assert np.array_equal(got[~finite], want[~finite])
        error = np.abs(got[finite] - want[finite])
        assert np.all(error <= 16 * np.finfo(float).eps * scale[finite])

    @pytest.mark.parametrize("other", [Poisson(1.0), Categorical([0.2, 0.3, 0.5])])
    def test_differing_signatures_raise(self, other):
        model = HmmModel([0.5, 0.5], np.full((2, 2), 0.5),
                         [[Categorical([0.5, 0.5])], [other]])
        with pytest.raises(ValidationError,
                           match="state 1 variable signature differs"):
            log_emission_matrix(model, np.array([[0], [1]]))


# two states, one categorical and one Poisson variable: the seeded draws
# below are pinned, so any change of the sampler's arithmetic shows
PIN_MODEL = HmmModel([0.3, 0.7], [[0.8, 0.2], [0.4, 0.6]],
                     [[Categorical([0.6, 0.3, 0.1]), Poisson(1.5)],
                      [Categorical([0.1, 0.2, 0.7]), Poisson(6.0)]])


def per_vertex_simulation(model, topology, seed):
    """simulate_tree as a loop over the vertices in downward order: the
    reference for the states and values it draws."""
    rng = np.random.default_rng(seed)
    cum_pi = np.cumsum(model.initial)
    cum_a = np.cumsum(model.transition, axis=1)
    u = rng.random(topology.num_vertices)
    states = np.empty(topology.num_vertices, dtype=np.int64)
    for idx, vertex in enumerate(topology.downward_order):
        row = cum_pi if vertex == 0 else cum_a[states[topology.parent[vertex]]]
        states[vertex] = min(np.searchsorted(row, u[idx] * row[-1], side="right"),
                             model.num_states - 1)
    return states, _draw_observations(model, states, rng)


class TestSimulation:
    def test_pinned_chain(self):
        states, seq = simulate_chain(PIN_MODEL, 8, seed=2024)
        assert states.tolist() == [1, 0, 0, 0, 1, 0, 0, 0]
        assert seq.values.tolist() == [[0, 4], [0, 3], [0, 0], [0, 1],
                                       [2, 7], [1, 1], [0, 1], [0, 1]]

    def test_pinned_tree(self):
        topo = TreeTopology([-1, 0, 0, 1, 1, 2, 5, 2])
        states, tree = simulate_tree(PIN_MODEL, topo, seed=7)
        assert states.tolist() == [1, 1, 1, 0, 0, 1, 1, 0]
        assert tree.values.tolist() == [[1, 6], [1, 2], [2, 3], [1, 4],
                                        [0, 0], [2, 8], [2, 6], [0, 1]]

    @pytest.mark.parametrize("model", [M1, PIN_MODEL],
                             ids=["categorical", "with poisson"])
    @pytest.mark.parametrize("length", [1, 2, 37])
    def test_chain_is_path_tree(self, model, length):
        path = TreeTopology(np.arange(-1, length - 1))
        for seed in (0, 5, 91):
            states, seq = simulate_chain(model, length, seed)
            tree_states, tree = simulate_tree(model, path, seed)
            assert np.array_equal(states, tree_states)
            assert np.array_equal(seq.values, tree.values)

    def test_single_state_chain(self):
        model = HmmModel([1.0], [[1.0]], [[Categorical([0.5, 0.5])]])
        states, seq = simulate_chain(model, 7, seed=0)
        assert np.array_equal(states, np.zeros(7, dtype=int))
        assert seq.length == 7

    def test_absorbing_deterministic_chain(self):
        model = HmmModel([1.0, 0.0], np.eye(2),
                         [[Categorical([1.0, 0.0])], [Categorical([0.0, 1.0])]])
        states, seq = simulate_chain(model, 5, seed=3)
        assert np.array_equal(states, np.zeros(5, dtype=int))
        assert np.array_equal(seq.values[:, 0], np.zeros(5, dtype=int))

    def test_chain_transition_frequencies(self):
        states, _ = simulate_chain(M1, 10 ** 5, seed=42)
        for i in range(2):
            rows = states[:-1] == i
            freq = np.mean(states[1:][rows] == i)
            assert abs(freq - 0.9) < 0.01

    def test_tree_single_vertex(self):
        topo = TreeTopology([-1])
        states, tree = simulate_tree(M1, topo, seed=1)
        assert states.shape == (1,)
        assert tree.num_vertices == 1

    def test_tree_deterministic(self):
        model = HmmModel([1.0, 0.0], np.eye(2),
                         [[Categorical([1.0, 0.0])], [Categorical([0.0, 1.0])]])
        topo = random_topology(np.random.default_rng(5), 20)
        states, _ = simulate_tree(model, topo, seed=9)
        assert np.array_equal(states, np.zeros(20, dtype=int))

    def test_star_child_frequencies(self):
        n = 10 ** 4 + 1
        parent = np.zeros(n, dtype=np.int64)
        parent[0] = -1
        topo = TreeTopology(parent)
        states, _ = simulate_tree(M1, topo, seed=11)
        root = states[0]
        freq = np.mean(states[1:] == root)
        assert abs(freq - 0.9) < 0.02

    @pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
    def test_tree_levels_draw_as_vertices(self, kind):
        # simulate_tree draws a level per step; the per-vertex loop it
        # replaced gives the same states and values for every seed
        rng = np.random.default_rng(sum(map(ord, kind)))
        for n in (1, 2, 9, 300):
            topo = random_topology(rng, n, kind=kind)
            for j in (1, 2, 5):
                model = random_model(rng, j, zeros=j == 5)
                seed = int(rng.integers(0, 2 ** 31))
                states, tree = simulate_tree(model, topo, seed)
                ref_states, ref_values = per_vertex_simulation(model, topo, seed)
                assert np.array_equal(states, ref_states)
                assert np.array_equal(tree.values, ref_values)

    def test_determinism(self):
        rng = np.random.default_rng(0)
        model = random_model(rng, 3, num_variables=2, poisson=True)
        s1, x1 = simulate_chain(model, 50, seed=123)
        s2, x2 = simulate_chain(model, 50, seed=123)
        assert np.array_equal(s1, s2) and x1 == x2
        topo = random_topology(np.random.default_rng(2), 30)
        t1 = simulate_tree(model, topo, seed=77)
        t2 = simulate_tree(model, topo, seed=77)
        assert np.array_equal(t1[0], t2[0]) and t1[1] == t2[1]


class TestTopology:
    def test_cycle_detected(self):
        with pytest.raises(ValidationError, match="cycle"):
            TreeTopology([-1, 2, 1])

    def test_multiple_roots(self):
        with pytest.raises(ValidationError, match="root"):
            TreeTopology([-1, -1])

    def test_root_must_be_vertex_zero(self):
        with pytest.raises(ValidationError, match="root"):
            TreeTopology([1, -1])

    def test_parent_out_of_range(self):
        with pytest.raises(ValidationError):
            TreeTopology([-1, 5])

    def test_orders_on_shuffled_topology(self):
        topo = random_topology(np.random.default_rng(3), 25, kind="shuffled")
        seen = set()
        for u in topo.downward_order:
            if u != 0:
                assert int(topo.parent[u]) in seen
            seen.add(int(u))
        sub = topo.subtree_vertices(0)
        assert np.array_equal(sub, np.arange(25))

    def test_children_sorted(self):
        topo = random_topology(np.random.default_rng(8), 30, kind="random")
        for c in topo.children:
            assert np.all(np.diff(c) > 0) if c.size > 1 else True

    @pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
    def test_level_plan(self, kind):
        topo = random_topology(np.random.default_rng(4), 40, kind=kind)
        plan = topo.downward_order
        stop = 0
        for d in range(topo.num_levels):
            start, stop_d = topo.level(d)
            assert start == stop  # levels are consecutive runs of the plan
            stop = stop_d
            assert np.array_equal(plan[start:stop], np.flatnonzero(topo.depth == d))
        assert stop == 40
        assert np.array_equal(plan[topo.position], np.arange(40))
        assert topo.parent_position[0] == -1
        assert np.array_equal(plan[topo.parent_position[1:]], topo.parent[plan[1:]])
        order, first = topo.by_parent
        for u in range(40):
            children = np.flatnonzero(topo.parent == u)
            assert np.array_equal(topo.children[u], children)
            assert np.array_equal(
                order[first[u]:first[u] + topo.child_count[u]], children)


TWO_STATES = [[Poisson(1.0)], [Poisson(2.0)]]


class TestCallerArrays:
    """A constructor freezes an array of its own: the caller's array stays
    writable, and writing to it leaves the object unchanged."""

    @pytest.mark.parametrize("caller, build, attribute", [
        ([0, 1, 2], ObservedSequence, "values"),
        ([[0, 1], [2, 3]], ObservedSequence, "values"),
        ([0, 1, 3], lambda a: ObservedSequence([4, 5, 6], a), "offsets"),
        ([[0], [1], [2]], lambda a: ObservedTree(TreeTopology([-1, 0, 0]), a),
         "values"),
        ([-1, 0, 1], TreeTopology, "parent"),
        ([0.25, 0.75], Categorical, "probs"),
        ([0.5, 0.5], lambda a: HmmModel(a, np.eye(2), TWO_STATES), "initial"),
        ([[0.5, 0.5], [0.1, 0.9]],
         lambda a: HmmModel([0.5, 0.5], a, TWO_STATES), "transition"),
    ], ids=["sequence vector", "sequence matrix", "offsets", "tree values",
            "parent ids", "categorical", "initial", "transition"])
    @pytest.mark.parametrize("view", [False, True], ids=["array", "view"])
    def test_caller_array_stays_writable(self, caller, build, attribute, view):
        caller = np.array(caller)
        if view:
            caller = caller[:]
        held = getattr(build(caller), attribute)
        want = held.copy()
        caller.fill(0)
        np.testing.assert_array_equal(held, want)
        with pytest.raises(ValueError, match="read-only"):
            held.fill(0)


class TestObservedData:
    @pytest.mark.parametrize("build", [
        lambda big: ObservedSequence([0, big, 1]),
        lambda big: ObservedTree(TreeTopology([-1, 0]), [0, big]),
        lambda big: TreeTopology([-1, big]),
    ], ids=["sequence value", "tree value", "parent id"])
    def test_integer_beyond_int64(self, build):
        with pytest.raises(ValidationError, match="64-bit"):
            build(10 ** 20)

    @pytest.mark.parametrize("values, message", [
        ([0, -1, 2], "observed values must be non-negative integers"),
        ([[3, 0], [1, -5]], "observed values must be non-negative integers"),
        ([-2 ** 63], "observed values must be non-negative integers"),
        ([], "observed values must be a non-empty matrix"),
        (np.zeros((2, 2, 1), dtype=np.int64),
         "observed values must be a non-empty matrix"),
    ])
    def test_sequence_rejections(self, values, message):
        with pytest.raises(ValidationError) as info:
            ObservedSequence(values)
        assert type(info.value) is ValidationError
        assert str(info.value) == message

    @pytest.mark.parametrize("offsets", [
        [0, 2], [1, 4], [0, 2, 2, 4], [0, 3, 2, 4], [0, 4, 5], [0], [4],
        [[0, 4]], [0, 10 ** 20],
    ], ids=["short of T", "not from 0", "empty sequence", "falling",
            "beyond T", "one entry", "no start", "matrix", "beyond int64"])
    def test_offsets_rejections(self, offsets):
        with pytest.raises(ValidationError) as info:
            ObservedSequence([0, 1, 2, 3], offsets)
        assert type(info.value) is ValidationError
        assert str(info.value) in (
            "sequence offsets must rise strictly from 0 to 4, the number of "
            "observed rows", "sequence offsets must fit in 64-bit integers")

    def test_stacked_sequences(self):
        """Rows offsets[s]:offsets[s + 1] are sequence s; the default
        offsets make one sequence; both arrays are read-only int64."""
        data = ObservedSequence([[0, 1], [2, 3], [4, 5], [6, 7]], [0, 1, 4])
        assert (data.length, data.num_variables, data.num_sequences) == (4, 2, 2)
        assert [seq.values.tolist() for seq in data.sequences()] == [
            [[0, 1]], [[2, 3], [4, 5], [6, 7]]]
        assert all(np.shares_memory(seq.values, data.values)
                   for seq in data.sequences())
        assert data.offsets.dtype == np.int64
        for table in (data.values, data.offsets):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1
        offsets = np.array([0, 1, 4])
        ObservedSequence(data.values, offsets)
        offsets[1] = 2  # the caller's array stays its own
        one = ObservedSequence([5, 6, 7])
        assert one.offsets.tolist() == [0, 3] and one.num_sequences == 1
        assert one.sequences() == [one]
        assert one != ObservedSequence([5, 6, 7], [0, 1, 3])

    def test_empty_dataset_cannot_be_built(self):
        """A dataset holds a sequence: no rows, or offsets that leave a
        sequence empty, are a ValidationError when the data is built."""
        with pytest.raises(ValidationError, match="non-empty matrix"):
            ObservedSequence(np.empty((0, 1), dtype=np.int64), [0])
        with pytest.raises(ValidationError, match="offsets must rise strictly"):
            ObservedSequence([1, 2], [0, 0, 2])

    def test_zero_width_sequence(self):
        """A matrix with rows and no variables has no minimum; it is
        accepted, as it always was."""
        seq = ObservedSequence(np.zeros((3, 0), dtype=np.int64))
        assert (seq.length, seq.num_variables) == (3, 0)
