"""Chain entropy profiles against frozen hand cases and the oracle."""

import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from hmmentropy import (Categorical, HmmModel, ObservedSequence,
                        enumerate_chain, entropy_future, entropy_future_direct,
                        entropy_past_direct, entropy_past_hernando,
                        hernando_table, simulate_chain, smooth_chain)
from hmmentropy.numutil import BLOCK_CELLS, compensated_cumsum, entr, safe_div

from conftest import (random_chain_instance, random_model,
                      state_revealing_model, uniform_model)

LN2 = math.log(2.0)

# M1 with x = (0, 0); expected values frozen from the 4-configuration
# enumeration (joints 0.288, 0.008, 0.008, 0.018)
M1_GLOBAL = 0.44464354992900224
M1_MARGINAL = 0.28058599129446926
M1_COND_LAST = 0.16405755863453297


def profiles(model, seq):
    post = smooth_chain(model, seq)
    return (entropy_past_hernando(model, seq, post),
            entropy_past_direct(model, seq, post),
            entropy_future(model, seq, post))


class TestFrozenCases:
    def test_m1_past(self, m1):
        past, direct, _ = profiles(m1, ObservedSequence([0, 0]))
        for prof in (past, direct):
            assert prof.global_entropy == pytest.approx(M1_GLOBAL, abs=1e-12)
            np.testing.assert_allclose(prof.marginal, [M1_MARGINAL] * 2, atol=1e-12)
            np.testing.assert_allclose(prof.conditional,
                                       [M1_MARGINAL, M1_COND_LAST], atol=1e-12)
            np.testing.assert_allclose(prof.partial,
                                       [M1_MARGINAL, M1_GLOBAL], atol=1e-12)

    def test_m1_future_mirrors_past(self, m1):
        _, _, future = profiles(m1, ObservedSequence([0, 0]))
        assert future.global_entropy == pytest.approx(M1_GLOBAL, abs=1e-10)
        np.testing.assert_allclose(future.conditional,
                                   [M1_COND_LAST, M1_MARGINAL], atol=1e-10)

    def test_state_revealing_all_zero(self):
        model = state_revealing_model(3)
        seq = ObservedSequence([0, 2, 1, 1, 0])
        for prof in profiles(model, seq):
            np.testing.assert_allclose(prof.marginal, 0.0, atol=1e-12)
            np.testing.assert_allclose(prof.conditional, 0.0, atol=1e-12)
            np.testing.assert_allclose(prof.partial, 0.0, atol=1e-12)
            assert prof.global_entropy == pytest.approx(0.0, abs=1e-12)

    def test_uniform_degenerate(self):
        model = uniform_model(2)
        for prof in profiles(model, ObservedSequence([0, 1, 0])):
            np.testing.assert_allclose(prof.conditional, [LN2] * 3, atol=1e-12)
            assert prof.global_entropy == pytest.approx(3 * LN2, abs=1e-12)

    def test_deterministic_transitions_all_uncertainty_at_origin(self):
        # identity transitions, indistinguishable emissions: the two states
        # stay perfectly correlated, so only position 0 contributes entropy
        model = HmmModel([0.5, 0.5], np.eye(2),
                         [[Categorical([0.5, 0.5])], [Categorical([0.5, 0.5])]])
        seq = ObservedSequence([0, 1])
        past, direct, future = profiles(model, seq)
        for prof in (past, direct):
            np.testing.assert_allclose(prof.marginal, [LN2, LN2], atol=1e-12)
            np.testing.assert_allclose(prof.conditional, [LN2, 0.0], atol=1e-12)
        np.testing.assert_allclose(future.conditional, [0.0, LN2], atol=1e-12)

    def test_length_one(self, m1):
        past, direct, future = profiles(m1, ObservedSequence([0]))
        for prof in (past, direct, future):
            np.testing.assert_allclose(prof.conditional, prof.marginal, atol=1e-12)
            np.testing.assert_allclose(prof.partial, prof.marginal, atol=1e-12)
            assert prof.global_entropy == pytest.approx(prof.marginal[0], abs=1e-13)

    def test_marginal_entropy_profile_values(self, m1):
        post = smooth_chain(m1, ObservedSequence([0, 0]))
        np.testing.assert_allclose(post.marginal_entropy,
                                   [M1_MARGINAL] * 2, atol=1e-12)


class TestOracleEquivalence:
    def test_all_quantities(self):
        for seed in range(60):
            model, seq = random_chain_instance(seed, max_states=3, max_length=8,
                                               poisson=True)
            post = smooth_chain(model, seq)
            past = entropy_past_hernando(model, seq, post)
            futures = (entropy_future(model, seq, post),
                       entropy_future_direct(model, seq, post))
            res = enumerate_chain(model, seq)
            t_len = seq.length
            for t in range(t_len):
                assert past.marginal[t] == pytest.approx(
                    res.marginal_entropy(t), abs=1e-9)
                assert past.conditional[t] == pytest.approx(
                    res.conditional_past(t), abs=1e-9)
                assert past.partial[t] == pytest.approx(
                    res.prefix_entropy(t), abs=1e-9)
                for future in futures:
                    assert future.conditional[t] == pytest.approx(
                        res.conditional_future(t), abs=1e-9)
                    assert future.partial[t] == pytest.approx(
                        res.suffix_entropy(t), abs=1e-9)
            for prof in (past,) + futures:
                assert prof.global_entropy == pytest.approx(
                    res.global_entropy(), abs=1e-9)

    def test_hernando_tables(self):
        for seed in range(40):
            model, seq = random_chain_instance(seed, max_states=3, max_length=6)
            post = smooth_chain(model, seq)
            past = hernando_table(model, post, "past")
            future = hernando_table(model, post, "future")
            res = enumerate_chain(model, seq)
            for t in range(seq.length):
                for j in range(model.num_states):
                    expect = res.hernando_past(t, j)
                    if expect is None:
                        assert past[t, j] == 0.0
                    else:
                        assert past[t, j] == pytest.approx(expect, abs=1e-9)
                    # future-table rows at states with zero smoothed mass are
                    # conventional (the L/G ratios the recursion uses are
                    # guarded there); they are never consumed downstream
                    if post.smoothed[t, j] > 0:
                        expect = res.hernando_future(t, j)
                        assert expect is not None
                        assert future[t, j] == pytest.approx(expect, abs=1e-9)


def block_edge_instances():
    """Chains of length 1 and one past a full block of the entropy kernels,
    at J = 2 and J = 4."""
    rng = np.random.default_rng(17)
    for j in (2, 4):
        model = HmmModel(rng.dirichlet(np.ones(j)), rng.dirichlet(np.ones(j), j),
                         [[Categorical(rng.dirichlet(np.ones(3)))]
                          for _ in range(j)])
        for t_len in (1, BLOCK_CELLS // (j * j) + 1):
            yield model, simulate_chain(model, t_len, seed=j)[1]


def wide_state_instances():
    """Chains one and two rows past a full block at J = 8, 9 and 16, where
    numpy sums a contiguous axis pairwise rather than in order; the longer
    one's walk ends in a block of one row."""
    rng = np.random.default_rng(23)
    for j in (8, 9, 16):
        model = HmmModel(rng.dirichlet(np.ones(j)), rng.dirichlet(np.ones(j), j),
                         [[Categorical(rng.dirichlet(np.ones(3)))]
                          for _ in range(j)])
        for t_len in (BLOCK_CELLS // (j * j) + 1, BLOCK_CELLS // (j * j) + 2):
            yield model, simulate_chain(model, t_len, seed=j)[1]


def predicted_zero_instance():
    """A J = 3 chain with exact zeros in the transitions whose predicted laws
    hold a 0 after each symbol 0 (emitted by state 0 alone, which never
    moves to state 2).  The first 2,000 rows hold no 0 symbol and the rest
    are mixed, so each direction walks blocks with a predicted 0 and blocks
    without one."""
    model = HmmModel([0.5, 0.5, 0.0],
                     [[0.9, 0.1, 0.0], [0.2, 0.6, 0.2], [0.0, 0.5, 0.5]],
                     [[Categorical([0.5, 0.5, 0.0])],
                      [Categorical([0.0, 0.5, 0.5])],
                      [Categorical([0.0, 0.2, 0.8])]])
    rng = np.random.default_rng(29)
    values = np.concatenate([rng.integers(1, 3, 2000), rng.integers(0, 3, 2000)])
    # the first past block and the last future block hold rows < 2,000 only
    assert BLOCK_CELLS // 9 < 2000
    return model, ObservedSequence(values)


class TestStructuralProperties:
    def test_route_equivalence(self):
        instances = [random_chain_instance(seed, max_states=4, max_length=12,
                                           poisson=True) for seed in range(80)]
        for model, seq in instances + list(block_edge_instances()):
            post = smooth_chain(model, seq)
            for recursion, direct, direction in (
                    (entropy_past_hernando, entropy_past_direct, "past"),
                    (entropy_future, entropy_future_direct, "future")):
                a = recursion(model, seq, post)
                b = direct(model, seq, post)
                np.testing.assert_allclose(a.conditional, b.conditional, atol=1e-9)
                np.testing.assert_allclose(a.partial, b.partial, atol=1e-9)
                assert a.global_entropy == pytest.approx(b.global_entropy,
                                                         abs=1e-9)
                # the state-conditioned reference gives the same partials
                h = hernando_table(model, post, direction)
                np.testing.assert_allclose(
                    a.partial, (post.smoothed * h).sum(axis=1) + a.marginal,
                    rtol=0, atol=1e-9)

    def test_invalid_direction_raises(self, m1):
        seq = ObservedSequence([0, 1])
        with pytest.raises(ValueError, match="^direction must be 'past' or "
                                             "'future', not 'sideways'$"):
            hernando_table(m1, smooth_chain(m1, seq), "sideways")

    def test_blocked_walk_rounds_as_one_step_per_position(self):
        # the same float operations in the same order as a per-position
        # loop, so the tables and conditionals must agree bit for bit; the
        # partials are the running sums of the conditionals, bit for bit,
        # and agree with the tables' partials to rounding
        instances = [random_chain_instance(seed, max_states=8, max_length=40)
                     for seed in range(20)]
        instances += [*wide_state_instances(), predicted_zero_instance()]
        for model, seq in instances + list(block_edge_instances()):
            post = smooth_chain(model, seq)
            a, f, g = model.transition, post.forward, post.predicted
            smoothed, t_len = post.smoothed, seq.length
            past, future = np.zeros_like(smoothed), np.zeros_like(smoothed)
            marginal = entr(smoothed).sum(axis=1)
            cond_past, cond_future = marginal.copy(), marginal.copy()
            for t in range(1, t_len):
                w = safe_div(a * f[t - 1][:, None], g[t][None, :])
                past[t] = w.T @ past[t - 1] + entr(w).sum(axis=0)
                # H(S_{t-1} | S_t, X), the future conditional at t - 1
                middle = (smoothed[t] * entr(w).sum(axis=0)).sum()
                cond_past[t] += middle - marginal[t - 1]
                cond_future[t - 1] = middle
            for t in range(t_len - 2, -1, -1):
                u = a * safe_div(smoothed[t + 1], g[t + 1])[None, :]
                w = safe_div(u, u.sum(axis=1)[:, None])
                future[t] = w @ future[t + 1] + entr(w).sum(axis=1)
            for h, cond, route, direction in (
                    (past, cond_past, entropy_past_hernando, "past"),
                    (future, cond_future, entropy_future, "future")):
                np.testing.assert_array_equal(
                    hernando_table(model, post, direction), h)
                prof = route(model, seq, post)
                np.testing.assert_array_equal(prof.conditional, cond)
                order = slice(None, None, 1 if direction == "past" else -1)
                np.testing.assert_array_equal(
                    prof.partial,
                    compensated_cumsum(prof.conditional[order], [0])[order])
                # the two sides read different laws for the future (the
                # table the successor law, the profile the predecessor law),
                # so tail partials near 1e-6 differ by up to 2e-8 relatively
                # though by 3e-16 absolutely: the atol admits that, and
                # TestExactReference bounds both routes' conditionals
                np.testing.assert_allclose(
                    prof.partial, [float(smoothed[t] @ h[t]) + prof.marginal[t]
                                   for t in range(t_len)], rtol=1e-12,
                    atol=1e-12 * prof.partial.max())

    def test_direction_consistency_and_bounds(self):
        for seed in range(60):
            model, seq = random_chain_instance(seed, max_states=4, max_length=12)
            post = smooth_chain(model, seq)
            past = entropy_past_hernando(model, seq, post)
            future = entropy_future(model, seq, post)
            assert past.global_entropy == pytest.approx(
                future.global_entropy, abs=1e-9)
            log_j = math.log(model.num_states)
            for prof in (past, future):
                assert np.all(prof.conditional >= -1e-12)
                assert np.all(prof.conditional <= prof.marginal + 1e-12)
                assert np.all(prof.marginal <= log_j + 1e-12)
            assert math.fsum(past.marginal) - past.global_entropy >= -1e-9

    def test_decomposition_and_telescoping(self):
        for seed in range(60):
            model, seq = random_chain_instance(seed, max_states=4, max_length=12)
            post = smooth_chain(model, seq)
            past = entropy_past_hernando(model, seq, post)
            future = entropy_future(model, seq, post)
            assert math.fsum(past.conditional) == pytest.approx(
                past.global_entropy, abs=1e-9)
            assert math.fsum(future.conditional) == pytest.approx(
                future.global_entropy, abs=1e-9)
            np.testing.assert_allclose(np.diff(past.partial),
                                       past.conditional[1:], atol=1e-9)
            np.testing.assert_allclose(past.partial[1:] - past.partial[:-1],
                                       past.conditional[1:], atol=1e-9)
            np.testing.assert_allclose(future.partial[:-1] - future.partial[1:],
                                       future.conditional[:-1], atol=1e-9)
            # past partial non-decreasing, future partial non-increasing
            assert np.all(np.diff(past.partial) >= -1e-12)
            assert np.all(np.diff(future.partial) <= 1e-12)

    def test_profiles_at_scale(self, m1):
        # identities must survive T = 1e4 with compensated accumulation
        _, seq = simulate_chain(m1, 10 ** 4, seed=5)
        post = smooth_chain(m1, seq)
        a = entropy_past_hernando(m1, seq, post)
        b = entropy_past_direct(m1, seq, post)
        f = entropy_future(m1, seq, post)
        assert math.fsum(a.conditional) == pytest.approx(a.global_entropy, abs=1e-9)
        np.testing.assert_allclose(a.conditional, b.conditional, atol=1e-9)
        np.testing.assert_allclose(a.partial, b.partial, atol=1e-9)
        assert f.global_entropy == pytest.approx(a.global_entropy, abs=1e-9)

    def test_conditionals_at_scale_match_the_direct_route(self, m1):
        # the partials reach about 1e3 at T = 1e4; a conditional taken as
        # their difference would carry their rounding, about 1e-12
        _, seq = simulate_chain(m1, 10 ** 4, seed=5)
        post = smooth_chain(m1, seq)
        for recursion, direct in ((entropy_past_hernando, entropy_past_direct),
                                  (entropy_future, entropy_future_direct)):
            np.testing.assert_allclose(
                recursion(m1, seq, post).conditional,
                direct(m1, seq, post).conditional, rtol=0, atol=1e-12)


def exact_conditionals(model, seq):
    """(past, future) conditional entropies of one categorical sequence as
    Decimals, and their sum H(S | X): the pairwise posteriors are exact
    Fractions of the model's doubles, and each conditional sums
    -P(i, k) ln(P(i, k) / P(conditioning state)) in 40-digit logs, so no
    difference of rounded entropies enters."""
    j, t_len = model.num_states, seq.length
    a = [[Fraction(p) for p in row] for row in model.transition.tolist()]
    b = [[math.prod(Fraction(float(var.probs[x]))
                    for var, x in zip(state_vars, row))
          for state_vars in model.emissions] for row in seq.values.tolist()]
    alpha = [[Fraction(p) * b[0][s] for s, p in enumerate(model.initial.tolist())]]
    for t in range(1, t_len):
        alpha.append([sum(alpha[-1][i] * a[i][k] for i in range(j)) * b[t][k]
                      for k in range(j)])
    beta = [[Fraction(1)] * j]
    for t in range(t_len - 1, 0, -1):
        beta.insert(0, [sum(a[i][k] * b[t][k] * beta[0][k] for k in range(j))
                        for i in range(j)])
    z = sum(alpha[-1])
    smoothed = [[alpha[t][s] * beta[t][s] / z for s in range(j)]
                for t in range(t_len)]
    with localcontext() as ctx:
        ctx.prec = 40

        def dec(q):
            return Decimal(q.numerator) / q.denominator

        def h(terms):  # -sum p ln(p / m) over the terms (p, m) with p > 0
            return -sum((dec(p) * dec(p / m).ln() for p, m in terms if p),
                        Decimal(0))

        cells = [(i, k) for i in range(j) for k in range(j)]
        past, future = [h((p, 1) for p in smoothed[0])], []
        for t in range(1, t_len):
            pair = [[alpha[t - 1][i] * a[i][k] * b[t][k] * beta[t][k] / z
                     for k in range(j)] for i in range(j)]
            past.append(h((pair[i][k], smoothed[t - 1][i]) for i, k in cells))
            future.append(h((pair[i][k], smoothed[t][k]) for i, k in cells))
        future.append(h((p, 1) for p in smoothed[-1]))
        return past, future, sum(past)


def exact_instances(count=150):
    """Categorical models with exact zeros, J = 1-4, one sequence of
    T = 1-12 drawn from each."""
    for seed in range(count):
        rng = np.random.default_rng(seed)
        model = random_model(rng, int(rng.integers(1, 5)), zeros=True)
        _, seq = simulate_chain(model, int(rng.integers(1, 13)),
                                int(rng.integers(0, 2 ** 31)))
        yield model, seq


class TestExactReference:
    # in units of eps * max(1, H(S | X)); fixed from the routes that took
    # the future conditional as H(S_t | X) + E[H(S_{t+1} | S_t, X)] -
    # H(S_{t+1} | X) from the successor law, whose largest errors were 2.06
    # (past) and 2.72 (future) units on these instances and 2.78 and 3.06
    # on 2,000
    BOUND = 4

    def test_conditionals_within_the_bound_of_the_exact_values(self):
        eps = np.finfo(float).eps
        for model, seq in exact_instances():
            past, future, total = exact_conditionals(model, seq)
            post = smooth_chain(model, seq)
            unit = Decimal(eps * max(1.0, float(total)))
            for route, exact in ((entropy_past_hernando, past),
                                 (entropy_future, future)):
                got = route(model, seq, post).conditional.tolist()
                worst = max(abs(Decimal(g) - e) for g, e in zip(got, exact))
                assert worst <= self.BOUND * unit, (route.__name__, worst / unit)


def neumaier_loop(values, starts):
    """The scalar Neumaier running sum, restarted at each index in starts:
    the reference compensated_cumsum must match bit for bit."""
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    starts = set(np.asarray(starts).tolist())
    total = comp = 0.0
    for i, v in enumerate(values):
        if i in starts:
            total = comp = 0.0
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
        out[i] = total + comp
    return out


class TestCompensatedCumsum:
    def assert_bitwise(self, values, starts):
        got = compensated_cumsum(values, starts)
        want = neumaier_loop(values, starts)
        np.testing.assert_array_equal(got, want)
        # array_equal takes -0.0 for 0.0; the printed profile would not
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_random_segments(self):
        rng = np.random.default_rng(5)
        for trial in range(60):
            n = int(rng.integers(0, 400))
            values = rng.random(n) * 10.0 ** int(rng.integers(-3, 4))
            starts = rng.integers(-2, n + 2, int(rng.integers(0, 30)))
            self.assert_bitwise(values, starts)
        # every sequence of length 1, and lengths on both sides of 2^k
        self.assert_bitwise(rng.random(10 ** 4), np.arange(10 ** 4))
        lengths = rng.choice([1, 2, 3, 4, 5, 63, 64, 65, 129], 200)
        self.assert_bitwise(rng.random(lengths.sum()),
                            np.cumsum(lengths) - lengths)
        # a class whose longest row is below 2^e: 65-100 in 64 < L <= 128
        lengths = np.append(rng.integers(65, 101, 30), 1)
        self.assert_bitwise(rng.random(lengths.sum()),
                            np.cumsum(lengths) - lengths)

    def test_memory_bound(self):
        """One call's traced peak stays within 8 times the input's bytes:
        no per-element index table and no power-of-two padding."""
        rng = np.random.default_rng(7)
        lengths = rng.integers(20, 181, 100)
        for values, starts in ((rng.random(10 ** 5), [0]),
                               (rng.random(lengths.sum()),
                                np.cumsum(lengths) - lengths)):
            tracemalloc.start()
            try:
                compensated_cumsum(values, starts)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * values.nbytes

    def test_block_edge_chain(self):
        for model, seq in block_edge_instances():
            post = smooth_chain(model, seq)
            for route in (entropy_past_hernando, entropy_future):
                conditional = route(model, seq, post).conditional
                self.assert_bitwise(conditional, [0])
                self.assert_bitwise(conditional[::-1], [0])

    def test_mixed_signs_and_magnitudes(self):
        rng = np.random.default_rng(6)
        for trial in range(40):
            n = int(rng.integers(1, 500))
            values = (rng.choice([-1.0, 1.0], n)
                      * 10.0 ** rng.uniform(-8, 8, n))
            values[rng.random(n) < 0.05] = 0.0
            values[rng.random(n) < 0.05] = -0.0
            starts = np.flatnonzero(rng.random(n) < 0.1)
            self.assert_bitwise(values, starts)
