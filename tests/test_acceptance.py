"""Acceptance criteria.

Each test checks one criterion at its stated tolerance and prints one
pass/fail line (run with `pytest -s tests/test_acceptance.py` to see them
on passing runs).  Instance batches are computed once and shared between
criteria that reference the same instances.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

import hmmentropy as he
from hmmentropy import (children_conditional_profile, entropy_future,
                        entropy_future_direct, entropy_past_direct,
                        entropy_past_hernando, entropy_summary,
                        enumerate_chain, enumerate_tree, hernando_table,
                        parent_conditional_profile, smooth_chain, smooth_tree,
                        subtree_entropies_approach1, subtree_entropies_approach2,
                        simulate_chain, simulate_tree, tree_entropy_profile,
                        viterbi_chain, viterbi_profiles, viterbi_tree)
from hmmentropy.model import ObservedTree, TreeTopology

from conftest import M1, random_model, random_topology

GOLDEN_DIR = Path(__file__).parent / "golden"

_CACHE = {}


def _report(num, ok, detail):
    print(f"[acceptance] criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _close(a, b, tol):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) <= tol if np.size(a) else True


# ---------------------------------------------------------------------------
# shared instance batches
# ---------------------------------------------------------------------------

def chain_batch():
    """500 random chain instances (J in {2,3}, T in 1..8, categorical
    emissions, some structural zeros), fully oracle-checked."""
    if "chain" in _CACHE:
        return _CACHE["chain"]
    t0 = time.perf_counter()
    records = []
    worst = 0.0
    worst_prob = 0.0
    for i in range(500):
        rng = np.random.default_rng(10_000 + i)
        j = int(rng.integers(2, 4))
        t_len = int(rng.integers(1, 9))
        model = random_model(rng, j, zeros=bool(rng.random() < 0.3))
        _, seq = simulate_chain(model, t_len, int(rng.integers(0, 2 ** 31)))
        post = smooth_chain(model, seq)
        past = entropy_past_hernando(model, seq, post)
        past_d = entropy_past_direct(model, seq, post)
        future_d = entropy_future_direct(model, seq, post)
        future = entropy_future(model, seq, post)
        path, log_joint = viterbi_chain(model, seq)
        res = enumerate_chain(model, seq)
        for t in range(t_len):
            worst_prob = max(worst_prob, float(np.max(np.abs(
                post.smoothed[t] - res.marginal(t)))))
            worst = max(
                worst,
                abs(past.marginal[t] - res.marginal_entropy(t)),
                abs(past.conditional[t] - res.conditional_past(t)),
                abs(past.partial[t] - res.prefix_entropy(t)),
                abs(future.conditional[t] - res.conditional_future(t)),
                abs(future.partial[t] - res.suffix_entropy(t)),
            )
        worst = max(worst,
                    abs(past.global_entropy - res.global_entropy()),
                    abs(future.global_entropy - res.global_entropy()))
        best, best_prob = res.best_configuration()
        assert np.array_equal(path, best), f"viterbi path mismatch, instance {i}"
        worst_prob = max(worst_prob, abs(math.exp(log_joint) - best_prob))
        records.append(dict(model=model, seq=seq, post=post, past=past,
                            past_d=past_d, future=future, future_d=future_d))
    _CACHE["chain"] = dict(records=records, worst=worst, worst_prob=worst_prob,
                           elapsed=time.perf_counter() - t0)
    return _CACHE["chain"]


def tree_batch():
    """500 random tree instances (J in {2,3}, n in 1..8, mixed topologies),
    every entropy-profile field oracle-checked."""
    if "tree" in _CACHE:
        return _CACHE["tree"]
    t0 = time.perf_counter()
    records = []
    worst = 0.0
    worst_prob = 0.0
    for i in range(500):
        rng = np.random.default_rng(20_000 + i)
        j = int(rng.integers(2, 4))
        n = int(rng.integers(1, 9))
        model = random_model(rng, j, zeros=bool(rng.random() < 0.3))
        topo = random_topology(rng, n)
        _, tree = simulate_tree(model, topo, int(rng.integers(0, 2 ** 31)))
        post = smooth_tree(model, tree)
        prof = tree_entropy_profile(model, tree, post)
        h2, ps2, g2, comp2 = subtree_entropies_approach2(model, tree, post)
        states, log_joint = viterbi_tree(model, tree)
        vstates, vprof = viterbi_profiles(model, tree)
        assert np.array_equal(vstates, states)
        res = enumerate_tree(model, tree)
        for u in range(n):
            worst_prob = max(worst_prob, float(np.max(np.abs(
                post.smoothed[u] - res.marginal(u)))))
            children = topo.children[u]
            cc = res.conditional_children(u) if children.size \
                else res.marginal_entropy(u)
            worst = max(
                worst,
                abs(prof.marginal[u] - res.marginal_entropy(u)),
                abs(prof.parent_conditional[u] - res.conditional_parent(u)),
                abs(prof.children_conditional[u] - cc),
                abs(prof.partial_subtree[u] - res.subtree_entropy(u)),
            )
            if u != 0:
                worst = max(worst, abs(prof.partial_complement[u]
                                       - res.complement_entropy(u)))
                sub = topo.subtree_vertices(u).tolist()
                sgp = res.subset_entropy(sub + [int(topo.parent[u])]) \
                    - res.marginal_entropy(int(topo.parent[u]))
                worst = max(worst, abs(prof.subtree_given_parent[u] - sgp))
            for s in range(j):
                defined = post.prior[u, s] > 0 and all(
                    post.beta_edge[v][s] > 0 for v in children)
                if defined:
                    expect = res.children_subtrees_conditional(u, s)
                    worst = max(worst,
                                abs(h2[u, s] - expect))
                worst_prob = max(worst_prob,
                                 abs(vprof[u, s] - res.viterbi_profile(u, s)))
        worst = max(worst, abs(prof.global_entropy - res.global_entropy()))
        best, best_prob = res.best_configuration(order=topo.downward_order)
        assert np.array_equal(states, best), f"viterbi tree mismatch, instance {i}"
        worst_prob = max(worst_prob, abs(math.exp(log_joint) - best_prob))
        records.append(dict(model=model, tree=tree, post=post, prof=prof,
                            ps2=ps2, g2=g2, comp2=comp2))
    _CACHE["tree"] = dict(records=records, worst=worst, worst_prob=worst_prob,
                          elapsed=time.perf_counter() - t0)
    return _CACHE["tree"]


def big_batch():
    """Simulated instances with T = n = 1e4: M1 and a random 4-state model,
    chains and binary trees, with both entropy routes."""
    if "big" in _CACHE:
        return _CACHE["big"]
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    model4 = random_model(rng, 4, zeros=False)
    chains = []
    for k, model in enumerate((M1, model4)):
        _, seq = simulate_chain(model, 10 ** 4, seed=300 + k)
        post = smooth_chain(model, seq)
        chains.append(dict(
            model=model, seq=seq, post=post,
            past=entropy_past_hernando(model, seq, post),
            past_d=entropy_past_direct(model, seq, post),
            future_d=entropy_future_direct(model, seq, post),
            future=entropy_future(model, seq, post)))
    trees = []
    topo = random_topology(np.random.default_rng(0), 10 ** 4, kind="binary")
    for k, model in enumerate((M1, model4)):
        _, tree = simulate_tree(model, topo, seed=400 + k)
        post = smooth_tree(model, tree)
        pc = parent_conditional_profile(model, tree, post)
        ps1 = subtree_entropies_approach1(model, tree, post, pc)
        ps2 = subtree_entropies_approach2(model, tree, post)
        cc = children_conditional_profile(model, tree, post)
        marginal = post.smoothed
        trees.append(dict(model=model, tree=tree, post=post, pc=pc,
                          approach1=ps1, approach2=ps2, children=cc))
    _CACHE["big"] = dict(chains=chains, trees=trees,
                         elapsed=time.perf_counter() - t0)
    return _CACHE["big"]


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_oracle_equivalence_chains():
    batch = chain_batch()
    ok = batch["worst"] <= 1e-9 and batch["worst_prob"] <= 1e-10 \
        and batch["elapsed"] < 10.0
    _report(1, ok,
            f"500 chain instances, max entropy err {batch['worst']:.2e}, "
            f"max probability err {batch['worst_prob']:.2e}, "
            f"{batch['elapsed']:.1f}s (< 10 s)")


def test_criterion_02_oracle_equivalence_trees():
    batch = tree_batch()
    ok = batch["worst"] <= 1e-9 and batch["worst_prob"] <= 1e-10 \
        and batch["elapsed"] < 20.0
    _report(2, ok,
            f"500 tree instances, max entropy err {batch['worst']:.2e}, "
            f"max probability err {batch['worst_prob']:.2e}, "
            f"{batch['elapsed']:.1f}s (< 20 s)")


def test_criterion_03_decomposition_identities():
    t0 = time.perf_counter()
    worst = 0.0
    for rec in chain_batch()["records"]:
        for prof in (rec["past"], rec["future"]):
            worst = max(worst, abs(math.fsum(prof.conditional)
                                   - prof.global_entropy))
    for rec in tree_batch()["records"]:
        prof = rec["prof"]
        worst = max(worst, abs(math.fsum(prof.parent_conditional)
                               - prof.global_entropy))
    big = big_batch()
    for rec in big["chains"]:
        for prof in (rec["past"], rec["future"]):
            worst = max(worst, abs(math.fsum(prof.conditional)
                                   - prof.global_entropy))
    for rec in big["trees"]:
        _, _, _, global_entropy = rec["approach1"]
        worst = max(worst, abs(math.fsum(rec["pc"]) - global_entropy))
    elapsed = time.perf_counter() - t0 + big["elapsed"]
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(3, ok, f"sum(conditional) = global, max gap {worst:.2e} "
                   f"(tol 1e-9) incl. T=n=1e4, {elapsed:.1f}s (< 10 s)")


def test_criterion_04_bound_hierarchy():
    t0 = time.perf_counter()
    worst = 0.0
    for rec in chain_batch()["records"]:
        for prof in (rec["past"], rec["future"]):
            worst = max(worst, float(np.max(prof.conditional - prof.marginal,
                                            initial=0.0)))
    for rec in tree_batch()["records"] :
        prof = rec["prof"]
        worst = max(worst,
                    float(np.max(prof.parent_conditional - prof.marginal,
                                 initial=0.0)),
                    float(np.max(prof.children_conditional - prof.marginal,
                                 initial=0.0)))
        s = entropy_summary(prof)
        worst = max(worst, s.g - s.c, s.c - s.m)
    big = big_batch()
    for rec in big["chains"]:
        for prof in (rec["past"], rec["future"]):
            worst = max(worst, float(np.max(prof.conditional - prof.marginal)))
    for rec in big["trees"]:
        marginal = rec["post"].marginal_entropy
        worst = max(worst, float(np.max(rec["pc"] - marginal)),
                    float(np.max(rec["children"] - marginal)))
        g = math.fsum(rec["pc"])
        c = math.fsum(rec["children"])
        m = math.fsum(marginal)
        worst = max(worst, g - c, c - m)
    # Table-1 structural pattern on simulated binary trees
    topo = random_topology(np.random.default_rng(1), 200, kind="binary")
    ratios = []
    for k in range(5):
        _, tree = simulate_tree(M1, topo, seed=500 + k)
        post = smooth_tree(M1, tree)
        prof = tree_entropy_profile(M1, tree, post)
        s = entropy_summary(prof)
        ratios.append((s.ratio_cg, s.ratio_mg))
    pattern = all(-1e-12 <= rcg <= rmg + 1e-12 for rcg, rmg in ratios)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and pattern
    _report(4, ok,
            f"conditional <= marginal and G <= C <= M, max violation "
            f"{worst:.2e} (tol 1e-9); (C-G)/G <= (M-G)/G on {len(ratios)} "
            f"simulated trees, e.g. {ratios[0][0]:.1%} vs {ratios[0][1]:.1%}; "
            f"{elapsed:.1f}s")


def test_criterion_05_dual_route_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for rec in chain_batch()["records"]:
        for a, b in ((rec["past"], rec["past_d"]),
                     (rec["future"], rec["future_d"])):
            worst = max(worst,
                        float(np.max(np.abs(a.conditional - b.conditional))),
                        float(np.max(np.abs(a.partial - b.partial))),
                        abs(a.global_entropy - b.global_entropy))
    for rec in tree_batch()["records"]:
        prof = rec["prof"]
        worst = max(worst,
                    float(np.max(np.abs(prof.partial_subtree - rec["ps2"]))),
                    float(np.max(np.abs(prof.partial_complement - rec["comp2"]))),
                    abs(prof.global_entropy - rec["g2"]))
    big = big_batch()
    for rec in big["chains"]:
        for a, b in ((rec["past"], rec["past_d"]),
                     (rec["future"], rec["future_d"])):
            worst = max(worst,
                        float(np.max(np.abs(a.conditional - b.conditional))),
                        float(np.max(np.abs(a.partial - b.partial))))
        worst = max(worst, abs(rec["future"].global_entropy
                               - rec["future_d"].global_entropy))
    for rec in big["trees"]:
        _, ps1, comp1, g1 = rec["approach1"]
        _, ps2, g2, comp2 = rec["approach2"]
        worst = max(worst,
                    float(np.max(np.abs(ps1 - ps2))),
                    float(np.max(np.abs(comp1 - comp2))),
                    abs(g1 - g2))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9
    _report(5, ok, f"recursion vs direct routes agree entrywise, max gap "
                   f"{worst:.2e} (tol 1e-9) incl. T=n=1e4, {elapsed:.1f}s")


def test_criterion_06_linear_tree_reduction():
    t0 = time.perf_counter()
    sizes = [int(x) for x in
             np.random.default_rng(7).integers(1, 65, size=95)] \
        + [1000, 1000, 1000, 10 ** 4, 10 ** 4]
    worst = 0.0
    for i, n in enumerate(sizes):
        rng = np.random.default_rng(40_000 + i)
        model = random_model(rng, int(rng.integers(2, 4)),
                             zeros=bool(rng.random() < 0.3))
        _, seq = simulate_chain(model, n, int(rng.integers(0, 2 ** 31)))
        tree = ObservedTree(TreeTopology(np.arange(-1, n - 1)), seq.values)
        post_c = smooth_chain(model, seq)
        past = entropy_past_hernando(model, seq, post_c)
        future = entropy_future(model, seq, post_c)
        post_t = smooth_tree(model, tree)
        prof = tree_entropy_profile(model, tree, post_t)
        upward, _, _, _ = subtree_entropies_approach2(model, tree, post_t)
        path_c, lj_c = viterbi_chain(model, seq)
        path_t, lj_t = viterbi_tree(model, tree)
        assert np.array_equal(path_c, path_t), f"paths differ at instance {i}"
        worst = max(
            worst,
            float(np.max(np.abs(post_t.smoothed - post_c.smoothed))),
            abs(post_t.log_likelihood - post_c.log_likelihood),
            abs(lj_c - lj_t),
            float(np.max(np.abs(prof.marginal - past.marginal))),
            float(np.max(np.abs(prof.parent_conditional - past.conditional))),
            float(np.max(np.abs(prof.children_conditional - future.conditional))),
            float(np.max(np.abs(prof.partial_subtree - future.partial))),
            abs(prof.global_entropy - past.global_entropy),
        )
        if n > 1:
            worst = max(
                worst,
                float(np.max(np.abs(prof.partial_complement[1:]
                                    - past.partial[:-1]))),
                float(np.max(np.abs(prof.subtree_given_parent[1:]
                                    - (future.partial[:-1]
                                       - past.marginal[:-1])))),
            )
        # the state-conditioned tables agree wherever the conditioning state
        # carries non-negligible mass; below ~1e-300 the two recursions'
        # guarded ratios underflow differently (and the entries weigh zero)
        mask = post_t.smoothed > 1e-9
        worst = max(worst, float(np.max(np.abs(
            upward[mask] - hernando_table(model, post_c, "future")[mask]),
            initial=0.0)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9
    _report(6, ok, f"{len(sizes)} path topologies (n up to 1e4): tree vs "
                   f"chain max gap {worst:.2e} (tol 1e-9), {elapsed:.1f}s")


def test_criterion_07_global_vs_marginal_strict_gap():
    t0 = time.perf_counter()
    # oracle-confirmed mutual information on small M1 instances
    checked = 0
    for i in range(50):
        rng = np.random.default_rng(60_000 + i)
        _, seq = simulate_chain(M1, int(rng.integers(2, 9)),
                                int(rng.integers(0, 2 ** 31)))
        res = enumerate_chain(M1, seq)
        mi = math.fsum(res.marginal_entropy(t) for t in range(seq.length)) \
            - res.global_entropy()
        post = smooth_chain(M1, seq)
        prof = entropy_past_hernando(M1, seq, post)
        gap = math.fsum(prof.marginal) - prof.global_entropy
        if mi > 1e-6:
            assert gap >= 1e-6, f"instance {i}: gap {gap}"
            checked += 1
    assert checked >= 25
    # T = 100 simulations: dependence present, strict gap required
    gaps = []
    for k in range(20):
        _, seq = simulate_chain(M1, 100, seed=70_000 + k)
        post = smooth_chain(M1, seq)
        prof = entropy_past_hernando(M1, seq, post)
        mi_profile = prof.marginal - prof.conditional
        assert float(np.max(mi_profile)) > 1e-6  # pairwise dependence exists
        gaps.append(math.fsum(prof.marginal) - prof.global_entropy)
    elapsed = time.perf_counter() - t0
    ok = all(g >= 1e-6 for g in gaps)
    _report(7, ok, f"sum(marginal) - global >= 1e-6 on {len(gaps)} M1 runs "
                   f"(T=100), min gap {min(gaps):.3f}; {checked} small "
                   f"instances oracle-confirmed; {elapsed:.1f}s")


def _chain_entropy_end_to_end(model, seq):
    post = smooth_chain(model, seq)
    entropy_past_hernando(model, seq, post)
    entropy_future(model, seq, post)


def _tree_entropy_end_to_end(model, tree):
    post = smooth_tree(model, tree)
    pc = parent_conditional_profile(model, tree, post)
    subtree_entropies_approach1(model, tree, post, pc)
    subtree_entropies_approach2(model, tree, post)


def test_criterion_08_complexity_scaling():
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    model = random_model(rng, 4, zeros=False)
    sizes = [10 ** 4, 2 * 10 ** 4, 4 * 10 ** 4]

    # the end-to-end runs take tens of milliseconds, so on a busy machine
    # every size is timed once per round, round after round, and each keeps
    # its best: a slow spell then falls on all sizes alike instead of on one
    def best_of_each(fns, rounds=5):
        best = [np.inf] * len(fns)
        for _ in range(rounds):
            for i, fn in enumerate(fns):
                start = time.perf_counter()
                fn()
                best[i] = min(best[i], time.perf_counter() - start)
        return best

    chain_runs = []
    for n in sizes:
        _, seq = simulate_chain(model, n, seed=n)
        chain_runs.append(lambda seq=seq: _chain_entropy_end_to_end(model, seq))
    tree_runs = []
    for n in sizes:
        topo = random_topology(rng, n, kind="binary")
        _, tree = simulate_tree(model, topo, seed=n)
        tree_runs.append(lambda tree=tree: _tree_entropy_end_to_end(model, tree))
    chain_times = best_of_each(chain_runs)
    tree_times = best_of_each(tree_runs)
    ratios = [chain_times[1] / chain_times[0], chain_times[2] / chain_times[1],
              tree_times[1] / tree_times[0], tree_times[2] / tree_times[1]]
    linear_ok = all(2.0 / 1.5 <= r <= 2.0 * 1.5 for r in ratios)

    # children-conditioned profile budget on a 4-ary tree, J = 4
    n4 = 1 + 4 + 16 + 64 + 256  # complete 4-ary tree, depth 4
    topo4 = TreeTopology([-1] + [(u - 1) // 4 for u in range(1, n4)])
    _, tree4 = simulate_tree(model, topo4, seed=5)
    post4 = smooth_tree(model, tree4)
    internal = sum(1 for u in range(n4) if topo4.children[u].size)
    exact_cost = internal * 4 ** 5
    children_conditional_profile(model, tree4, post4, op_budget=exact_cost)
    with pytest.raises(he.BudgetExceededError):
        children_conditional_profile(model, tree4, post4,
                                     op_budget=exact_cost - 1)
    elapsed = time.perf_counter() - t0
    ok = linear_ok and elapsed < 60.0
    _report(8, ok,
            f"doubling ratios chain {ratios[0]:.2f}/{ratios[1]:.2f}, tree "
            f"{ratios[2]:.2f}/{ratios[3]:.2f} (all within [1.33, 3.0]); "
            f"children budget enforced at {exact_cost} terms; "
            f"{elapsed:.1f}s (< 60 s)")


def test_criterion_09_criteria_identities():
    t0 = time.perf_counter()
    ok = True
    for h in (0.0, 0.7, 5.5):
        inp = he.CriterionInput(log_likelihood=-321.5, global_entropy=h,
                                free_params=7, sample_size=836)
        ok &= he.icl_bic(inp) == he.bic(inp) - 2.0 * h
    for shift in (-3.0, 0.0, 11.5):
        a = he.CriterionInput(log_likelihood=-10.0 + shift, global_entropy=1.0,
                              free_params=2, sample_size=5,
                              log_likelihood_1=-12.0 + shift)
        ok &= abs(he.nec(a) - 0.5) < 1e-12
    m_binary = M1
    m_poisson1 = he.HmmModel([1.0], [[1.0]], [[he.Poisson(2.0)]])
    third = 1.0 / 3.0
    m_poisson3 = he.HmmModel([third] * 3, [[third] * 3] * 3,
                             [[he.Poisson(13.1)], [he.Poisson(19.7)],
                              [he.Poisson(29.7)]])
    ok &= he.free_parameter_count(m_binary) == 5
    ok &= he.free_parameter_count(m_poisson1) == 1
    ok &= he.free_parameter_count(m_poisson3) == 11
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(9, ok, f"icl_bic = bic - 2H exactly; nec shift-invariant; "
                   f"parameter counts 5/1/11; {elapsed:.2f}s (< 1 s)")


def test_criterion_10_golden_files(tmp_path):
    from hmmentropy import serialize_model
    from hmmentropy.cli import main
    model_file = tmp_path / "m1.json"
    model_file.write_text(serialize_model(M1))
    chain_file = tmp_path / "chain.txt"
    chain_file.write_text("0 0\n")
    tree_file = tmp_path / "tree.txt"
    tree_file.write_text("0\t-1\t0\n1\t0\t0\n2\t0\t0\n")
    jobs = [
        (["entropy", "--model", str(model_file), "--data", str(chain_file),
          "--cond", "past"], "chain_m1_entropy_past.tsv"),
        (["entropy", "--model", str(model_file), "--data", str(tree_file),
          "--cond", "both"], "tree_star_entropy_both.tsv"),
    ]
    ok = True
    for argv, golden_name in jobs:
        golden = (GOLDEN_DIR / golden_name).read_bytes()
        for run in range(2):
            out = tmp_path / f"out_{run}_{golden_name}"
            code = main(argv + ["--out", str(out)])
            assert code == 0
            ok &= out.read_bytes() == golden
    _report(10, ok, "chain and star-tree TSV outputs byte-identical to the "
                    "frozen golden files across repeated runs")
