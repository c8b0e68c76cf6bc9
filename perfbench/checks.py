"""Untimed checks of the CLI outputs of one repetition.

Every command's output is checked for its header, row count, finite values
and the data it echoes.  The paper's identities are checked within each
table and across the commands of a repetition, with tolerances scaled to the
12 significant digits of the TSV format.  ``second_routes`` compares with the
library's independent routes, and ``oracle_checks`` compares a small instance
with exhaustive enumeration.

Problems are recorded in a ``Report`` by command label, so the caller can
count the commands that failed.
"""

import math
from collections import defaultdict

import numpy as np
from scipy.special import entr, gammaln

CELL_RTOL = 5e-12      # half a unit in the 12th significant digit
EPS = float(np.finfo(float).eps)
ROUTE_RTOL = 1e-9      # agreement of independent routes, as in the test suite
FLIP_TOL = 1e-9        # a log-joint gain above this is not rounding


def _tol(magnitude):
    """Allowed gap between printed cells of this magnitude (elementwise)."""
    return (8 * CELL_RTOL + EPS) * np.abs(magnitude) + 1e-13


class Expect:
    """What the outputs for one generated instance must match."""

    def __init__(self, instance, workload):
        self.kind = workload.kind
        self.j = workload.num_states
        self.values = instance.values
        self.parent = instance.parent
        model = instance.model
        self.log_initial = np.log(model["initial"])
        self.log_transition = np.log(model["transition"])
        self.emissions = model["emissions"]
        self.num_positions = instance.num_positions
        self.free_params = (self.j - 1) + self.j * (self.j - 1) + self.j * sum(
            len(e["probs"]) - 1 if e["type"] == "categorical" else 1
            for e in self.emissions[0])
        lengths = [v.shape[0] for v in self.values]
        self.starts = np.concatenate(([0], np.cumsum(lengths)[:-1])).astype(int)
        self.all_values = np.concatenate(self.values)
        if self.parent is not None:
            self.parents = self.parent
        else:  # the chains as path trees, one root per sequence
            self.parents = np.arange(self.num_positions) - 1
            self.parents[self.starts] = -1

    def log_emission(self, states, values):
        out = np.zeros(states.size)
        for k, spec in enumerate(self.emissions[0]):
            x = values[:, k]
            if spec["type"] == "categorical":
                probs = np.array([e[k]["probs"] for e in self.emissions])
                out += np.log(probs[states, x])
            else:
                rate = np.array([e[k]["rate"] for e in self.emissions])[states]
                out += x * np.log(rate) - rate - gammaln(x + 1.0)
        return out

    def log_joint(self, states, values):
        terms = np.concatenate(([self.log_initial[states[0]]],
                                self.log_transition[states[:-1], states[1:]],
                                self.log_emission(states, values)))
        return float(terms.sum()), terms

    def total_log_joint(self, states):
        """Log joint of a configuration of every position, summed over the
        sequences, and the sum of the absolute values of its terms."""
        kids = np.flatnonzero(self.parents >= 0)
        terms = np.concatenate((self.log_initial[states[self.parents < 0]],
                                self.log_transition[states[self.parents[kids]],
                                                    states[kids]],
                                self.log_emission(states, self.all_values)))
        return float(terms.sum()), float(np.abs(terms).sum())

    def flip_gains(self, states):
        """``gain[u, j]``: the change of the log joint when position u alone
        moves to state j.  A Viterbi configuration has no positive gain."""
        n = states.size
        emission = np.stack([self.log_emission(np.full(n, j), self.all_values)
                             for j in range(self.j)], axis=1)
        gain = emission - emission[np.arange(n), states][:, None]
        roots = np.flatnonzero(self.parents < 0)
        gain[roots] += (self.log_initial[None, :]
                        - self.log_initial[states[roots]][:, None])
        kids = np.flatnonzero(self.parents >= 0)
        up, own = states[self.parents[kids]], states[kids]
        gain[kids] += (self.log_transition[up, :]
                       - self.log_transition[up, own][:, None])
        # moving a parent changes the transition to each of its children
        np.add.at(gain, self.parents[kids], self.log_transition[:, own].T
                  - self.log_transition[up, own][:, None])
        return gain


class Table:
    """A parsed TSV profile: raw cells by column and their float values."""

    def __init__(self, text):
        lines = text.splitlines()
        self.header = lines[0].split("\t") if lines else []
        rows = [line.split("\t") for line in lines[1:]]
        if any(len(r) != len(self.header) for r in rows):
            raise ValueError("ragged rows")
        self.raw = {name: [r[i] for r in rows] for i, name in enumerate(self.header)}
        self.data = np.array(rows, dtype=float).reshape(len(rows), len(self.header))

    def __getitem__(self, name):
        return self.data[:, self.header.index(name)]

    @property
    def num_rows(self):
        return self.data.shape[0]


def read_scalars(text):
    pairs = [line.split("\t") for line in text.splitlines()]
    if any(len(p) != 2 for p in pairs):
        raise ValueError("scalar lines must be 'key<TAB>value'")
    return {k: float(v) for k, v in pairs}


class Report:
    """Problems found, by command label."""

    def __init__(self):
        self.problems = defaultdict(list)
        self.facts = {}

    def check(self, label, ok, message):
        if not ok:
            self.problems[label].append(message)
        return ok


def _viterbi_optimal(r, label, states, ex):
    """No single position can move to another state and raise the joint."""
    gain = ex.flip_gains(states)
    worst = np.unravel_index(np.argmax(gain), gain.shape)
    r.check(label, gain[worst] <= FLIP_TOL,
            f"moving position {worst[0]} to state {worst[1]} raises the log joint "
            f"of the Viterbi configuration by {gain[worst]:.3e}")


def _close(r, label, a, b, tol, what):
    gap = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    tol = np.broadcast_to(tol, gap.shape)
    bad = np.flatnonzero(~(gap <= tol))
    return r.check(label, bad.size == 0,
                   f"{what}: {bad.size} mismatches, first at {bad[:1].tolist()} "
                   f"(gap {float(gap.flat[bad[0]]) if bad.size else 0:.3e})")


def _common(r, label, table, ex, names, index_cols):
    if not r.check(label, table.header == names, f"header {table.header} != {names}"):
        return False
    if not r.check(label, table.num_rows == ex.num_positions,
                   f"{table.num_rows} rows, expected {ex.num_positions}"):
        return False
    if not r.check(label, bool(np.all(np.isfinite(table.data))), "non-finite value"):
        return False
    for name, expected in index_cols.items():
        r.check(label, np.array_equal(table[name], expected), f"column {name} differs")
    for k in range(ex.all_values.shape[1]):
        r.check(label, np.array_equal(table[f"obs_{k}"], ex.all_values[:, k]),
                f"column obs_{k} differs from the input")
    return True


def _smoothed_and_marginal(r, label, table, ex):
    smoothed = np.stack([table[f"smoothed_{j}"] for j in range(ex.j)], axis=1)
    r.check(label, bool(np.all((smoothed >= 0) & (smoothed <= 1))),
            "smoothed probability outside [0, 1]")
    _close(r, label, smoothed.sum(axis=1), 1.0, 1e-10, "smoothed row sums")
    marginal = table["marginal_entropy"]
    _close(r, label, marginal, entr(smoothed).sum(axis=1), 1e-10 + _tol(marginal),
           "marginal entropy vs smoothed law")
    return marginal


def _obs_names(ex):
    return [f"obs_{k}" for k in range(ex.all_values.shape[1])]


def _chain_index(ex):
    seq = np.concatenate([np.full(v.shape[0], s) for s, v in enumerate(ex.values)])
    idx = np.concatenate([np.arange(v.shape[0]) for v in ex.values])
    return {"sequence": seq, "index": idx}


def chain_entropy(r, label, table, ex, direction):
    """Returns per-sequence global entropies, or None if unusable."""
    names = (["sequence", "index"] + _obs_names(ex)
             + [f"smoothed_{j}" for j in range(ex.j)]
             + ["marginal_entropy", f"cond_entropy_{direction}",
                f"partial_entropy_{direction}"])
    if not _common(r, label, table, ex, names, _chain_index(ex)):
        return None
    marginal = _smoothed_and_marginal(r, label, table, ex)
    cond = table[f"cond_entropy_{direction}"]
    partial = table[f"partial_entropy_{direction}"]
    r.check(label, bool(np.all(cond >= -1e-12)), "negative conditional entropy")
    _close(r, label, cond, np.minimum(cond, marginal), _tol(marginal),
           "conditional entropy above the marginal one")
    ends = np.append(ex.starts[1:], cond.size) - 1
    step = np.ones(cond.size, dtype=bool)
    if direction == "past":
        step[ex.starts] = False   # cond[t] = partial[t] - partial[t-1]
        lead, prev = np.flatnonzero(step), np.flatnonzero(step) - 1
        edge, total = ex.starts, partial[ends]
    else:
        step[ends] = False        # cond[t] = partial[t] - partial[t+1]
        lead, prev = np.flatnonzero(step), np.flatnonzero(step) + 1
        edge, total = ends, partial[ex.starts]
    _close(r, label, cond[edge], partial[edge], _tol(partial[edge]),
           "first partial entropy vs its conditional")
    _close(r, label, cond[lead], partial[lead] - partial[prev],
           (8 * CELL_RTOL + EPS) * (np.abs(partial[lead]) + np.abs(partial[prev]))
           + 1e-13, "conditional entropy vs partial difference")
    sums = np.add.reduceat(cond, ex.starts)
    sizes = np.diff(np.append(ex.starts, cond.size))
    _close(r, label, sums, total,
           (8 * CELL_RTOL + sizes * EPS) * np.add.reduceat(np.abs(cond), ex.starts)
           + _tol(total), "sum of conditional entropies vs global entropy")
    return total


def chain_viterbi(r, label, table, err, ex):
    """Returns per-sequence log joint probabilities, or None."""
    names = ["sequence", "index"] + _obs_names(ex) + ["viterbi_state"]
    if not _common(r, label, table, ex, names, _chain_index(ex)):
        return None
    states = table["viterbi_state"].astype(np.int64)
    if not r.check(label, bool(np.all((states >= 0) & (states < ex.j))),
                   "state out of range"):
        return None
    _viterbi_optimal(r, label, states, ex)
    lines = err.splitlines()
    if not r.check(label, [ln.split("\t")[0] for ln in lines]
                   == [f"log_joint[{s}]" for s in range(len(ex.values))],
                   "stderr must hold one log_joint line per sequence"):
        return None
    printed = np.array([float(ln.split("\t")[1]) for ln in lines])
    bounds = np.append(ex.starts, states.size)
    for s, values in enumerate(ex.values):
        value, terms = ex.log_joint(states[bounds[s]:bounds[s + 1]], values)
        _close(r, label, printed[s], value,
               _tol(printed[s]) + terms.size * EPS * np.abs(terms).sum(),
               f"log joint of the printed path, sequence {s}")
    return printed


def _tree_index(ex):
    return {"vertex": np.arange(ex.parent.size), "parent": ex.parent}


def tree_entropy(r, label, table, ex, both):
    names = (["vertex", "parent"] + _obs_names(ex)
             + [f"smoothed_{j}" for j in range(ex.j)]
             + ["marginal_entropy", "cond_entropy_parent"]
             + (["cond_entropy_children"] if both else [])
             + ["partial_subtree_entropy", "partial_complement_entropy"])
    if not _common(r, label, table, ex, names, _tree_index(ex)):
        return None
    marginal = _smoothed_and_marginal(r, label, table, ex)
    cond = table["cond_entropy_parent"]
    sub = table["partial_subtree_entropy"]
    comp = table["partial_complement_entropy"]
    n = cond.size
    leaves = np.setdiff1d(np.arange(n), ex.parent[1:])
    r.check(label, bool(np.all(cond >= -1e-12)), "negative conditional entropy")
    _close(r, label, cond, np.minimum(cond, marginal), _tol(marginal),
           "parent-conditional entropy above the marginal one")
    _close(r, label, cond[0], marginal[0], _tol(marginal[0]),
           "root conditional vs marginal entropy")
    g = sub[0]
    _close(r, label, cond.sum(), g, (8 * CELL_RTOL + n * EPS) * np.abs(cond).sum()
           + _tol(g), "sum of parent-conditional entropies vs global entropy")
    r.check(label, comp[0] == 0.0, "root complement entropy must be 0")
    _close(r, label, sub[leaves], marginal[leaves], _tol(marginal[leaves]),
           "leaf subtree entropy vs marginal entropy")
    # H(S) = H(outside subtree u) + H(subtree u | S_parent(u)) at every u != 0
    rest = comp[1:] + sub[1:] - marginal[1:] + cond[1:]
    _close(r, label, rest, g, (8 * CELL_RTOL + n * EPS)
           * (np.abs(comp[1:]) + np.abs(sub[1:]) + np.abs(marginal[1:]) + g),
           "complement + subtree entropy vs global entropy")
    if both:
        cc = table["cond_entropy_children"]
        r.check(label, bool(np.all(cc >= -1e-12)), "negative conditional entropy")
        _close(r, label, cc, np.minimum(cc, marginal), _tol(marginal),
               "children-conditional entropy above the marginal one")
        _close(r, label, cc[leaves], marginal[leaves], _tol(marginal[leaves]),
               "leaf children-conditional entropy vs marginal entropy")
    return table


def tree_viterbi_profiles(r, label, table, ex):
    names = (["vertex", "parent"] + _obs_names(ex) + ["viterbi_state"]
             + [f"vprofile_{j}" for j in range(ex.j)])
    if not _common(r, label, table, ex, names, _tree_index(ex)):
        return None
    states = table["viterbi_state"].astype(np.int64)
    if not r.check(label, bool(np.all((states >= 0) & (states < ex.j))),
                   "state out of range"):
        return None
    _viterbi_optimal(r, label, states, ex)
    prof = np.stack([table[f"vprofile_{j}"] for j in range(ex.j)], axis=1)
    r.check(label, bool(np.all((prof >= 0) & (prof <= 1 + 1e-12))),
            "vprofile outside [0, 1]")
    best = prof.max(axis=1)
    # every row maximum is the posterior probability of the Viterbi tree
    _close(r, label, best, best[0], ROUTE_RTOL * best[0], "row maxima differ")
    _close(r, label, prof[np.arange(states.size), states], best,
           ROUTE_RTOL * best, "Viterbi state misses its row maximum")
    return table


def summary(r, label, s, ex):
    keys = ["global_entropy", "g_parent_conditional_sum",
            "c_children_conditional_sum", "m_marginal_sum", "ratio_cg", "ratio_mg"]
    if not r.check(label, list(s) == keys, f"keys {list(s)}"):
        return None
    if not r.check(label, all(math.isfinite(v) for v in s.values()), "non-finite"):
        return None
    g, c, m = (s["global_entropy"], s["c_children_conditional_sum"],
               s["m_marginal_sum"])
    r.check(label, s["g_parent_conditional_sum"] == g, "G printed twice differs")
    r.check(label, 0 <= g <= c + _tol(c) and c <= m + _tol(m), "G <= C <= M fails")
    _close(r, label, [s["ratio_cg"], s["ratio_mg"]], [(c - g) / g, (m - g) / g],
           1e-10 * (1 + abs(m / g)), "ratios vs sums")
    return s


def criteria(r, label, s, ex):
    keys = ["log_likelihood", "global_entropy", "free_params", "sample_size",
            "bic", "icl_bic"]
    if not r.check(label, list(s) == keys, f"keys {list(s)}"):
        return None
    if not r.check(label, all(math.isfinite(v) for v in s.values()), "non-finite"):
        return None
    r.check(label, s["sample_size"] == ex.num_positions, "sample size")
    r.check(label, s["free_params"] == ex.free_params, "free parameter count")
    bic = 2 * s["log_likelihood"] - ex.free_params * math.log(ex.num_positions)
    _close(r, label, s["bic"], bic, _tol(abs(bic) + abs(s["log_likelihood"])), "BIC")
    _close(r, label, s["icl_bic"], s["bic"] - 2 * s["global_entropy"],
           _tol(abs(s["bic"]) + 2 * s["global_entropy"]), "ICL-BIC = BIC - 2H")
    return s


def check_repetition(outputs, ex):
    """Check one repetition; ``outputs`` maps label -> (code, stdout, stderr).

    The returned report's ``facts`` hold the parsed outputs and the values
    that the cross-command, second-route and oracle checks compare.
    """
    r = Report()
    facts = r.facts
    for label, (code, text, err) in outputs.items():
        if not r.check(label, code == 0, f"exit code {code}"):
            continue
        try:
            if label in ("summary", "criteria"):
                parsed = read_scalars(text)
                check = summary if label == "summary" else criteria
                facts[label] = check(r, label, parsed, ex)
                continue
            table = facts[f"{label}_table"] = Table(text)
            if label == "viterbi":
                facts[label] = chain_viterbi(r, label, table, err, ex)
            elif label == "viterbi_profiles":
                facts[label] = tree_viterbi_profiles(r, label, table, ex)
            elif ex.kind == "chain":
                facts[label] = chain_entropy(r, label, table, ex, label[8:])
            else:
                facts[label] = tree_entropy(r, label, table, ex, label == "entropy_both")
        except (ValueError, KeyError, IndexError) as exc:
            r.check(label, False, f"unreadable output: {exc!r}")
    if not any(r.problems.values()):
        _cross(r, ex)
    return r


def _rel(r, label, a, b, what):
    tol = ROUTE_RTOL * np.maximum(1.0, np.abs(np.asarray(b, dtype=float)))
    return _close(r, label, a, b, tol, what)


def _no_better_than_viterbi(r, label, viterbi_table, entropy_table, ex):
    """The configuration of the per-position most probable smoothed states
    has a log joint no larger than the Viterbi configuration's."""
    smoothed = np.stack([entropy_table[f"smoothed_{j}"] for j in range(ex.j)], axis=1)
    viterbi, scale = ex.total_log_joint(viterbi_table["viterbi_state"].astype(np.int64))
    marginal, _ = ex.total_log_joint(np.argmax(smoothed, axis=1))
    r.check(label, marginal <= viterbi + FLIP_TOL + scale * 4 * EPS,
            f"the smoothed-argmax configuration's log joint {marginal!r} exceeds "
            f"the Viterbi one {viterbi!r}")


def _cross(r, ex):
    """Identities between the outputs of different commands."""
    f = r.facts
    s = f.get("summary")
    if "viterbi_table" in f:
        _no_better_than_viterbi(r, "viterbi", f["viterbi_table"],
                                f["entropy_past_table"], ex)
    if "viterbi_profiles_table" in f:
        _no_better_than_viterbi(r, "viterbi_profiles", f["viterbi_profiles_table"],
                                f["entropy_parent_table"], ex)
    if ex.kind == "chain":
        g = f["entropy_past"]
        if s is not None:
            _rel(r, "summary", s["global_entropy"], g.sum(),
                 "summary G vs the past profile")
        if "entropy_future" in f:
            _rel(r, "entropy_future", f["entropy_future"], g,
                 "future vs past global entropy")
        if "criteria" in f:
            c = f["criteria"]
            _rel(r, "criteria", c["global_entropy"], g.sum(),
                 "criteria H vs the past profile")
            r.check("criteria", c["log_likelihood"] + _tol(c["log_likelihood"])
                    >= f["viterbi"].sum(), "log-likelihood below the Viterbi joint")
        return
    parent, both = f["entropy_parent"], f["entropy_both"]
    for name in parent.header:
        r.check("entropy_both", parent.raw[name] == both.raw[name],
                f"column {name} differs from `entropy --cond parent`")
    if s is not None:
        _rel(r, "summary", s["global_entropy"], parent["partial_subtree_entropy"][0],
             "summary G vs the parent profile")
        _rel(r, "summary", s["c_children_conditional_sum"],
             both["cond_entropy_children"].sum(), "summary C vs the children profile")
        _rel(r, "summary", s["m_marginal_sum"], parent["marginal_entropy"].sum(),
             "summary M vs the marginal profile")


def second_routes(r, ex, model_text, hmm):
    """Compare with the library's second routes: the direct past profile on
    chains, approach 2 on trees."""
    model = hmm.parse_model(model_text)
    if ex.kind == "chain":
        cond = r.facts["entropy_past_table"]["cond_entropy_past"]
        for s, values in enumerate(ex.values):
            seq = hmm.ObservedSequence(values)
            direct = hmm.entropy_past_direct(model, seq, hmm.smooth_chain(model, seq))
            lo = ex.starts[s]
            _rel(r, "entropy_past", cond[lo:lo + values.shape[0]],
                 direct.conditional, f"direct route, sequence {s}")
        return
    table = r.facts["entropy_parent"]
    tree = hmm.ObservedTree(hmm.TreeTopology(ex.parent), ex.values[0])
    _, sub, g, comp = hmm.subtree_entropies_approach2(model, tree,
                                                      hmm.smooth_tree(model, tree))
    tol = ROUTE_RTOL * max(1.0, g)
    _close(r, "entropy_parent", table["partial_subtree_entropy"], sub, tol,
           "approach 2 subtree entropies")
    _close(r, "entropy_parent", table["partial_complement_entropy"], comp, tol,
           "approach 2 complement entropies")


def oracle_checks(r, ex, model_text, oracle_text, hmm):
    """Compare a small instance's outputs with exhaustive enumeration."""
    f = r.facts
    o = read_scalars(oracle_text)
    tags = [f"[{s}]" for s in range(len(ex.values))] if len(ex.values) > 1 else [""]
    g = np.array([o[f"global_entropy{t}"] for t in tags])
    log_ev = np.array([o[f"log_evidence{t}"] for t in tags])
    model = hmm.parse_model(model_text)
    if f.get("summary") is not None:
        _rel(r, "summary", f["summary"]["global_entropy"], g.sum(), "summary G vs oracle")
    if ex.kind == "tree":
        _tree_oracle(r, ex, model, g, hmm)
        return
    entropies = [label for label in ("entropy_past", "entropy_future") if label in f]
    for label in entropies:
        _rel(r, label, f[label], g, "global entropy vs oracle")
    if f.get("criteria") is not None:
        _rel(r, "criteria", f["criteria"]["log_likelihood"], log_ev.sum(),
             "log-likelihood vs oracle")
    viterbi = f["viterbi_table"]["viterbi_state"]
    for s, values in enumerate(ex.values):
        res = hmm.enumerate_chain(model, hmm.ObservedSequence(values))
        lo, t_len = ex.starts[s], values.shape[0]
        best = int(np.argmax(res.joint))
        r.check("viterbi", np.array_equal(viterbi[lo:lo + t_len],
                                          res.configurations[best]),
                f"Viterbi path vs oracle, sequence {s}")
        _rel(r, "viterbi", f["viterbi"][s], math.log(res.joint[best]),
             f"Viterbi log joint vs oracle, sequence {s}")
        for label in entropies:
            d = label[8:]
            want = [hmm.oracle_entropy(res, f"conditional({t}|{d})")
                    for t in range(t_len)]
            _rel(r, label, f[f"{label}_table"][f"cond_entropy_{d}"][lo:lo + t_len],
                 want, f"conditional entropies vs oracle, sequence {s}")


def _tree_oracle(r, ex, model, g, hmm):
    f = r.facts
    res = hmm.enumerate_tree(model, hmm.ObservedTree(hmm.TreeTopology(ex.parent),
                                                     ex.values[0]))
    n = ex.parent.size
    for label in ("entropy_parent", "entropy_both"):
        _rel(r, label, f[label]["partial_subtree_entropy"][0], g[0],
             "global entropy vs oracle")
    queries = [("cond_entropy_parent", "conditional({}|parent)"),
               ("cond_entropy_children", "conditional({}|children)"),
               ("partial_subtree_entropy", "partial(subtree:{})"),
               ("partial_complement_entropy", "partial(complement:{})")]
    for column, query in queries:
        want = [hmm.oracle_entropy(res, query.format(u)) for u in range(n)]
        _rel(r, "entropy_both", f["entropy_both"][column], want, f"{column} vs oracle")
    table = f["viterbi_profiles_table"]
    best = int(np.argmax(res.joint))
    r.check("viterbi_profiles", np.array_equal(table["viterbi_state"],
                                               res.configurations[best]),
            "Viterbi tree vs oracle")
    for j in range(ex.j):
        want = np.array([hmm.oracle_entropy(res, f"viterbi-profile({u},{j})")
                         for u in range(n)])
        _close(r, "viterbi_profiles", table[f"vprofile_{j}"], want,
               ROUTE_RTOL * want + 1e-15, f"vprofile_{j} vs oracle")
