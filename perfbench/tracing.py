"""Outside-in layer tracing of the hmmentropy package.

The tracer replaces every public function of the layer modules, and every
re-import of the same function object elsewhere in ``hmmentropy``, with a
span recorder, so nested calls become child spans (for example
``viterbi_profiles -> upward_pass``).  The numerical kernels ``safe_div``,
``entr`` and ``xlogy`` are only counted, by wrapping those names in the
modules that call them; their time stays in the caller's span.  Spans stay
in memory; ``uninstall`` restores every replaced name.

A span's self time is its duration minus the durations of its direct
children.  Self times are summed into the per-layer metrics of ``STAGES``;
functions not listed there still get spans, so the self times of one
command's spans always add up to the command's wall time.
"""

import functools
import inspect
import sys
import time
from collections import Counter

import numpy as np

LAYER_MODULES = ("fileio", "model", "chain", "chain_entropy", "tree", "tree_entropy")
KERNELS = ("safe_div", "entr", "xlogy")
ROOT_SPAN = "cli"

# traced function -> the per-layer time metric its self time counts toward
STAGES = {
    ROOT_SPAN: "cli.self_s",
    "fileio.parse_model": "fileio.parse_s",
    "fileio.parse_sequence": "fileio.parse_s",
    "fileio.parse_tree": "fileio.parse_s",
    "fileio.detect_data_kind": "fileio.parse_s",
    "fileio.write_profile": "fileio.format_s",
    "model.log_emission_matrix": "model.emission_s",
    "model.emission_matrix": "model.emission_s",
    "model.check_compatible": "model.emission_s",
    "model.TreeTopology.__init__": "model.topology_s",
    "chain.forward_pass": "chain.forward_s",
    "chain.backward_smooth": "chain.backward_s",
    "chain.viterbi_chain": "chain.viterbi_s",
    "chain_entropy.entropy_past_hernando": "chain_entropy.past_s",
    "chain_entropy.entropy_future": "chain_entropy.future_s",
    "tree.upward_pass": "tree.upward_s",
    "tree.downward_pass": "tree.downward_s",
    "tree.viterbi_tree": "tree.viterbi_s",
    "tree.viterbi_profiles": "tree.viterbi_profiles_s",
    "tree_entropy.parent_conditional_profile": "tree_entropy.parent_cond_s",
    "tree_entropy.subtree_entropies_approach1": "tree_entropy.approach1_s",
    "tree_entropy.subtree_entropies_approach2": "tree_entropy.approach2_s",
    "tree_entropy.children_conditional_profile": "tree_entropy.children_cond_s",
}

# traced function -> the call-count metric it adds one to
CALL_COUNTS = {
    "fileio.parse_sequence": "fileio.parse_calls",
    "fileio.parse_tree": "fileio.parse_calls",
    "model.log_emission_matrix": "model.emission_calls",
    "model.TreeTopology.__init__": "model.topology_calls",
    "chain.forward_pass": "chain.calls",
    "chain.viterbi_chain": "chain.calls",
    "tree.upward_pass": "tree.upward_calls",
    "tree_entropy.parent_conditional_profile": "tree_entropy.parent_cond_calls",
}


def _children_terms(args) -> int:
    """Sum over internal vertices of J^(c+1), the children-profile work."""
    model, tree = args[0], args[1]
    counts = np.bincount(tree.topology.parent[1:], minlength=tree.num_vertices)
    counts = counts[counts > 0]
    return int(np.sum(model.num_states ** (counts + 1)))


def _table_cells(args) -> int:
    table = args[0]
    return table.num_rows * len(table.columns)


# traced function -> (work counter, its size computed from the call's args)
WORK_COUNTS = {
    "tree_entropy.children_conditional_profile": ("tree_entropy.children_terms",
                                                  _children_terms),
    "fileio.write_profile": ("fileio.format_cells", _table_cells),
}


class Tracer:
    """Span recorder installed over an imported ``hmmentropy`` package."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.counts = Counter()
        self._stack = []
        self._patches = []       # (owner, attribute, original)

    # -- installation ----------------------------------------------------

    def install(self):
        wrappers = {}
        for short in LAYER_MODULES:
            module = sys.modules[f"hmmentropy.{short}"]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self._span_wrapper(f"{short}.{name}", obj)
        topology = sys.modules["hmmentropy.model"].TreeTopology
        self._patch(topology, "__init__",
                    self._span_wrapper("model.TreeTopology.__init__",
                                       topology.__init__))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "hmmentropy" and not mod_name.startswith("hmmentropy."):
                continue
            for name, obj in list(vars(module).items()):
                if callable(obj) and obj in wrappers:
                    self._patch(module, name, wrappers[obj])
                elif (name in KERNELS and mod_name not in
                      ("hmmentropy", "hmmentropy.numutil", "hmmentropy.oracle")):
                    self._patch(module, name, self._kernel_counter(obj))
        return self

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, replacement):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _span_wrapper(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count_key = CALL_COUNTS.get(name)
        work = WORK_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if work is not None:
                counts[work[0]] += work[1](args)
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0,
                          stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if count_key is not None:
                counts[count_key] += 1
            return result

        return wrapper

    def _kernel_counter(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts["numutil.kernel_calls"] += 1
            return fn(*args, **kwargs)

        return counted

    # -- recording -------------------------------------------------------

    def root(self):
        """Open the root span of one CLI command; call the result to close it."""
        index = len(self.spans)
        self.spans.append([ROOT_SPAN, time.perf_counter(), 0.0, -1])
        self._stack.append(index)

        def close():
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()
            return index

        return close

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()


def self_times(spans):
    """Self time of each span: its duration minus its direct children's."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _), c in zip(spans, child)]


def command_accounting(spans, root_index):
    """(wall, sum of self times, nesting ok) for the command rooted at
    ``root_index``; its spans are the root and every span recorded after it
    up to the next root."""
    end = next((i for i in range(root_index + 1, len(spans))
                if spans[i][3] == -1), len(spans))
    own = spans[root_index:end]
    shifted = [[n, s, e, p - root_index if p >= 0 else -1] for n, s, e, p in own]
    selfs = self_times(shifted)
    nested = all(own[p - root_index][1] <= s and e <= own[p - root_index][2]
                 for _, s, e, p in own[1:])
    wall = own[0][2] - own[0][1]
    return wall, sum(selfs), nested and min(selfs) >= -1e-9


def stage_totals(spans):
    """Self time per per-layer metric and inclusive time per function."""
    totals = Counter()
    inclusive = Counter()
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        totals[STAGES.get(name, name.split(".")[0] + ".other_s")] += own
        inclusive[name] += end - start
    return totals, inclusive
