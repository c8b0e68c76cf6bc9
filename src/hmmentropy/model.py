"""Model and data representations for hidden Markov chains and trees.

A model couples an initial state law, a row-stochastic transition matrix and
one emission model per state.  Emission models are products of independent
per-variable distributions (categorical over a finite alphabet, or Poisson).
Observed data is either a dataset of sequences of time-indexed rows, stacked
with their offsets, or a rooted tree of vertex-indexed rows; both carry
non-negative integer values.
"""

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ValidationError
from .numutil import log_factorial, xlogy

PROB_TOL = 1e-9  # tolerance on probability-vector sums


def _read_only(values, dtype) -> np.ndarray:
    """values as a read-only array of dtype.  When np.asarray hands back
    the caller's writable array or a view, it is copied first, so that the
    caller's array stays writable and later writes to it cannot reach the
    object; a read-only one, such as a view of another object's data, is
    shared."""
    array = np.asarray(values, dtype=dtype)
    if array.flags.writeable and (array is values or not array.flags.owndata):
        array = array.copy()
    array.setflags(write=False)
    return array


# ---------------------------------------------------------------------------
# per-variable emission distributions
# ---------------------------------------------------------------------------

class Categorical:
    """Distribution over a finite alphabet {0, ..., len(probs)-1}."""

    def __init__(self, probs):
        self.probs = _read_only(probs, float)
        if self.probs.ndim != 1 or self.probs.size == 0:
            raise ValidationError("categorical probabilities must be a non-empty vector")

    @property
    def alphabet_size(self) -> int:
        return self.probs.size

    @property
    def dof(self) -> int:
        return self.probs.size - 1

    def signature(self):
        return ("categorical", self.probs.size)

    def check(self, prefix: str):
        issues = []
        s = self.probs.sum()
        if abs(s - 1.0) > PROB_TOL:
            issues.append(f"{prefix}: probabilities sum to {s!r}")
        if not np.all((self.probs >= 0) & (self.probs <= 1)):  # NaN fails
            issues.append(f"{prefix}: entries outside [0, 1]")
        return issues

    @staticmethod
    def add_log_pmfs(per_state, x, out):
        """Add to column j of out the log pmfs of the values x under the
        categorical of state j in per_state, gathered from the states'
        stacked log probability table."""
        x = np.asarray(x)
        size = per_state[0].alphabet_size
        if np.any(x < 0) or np.any(x >= size):
            bad = x[(x < 0) | (x >= size)].flat[0]
            raise ValidationError(
                f"value {int(bad)} outside categorical alphabet of size {size}"
            )
        with np.errstate(divide="ignore"):
            log_table = np.log(np.stack([var.probs for var in per_state]))
        for j, log_probs in enumerate(log_table):
            out[:, j] += log_probs[x]

    def sample(self, rng: np.random.Generator, size: int):
        cum = np.cumsum(self.probs)
        idx = np.searchsorted(cum, rng.random(size) * cum[-1], side="right")
        return np.minimum(idx, self.alphabet_size - 1)

    def __eq__(self, other):
        return isinstance(other, Categorical) and np.array_equal(self.probs, other.probs)

    def __repr__(self):
        return f"Categorical({self.probs.tolist()})"


class Poisson:
    """Poisson distribution with rate >= 0 (rate 0 is the point mass at 0)."""

    def __init__(self, rate):
        self.rate = float(rate)

    @property
    def dof(self) -> int:
        return 1

    def signature(self):
        return ("poisson",)

    def check(self, prefix: str):
        if not np.isfinite(self.rate) or self.rate < 0:
            return [f"{prefix}: rate {self.rate!r} must be finite and >= 0"]
        return []

    @staticmethod
    def add_log_pmfs(per_state, x, out):
        """Add to column j of out the log pmfs of the values x under the
        Poisson of state j in per_state; log x! is evaluated once."""
        x = np.asarray(x)
        if np.any(x < 0):
            raise ValidationError("Poisson values must be non-negative integers")
        log_x_factorial = log_factorial(x)
        x = x.astype(float)
        for j, var in enumerate(per_state):
            # xlogy keeps rate == 0 well defined: pmf(0) = 1, pmf(x > 0) = 0
            out[:, j] += xlogy(x, var.rate) - var.rate - log_x_factorial

    def sample(self, rng: np.random.Generator, size: int):
        return rng.poisson(self.rate, size=size)

    def __eq__(self, other):
        return isinstance(other, Poisson) and self.rate == other.rate

    def __repr__(self):
        return f"Poisson({self.rate})"


EmissionVar = Union[Categorical, Poisson]


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

class HmmModel:
    """A J-state hidden Markov model shared by chain and tree inference.

    Parameters are stored as given; use :func:`validate_model` to check the
    probabilistic invariants.  Instances are immutable after construction
    and safe to share across threads.
    """

    def __init__(self, initial, transition, emissions: Sequence[Sequence[EmissionVar]]):
        self.initial = _read_only(initial, float)
        self.transition = _read_only(transition, float)
        self.emissions = tuple(tuple(state_vars) for state_vars in emissions)
        if self.initial.ndim != 1:
            raise ValidationError("initial must be a vector")
        j = self.initial.size
        if self.transition.shape != (j, j):
            raise ValidationError(
                f"transition must be {j}x{j}, got {self.transition.shape}"
            )
        if len(self.emissions) != j:
            raise ValidationError(
                f"need one emission model per state: {len(self.emissions)} != {j}"
            )
        if j == 0:
            raise ValidationError("model needs at least one state")

    @property
    def num_states(self) -> int:
        return self.initial.size

    @property
    def num_variables(self) -> int:
        return len(self.emissions[0])

    def variable_signature(self):
        return tuple(var.signature() for var in self.emissions[0])

    def __eq__(self, other):
        return (
            isinstance(other, HmmModel)
            and np.array_equal(self.initial, other.initial)
            and np.array_equal(self.transition, other.transition)
            and self.emissions == other.emissions
        )

    def __repr__(self):
        return f"HmmModel(J={self.num_states}, V={self.num_variables})"


@dataclass
class ValidationReport:
    ok: bool
    violations: list

    def __bool__(self):
        return self.ok


def _signature_mismatches(model: HmmModel):
    """The states whose variable signature differs from state 0's."""
    sig = model.variable_signature()
    return [j for j, state_vars in enumerate(model.emissions)
            if tuple(var.signature() for var in state_vars) != sig]


def _signature_message(j: int) -> str:
    return f"emissions: state {j} variable signature differs from state 0"


def validate_model(model: HmmModel) -> ValidationReport:
    """Check every model invariant; violations are data, not exceptions."""
    v = []
    s = model.initial.sum()
    if abs(s - 1.0) > PROB_TOL:
        v.append(f"initial: sums to {s!r}")
    # written so that NaN entries fail the range checks
    if not np.all((model.initial >= 0) & (model.initial <= 1)):
        v.append("initial: entries outside [0, 1]")
    for i, row in enumerate(model.transition):
        rs = row.sum()
        if abs(rs - 1.0) > PROB_TOL:
            v.append(f"transition: row {i} sums to {rs!r}")
        if not np.all((row >= 0) & (row <= 1)):
            v.append(f"transition: row {i} has entries outside [0, 1]")
    mismatched = _signature_mismatches(model)
    for j, state_vars in enumerate(model.emissions):
        if j in mismatched:
            v.append(_signature_message(j))
            continue
        for k, var in enumerate(state_vars):
            v.extend(var.check(f"emissions: state {j}, variable {k}"))
    return ValidationReport(ok=not v, violations=v)


# ---------------------------------------------------------------------------
# observed data
# ---------------------------------------------------------------------------

def _int64_array(values, what: str) -> np.ndarray:
    try:
        return _read_only(values, np.int64)
    except OverflowError:
        raise ValidationError(f"{what} must fit in 64-bit integers") from None


def _observation_matrix(values) -> np.ndarray:
    """values as a read-only T x V int64 matrix, T >= 1; a vector is V = 1."""
    values = _int64_array(values, "observed values")
    if values.ndim == 1:
        values = values[:, None]
    if values.ndim != 2 or values.shape[0] < 1:
        raise ValidationError("observed values must be a non-empty matrix")
    # one reduction, no boolean temporary; a zero-width matrix has no minimum
    if values.size and values.min() < 0:
        raise ValidationError("observed values must be non-negative integers")
    return values


class ObservedSequence:
    """One or more sequences: their T x V matrix of non-negative integer
    observations, stacked in order, whose rows offsets[s]:offsets[s + 1] are
    sequence s.  The offsets, by default [0, T] (one sequence), rise strictly
    from 0 to T.  Both arrays are read-only."""

    def __init__(self, values, offsets=None):
        self.values = _observation_matrix(values)
        t = self.length
        self.offsets = _int64_array([0, t] if offsets is None else offsets,
                                    "sequence offsets")
        if not (self.offsets.ndim == 1 and self.offsets[:1].tolist() == [0]
                and self.offsets[-1] == t and np.all(np.diff(self.offsets) > 0)):
            raise ValidationError("sequence offsets must rise strictly from 0 "
                                  f"to {t}, the number of observed rows")

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def num_variables(self) -> int:
        return self.values.shape[1]

    @property
    def num_sequences(self) -> int:
        return self.offsets.size - 1

    def sequences(self):
        """One ObservedSequence per sequence, each a view of its rows."""
        return [ObservedSequence(rows)
                for rows in np.split(self.values, self.offsets[1:-1])]

    def __eq__(self, other):
        return (isinstance(other, ObservedSequence)
                and np.array_equal(self.offsets, other.offsets)
                and np.array_equal(self.values, other.values))

    def __repr__(self):
        return f"ObservedSequence(T={self.length}, V={self.num_variables})"


def _depths(parent):
    """Vertex depths by pointer jumping: after round k every vertex points
    2^k generations up (or at the root) and knows its distance to that
    ancestor.  A vertex whose pointer never reaches the root lies on or
    above a cycle."""
    n = parent.size
    jump = parent.copy()
    jump[0] = 0
    depth = np.ones(n, dtype=np.int64)
    depth[0] = 0
    for _ in range(n.bit_length()):
        if not jump.any():
            break
        depth += depth[jump]
        jump = jump[jump]
    if jump.any():
        raise ValidationError("parent relation contains a cycle")
    return depth


class TreeTopology:
    """Rooted tree given as a parent array; vertex 0 is the root.

    ``parent[0] == -1`` and every other vertex names its parent.  Children
    lists are derived, ordered by ascending vertex id.

    The level plan drives the tree recursions: ``downward_order`` lists the
    vertices sorted by (depth, id), parents before children, so that every
    level is a contiguous run; siblings need not be adjacent.  Indices into
    that order are plan positions: ``position[u]`` is the plan position of
    vertex u and ``parent_position[p]`` that of the parent of plan position
    p (-1 at the root).  ``level(d)`` gives the plan positions of the
    vertices at depth d; a recursion step scatters the rows of a level onto
    their parents' rows with ``ufunc.at``.  ``by_parent``, built on first
    use, groups the children of each vertex instead.
    """

    def __init__(self, parent):
        parent = _int64_array(parent, "parent ids")
        if parent.ndim != 1 or parent.size < 1:
            raise ValidationError("parent array must be a non-empty vector")
        n = parent.size
        roots = np.flatnonzero(parent == -1)
        if roots.size != 1:
            raise ValidationError(f"exactly one root expected, found {roots.size}")
        if roots[0] != 0:
            raise ValidationError("vertex 0 must be the root")
        others = parent[1:]
        if np.any((others < 0) | (others >= n)):
            raise ValidationError("parent ids must lie in [0, n)")
        self.parent = parent
        self.depth = _depths(parent)
        self.child_count = np.bincount(others, minlength=n)
        # stable, so ids stay ascending within each level
        self.downward_order = np.argsort(self.depth, kind="stable")
        self.position = np.empty(n, dtype=np.int64)
        self.position[self.downward_order] = np.arange(n)
        self.parent_position = np.full(n, -1, dtype=np.int64)
        self.parent_position[1:] = self.position[parent[self.downward_order[1:]]]
        # a compact table whose items read back as Python ints, so that
        # the per-level bookkeeping of level() stays cheap
        bounds = np.concatenate(([0], np.cumsum(np.bincount(self.depth))))
        self._level_bounds = array("q", bounds.tobytes())
        for table in (self.depth, self.child_count,
                      self.downward_order, self.position, self.parent_position):
            table.setflags(write=False)

    @property
    def num_vertices(self) -> int:
        return self.parent.size

    @property
    def num_levels(self) -> int:
        return len(self._level_bounds) - 1

    @property
    def leaves(self):
        return np.flatnonzero(self.child_count == 0)

    @cached_property
    def by_parent(self):
        """(order, first): the non-root vertices sorted by (parent, id), and
        per vertex u the index in order of its first child, so that the
        children of u are ``order[first[u]:first[u] + child_count[u]]``."""
        order = 1 + np.argsort(self.parent[1:], kind="stable")
        first = np.cumsum(self.child_count) - self.child_count
        order.setflags(write=False)
        first.setflags(write=False)
        return order, first

    @cached_property
    def children(self):
        """Per vertex, its children ids in ascending order."""
        order, first = self.by_parent
        return tuple(order[f:f + c] for f, c in
                     zip(first.tolist(), self.child_count.tolist()))

    def level(self, d: int):
        """(start, stop): the plan positions of the vertices at depth d."""
        return self._level_bounds[d], self._level_bounds[d + 1]

    def subtree_vertices(self, u: int):
        """Vertices of the complete subtree rooted at u, in downward order."""
        out = [u]
        stack = list(self.children[u])
        while stack:
            w = stack.pop()
            out.append(w)
            stack.extend(self.children[w])
        return np.asarray(sorted(out), dtype=np.int64)

    def __eq__(self, other):
        return isinstance(other, TreeTopology) and np.array_equal(
            self.parent, other.parent
        )

    def __repr__(self):
        return f"TreeTopology(n={self.num_vertices})"


class ObservedTree:
    """Observations aligned with the vertices of a rooted tree."""

    def __init__(self, topology: TreeTopology, values):
        values = _observation_matrix(values)  # one row per vertex
        if values.shape[0] != topology.num_vertices:
            raise ValidationError(
                f"{values.shape[0]} observation rows for {topology.num_vertices} vertices"
            )
        self.topology = topology
        self.values = values

    @property
    def num_vertices(self) -> int:
        return self.topology.num_vertices

    @property
    def num_variables(self) -> int:
        return self.values.shape[1]

    def __eq__(self, other):
        return (
            isinstance(other, ObservedTree)
            and self.topology == other.topology
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self):
        return f"ObservedTree(n={self.num_vertices}, V={self.num_variables})"


# ---------------------------------------------------------------------------
# emission likelihood evaluation
# ---------------------------------------------------------------------------

def log_emission_matrix(model: HmmModel, values: np.ndarray) -> np.ndarray:
    """N x J matrix of log b_j(x_row), evaluated per variable then summed.

    The one emission evaluator: it checks the variable count and signatures
    here, and each value's range in the per-variable ``add_log_pmfs``,
    which evaluates one variable for all J states and adds it into the
    table's columns, so that no second N x J table is held."""
    if values.shape[1] != model.num_variables:
        raise ValidationError(
            f"data has {values.shape[1]} variables, model has {model.num_variables}"
        )
    mismatched = _signature_mismatches(model)
    if mismatched:
        raise ValidationError(_signature_message(mismatched[0]))
    out = np.zeros((values.shape[0], model.num_states))
    for k, per_state in enumerate(zip(*model.emissions)):
        try:
            per_state[0].add_log_pmfs(per_state, values[:, k], out)
        except ValidationError as exc:
            raise ValidationError(f"variable {k}: {exc}") from None
    return out


def log_joint_terms(model: HmmModel, log_b: np.ndarray, parent: np.ndarray,
                    states: np.ndarray) -> np.ndarray:
    """N x 2 table of the terms of a state configuration's log joint
    probability, for a forest given by its parent array (-1 at a root; a
    dataset of chains has one root per sequence): row u holds the log
    probability of entering states[u], log pi at a root and the log
    transition from the parent's state elsewhere, and its log emission
    log_b[u, states[u]]."""
    with np.errstate(divide="ignore"):
        log_a = np.log(model.transition)
        log_pi = np.log(model.initial)
    roots = parent < 0
    terms = np.empty((states.size, 2))
    terms[:, 0] = log_a[states[parent], states]
    terms[roots, 0] = log_pi[states[roots]]
    terms[:, 1] = log_b[np.arange(states.size), states]
    return terms


def emission_prob(model: HmmModel, state: int, observation) -> float:
    """b_state(observation), the product over variables of per-variable
    pmfs: one row of :func:`log_emission_matrix`, exponentiated."""
    values = np.asarray(observation, dtype=np.int64).reshape(1, -1)
    return float(np.exp(log_emission_matrix(model, values)[0, state]))


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def _draw_observations(model, states, rng):
    n = states.size
    values = np.empty((n, model.num_variables), dtype=np.int64)
    for k in range(model.num_variables):
        for j in range(model.num_states):
            idx = np.flatnonzero(states == j)
            if idx.size:
                values[idx, k] = model.emissions[j][k].sample(rng, idx.size)
    return values


def simulate_chain(model: HmmModel, length: int, seed: int):
    """Draw (state sequence, ObservedSequence); deterministic given seed.

    A chain is drawn as the path tree 0 -> 1 -> ... -> length-1 by
    :func:`simulate_tree`, so it matches ``simulate_tree`` on that path
    draw for draw."""
    if length < 1:
        raise ValidationError("length must be >= 1")
    states, tree = simulate_tree(model, TreeTopology(np.arange(-1, length - 1)), seed)
    return states, ObservedSequence(tree.values)


# Levels up to this wide draw vertex by vertex: one level as numpy arrays
# costs about what three single draws do.
_NARROW_LEVEL = 3


def simulate_tree(model: HmmModel, topology: TreeTopology, seed: int):
    """Draw (state tree, ObservedTree): root from the initial law, children
    from their parent's transition row.

    Vertex downward_order[i] draws with the uniform u[i]: the first state
    whose cumulative row sum exceeds u[i] times the row total, a whole
    level at a time."""
    rng = np.random.default_rng(seed)
    n = topology.num_vertices
    cum_pi = np.cumsum(model.initial)
    cum_a = np.cumsum(model.transition, axis=1)
    u = rng.random(n)
    last = model.num_states - 1
    states = np.empty(n, dtype=np.int64)
    states[0] = min(np.searchsorted(cum_pi, u[0] * cum_pi[-1], side="right"), last)
    order = topology.downward_order
    parent = topology.parent
    for d in range(1, topology.num_levels):
        lo, hi = topology.level(d)
        if hi - lo <= _NARROW_LEVEL:
            # a vertex or a few, as on a path: cheaper one searchsorted each
            for at in range(lo, hi):
                row = cum_a[states[parent[order[at]]]]
                states[order[at]] = min(
                    np.searchsorted(row, u[at] * row[-1], side="right"), last)
            continue
        vertices = order[lo:hi]
        rows = cum_a[states[parent[vertices]]]
        # the count of row sums <= the threshold, as searchsorted(side="right")
        drawn = np.count_nonzero(rows <= (u[lo:hi] * rows[:, -1])[:, None], axis=1)
        states[vertices] = np.minimum(drawn, last)
    values = _draw_observations(model, states, rng)
    return states, ObservedTree(topology, values)
