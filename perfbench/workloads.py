"""Benchmark workloads and their inputs, generated from the seed with numpy.

The generator writes the model JSON and data files itself instead of calling
``hmmentropy.simulate_*`` or the test generators, so a change to those cannot
silently change what the benchmark reads.  Every generated file is recorded
with its size and SHA-256 digest, which shows that two runs on the same seed
read identical bytes.
"""

import hashlib
import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    """A data shape and the CLI command mix one repetition runs on it.

    ``commands`` pairs a label with the CLI arguments before ``--model``;
    ``slots`` maps labels to the end-to-end metric their time counts toward.
    ``variables`` lists the emission variables: ``("categorical", size)`` or
    ``("poisson",)``.  ``small_lengths`` sizes the instance compared with the
    enumeration oracle, and ``medium_lengths``, if not empty, an instance
    checked once per run that is too large for the oracle but small enough
    that no printed probability underflows.
    """

    name: str
    kind: str
    num_states: int
    variables: tuple
    commands: tuple
    slots: dict
    small_lengths: tuple
    medium_lengths: tuple = ()


WORKLOADS = {
    # One long recursion per command.  `summary` runs the chain as a path
    # tree, one vertex per level.
    "chain-long": Workload(
        name="chain-long", kind="chain", num_states=4,
        variables=(("categorical", 4),),
        commands=(("entropy_past", ("entropy", "--cond", "past")),
                  ("entropy_future", ("entropy", "--cond", "future")),
                  ("viterbi", ("viterbi",)),
                  ("summary", ("summary",))),
        slots={"entropy_past": "entropy_cal", "entropy_future": "entropy_cal",
               "viterbi": "viterbi_cal", "summary": "summary_cal"},
        small_lengths=(8,)),
    # The same chain layers as many small calls: per-call overhead, J = 8,
    # Poisson emissions and the multivariate file syntax.
    "chain-many-short": Workload(
        name="chain-many-short", kind="chain", num_states=8,
        variables=(("categorical", 3), ("poisson",)),
        commands=(("entropy_past", ("entropy", "--cond", "past")),
                  ("viterbi", ("viterbi",)),
                  ("criteria", ("criteria",)),
                  ("summary", ("summary",))),
        slots={"entropy_past": "entropy_cal", "viterbi": "viterbi_cal",
               "summary": "summary_cal"},
        small_lengths=(6, 5, 6)),
    # Wide levels; every tree profile, and the tree file parsed per command.
    # On the main tree every vprofile cell underflows to 0, so the medium
    # one (6 levels) is where the vprofile identities are checked.
    "tree-binary": Workload(
        name="tree-binary", kind="tree", num_states=4,
        variables=(("categorical", 4),),
        commands=(("entropy_parent", ("entropy", "--cond", "parent")),
                  ("entropy_both", ("entropy", "--cond", "both")),
                  ("viterbi_profiles", ("viterbi-profiles",)),
                  ("summary", ("summary",))),
        slots={"entropy_parent": "entropy_cal", "entropy_both": "entropy_cal",
               "viterbi_profiles": "viterbi_cal", "summary": "summary_cal"},
        small_lengths=(8,), medium_lengths=(63,)),
}

CHAIN_LONG_LENGTH = 10_000
# 100 lengths evenly spread over [20, 180], shuffled per seed: the total,
# and so the work, is 10,000 positions on every seed.
MANY_SHORT_LENGTHS = np.linspace(20, 180, 100).round().astype(int)
TREE_LEVELS = 13  # complete binary tree, n = 2**13 - 1 = 8191


@dataclass
class Instance:
    """One generated data set: the parameters and data the files hold."""

    model: dict
    data_path: Path
    values: list          # per sequence (chains) or one array (trees): T x V
    parent: np.ndarray    # tree parent array; None for chains

    @property
    def num_positions(self) -> int:
        return int(sum(v.shape[0] for v in self.values))


@dataclass
class Inputs:
    workload: Workload
    model_path: Path
    main: Instance
    small: Instance
    medium: Instance  # None if the workload has none
    manifest: dict


def _rng(workload: Workload, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2 ** 63, zlib.crc32(workload.name.encode())])


def _random_model(rng, workload: Workload):
    """A model with every probability bounded away from zero, so that no
    generated observation is impossible; transitions are sticky."""
    j = workload.num_states
    initial = rng.dirichlet(np.full(j, 2.0))
    transition = 0.3 * rng.dirichlet(np.full(j, 2.0), size=j) + 0.7 * np.eye(j)
    transition /= transition.sum(axis=1, keepdims=True)
    emissions = [[] for _ in range(j)]
    for var in workload.variables:
        if var[0] == "categorical":
            probs = rng.dirichlet(np.full(var[1], 2.0), size=j)
            for s in range(j):
                emissions[s].append({"type": "categorical", "probs": probs[s].tolist()})
        else:
            rates = rng.uniform(0.5, 8.0, size=j)
            for s in range(j):
                emissions[s].append({"type": "poisson", "rate": float(rates[s])})
    return {"num_states": j, "initial": initial.tolist(),
            "transition": transition.tolist(), "emissions": emissions}


def _draw(cum_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws, one per row of cumulative probabilities."""
    return np.minimum((u[:, None] >= cum_rows).sum(axis=1), cum_rows.shape[1] - 1)


def _observations(rng, model: dict, states: np.ndarray) -> np.ndarray:
    cols = []
    for k, spec in enumerate(model["emissions"][0]):
        if spec["type"] == "categorical":
            probs = np.array([e[k]["probs"] for e in model["emissions"]])
            cols.append(_draw(np.cumsum(probs, axis=1)[states], rng.random(states.size)))
        else:
            rates = np.array([e[k]["rate"] for e in model["emissions"]])
            cols.append(rng.poisson(rates[states]))
    return np.stack(cols, axis=1).astype(np.int64)


def _chain_states(rng, model: dict, length: int) -> np.ndarray:
    cum_pi = np.cumsum(model["initial"])
    cum_a = np.cumsum(model["transition"], axis=1)
    u = rng.random(length)
    states = np.empty(length, dtype=np.int64)
    states[0] = _draw(cum_pi[None, :], u[:1])[0]
    for t in range(1, length):
        row = cum_a[states[t - 1]]
        states[t] = min(int(np.searchsorted(row, u[t], side="right")), row.size - 1)
    return states


def _binary_parent(n: int) -> np.ndarray:
    parent = (np.arange(n) - 1) // 2
    parent[0] = -1
    return parent


def _tree_states(rng, model: dict, parent: np.ndarray) -> np.ndarray:
    """Vertex ids of a complete binary tree are level-ordered, so each level
    is drawn at once from its parents' states."""
    cum_a = np.cumsum(model["transition"], axis=1)
    states = np.empty(parent.size, dtype=np.int64)
    states[0] = _draw(np.cumsum(model["initial"])[None, :], rng.random(1))[0]
    lo = 1
    while lo < parent.size:
        hi = min(2 * lo + 1, parent.size)
        states[lo:hi] = _draw(cum_a[states[parent[lo:hi]]], rng.random(hi - lo))
        lo = hi
    return states


def _chain_text(values: list) -> str:
    lines = []
    for v in values:
        if v.shape[1] == 1:
            lines.append(" ".join(map(str, v[:, 0].tolist())))
        else:
            lines.append(";".join(",".join(map(str, row)) for row in v.tolist()))
    return "\n".join(lines) + "\n"


def _tree_text(parent: np.ndarray, values: np.ndarray) -> str:
    return "".join(f"{u}\t{p}\t{','.join(map(str, row))}\n"
                   for u, (p, row) in enumerate(zip(parent.tolist(), values.tolist())))


def _instance(rng, workload: Workload, model: dict, lengths, path: Path) -> Instance:
    if workload.kind == "tree":
        parent = _binary_parent(lengths[0])
        values = _observations(rng, model, _tree_states(rng, model, parent))
        path.write_text(_tree_text(parent, values), encoding="utf-8")
        return Instance(model, path, [values], parent)
    values = [_observations(rng, model, _chain_states(rng, model, int(t)))
              for t in lengths]
    path.write_text(_chain_text(values), encoding="utf-8")
    return Instance(model, path, values, None)


def _main_lengths(rng, workload: Workload):
    if workload.name == "chain-long":
        return [CHAIN_LONG_LENGTH]
    if workload.name == "chain-many-short":
        return rng.permutation(MANY_SHORT_LENGTHS).tolist()
    return [2 ** TREE_LEVELS - 1]


def _digest(path: Path) -> dict:
    data = path.read_bytes()
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def generate(name: str, seed: int, directory: Path) -> Inputs:
    """Write the workload's model, data, small- and medium-instance files
    for `seed`."""
    workload = WORKLOADS[name]
    rng = _rng(workload, seed)
    model = _random_model(rng, workload)
    model_path = directory / "model.json"
    model_path.write_text(json.dumps(model, indent=1) + "\n", encoding="utf-8")
    suffix = "tree" if workload.kind == "tree" else "seq"
    main = _instance(rng, workload, model, _main_lengths(rng, workload),
                     directory / f"data.{suffix}")
    small = _instance(rng, workload, model, workload.small_lengths,
                      directory / f"small.{suffix}")
    medium = (_instance(rng, workload, model, workload.medium_lengths,
                        directory / f"medium.{suffix}")
              if workload.medium_lengths else None)
    files = [model_path, main.data_path, small.data_path]
    files += [medium.data_path] if medium else []
    manifest = {
        "workload": name, "seed": seed, "kind": workload.kind,
        "num_states": workload.num_states,
        "num_variables": len(workload.variables),
        "num_sequences": len(main.values) if workload.kind == "chain" else 0,
        "num_positions": main.num_positions,
        "files": {p.name: _digest(p) for p in files},
    }
    return Inputs(workload, model_path, main, small, medium, manifest)
