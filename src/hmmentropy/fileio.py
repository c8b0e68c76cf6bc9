"""Text formats: model JSON, sequence/tree data files, TSV profile tables.

Models are JSON documents.  Sequences come one per line (integers separated
by whitespace when univariate; time steps separated by ';' with ','-separated
variables when multivariate).  Trees come one vertex per line as
``vertex_id  parent_id  v1[,v2,...]`` with ``-1`` marking the root's parent.
Profile tables serialize as TSV with a header row and floats rendered with
12 significant digits, so outputs are byte-stable across runs and platforms.
"""

import json
import math
import re
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .errors import DataFormatError, ValidationError
from .model import (Categorical, HmmModel, ObservedSequence, ObservedTree,
                    Poisson, TreeTopology, validate_model)

__all__ = ["parse_model", "serialize_model", "parse_sequence",
           "serialize_sequence", "parse_tree", "serialize_tree",
           "detect_data_kind", "ProfileTable", "write_profile",
           "read_profile"]

_INT_RE = re.compile(r"^-?\d+$")


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

def _emission_var_from_spec(spec, where):
    if not isinstance(spec, dict) or "type" not in spec:
        raise DataFormatError(f"{where}: emission variable spec must be an "
                              f"object with a 'type' field")
    kind = spec["type"]
    if kind == "categorical":
        if "probs" not in spec:
            raise DataFormatError(f"{where}: categorical spec needs 'probs'")
        return Categorical(spec["probs"])
    if kind == "poisson":
        if "rate" not in spec:
            raise DataFormatError(f"{where}: poisson spec needs 'rate'")
        return Poisson(spec["rate"])
    raise DataFormatError(f"{where}: unknown emission type {kind!r}")


def parse_model(text: str, check: bool = True) -> HmmModel:
    """Parse a model document; with check, raise on any invariant violation."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"model is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DataFormatError("model document must be a JSON object")
    for key in ("num_states", "initial", "transition", "emissions"):
        if key not in doc:
            raise DataFormatError(f"model document lacks field {key!r}")
    if not isinstance(doc["emissions"], list):
        raise DataFormatError("emissions must be a list with one entry per state")
    for j, state_vars in enumerate(doc["emissions"]):
        if not isinstance(state_vars, list):
            raise DataFormatError(f"emissions[{j}] must be a list of variable specs")
    emissions = [
        [_emission_var_from_spec(var, f"emissions[{j}][{k}]")
         for k, var in enumerate(state_vars)]
        for j, state_vars in enumerate(doc["emissions"])
    ]
    try:
        model = HmmModel(doc["initial"], doc["transition"], emissions)
    except ValidationError as exc:
        raise DataFormatError(str(exc)) from None
    if model.num_states != doc["num_states"]:
        raise DataFormatError(
            f"num_states field is {doc['num_states']} but initial has length "
            f"{model.num_states}"
        )
    if check:
        report = validate_model(model)
        if not report.ok:
            raise ValidationError("; ".join(report.violations))
    return model


def serialize_model(model: HmmModel) -> str:
    def var_spec(var):
        if isinstance(var, Categorical):
            return {"type": "categorical", "probs": var.probs.tolist()}
        return {"type": "poisson", "rate": var.rate}

    doc = {
        "num_states": model.num_states,
        "initial": model.initial.tolist(),
        "transition": model.transition.tolist(),
        "emissions": [[var_spec(v) for v in state_vars]
                      for state_vars in model.emissions],
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------

def _parse_int(token: str, where: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise DataFormatError(f"{where}: {token!r} is not an integer") from None
    if not -2 ** 63 <= value < 2 ** 63:
        raise DataFormatError(f"{where}: {token!r} is outside the int64 range")
    return value


def parse_sequence(text: str) -> List[ObservedSequence]:
    """One sequence per line; ';' separates multivariate time steps."""
    sequences = []
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if ";" in line or "," in line:
            steps = [s for s in line.split(";") if s.strip()]
            rows = []
            for s, step in enumerate(steps):
                rows.append([
                    _parse_int(tok.strip(),
                               f"line {lineno}, step {s + 1}, variable {k + 1}")
                    for k, tok in enumerate(step.split(","))
                ])
        else:
            rows = [[
                _parse_int(tok, f"line {lineno}: error at token {k + 1}")]
                for k, tok in enumerate(line.split())]
        lengths = {len(r) for r in rows}
        if len(lengths) != 1:
            raise DataFormatError(f"line {lineno}: ragged variable counts {sorted(lengths)}")
        if width is None:
            width = lengths.pop()
        elif lengths != {width}:
            raise DataFormatError(
                f"line {lineno}: {lengths.pop()} variables, earlier lines had {width}"
            )
        try:
            sequences.append(ObservedSequence(rows))
        except ValidationError as exc:
            raise DataFormatError(f"line {lineno}: {exc}") from None
    if not sequences:
        raise DataFormatError("no sequences found")
    return sequences


def serialize_sequence(sequences) -> str:
    lines = []
    for seq in sequences:
        if seq.num_variables == 1:
            lines.append(" ".join(str(int(v)) for v in seq.values[:, 0]))
        else:
            lines.append(";".join(",".join(str(int(v)) for v in row)
                                  for row in seq.values))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------

def parse_tree(text: str) -> ObservedTree:
    """One vertex per line: ``vertex_id parent_id v1[,v2,...]``."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 3:
            raise DataFormatError(
                f"line {lineno}: expected 'vertex parent values', got {len(fields)} fields"
            )
        vid = _parse_int(fields[0], f"line {lineno}, vertex id")
        pid = _parse_int(fields[1], f"line {lineno}, parent id")
        values = [_parse_int(tok, f"line {lineno}, variable {k + 1}")
                  for k, tok in enumerate(fields[2].split(","))]
        if vid in entries:
            raise DataFormatError(f"line {lineno}: duplicate vertex id {vid}")
        entries[vid] = (pid, values)
    n = len(entries)
    if n == 0:
        raise DataFormatError("no vertices found")
    roots = [u for u, (pid, _) in entries.items() if pid == -1]
    if len(roots) > 1:
        raise DataFormatError(f"multiple roots: vertices {sorted(roots)}")
    if not roots:
        raise DataFormatError(
            "no root vertex (parent_id -1): the parent relation is a cycle"
        )
    missing = [u for u in range(n) if u not in entries]
    if missing:
        raise DataFormatError(f"vertex ids must cover 0..{n - 1}; missing {missing}")
    widths = {len(vals) for _, vals in entries.values()}
    if len(widths) != 1:
        raise DataFormatError(f"ragged variable counts {sorted(widths)}")
    parent = np.array([entries[u][0] for u in range(n)], dtype=np.int64)
    values = np.array([entries[u][1] for u in range(n)], dtype=np.int64)
    try:
        topo = TreeTopology(parent)
        return ObservedTree(topo, values)
    except ValidationError as exc:
        raise DataFormatError(str(exc)) from None


def serialize_tree(tree: ObservedTree) -> str:
    lines = []
    for u in range(tree.num_vertices):
        vals = ",".join(str(int(v)) for v in tree.values[u])
        lines.append(f"{u}\t{int(tree.topology.parent[u])}\t{vals}")
    return "\n".join(lines) + "\n"


def detect_data_kind(text: str) -> str:
    """'tree' when the second field of some line is a negative integer, as a
    root's parent id -1 is and no sequence value can be; else 'chain'."""
    for raw in text.splitlines():
        fields = raw.split(None, 2)
        try:
            if len(fields) > 1 and int(fields[1]) < 0:
                return "tree"
        except ValueError:
            pass
    return "chain"


# ---------------------------------------------------------------------------
# profile tables
# ---------------------------------------------------------------------------

@dataclass
class ProfileTable:
    """Named numeric columns of equal length, one row per position.

    Columns listed in entropy_columns are log-base converted on output.
    """

    columns: List[Tuple[str, np.ndarray]] = field(default_factory=list)
    entropy_columns: frozenset = frozenset()

    def add(self, name: str, values, entropy: bool = False):
        values = np.asarray(values)
        if self.columns and values.shape[0] != self.columns[0][1].shape[0]:
            raise ValueError(f"column {name!r} length mismatch")
        self.columns.append((name, values))
        if entropy:
            self.entropy_columns = self.entropy_columns | {name}
        return self

    @property
    def num_rows(self) -> int:
        return self.columns[0][1].shape[0] if self.columns else 0


def write_profile(table: ProfileTable, log_base: str = "e") -> str:
    """Render a table as TSV; entropies divided by ln(2) for base-2 output.

    Integer columns print as integers, every other column with 12
    significant digits.  Each column is formatted with one map over it.
    """
    if log_base not in ("e", "2"):
        raise ValueError(f"log_base must be 'e' or '2', got {log_base!r}")
    scale = 1.0 / math.log(2.0) if log_base == "2" else 1.0
    cells = []
    for name, col in table.columns:
        if name in table.entropy_columns and scale != 1.0:
            col = col.astype(float) * scale
        fmt = str if col.dtype.kind in "iu" else "{:.12g}".format
        # a memoryview yields the Python numbers one at a time, where
        # tolist() would hold them all at once
        cells.append(map(fmt, memoryview(col)))
    header = "\t".join(name for name, _ in table.columns)
    return "\n".join([header, *map("\t".join, zip(*cells))]) + "\n"


def read_profile(text: str) -> ProfileTable:
    """Parse a TSV profile back into a table (entropy flags are not part of
    the wire format and are not recovered)."""
    lines = [line for line in text.splitlines() if line]
    if not lines:
        raise DataFormatError("empty profile table")
    names = lines[0].split("\t")
    rows = [line.split("\t") for line in lines[1:]]
    for r, row in enumerate(rows):
        if len(row) != len(names):
            raise DataFormatError(f"row {r} has {len(row)} cells, "
                                  f"header has {len(names)}")
    table = ProfileTable()
    for c, name in enumerate(names):
        tokens = [row[c] for row in rows]
        try:
            if all(_INT_RE.match(tok) for tok in tokens):
                table.add(name, np.array([int(t) for t in tokens]))
            else:
                table.add(name, np.array([float(t) for t in tokens]))
        except ValueError:
            raise DataFormatError(
                f"column {name!r} holds a non-numeric cell") from None
    return table
