"""Text formats: model JSON, sequence/tree data files, TSV profile tables.

Models are JSON documents.  Sequences come one per line (integers separated
by whitespace when univariate; time steps separated by ';' with ','-separated
variables when multivariate); a file is one ObservedSequence dataset.
Trees come one vertex per line as ``vertex_id  parent_id  v1[,v2,...]`` with
``-1`` marking the root's parent.
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
                    Poisson, TreeTopology, _observation_matrix,
                    validate_model)

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
# the byte reader
# ---------------------------------------------------------------------------
#
# A data file in ASCII is read as one numpy byte array.  Its numbers are
# the runs of digits and '-', found from one boundary diff; their values
# come from one Horner pass per digit column, and the gaps between them are
# told apart by searchsorted on where the commas, semicolons and line
# breaks lie.  The reader takes a number as '-?[0-9]+' of at most 19 digits
# in the int64 range.  It declines, without a message, any other byte or
# shape: '+', '_', non-ASCII digits or line breaks, longer numbers, and
# every fault.  A declined text is walked token by token, and the walk
# reads it or reports its first fault with its line number.

# Byte classes, 0 for every byte the reader declines.  Whitespace and line
# breaks are the ASCII bytes that str.split and str.splitlines split on;
# "\r\n" reads as two breaks, which only adds a blank line.
_DIGIT, _MINUS, _SPACE, _BREAK, _COMMA, _SEMICOLON = range(1, 7)
_CLASS_MEMBERS = (b"0123456789", b"-", b"\t\x1f ", b"\n\r\x0b\x0c\x1c\x1d\x1e",
                  b",", b";")
_BYTE_CLASSES = bytes(
    next((c for c, members in enumerate(_CLASS_MEMBERS, 1) if b in members), 0)
    for b in range(256))


def _scan(text):
    """(numbers, starts, ends, classes) of a text whose bytes all have a
    class and whose numbers all read as int64, else None: the int64
    numbers in file order, the byte offsets where each starts and ends,
    and the class of every byte.  Every array that has one entry per byte
    is uint8 or bool."""
    if not text.isascii():
        return None
    raw = text.encode("ascii")
    classes = raw.translate(_BYTE_CLASSES)
    if 0 in classes:
        return None
    buf = np.frombuffer(raw, dtype=np.uint8)
    cls = np.frombuffer(classes, dtype=np.uint8)
    edges = np.flatnonzero(np.diff(cls <= _MINUS, prepend=False, append=False))
    starts, ends = edges[0::2], edges[1::2]
    negative = buf[starts] == ord("-")
    digits = ends - starts
    digits -= negative
    if (np.count_nonzero(cls == _MINUS) != np.count_nonzero(negative)
            or digits.size and not 1 <= digits.min() <= digits.max() <= 19):
        return None
    # Horner over the digit columns, right-aligned: a number with fewer
    # digits than the column count reads zeros there.  Nineteen digits stay
    # below 2**64.
    columns = digits.max(initial=0)
    digits = digits.astype(np.uint8)
    acc = np.zeros(starts.size, dtype=np.uint64)
    at = ends - columns  # each number's byte in the current column
    for k in range(columns, 0, -1):
        column = buf.take(at, mode="clip") - ord("0")
        column *= digits >= k
        acc *= 10
        acc += column
        at += 1
    big = acc >= 2 ** 63  # only -2**63 may reach it
    if big.any() and not (negative[big].all() and np.all(acc[big] == 2 ** 63)):
        return None
    numbers = acc.view(np.int64)
    np.negative(numbers, out=numbers, where=negative)
    return numbers, starts, ends, cls


def _gaps_holding(positions, starts):
    """Whether each gap of the text holds one of the byte offsets, the
    numbers starting at starts: gap g lies before number g, so gap 0 is
    before the first number and the last gap after the last number."""
    held = np.zeros(starts.size + 1, dtype=bool)
    held[np.searchsorted(starts, positions)] = True
    return held


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------
#
# A sequence file is read by the byte reader, or by the per-token walk when
# the byte reader declines it.

def _parse_int(token: str, where: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise DataFormatError(f"{where}: {token!r} is not an integer") from None
    if not -2 ** 63 <= value < 2 ** 63:
        raise DataFormatError(f"{where}: {token!r} is outside the int64 range")
    return value


def parse_sequence(text: str) -> ObservedSequence:
    """A dataset of one sequence per line; ';' separates multivariate steps."""
    data = _sequences_from_bytes(text)
    return _walk_sequences(text) if data is None else data


def _sequences_from_bytes(text):
    """The dataset of a valid ASCII file, else None.  A line holding ','
    or ';' is multivariate: in it, a lone comma joins the variables of a
    step and one or more semicolons end it; any line is one sequence."""
    scan = _scan(text)
    if scan is None:
        return None
    numbers, starts, _, cls = scan
    if numbers.size == 0 or numbers.min() < 0:
        return None
    breaks = np.flatnonzero(cls == _BREAK)
    same_line = ~_gaps_holding(breaks, starts)[1:-1]
    heads = np.flatnonzero(np.concatenate(([True], ~same_line)))  # line starts
    multivariate = _separated_lines(cls, breaks)
    if multivariate is None:
        return None  # a line with no time steps
    no_semicolon = ~_gaps_holding(np.flatnonzero(cls == _SEMICOLON), starts)[1:-1]
    commas = np.flatnonzero(cls == _COMMA)
    joined = same_line & no_semicolon & _gaps_holding(commas, starts)[1:-1]
    spaced = same_line & ~joined & no_semicolon
    # every comma alone in a gap of its line without a semicolon, and no
    # two numbers of a multivariate line with only whitespace between them
    if (np.count_nonzero(joined) != commas.size or np.any(spaced & np.repeat(
            multivariate, np.diff(heads, append=numbers.size))[:-1])):
        return None
    step = np.concatenate(([True], ~joined))  # where each step starts
    width = numbers.size // np.count_nonzero(step)
    if numbers.size % width or not step[::width].all():
        return None  # steps of unequal widths
    return ObservedSequence(numbers.reshape(-1, width),
                            np.append(heads, numbers.size) // width)


def _separated_lines(cls, breaks):
    """Per line that holds numbers, in order, whether it holds a ',' or a
    ';', from the byte classes and the line breaks' offsets; None when
    one lies on a line without numbers."""
    lines = np.concatenate(([0], breaks + 1))
    lines = lines[lines < cls.size]  # where each line starts
    numbered = np.logical_or.reduceat(cls <= _MINUS, lines)
    separated = np.logical_or.reduceat(cls >= _COMMA, lines)
    if np.any(separated & ~numbered):
        return None
    return separated[numbered]


def _walk_sequences(text: str) -> ObservedSequence:
    """The per-token parse, which raises at the first faulty line; a file
    that the byte reader reads gives the same dataset here."""
    values, offsets = [], [0]
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if ";" in line or "," in line:
            steps = [s for s in line.split(";") if s.strip()]
            if not steps:
                raise DataFormatError(f"line {lineno}: no time steps")
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
            _observation_matrix(rows)
        except ValidationError as exc:
            raise DataFormatError(f"line {lineno}: {exc}") from None
        values += rows
        offsets.append(len(values))
    if not values:
        raise DataFormatError("no sequences found")
    return ObservedSequence(values, offsets)


def _columns(values):
    """The columns of an integer matrix, each a map of its numbers to text."""
    return [map(str, col) for col in values.T.tolist()]


def serialize_sequence(data: ObservedSequence) -> str:
    """One line per sequence of the dataset, as parse_sequence reads it."""
    steps = list(map(",".join, zip(*_columns(data.values))))
    sep = " " if data.num_variables == 1 else ";"
    bounds = data.offsets.tolist()
    return "".join(sep.join(steps[lo:hi]) + "\n"
                   for lo, hi in zip(bounds, bounds[1:]))


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------

def parse_tree(text: str) -> ObservedTree:
    """One vertex per line: ``vertex_id parent_id v1[,v2,...]``."""
    tree = _tree_from_bytes(text)
    return _walk_tree(text) if tree is None else tree


def _tree_from_bytes(text):
    """The tree of a valid ASCII file, else None."""
    scan = _scan(text)
    if scan is None:
        return None
    numbers, starts, ends, cls = scan
    commas = np.flatnonzero(cls == _COMMA)
    joined = (starts[1:] - ends[:-1] == 1) & _gaps_holding(commas, starts)[1:-1]
    if (numbers.size == 0 or np.count_nonzero(cls == _SEMICOLON)
            or np.count_nonzero(joined) != commas.size):
        return None  # no vertex, a ';', or a comma not alone between numbers
    # the gap after each number: whitespace within its line (0), a lone
    # comma (1), or whitespace holding a line break or the end of the text (2)
    gap = np.full(numbers.size, 2, dtype=np.int8)
    gap[:-1] = joined
    gap[:-1][_gaps_holding(np.flatnonzero(cls == _BREAK), starts)[1:-1]] = 2
    width = int(np.argmax(gap == 2)) + 1  # the numbers on each line
    if width < 3 or numbers.size % width:
        return None
    pattern = np.array([0, 0] + [1] * (width - 3) + [2], dtype=np.int8)
    if not np.all(gap.reshape(-1, width) == pattern):
        return None
    table = numbers.reshape(-1, width)
    ids, parent, values = table[:, 0], table[:, 1], table[:, 2:]
    if not np.array_equal(ids, np.arange(ids.size)):
        order = np.argsort(ids)
        if not np.array_equal(ids[order], np.arange(ids.size)):
            return None
        parent, values = parent[order], values[order]
    try:
        return ObservedTree(TreeTopology(parent), values)
    except ValidationError:
        return None


def _walk_tree(text: str) -> ObservedTree:
    """The per-token parse, which raises at the first fault: per line in
    file order, then the checks on the whole vertex set; a file that the
    byte reader reads gives the same tree here."""
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
    vertices = map(str, range(tree.num_vertices))
    parents = map(str, tree.topology.parent.tolist())
    values = map(",".join, zip(*_columns(tree.values)))
    return "\n".join(map("\t".join, zip(vertices, parents, values))) + "\n"


_KIND_CHUNK = 4096


def detect_data_kind(text: str) -> str:
    """'tree' when the second field of some line is a negative integer, as a
    root's parent id -1 is and no sequence value can be, and either the
    first field reads as vertex 0, as on every tree's root line, or every
    non-blank line before it has the three fields of a tree line; else
    'chain'.  A sequence file with a negative value below a line of another
    width is thus left to the sequence parser, which reports that value,
    unless that value follows a 0 and so reads as a root line.

    A text without '-' holds no negative integer.  Any other is walked line
    by line up to the first line that decides, in pieces that end at a
    '\n' and double in length, so that a tree's root line on top is found
    without splitting the whole text."""
    if "-" not in text:
        return "chain"
    three_fields = True
    start, size = 0, _KIND_CHUNK
    while start < len(text):
        end = text.find("\n", start + size) + 1 or len(text)
        for raw in text[start:end].splitlines():
            fields = raw.split(None, 3)
            try:
                if (len(fields) > 1 and int(fields[1]) < 0
                        and (three_fields or int(fields[0]) == 0)):
                    return "tree"
            except ValueError:
                pass
            three_fields = three_fields and len(fields) in (0, 3)
        start, size = end, 2 * size
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


# A profile table is written block by block, each block of rows as one
# (width, rows) uint8 matrix whose byte rows are the slots of its columns,
# NUL where a cell is shorter than its column's slots, then a tab or a line
# break.  Its transpose is the block's text with the NULs still in it;
# bytes.translate drops them.  Every step runs on a contiguous row of cells,
# and slots that no cell of a column fills are left out of the matrix.
#
# A float column takes the slots of _float_slots: '%.12g' from the 12-digit
# integer n nearest to y = |x| * 10**(11 - k), k the decimal exponent.  A
# cell whose n is not certain goes to Python's '%.12g' and is spliced in:
# when y lies within _ROUNDING_MARGIN of a tie, where its rounding error (at
# most 2.3e-4: two roundings of a value below 1e12) could put n on the
# wrong side; when y is outside [1e11, 1e12) after k's one correction; when
# |k| > 280, beyond the table of powers; and when x is not finite.  An
# integer column takes a sign slot and one slot per digit of its longest
# number.

# Float cells per block, which sets the writer's memory: a block's slots and
# temporaries take about 80 bytes per float cell.  At 4,096 cells the traced
# peak of writing each benchmark workload's entropy table is at most 0.03 MB
# above the former per-block '%' writer's; at 6,144 it was up to 0.14 MB
# above, with no time gained beyond the runs' spread.
PROFILE_BLOCK_CELLS = 4096

_ROUNDING_MARGIN = 1e-3
_MAX_EXPONENT = 280
# 10**(11 - k) correctly rounded, at index _MAX_EXPONENT - k, |k| <= 280
_POW10 = np.array([float(f"1e{11 - k}")
                   for k in range(_MAX_EXPONENT, -_MAX_EXPONENT - 1, -1)])
# the characters of the tens and of the ones digit of each number 0-99
_TENS = np.frombuffer(b"".join(b"%d" % d * 10 for d in range(10)), dtype=np.uint8)
_ONES = np.frombuffer(b"0123456789" * 10, dtype=np.uint8)
_TAB, _NEWLINE, _MINUS_SIGN, _POINT, _ZERO = (np.uint8(ord(c)) for c in "\t\n-.0")


def _exponent_tables():
    """Per decimal exponent k from -280 to 281 (at index k + 280): the
    five '0.000' slots before a fixed-form number below 1 and the five
    'e+ddd' slots after an exponent-form number, as one (10, exponents)
    table; and the digit the point follows, -1 when it is among the
    '0.000' slots."""
    k = np.arange(-_MAX_EXPONENT, _MAX_EXPONENT + 2)
    fixed = (k >= -4) & (k < 12)
    small = fixed & (k < 0)
    e = np.abs(k)
    table = np.array([
        small * ord("0"), small * ord("."),
        *[small * (k <= -2 - i) * ord("0") for i in range(3)],
        ~fixed * ord("e"), ~fixed * np.where(k < 0, ord("-"), ord("+")),
        ~fixed * (e >= 100) * (48 + e // 100),
        ~fixed * (48 + e // 10 % 10), ~fixed * (48 + e % 10)], dtype=np.uint8)
    return table, np.where(fixed, np.maximum(k, -1), 0).astype(np.int8)


_AROUND, _POINT_DIGIT = _exponent_tables()
# _float_slots' rows: sign, the 10 slots of _AROUND, the tens digits of
# the six digit pairs, then their ones digits, then the point after digit
# 0-10.  In print order: sign, '0.000', each digit with its point, 'e+ddd'.
_FLOAT_SLOTS = 34
_DIGIT_ROWS = [11 + i // 2 + 6 * (i % 2) for i in range(12)]  # of digit i
_PRINT_ORDER = np.array([0, *range(1, 6),
                         *[r for i in range(11) for r in (_DIGIT_ROWS[i], 23 + i)],
                         _DIGIT_ROWS[11], *range(6, 11)])
# the digit each digit row holds
_DIGIT_INDEX = np.array([*range(0, 12, 2), *range(1, 12, 2)], dtype=np.int8)[:, None]
_POINT_INDEX = np.arange(11, dtype=np.int8)[:, None]


def _float_slots(x):
    """'%.12g' of each float64 of x, as (34, cells) uint8 slots whose
    rows _PRINT_ORDER puts in print order."""
    y = np.abs(x)
    nonfinite = ~np.isfinite(y)
    zero = y == 0
    y[zero | nonfinite] = 1.0  # read as 1, then printed '0' or spliced
    k = np.log10(y)
    k = np.floor(k, out=k).astype(np.int16)
    y *= _POW10.take(np.int16(_MAX_EXPONENT) - k, mode="clip")
    # log10 may land one decade off next to a power of ten
    off = (y < 1e11) | (y >= 1e12)
    if off.any():
        off = np.flatnonzero(off)
        k[off] += np.where(y[off] < 1e11, np.int16(-1), np.int16(1))
        y[off] = np.abs(x[off]) * _POW10.take(np.int16(_MAX_EXPONENT) - k[off],
                                              mode="clip")
    fallback = (y < 1e11) | (y >= 1e12)
    fallback |= np.abs(k) > _MAX_EXPONENT
    fallback |= nonfinite
    r = np.rint(y)
    y -= r
    fallback |= np.abs(y, out=y) >= 0.5 - _ROUNDING_MARGIN
    del y  # each temporary goes once used: they set the block's peak memory
    carry = r >= 1e12  # rounded up into the next decade
    if carry.any():
        k += carry
        r[carry] = 1e11
    # the six digit pairs of each n, from its two halves below 10**6: the
    # quotient of integers below 2**40 by 10**6 is exact after floor
    high = np.floor(np.divide(r, 1e6))
    halves = high.astype(np.int32), (r - high * 1e6).astype(np.int32)
    del r, high

    slots = np.empty((_FLOAT_SLOTS, x.size), dtype=np.uint8)
    np.multiply(np.signbit(x), _MINUS_SIGN, out=slots[0])
    k += np.int16(_MAX_EXPONENT)  # the exponent tables' index
    _AROUND.take(k, axis=1, mode="clip", out=slots[1:11])
    point = _POINT_DIGIT.take(k, mode="clip")
    del k
    digits = slots[11:23]
    for h, half in enumerate(halves):
        top = half // np.int32(10000)
        rest = half - top * np.int32(10000)
        mid = rest // np.int32(100)
        for p, pair in enumerate((top, mid, rest - mid * np.int32(100))):
            _TENS.take(pair, out=digits[3 * h + p])
            _ONES.take(pair, out=digits[6 + 3 * h + p])
    del halves, top, rest, mid, pair
    digits[0] -= zero  # 1e11 read for a zero: '1' -> '0'
    # the last non-zero digit; the digits up to it and up to the point print
    flags = np.not_equal(digits, _ZERO)
    weighted = np.multiply(flags, _DIGIT_INDEX, out=flags.view(np.int8))
    last = weighted.max(axis=0)
    digits *= np.greater_equal(np.maximum(point, last), _DIGIT_INDEX, out=flags)
    point = np.where(last > point, point, np.int8(-1))  # -1: no point here
    np.multiply(np.equal(point, _POINT_INDEX, out=flags[:11]), _POINT,
                out=slots[23:34])

    cells = np.flatnonzero(fallback)
    if cells.size:
        slots[_PRINT_ORDER[:, None], cells] = _per_cell_slots(x[cells])
    return slots


def _per_cell_slots(values):
    """Python's '%.12g' of each value, as (34, values) uint8 slots in
    print order: the cells that _float_slots leaves to it."""
    text = b"".join(b"%-34s" % (b"%.12g" % v) for v in values.tolist())
    cells = np.frombuffer(text.replace(b" ", b"\0"), dtype=np.uint8)
    return cells.reshape(-1, _FLOAT_SLOTS).T


def _int_slots(col):
    """'%d' of an integer or bool column, as (slots, rows) uint8: a sign
    slot when the column holds a negative number, then one per digit of
    its largest magnitude."""
    if col.dtype.kind == "b":
        return (col.astype(np.uint8) + _ZERO)[None]
    if col.dtype.kind == "u":
        mag, negative = col.astype(np.uint64), None
    else:
        col = col.astype(np.int64, copy=False)
        negative = col < 0
        # the two's complement of -2**63 is its magnitude 2**63
        mag = col.view(np.uint64)
        if negative.any():
            mag = np.where(negative, np.uint64(0) - mag, mag)
        else:
            negative = None
    top = int(mag.max(initial=0))
    width = len(str(top))
    signed = negative is not None
    slots = np.empty((signed + width, col.size), dtype=np.uint8)
    if signed:
        np.multiply(negative, _MINUS_SIGN, out=slots[0])
    digits = slots[signed:]
    # two digits per step, in the narrowest type that holds every magnitude
    q = mag.astype(next((t for t in (np.int32, np.int64) if top <= np.iinfo(t).max),
                        np.uint64))
    hundred = q.dtype.type(100)
    for i in range(width, 0, -2):
        rest = q // hundred
        pair = q - rest * hundred
        _ONES.take(pair, out=digits[i - 1])
        if i > 1:
            _TENS.take(pair, out=digits[i - 2])
        q = rest
    # leading zeros are blank: digit i prints when mag >= 10**(width - 1 - i)
    powers = np.array([10 ** i for i in range(width - 1, 0, -1)], dtype=np.uint64)
    digits[:-1] *= mag >= powers[:, None]
    return slots


def _format_rows(parts):
    """The rows of one block as text, from each column's part: the values
    of a float column, the (slots, rows) of an integer column."""
    rows = parts[0].shape[-1]
    floats = [c for c, part in enumerate(parts) if part.ndim == 1]
    if floats:
        float_slots = _float_slots(np.concatenate([parts[c] for c in floats]))
        filled = float_slots.reshape(_FLOAT_SLOTS, len(floats), rows).any(axis=2)
        parts = list(parts)
        for f, c in enumerate(floats):
            used = _PRINT_ORDER[filled[_PRINT_ORDER, f]]
            parts[c] = float_slots[:, f * rows:(f + 1) * rows].take(used, axis=0)
        del float_slots
    block = np.empty((sum(len(part) + 1 for part in parts), rows), dtype=np.uint8)
    at = 0
    for part in parts:
        block[at:at + len(part)] = part
        at += len(part)
        block[at] = _TAB
        at += 1
    block[-1] = _NEWLINE
    del parts
    text = block.T.tobytes()
    del block
    return text.translate(None, b"\0").decode("ascii")


def write_profile(table: ProfileTable, log_base: str = "e") -> str:
    """Render a table as TSV; entropies divided by ln(2) for base-2 output.

    Integer columns print as integers (``%d``) and bool columns as 1/0,
    every other column as ``%.12g``: correctly rounded to 12 significant
    digits, which is what ``format(x, '.12g')`` gives too.  The header is
    joined apart from the rows, so a ``%`` in a column name is printed as
    it is.
    """
    if log_base not in ("e", "2"):
        raise ValueError(f"log_base must be 'e' or '2', got {log_base!r}")
    scale = 1.0 / math.log(2.0) if log_base == "2" else 1.0
    columns = []
    for name, col in table.columns:
        if name in table.entropy_columns and scale != 1.0:
            col = col.astype(float) * scale
        if col.dtype.kind not in "iub":
            col = np.asarray(col, dtype=np.float64)
        columns.append(col)
    text = "\t".join(name for name, _ in table.columns) + "\n"
    # rows per block, and per chunk of rows whose integer cells are
    # formatted at once
    num_floats = sum(col.dtype.kind == "f" for col in columns)
    step = max(1, PROFILE_BLOCK_CELLS // max(1, num_floats))
    chunk = step * max(1, PROFILE_BLOCK_CELLS // step)
    for lo in range(0, table.num_rows, chunk):
        parts = [col[lo:lo + chunk] if col.dtype.kind == "f"
                 else _int_slots(col[lo:lo + chunk]) for col in columns]
        # appended in place, so that the blocks are freed one by one
        # instead of all being held until a join copies them
        for at in range(0, parts[0].shape[-1], step):
            text += _format_rows([part[..., at:at + step] for part in parts])
    return text


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
