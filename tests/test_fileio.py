"""File formats: round trips, malformed inputs, TSV rendering."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hmmentropy import (Categorical, DataFormatError, HmmModel,
                        ObservedSequence, ObservedTree, Poisson, ProfileTable,
                        TreeTopology, ValidationError,
                        fileio, parse_model, parse_sequence, parse_tree,
                        read_profile, serialize_model, serialize_sequence,
                        serialize_tree, simulate_chain, simulate_tree,
                        write_profile)
from hmmentropy.fileio import PROFILE_BLOCK_CELLS, detect_data_kind

from conftest import M1, TOPOLOGY_KINDS, random_model, random_topology, stack

EARTHQUAKE_MODEL = {
    "num_states": 3,
    "initial": [1 / 3, 1 / 3, 1 / 3],
    "transition": [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
    "emissions": [[{"type": "poisson", "rate": 13.1}],
                  [{"type": "poisson", "rate": 19.7}],
                  [{"type": "poisson", "rate": 29.7}]],
}


class TestModelFormat:
    def test_poisson_rates_parse(self):
        model = parse_model(json.dumps(EARTHQUAKE_MODEL))
        assert model.num_states == 3
        assert model.emissions[2][0] == Poisson(29.7)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            model = random_model(np.random.default_rng(seed), 3,
                                 num_variables=2, zeros=True, poisson=True)
            again = parse_model(serialize_model(model))
            assert again == model
        assert parse_model(serialize_model(M1)) == M1

    def test_row_sum_error_names_row(self):
        doc = {
            "num_states": 2, "initial": [0.5, 0.5],
            "transition": [[0.5, 0.6], [0.5, 0.5]],
            "emissions": [[{"type": "categorical", "probs": [1.0]}],
                          [{"type": "categorical", "probs": [1.0]}]],
        }
        with pytest.raises(ValidationError, match="row 0"):
            parse_model(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(DataFormatError, match="JSON"):
            parse_model("{not json")

    def test_missing_field(self):
        with pytest.raises(DataFormatError, match="transition"):
            parse_model(json.dumps({"num_states": 1, "initial": [1.0],
                                    "emissions": [[]]}))

    def test_unknown_emission_type(self):
        doc = dict(EARTHQUAKE_MODEL)
        doc["emissions"] = [[{"type": "gaussian", "mean": 0}]] * 3
        with pytest.raises(DataFormatError, match="gaussian"):
            parse_model(json.dumps(doc))


class TestSequenceFormat:
    def test_univariate(self):
        data = parse_sequence("0 1 1 0\n")
        assert data.num_sequences == 1
        assert data.length == 4 and data.num_variables == 1

    def test_bivariate(self):
        data = parse_sequence("0,1;1,0\n")
        assert data.length == 2 and data.num_variables == 2
        np.testing.assert_array_equal(data.values, [[0, 1], [1, 0]])

    def test_bad_token_position(self):
        with pytest.raises(DataFormatError, match="token 2"):
            parse_sequence("0 x 1\n")

    def test_ragged_variables(self):
        with pytest.raises(DataFormatError, match="ragged"):
            parse_sequence("0,1;1\n")

    def test_blank_steps(self):
        with pytest.raises(DataFormatError, match="^line 2: no time steps$"):
            parse_sequence("0 1\n ; \n")

    def test_multiple_sequences(self):
        data = parse_sequence("0 1\n1 0 1\n\n")
        assert data.offsets.tolist() == [0, 2, 5]
        assert [s.length for s in data.sequences()] == [2, 3]
        np.testing.assert_array_equal(data.values[:, 0], [0, 1, 1, 0, 1])

    def test_one_dataset_per_file(self, monkeypatch):
        """A file of 10^4 lines is one validated object, not one per line."""
        built = []
        init = ObservedSequence.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ObservedSequence, "__init__", counted)
        data = parse_sequence("".join(f"{v % 7}\n" for v in range(10 ** 4)))
        assert len(built) == 1
        assert data.num_sequences == 10 ** 4
        np.testing.assert_array_equal(data.offsets, np.arange(10 ** 4 + 1))

    def test_round_trip(self):
        text = "0 1 1 0\n1 1\n"
        assert serialize_sequence(parse_sequence(text)) == text
        multi = "0,1;1,0;2,2\n"
        assert serialize_sequence(parse_sequence(multi)) == multi

    def test_empty(self):
        with pytest.raises(DataFormatError, match="no sequences"):
            parse_sequence("\n\n")


class TestTreeFormat:
    def test_star(self):
        tree = parse_tree("0\t-1\t0\n1\t0\t0\n2\t0\t0\n")
        assert tree.num_vertices == 3
        np.testing.assert_array_equal(tree.topology.parent, [-1, 0, 0])

    def test_space_separated(self):
        tree = parse_tree("0 -1 0\n1 0 1\n")
        np.testing.assert_array_equal(tree.values[:, 0], [0, 1])

    def test_multivariate(self):
        tree = parse_tree("0 -1 0,2\n1 0 1,3\n")
        assert tree.num_variables == 2

    def test_multiple_roots(self):
        with pytest.raises(DataFormatError, match="multiple roots"):
            parse_tree("0 -1 0\n1 -1 0\n")

    def test_cycle(self):
        with pytest.raises(DataFormatError, match="cycle"):
            parse_tree("1 2 0\n2 1 0\n")

    def test_missing_id(self):
        with pytest.raises(DataFormatError, match="missing"):
            parse_tree("0 -1 0\n2 0 0\n")

    def test_round_trip(self):
        text = "0\t-1\t0,1\n1\t0\t1,0\n2\t0\t2,2\n3\t1\t0,0\n"
        tree = parse_tree(text)
        assert serialize_tree(tree) == text

    def test_detection(self):
        assert detect_data_kind("0 -1 0\n1 0 0\n") == "tree"
        assert detect_data_kind("0 1 1 0\n") == "chain"
        assert detect_data_kind("0,1;1,0\n") == "chain"
        # malformed trees are still trees, so the tree parser reports them
        for text in ("0 -1 0\n0 0 1\n", "0 -1 0\n1 -1 1\n",
                     "0 -1 0\n2 0 1\n", "0 -1 0\n1 0 x\n"):
            assert detect_data_kind(text) == "tree"


def reference_detect_data_kind(text):
    """detect_data_kind as one walk over every line of the text: the rule
    it keeps."""
    three_fields = True
    for raw in text.splitlines():
        fields = raw.split(None, 3)
        try:
            if (len(fields) > 1 and int(fields[1]) < 0
                    and (three_fields or int(fields[0]) == 0)):
                return "tree"
        except ValueError:
            pass
        three_fields = three_fields and len(fields) in (0, 3)
    return "chain"


# tokens of tree and sequence lines, and every line break and whitespace
# character that str.splitlines and str.split know
KIND_TOKENS = ["0", "1", "7", "00", "-", "-1", "-0", "+3", "1_0", "x", ",", ";",
               "0,1", " ", "\t", "\x1f", "\xa0", "\u2003", "\n", "\r", "\r\n",
               "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@st.composite
def kind_texts(draw):
    """Short texts of tokens, some below a run of tree or sequence lines
    long enough that the first deciding line lies pieces away."""
    tail = "".join(draw(st.lists(st.sampled_from(KIND_TOKENS), max_size=40)))
    filler = draw(st.sampled_from(["", "0 1 2\n", "3 4\n", "5 -6 7\r\n"]))
    return filler * draw(st.sampled_from([0, 1, 700, 3000])) + tail


class TestDetectDataKind:
    @given(text=kind_texts())
    @settings(deadline=None)
    def test_same_kind_as_the_line_walk(self, text):
        assert detect_data_kind(text) == reference_detect_data_kind(text)

    @pytest.mark.parametrize("text, kind", [
        ("1 0\n0 -1 0\n", "tree"),        # a root line below a line of two
        ("1 2\n3 -4\n", "chain"),          # a negative value, not after a 0
        ("0 1\n5 6 7 8\n0 -2\n", "tree"),  # "0 <negative>" reads as a root
        ("0 1 2\x85" * 5000 + "1 -1 0\n", "tree"),  # pieces end at any break
        ("0 1 2 3\n" * 5000 + "1 -1 0\n", "chain"),
        ("1 2 3\n" * 5000, "chain"),
    ])
    def test_rule(self, text, kind):
        assert detect_data_kind(text) == reference_detect_data_kind(text) == kind


class TestWriteProfile:
    def test_single_row(self):
        table = ProfileTable()
        table.add("index", np.array([0]))
        table.add("value", np.array([0.5]))
        assert write_profile(table) == "index\tvalue\n0\t0.5\n"

    def test_base2_converts_entropy_columns_only(self):
        table = ProfileTable()
        table.add("index", np.array([0]))
        table.add("h", np.array([math.log(2.0)]), entropy=True)
        table.add("p", np.array([math.log(2.0)]))
        text = write_profile(table, log_base="2")
        rows = text.splitlines()[1].split("\t")
        assert float(rows[1]) == pytest.approx(1.0, rel=1e-12)
        assert float(rows[2]) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_twelve_significant_digits(self):
        table = ProfileTable()
        table.add("x", np.array([1.0 / 3.0]))
        assert write_profile(table) == "x\n0.333333333333\n"

    def test_deterministic(self):
        table = ProfileTable()
        table.add("vertex", np.arange(3))
        table.add("h", np.array([0.1, 0.2, 0.3]), entropy=True)
        assert write_profile(table, "2") == write_profile(table, "2")

    def test_length_mismatch(self):
        table = ProfileTable()
        table.add("a", np.array([1, 2]))
        with pytest.raises(ValueError, match="length"):
            table.add("b", np.array([1]))

    def test_round_trip(self):
        table = ProfileTable()
        table.add("index", np.arange(4))
        table.add("h", np.array([0.1, 1 / 3, 0.0, 2.5e-13]), entropy=True)
        table.add("p", np.array([0.25, 0.5, 1.0, 0.0]))
        text = write_profile(table)
        again = read_profile(text)
        assert write_profile(again) == text
        assert [name for name, _ in again.columns] == ["index", "h", "p"]
        assert again.columns[0][1].dtype.kind == "i"

    def test_read_rejects_ragged(self):
        with pytest.raises(DataFormatError, match="cells"):
            read_profile("a\tb\n1\n")


def reference_write_profile(table, log_base="e"):
    """write_profile as a per-cell loop: its bytes must not change."""
    scale = 1.0 / math.log(2.0) if log_base == "2" else 1.0
    cells = []
    for name, col in table.columns:
        if name in table.entropy_columns and scale != 1.0:
            col = col.astype(float) * scale
        if col.dtype == np.float16:
            # a memoryview cannot iterate half floats, so this writer raised
            # NotImplementedError on them; float32 holds each one exactly
            col = col.astype(np.float32)
        fmt = str if col.dtype.kind in "iu" else "{:.12g}".format
        cells.append(map(fmt, memoryview(col)))
    header = "\t".join(name for name, _ in table.columns)
    return "\n".join([header, *map("\t".join, zip(*cells))]) + "\n"


def first_difference(got, want):
    """None if the texts are equal, else the first line where they differ
    (a short message where a diff of the whole texts would take minutes)."""
    if got == want:
        return None
    got_lines, want_lines = got.split("\n"), want.split("\n")
    for i, (a, b) in enumerate(zip(got_lines, want_lines)):
        if a != b:
            return i, a, b
    return "line counts", len(got_lines), len(want_lines)


PROFILE_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16,
                  np.uint32, np.uint64, np.bool_, np.float16, np.float32,
                  np.float64)
# nan, infinities, signed zeros, the smallest subnormal and the largest
# double, and 13-digit values halfway between two 12-digit ones
SPECIAL_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                  1.7976931348623157e308, 1234567890125.0, -1234567890125.0,
                  9999999999995.0, 0.5, 1e-5, 1e16)


def ulps_away(values, steps):
    """Each positive double moved by each number of ulps."""
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    return (bits[:, None] + np.asarray(steps)).view(np.float64).ravel()


# The float64 cells where a writer that rounds in numpy could go wrong:
# exact powers of ten; the edges of the fixed form (1e-5, 1e-4, 1e11,
# 1e12), 1e16 and the edges of the table of powers (1e-280, 1e281), each
# +-1 ulp; values that round up into the next decade; subnormals and the
# smallest normal; and 13-digit values next to a tie whose product with
# the rounded power of ten rounds to the wrong 12th digit.
EDGE_FLOATS = (
    tuple(float(f"1e{i}") for i in range(-300, 301)),
    tuple(ulps_away([1e-5, 1e-4, 1e11, 1e12, 1e16, 1e-281, 1e-280, 1e280, 1e281],
                    [-1, 0, 1])),
    (9.99999999999951e-05, 999999999999.5, 9.9999999999995, 99999999999.95,
     9.9999999999995e-301, 9.9999999999995e280),
    (5e-324, 1e-323, 2.5e-320, 1e-310, 2.2250738585072009e-308,
     2.2250738585072014e-308),
    (5.075660286985e-45, 5.337195130615e-45, 2.718823429815e-14,
     5.249135055615e-45, 9.490133817725e-45, 5.186186060035e-45,
     1.284737300845e-45, 2.716061946765e+45, 4.896740173815e-45,
     5.422958504245e-14, 5.108546452525e-45, 2.672153766325e-14),
)


def near_ties(rng, size):
    """Values 1-4 ulps either side of n + 0.5 times a power of ten, n a
    12-digit integer: 13-digit values next to a tie of the 12th digit."""
    n = rng.integers(10 ** 11, 10 ** 12, size=size) + 0.5
    scale = np.array([float(f"1e{e}") for e in rng.integers(-30, 30, size=size)])
    return ulps_away(n * scale, [-4, -3, -2, -1, 1, 2, 3, 4])


B = PROFILE_BLOCK_CELLS
# a table with one float column is formatted B rows at a time, one with
# four B // 4 rows at a time
PROFILE_ROW_COUNTS = (0, 1, 2, B // 4 - 1, B // 4, B // 4 + 1, B - 1, B, B + 1,
                      3 * B + 17)


def profile_column(rng, dtype, rows):
    """Values of every magnitude of the dtype, with its extremes (and, for
    floats, the special values) at random rows."""
    if dtype == np.bool_:
        col = rng.random(rows) < 0.5
    elif np.issubdtype(dtype, np.integer):
        info = np.iinfo(dtype)
        col = rng.integers(info.min, info.max, size=rows, dtype=dtype,
                           endpoint=True)
        specials = np.array([info.min, info.max, 0], dtype=dtype)
    else:
        bits = np.dtype(f"u{np.dtype(dtype).itemsize}")
        col = rng.integers(0, np.iinfo(bits).max, size=rows, dtype=bits,
                           endpoint=True).view(dtype)
        info = np.finfo(dtype)
        specials = [info.smallest_subnormal, info.max, -info.max]
        if dtype == np.float64:
            ties = rng.integers(10 ** 11, 10 ** 12, size=8) * 10 + 5
            specials += [*SPECIAL_FLOATS, *ties.astype(float)]
            edges = [rng.choice(group) for group in EDGE_FLOATS]
            edges += list(near_ties(rng, 1))
            specials += edges + [-e for e in edges]
        else:
            specials += SPECIAL_FLOATS[:5]
        specials = np.array(specials, dtype=dtype)
    if dtype != np.bool_ and rows:
        at = rng.random(rows) < 0.2
        col[at] = rng.choice(specials, size=int(at.sum()))
    return col


@st.composite
def profile_tables(draw):
    rows = draw(st.sampled_from(PROFILE_ROW_COUNTS) | st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    table = ProfileTable()
    for c in range(draw(st.integers(1, 6))):
        dtype = draw(st.sampled_from(PROFILE_DTYPES))
        # the CLI's smoothed columns are strided views of a 2-D table
        strided = draw(st.booleans())
        col = profile_column(rng, dtype, 2 * rows if strided else rows)
        name = draw(st.sampled_from(["index", "h", "100%", "%d", "%s%%",
                                     "%(x)s", f"c{c}"]))
        table.add(name, col[::2] if strided else col, entropy=draw(st.booleans()))
    return table


class TestWriteProfileBytes:
    @given(table=profile_tables(), log_base=st.sampled_from(["e", "2"]))
    @settings(deadline=None)
    def test_same_bytes_as_the_per_cell_writer(self, table, log_base):
        # both writers scale alike: the largest double times 1 / ln 2
        # overflows to inf, and a signalling NaN of the random bit patterns
        # raises the invalid flag
        with np.errstate(over="ignore", invalid="ignore"):
            assert first_difference(write_profile(table, log_base),
                                    reference_write_profile(table, log_base)) is None

    @pytest.mark.parametrize("rows", PROFILE_ROW_COUNTS)
    def test_every_row_count(self, rows):
        rng = np.random.default_rng(rows)
        table = ProfileTable()
        table.add("%d", np.arange(rows))
        table.add("h", profile_column(rng, np.float64, rows), entropy=True)
        table.add("m", profile_column(rng, np.int64, rows))
        for log_base in ("e", "2"):
            with np.errstate(over="ignore", invalid="ignore"):
                text = write_profile(table, log_base)
                assert first_difference(
                    text, reference_write_profile(table, log_base)) is None
            assert text.count("\n") == rows + 1

    def test_no_columns(self):
        assert write_profile(ProfileTable()) == reference_write_profile(
            ProfileTable()) == "\n"


def same_bytes(table):
    for log_base in ("e", "2"):
        with np.errstate(over="ignore"):
            assert first_difference(write_profile(table, log_base),
                                    reference_write_profile(table, log_base)) is None


class TestWriteProfileEdges:
    """The float cells where rounding in numpy could go wrong, and the
    cells the writer leaves to Python's '%.12g'."""

    @pytest.fixture
    def per_cell(self, monkeypatch):
        """The values that write_profile formats with '%.12g', in a list."""
        seen = []

        def spy(values):
            seen.extend(values.tolist())
            return per_cell_slots(values)

        per_cell_slots = fileio._per_cell_slots
        monkeypatch.setattr(fileio, "_per_cell_slots", spy)
        return seen

    def test_edge_floats(self):
        rng = np.random.default_rng(21)
        values = np.concatenate([*map(np.array, EDGE_FLOATS), near_ties(rng, 500)])
        table = ProfileTable()
        table.add("h", np.concatenate([values, -values]), entropy=True)
        same_bytes(table)

    def test_every_cell_per_cell(self, per_cell):
        # not finite, beyond 1e280 either way, or an exact tie of the 12th
        # digit
        values = np.array([math.nan, math.inf, -math.inf, 1e281, -1e300, 1e-281,
                           5e-324, 1.7976931348623157e308, 1234567890125.0,
                           123456789012.5, 12345678901.25, -1234567890.125])
        table = ProfileTable()
        table.add("x", np.tile(values, 40))
        same_bytes(table)
        assert len(per_cell) == 2 * values.size * 40

    def test_no_cell_per_cell(self, per_cell):
        # multiples of 2**-10 (at most ten decimals) and integers below 1e12
        # round exactly, zeros and -0.0 included
        rng = np.random.default_rng(22)
        table = ProfileTable()
        table.add("i", np.arange(3000))
        table.add("p", rng.integers(0, 2 ** 10, 3000) / 2.0 ** 10)
        table.add("n", -rng.integers(0, 10 ** 11, 3000).astype(float))
        table.add("z", np.where(rng.random(3000) < 0.5, 0.0, -0.0))
        same_bytes(table)
        assert per_cell == []

    def test_powers_of_ten_mostly_in_numpy(self, per_cell):
        # next to a power of ten log10 lands a decade off on about a third
        # of these cells; corrected once, 5 % of them (those whose scaled
        # value rounds to exactly 1e12) are left to '%.12g'
        powers = np.array([float(f"1e{i}") for i in range(-280, 281)])
        table = ProfileTable()
        table.add("x", ulps_away(powers, [-1, 0, 1]))
        same_bytes(table)
        assert len(per_cell) < 0.1 * 2 * table.num_rows

    def test_mostly_zero_column(self):
        # a viterbi-profiles column: exact zeros but for a few cells, which
        # run from 1 down to the smallest normal double
        rng = np.random.default_rng(23)
        col = np.zeros(5000)
        at = rng.random(5000) < 0.05
        col[at] = 10.0 ** -rng.uniform(0, 307, int(at.sum()))
        table = ProfileTable()
        table.add("vertex", np.arange(5000))
        table.add("parent", np.arange(-1, 4999))
        table.add("vprofile_0", col)
        table.add("vprofile_1", col[::-1].copy())
        same_bytes(table)


# ---------------------------------------------------------------------------
# the byte reader and the per-token walk that reports faults
# ---------------------------------------------------------------------------

LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028")


def without_walk(monkeypatch):
    """Make every per-token conversion fail, so that only a text the byte
    reader accepts on its own parses."""
    def refuse(token, where):
        raise AssertionError(f"per-token walk ran: {where}")
    monkeypatch.setattr(fileio, "_parse_int", refuse)


def assert_same_array(got, want):
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)


def reference_serialize_tree(tree):
    """serialize_tree as a per-vertex loop: its bytes must not change."""
    lines = []
    for u in range(tree.num_vertices):
        vals = ",".join(str(int(v)) for v in tree.values[u])
        lines.append(f"{u}\t{int(tree.topology.parent[u])}\t{vals}")
    return "\n".join(lines) + "\n"


def reference_serialize_sequence(data):
    """serialize_sequence as a per-value loop: its bytes must not change."""
    lines = []
    for seq in data.sequences():
        if seq.num_variables == 1:
            lines.append(" ".join(str(int(v)) for v in seq.values[:, 0]))
        else:
            lines.append(";".join(",".join(str(int(v)) for v in row)
                                  for row in seq.values))
    return "\n".join(lines) + "\n"


def sample_trees():
    """A simulated tree of every topology kind, univariate and bivariate."""
    for i, kind in enumerate(TOPOLOGY_KINDS):
        for num_variables in (1, 2):
            rng = np.random.default_rng([i, num_variables])
            model = random_model(rng, 3, num_variables=num_variables,
                                 poisson=num_variables == 2)
            topo = random_topology(rng, 40, kind=kind)
            yield rng, simulate_tree(model, topo, int(rng.integers(2 ** 31)))[1]


def sample_datasets():
    """Simulated datasets of univariate and bivariate sequences, some of
    length 1."""
    for num_variables in (1, 2):
        rng = np.random.default_rng(num_variables)
        model = random_model(rng, 3, num_variables=num_variables,
                             poisson=True)
        yield rng, stack([simulate_chain(model, int(t), seed=int(s))[1]
                          for t, s in zip(rng.integers(1, 30, 12), range(12))])


@st.composite
def stacked_datasets(draw):
    """1-8 sequences of 1-6 rows of 1-3 variables, values anywhere in the
    non-negative int64 range."""
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=8))
    values = draw(arrays(np.int64, (sum(lengths), draw(st.integers(1, 3))),
                         elements=st.integers(0, 2 ** 63 - 1)))
    return ObservedSequence(values, np.cumsum([0] + lengths))


def tree_variants(rng, text):
    """The same tree written with shuffled lines, blank lines, every line
    break and mixed tabs and spaces."""
    lines = text.splitlines()
    for brk in LINE_BREAKS:
        order = rng.permutation(len(lines))
        spaced = [" \t"[int(rng.integers(2))].join(lines[u].split("\t"))
                  for u in order]
        yield brk.join(spaced) + brk
        yield brk + (brk + "  " + brk).join(
            "\t " + line.replace("\t", "  \t") + " " for line in spaced)


def assert_same_tree(got, want):
    assert_same_array(got.topology.parent, want.topology.parent)
    assert_same_array(got.values, want.values)


def assert_same_dataset(got, want):
    assert_same_array(got.values, want.values)
    assert_same_array(got.offsets, want.offsets)


class TestByteReader:
    """ASCII files parse on the byte reader alone; the non-ASCII line
    breaks and the tokens only int reads are left to the walk by design,
    and parse to the walk's values."""

    def test_trees_of_every_kind(self, monkeypatch):
        cases = []
        for rng, tree in sample_trees():
            for text in tree_variants(rng, serialize_tree(tree)):
                cases.append((text, fileio._walk_tree(text)))
                assert cases[-1][1] == tree
        for text, want in cases:
            if not text.isascii():
                assert_same_tree(parse_tree(text), want)
        without_walk(monkeypatch)
        for text, want in cases:
            if text.isascii():
                assert_same_tree(parse_tree(text), want)

    def test_sequence_files(self, monkeypatch):
        cases = []
        for rng, dataset in sample_datasets():
            text = serialize_sequence(dataset)
            lines = text.splitlines()
            if dataset.num_variables == 2:
                # blank steps and whitespace around the tokens
                lines = [" ; " + line.replace(",", " ,\t").replace(";", " ;;") + ";"
                         for line in lines]
            for brk in LINE_BREAKS:
                cases.append(brk.join(lines) + brk)
                cases.append(brk + (brk + " \t" + brk).join(lines))
        # one value per step, mixed with whitespace-separated lines
        cases += ["1;2;3\n4 5\n", " 1 ; ;2\r\n\n3\x0b4 5 6\n", "7;\n"]
        expected = [fileio._walk_sequences(text) for text in cases]
        for text, want in zip(cases, expected):
            if not text.isascii():
                assert_same_dataset(parse_sequence(text), want)
        without_walk(monkeypatch)
        for text, want in zip(cases, expected):
            if text.isascii():
                assert_same_dataset(parse_sequence(text), want)

    def test_tokens_that_int_accepts(self):
        data = parse_sequence("+5 1_000 ٣ 007\n")
        assert data.values[:, 0].tolist() == [5, 1000, 3, 7]
        assert_same_dataset(data, fileio._walk_sequences("+5 1_000 ٣ 007\n"))
        data = parse_sequence("+5,1_000;٣,0\n")
        assert data.values.tolist() == [[5, 1000], [3, 0]]
        assert_same_dataset(data, fileio._walk_sequences("+5,1_000;٣,0\n"))
        tree = parse_tree("+0 -1 1_000\n١ 0 +2\n")
        assert tree.topology.parent.tolist() == [-1, 0]
        assert tree.values[:, 0].tolist() == [1000, 2]
        assert_same_tree(tree, fileio._walk_tree("+0 -1 1_000\n١ 0 +2\n"))

    # (token, value): numbers at the edges of the byte reader's grammar;
    # the 20-digit one is left to the walk
    EDGE_TOKENS = [("-0", 0), ("007", 7), (str(2 ** 63 - 1), 2 ** 63 - 1),
                   ("1" + "0" * 18, 10 ** 18), ("0" * 19 + "7", 7)]

    @pytest.mark.parametrize("token, value", EDGE_TOKENS)
    def test_edge_tokens(self, monkeypatch, token, value):
        if len(token) <= 19:
            without_walk(monkeypatch)
        data = parse_sequence(f"1 {token}\n")
        assert data.values[:, 0].tolist() == [1, value]
        data = parse_sequence(f"1,{token};{token},2\n")
        assert data.values.tolist() == [[1, value], [value, 2]]
        tree = parse_tree(f"0 -1 {token}\n1 0 1\n")
        assert tree.values[:, 0].tolist() == [value, 1]


# the bytes the fuzz inserts or substitutes: the format's own, the
# whitespace and line breaks the walk splits on, and two it never takes
FUZZ_BYTES = "0123456789-,; \t\n\r\x1f+x"


@st.composite
def tree_files(draw):
    """A valid tree file of 1-6 vertices, its lines in any order."""
    n = draw(st.integers(1, 6))
    parent = [-1] + [draw(st.integers(0, u - 1)) for u in range(1, n)]
    values = draw(arrays(np.int64, (n, draw(st.integers(1, 2))),
                         elements=st.integers(0, 2 ** 63 - 1)
                         | st.integers(0, 12)))
    text = serialize_tree(ObservedTree(TreeTopology(parent), values))
    return "".join(draw(st.permutations(text.splitlines(keepends=True))))


@st.composite
def edited(draw, files):
    """A file with 1-3 bytes inserted, deleted or substituted."""
    text = draw(files)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        byte = draw(st.sampled_from(FUZZ_BYTES))
        edit = draw(st.sampled_from(["insert", "delete", "substitute"]))
        kept = text[at + 1:] if edit != "insert" else text[at:]
        text = text[:at] + ("" if edit == "delete" else byte) + kept
    return text


def outcome(read, text):
    """What read makes of text: its result, or its DataFormatError message."""
    try:
        return read(text)
    except DataFormatError as exc:
        return str(exc)


class TestByteReaderFuzz:
    """Edited files: the parser returns what the walk returns or raises the
    walk's message, so the byte reader accepts no file the walk rejects and
    reads every file it accepts as the walk does."""

    @given(edited(tree_files()))
    @settings(deadline=None)
    def test_tree_files(self, text):
        got, want = outcome(parse_tree, text), outcome(fileio._walk_tree, text)
        assert type(got) is type(want)
        if isinstance(want, str):
            assert got == want
        else:
            assert_same_tree(got, want)

    @given(edited(stacked_datasets().map(serialize_sequence)))
    @settings(deadline=None)
    def test_sequence_files(self, text):
        got = outcome(parse_sequence, text)
        want = outcome(fileio._walk_sequences, text)
        assert type(got) is type(want)
        if isinstance(want, str):
            assert got == want
        else:
            assert_same_dataset(got, want)


def parse_detected(text):
    """text read by the parser that detect_data_kind picks, as the CLI does."""
    return (parse_tree if detect_data_kind(text) == "tree"
            else parse_sequence)(text)


# (parser, text, message): the first fault of each text, as the per-token
# walk has always reported it
MALFORMED = [
    (parse_sequence, "0 x 1\n",
     "line 1: error at token 2: 'x' is not an integer"),
    (parse_sequence, "0 1\n2 -1 3\n",
     "line 2: observed values must be non-negative integers"),
    (parse_sequence, f"0 {2 ** 63}\n",
     f"line 1: error at token 2: '{2 ** 63}' is outside the int64 range"),
    (parse_sequence, f"0 {-2 ** 63 - 1}\n",
     f"line 1: error at token 2: '{-2 ** 63 - 1}' is outside the int64 range"),
    (parse_sequence, f"{-2 ** 63}\n",
     "line 1: observed values must be non-negative integers"),
    (parse_sequence, "1 5.0\n", "line 1: error at token 2: '5.0' is not an integer"),
    (parse_sequence, "0 --1\n", "line 1: error at token 2: '--1' is not an integer"),
    (parse_sequence, "1- 0\n", "line 1: error at token 1: '1-' is not an integer"),
    (parse_sequence, "0 -\n", "line 1: error at token 2: '-' is not an integer"),
    (parse_sequence, f"{'9' * 19}\n",
     f"line 1: error at token 1: '{'9' * 19}' is outside the int64 range"),
    (parse_sequence, f"0,{10 ** 19}\n",
     f"line 1, step 1, variable 2: '{10 ** 19}' is outside the int64 range"),
    (parse_sequence, f"{'9' * 20}\n",
     f"line 1: error at token 1: '{'9' * 20}' is outside the int64 range"),
    (parse_sequence, "0x10\n", "line 1: error at token 1: '0x10' is not an integer"),
    (parse_sequence, "1,2;3,\n",
     "line 1, step 2, variable 2: '' is not an integer"),
    (parse_sequence, "0,1;1\n", "line 1: ragged variable counts [1, 2]"),
    (parse_sequence, "0,1\n2\n", "line 2: 1 variables, earlier lines had 2"),
    (parse_sequence, "0 1\n ; ;\n", "line 2: no time steps"),
    (parse_sequence, "\n \n", "no sequences found"),
    # each shape the byte reader declines, left to the walk
    (parse_sequence, ",1;2\n", "line 1, step 1, variable 1: '' is not an integer"),
    (parse_sequence, "1;2,\n", "line 1, step 2, variable 2: '' is not an integer"),
    (parse_sequence, "1,,2\n", "line 1, step 1, variable 2: '' is not an integer"),
    (parse_sequence, "1,;2\n", "line 1, step 1, variable 2: '' is not an integer"),
    (parse_sequence, "1 2;3\n",
     "line 1, step 1, variable 1: '1 2' is not an integer"),
    (parse_sequence, "1\n;\n2\n", "line 2: no time steps"),
    (parse_sequence, "1\n,\n", "line 2, step 1, variable 1: '' is not an integer"),
    # the first fault in file order wins
    (parse_sequence, "0 1\n1 -2\n0 x\n",
     "line 2: observed values must be non-negative integers"),
    (parse_sequence, "0 1\n1 y\n0,1\n", "line 2: error at token 2: 'y' is not an integer"),
    (parse_tree, "0 -1 0\n1 0 x\n",
     "line 2, variable 1: 'x' is not an integer"),
    (parse_tree, "0 -1\n1 0 2 3\n",
     "line 1: expected 'vertex parent values', got 2 fields"),
    # the token count is right, and the tokens read as a valid tree
    (parse_tree, "0 -1\n0 1 0 1\n",
     "line 1: expected 'vertex parent values', got 2 fields"),
    (parse_tree, "0 -1 0\n1 0 0\n1 0 1\n", "line 3: duplicate vertex id 1"),
    (parse_tree, "0 -1 0\n2 0 0\n", "vertex ids must cover 0..1; missing [1]"),
    (parse_tree, "0 -1 0\n1 -1 0\n", "multiple roots: vertices [0, 1]"),
    (parse_tree, "1 2 0\n2 1 0\n",
     "no root vertex (parent_id -1): the parent relation is a cycle"),
    (parse_tree, "0 -1 0,1\n1 0 1\n", "ragged variable counts [1, 2]"),
    (parse_tree, "0 -1 0\n1 0 -3\n", "observed values must be non-negative integers"),
    (parse_tree, f"0 -1 {2 ** 63}\n",
     f"line 1, variable 1: '{2 ** 63}' is outside the int64 range"),
    (parse_tree, f"0 {-2 ** 63 - 1} 0\n",
     f"line 1, parent id: '{-2 ** 63 - 1}' is outside the int64 range"),
    (parse_tree, "0 -1 5.0\n", "line 1, variable 1: '5.0' is not an integer"),
    (parse_tree, "0 -1 0\n1 --1 0\n", "line 2, parent id: '--1' is not an integer"),
    (parse_tree, "0 -1 1-\n", "line 1, variable 1: '1-' is not an integer"),
    (parse_tree, f"0 -1 0\n1 {-2 ** 63} 0\n", "parent ids must lie in [0, n)"),
    (parse_tree, f"0 -1 0\n{-2 ** 63} 0 0\n",
     "vertex ids must cover 0..1; missing [1]"),
    (parse_tree, f"0 -1 {10 ** 19}\n",
     f"line 1, variable 1: '{10 ** 19}' is outside the int64 range"),
    (parse_tree, "0x10 -1 0\n", "line 1, vertex id: '0x10' is not an integer"),
    (parse_tree, "0 -1 1,\n", "line 1, variable 2: '' is not an integer"),
    (parse_tree, "1 -1 0\n0 1 0\n", "vertex 0 must be the root"),
    (parse_tree, "0 -1 0\n1 2 0\n2 1 0\n", "parent relation contains a cycle"),
    (parse_tree, "0 -1 0\n1 5 0\n", "parent ids must lie in [0, n)"),
    (parse_tree, "\n", "no vertices found"),
    (parse_tree, "0 -1\n1 0\n",
     "line 1: expected 'vertex parent values', got 2 fields"),
    (parse_tree, "0\n", "line 1: expected 'vertex parent values', got 1 fields"),
    (parse_tree, "0 -1 1 ,2\n",
     "line 1: expected 'vertex parent values', got 4 fields"),
    (parse_tree, "0 -1 1;2\n", "line 1, variable 1: '1;2' is not an integer"),
    (parse_tree, ",0 -1 1\n", "line 1, vertex id: ',0' is not an integer"),
    (parse_tree, "0,1 -1 1\n", "line 1, vertex id: '0,1' is not an integer"),
    (parse_tree, "0 -1 0;\n1 0 1\n", "line 1, variable 1: '0;' is not an integer"),
    (parse_tree, "0 -1 0\n;\n",
     "line 2: expected 'vertex parent values', got 1 fields"),
    (parse_tree, "0 -1 0\n0 0 x\n3\n",
     "line 2, variable 1: 'x' is not an integer"),
    # a sequence file whose line 2 looks like a root line of a tree
    (parse_detected, "0 1\n2 -1 3\n",
     "line 2: observed values must be non-negative integers"),
    (parse_detected, f"0 1\n2 {-2 ** 63 - 1} 3\n",
     f"line 2: error at token 2: '{-2 ** 63 - 1}' is outside the int64 range"),
    # a tree whose first line lacks its values: line 2 is a root line
    (parse_detected, "1 0\n0 -1 0\n",
     "line 1: expected 'vertex parent values', got 2 fields"),
]


class TestMalformedFiles:
    @pytest.mark.parametrize("parse, text, message", MALFORMED)
    def test_first_fault_reported(self, parse, text, message):
        with pytest.raises(DataFormatError) as info:
            parse(text)
        assert type(info.value) is DataFormatError
        assert str(info.value) == message


class TestSerializers:
    def test_tree_round_trip(self):
        for _, tree in sample_trees():
            text = serialize_tree(tree)
            assert text == reference_serialize_tree(tree)
            assert parse_tree(text) == tree

    def test_sequence_round_trip(self):
        for _, dataset in sample_datasets():
            text = serialize_sequence(dataset)
            assert text == reference_serialize_sequence(dataset)
            assert parse_sequence(text) == dataset

    @given(stacked_datasets())
    @settings(deadline=None)
    def test_stacked_dataset_round_trip(self, dataset):
        """Any dataset is written one line per sequence with the reference
        bytes and read back, by the byte reader and by the walk, as itself."""
        text = serialize_sequence(dataset)
        assert text == reference_serialize_sequence(dataset)
        assert parse_sequence(text) == dataset
        walked = fileio._walk_sequences(text)
        assert_same_array(walked.values, dataset.values)
        assert_same_array(walked.offsets, dataset.offsets)
