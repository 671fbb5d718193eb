"""The streaming column reader behind ``fit``: same values and same errors
as the three-list reader it replaced, and memory that follows the rows
kept."""

import math
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from trunc_moments import cli


def _reference_read_column(path: str, selector: str) -> list[float]:
    """The former reader, kept as the oracle: it builds the numbered
    lines, the data rows and each row's cells as full lists.  Like the
    streaming reader it refuses a file whose only row is its header, and
    a nan or inf cell."""
    with open(path, encoding="utf-8") as fh:
        lines = [(i + 1, ln.strip()) for i, ln in enumerate(fh)]
    rows = [(no, ln) for no, ln in lines if ln and not ln.startswith("#")]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    split = (lambda s: [c.strip() for c in s.split(",")]) \
        if "," in rows[0][1] else (lambda s: s.split())

    idx: int | None = None
    try:
        idx = int(selector) - 1
        if idx < 0:
            raise ValueError(f"column index must be >= 1, got {selector}")
    except ValueError as exc:
        if "column index" in str(exc):
            raise
    header = split(rows[0][1])
    if idx is None:
        if selector not in header:
            raise ValueError(f"{path}: no column named {selector!r} in header")
        idx = header.index(selector)
        rows = rows[1:]
    else:
        try:
            float(header[idx] if idx < len(header) else "")
        except (ValueError, IndexError):
            rows = rows[1:]  # header row present, skip it
    if not rows:
        raise ValueError(f"{path}: no data rows")

    out = []
    for no, ln in rows:
        cells = split(ln)
        if idx >= len(cells):
            raise ValueError(f"{path}: line {no}: missing column {idx + 1}")
        try:
            x = float(cells[idx])
        except ValueError:
            raise ValueError(
                f"{path}: line {no}: non-numeric value {cells[idx]!r}") from None
        if not math.isfinite(x):
            raise ValueError(
                f"{path}: line {no}: non-finite value {cells[idx]!r}")
        out.append(x)
    return out


def _outcome(read, *args):
    """The values bit for bit (float.hex tells -0.0 and NaN apart), or the
    error text."""
    try:
        return [x.hex() for x in read(*args)]
    except ValueError as exc:
        return str(exc)


def _reference_outcome(path, selector, lower, upper):
    """The reference reader's outcome, with the window applied as fit
    applied it to the whole column before."""
    want = _outcome(_reference_read_column, path, selector)
    if isinstance(want, list):
        want = [h for h in want if (lower is None or float.fromhex(h) >= lower)
                and (upper is None or float.fromhex(h) <= upper)]
    return want


# -- generated files ---------------------------------------------------------

_NAMES = ("id", "value", "x", "weight")
_PAD = st.text(alphabet=" \t\x0b\x0c\x1c\x85\xa0\u2003", max_size=2)
_SMALL = st.integers(-3, 3)  # shared with the window bounds, to hit edges
_NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    _SMALL.map(str),
    st.sampled_from(["1e3", "-0.0", "+.5", "1_000", "nan", "-inf",
                     "Infinity", "\uff11", "inFINity", "1e0001", "1e400",
                     "4.9e-324"]))
_CELL = st.builds(lambda pad, cell, pad2: pad + cell + pad2,
                  _PAD, _NUMBER, _PAD)
_GARBAGE = st.sampled_from(["", "oops", "1.2.3", "--", "0x10", "#", "1 5",
                            "1,5"])


@st.composite
def _files(draw):
    """Text of a data file: an optional header, then data rows mixed with
    blank and comment lines and with rows that are short, end in a
    separator, hold an inline '#' or a garbage cell; LF, CRLF or CR
    endings."""
    sep = draw(st.sampled_from([",", ", ", " ", "\t", "  "]))
    width = draw(st.integers(1, 4))

    def row(size=width):
        return sep.join(draw(st.lists(_CELL, min_size=size, max_size=size)))

    lines = []
    if draw(st.booleans()):
        lines.append(sep.join(draw(st.lists(st.sampled_from(_NAMES),
                                             min_size=1, max_size=width))))
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["data"] * 5 + [
            "blank", "comment", "inline#", "trailing", "short", "garbage"]))
        if kind == "blank":
            line = draw(_PAD)
        elif kind == "comment":  # parses as data unless seen as a comment
            line = draw(_PAD) + draw(st.sampled_from(["#", "# "])) + row()
        elif kind == "short":
            line = row(draw(st.integers(0, width - 1)))
        else:
            line = row()
            if kind == "inline#":
                line += draw(st.sampled_from([" # note", "#", sep + "#1"]))
            elif kind == "trailing":
                line += sep
            elif kind == "garbage":
                cells = line.split(sep)
                cells[draw(st.integers(0, width - 1))] = draw(_GARBAGE)
                line = sep.join(cells)
        lines.append(line)
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(ln + end for ln, end in zip(lines, ends))
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no newline at the end of the file
    return text


_SELECTORS = st.one_of(st.sampled_from(["0", "1", "2", "3", "5", " 2", "+1"]),
                       st.sampled_from(_NAMES + ("zz",)))
_BOUNDS = st.one_of(st.none(), _SMALL.map(float), st.floats(-1e3, 1e3))


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    return tmp_path_factory.mktemp("read_column") / "data.txt"


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=_files(), selector=_SELECTORS, lower=_BOUNDS, upper=_BOUNDS)
@example(text="", selector="0", lower=None, upper=None)
@example(text="a,b\n1,2\n", selector="0", lower=None, upper=None)
@example(text=" 1.5 , 2\n# c\n\n3,4#x\n", selector="1", lower=None,
         upper=None)
@example(text="x y\r\n1 nan\r\n2 -0.0\r\n", selector="y", lower=None,
         upper=None)
@example(text="x y\n1 nan\n2 -0.0\n3 7\n", selector="2", lower=-1.0,
         upper=5.0)
def test_matches_the_reference_reader(data_file, text, selector, lower, upper):
    data_file.write_bytes(text.encode("utf-8"))
    path = str(data_file)
    assert _outcome(cli._read_column, path, selector, lower, upper) == \
        _reference_outcome(path, selector, lower, upper)


@pytest.mark.parametrize("text, selector, message", [
    ("", "1", "{path}: no data rows"),
    ("# only a comment\n\n   \n", "value", "{path}: no data rows"),
    ("", "0", "{path}: no data rows"),  # the empty file wins over the index
    ("1\n2\n", "0", "column index must be >= 1, got 0"),
    ("id,value\n1,2\n", "speed", "{path}: no column named 'speed' in header"),
    ("a b c\n1 2 3\n# c\n4 5\n", "3", "{path}: line 4: missing column 3"),
    ("x,y\n1, 2\n\n3,  oops \n", "y",
     "{path}: line 4: non-numeric value 'oops'"),
    ("id,value\n", "value", "{path}: no data rows"),
    ("id value\n# c\n\n", "2", "{path}: no data rows"),
    ("x,y\n1,2\n3, nan\n", "y", "{path}: line 3: non-finite value 'nan'"),
    ("1\n-inf\n", "1", "{path}: line 2: non-finite value '-inf'"),
    # the comment line goes, the inline '#' stays an error
    ("x,y\n1,2\n# c\n3,4 # note\n", "y",
     "{path}: line 4: non-numeric value '4 # note'"),
])
def test_error_paths(tmp_path, text, selector, message):
    f = tmp_path / "data.csv"
    f.write_text(text)
    with pytest.raises(ValueError) as exc:
        cli._read_column(str(f), selector)
    assert str(exc.value) == message.format(path=f)


# each file spans several of the reader's blocks, and one line puts its
# block on the line-by-line path, or (a comment line) is dropped from it:
# values and errors are the reference reader's, line numbers included
@pytest.mark.parametrize("sep", [",", " "])
@pytest.mark.parametrize("line, cell, end", [
    (1_500, None, "# a comment"),
    (1_500, "oops", None),
    (1_500, None, "\r"),  # a lone CR ends the line
    (1_500, "\uff11\uff12.5", None),  # fullwidth digits, which float() reads
    (70_001, "nan", None),
])
def test_blocks_numpy_refuses_take_the_exact_path(tmp_path, monkeypatch, sep,
                                                  line, cell, end):
    import numpy as np

    rows = max(3_000, line + 500)
    values = np.random.default_rng(line).normal(0.0, 1.0, rows).tolist()
    lines = [f"id{sep}value\n"] + [f"{k}{sep}{x!r}\n"
                                   for k, x in enumerate(values)]
    k = line - 1  # lines[k] is line number `line`
    if cell is not None:
        lines[k] = f"{k}{sep}{cell}\n"
    elif end.startswith("#"):
        lines[k] = end + "\n"
    else:
        lines[k] = lines[k][:-1] + end
    f = tmp_path / "long.txt"
    f.write_text("".join(lines), encoding="utf-8", newline="")
    assert f.stat().st_size > 3 * cli._BLOCK

    loadtxt, accepted = np.loadtxt, []

    def counting(*args, **kwargs):
        try:
            x = loadtxt(*args, **kwargs)
        except ValueError:
            accepted.append(False)
            raise
        accepted.append(bool(np.isfinite(x).all()))
        return x

    monkeypatch.setattr(np, "loadtxt", counting)
    for selector in ("value", "2"):
        for lower, upper in ((None, None), (-1.0, 0.5)):
            accepted.clear()
            assert _outcome(cli._read_column, str(f), selector, lower,
                            upper) == \
                _reference_outcome(str(f), selector, lower, upper)
            # numpy reads the other blocks, up to the line in error
            assert accepted.count(True) >= 3 and accepted.count(False) <= 1


@pytest.mark.parametrize("sep", [",", " "])
def test_comment_lines_leave_the_blocks_to_numpy(tmp_path, monkeypatch, sep):
    import numpy as np

    rows = 20_000
    values = np.random.default_rng(7).normal(0.0, 1.0, rows).tolist()
    lines = [f"id{sep}value\n"]
    for k, x in enumerate(values):
        if k % 200 == 0:
            lines.append("  # section\n" if k % 400 else "# section\n")
        lines.append(f"{k}{sep}{x!r}\n")
    f = tmp_path / "sections.txt"
    f.write_text("".join(lines), encoding="utf-8")
    assert f.stat().st_size > 30 * cli._BLOCK

    loadtxt, sizes = np.loadtxt, []

    def counting(*args, **kwargs):
        x = loadtxt(*args, **kwargs)  # a refusal fails the test
        assert np.isfinite(x).all()
        sizes.append(x.size)
        return x

    monkeypatch.setattr(np, "loadtxt", counting)
    for lower, upper in ((None, None), (-1.0, 0.5)):
        sizes.clear()
        assert _outcome(cli._read_column, str(f), "value", lower, upper) == \
            _reference_outcome(str(f), "value", lower, upper)
        # numpy read every block, and so every row
        assert sum(sizes) == rows


@pytest.mark.parametrize("text, selector, want", [
    ("id,value\n1,2.5\n2,3.5\n", "id", [1.0, 2.0]),
    ("1\n2\n3\n", "1", [1.0, 2.0, 3.0]),
])
def test_a_byte_order_mark_is_not_part_of_the_first_line(tmp_path, text,
                                                         selector, want):
    f = tmp_path / "bom.csv"
    f.write_text(text, encoding="utf-8-sig")
    assert list(cli._read_column(str(f), selector)) == want


def test_memory_follows_the_rows_kept(tmp_path):
    import numpy  # noqa: F401  the reader's import, not counted below

    rows = 200_000
    f = tmp_path / "big.csv"
    with open(f, "w", encoding="utf-8") as fh:
        fh.write("# generated\nid,value,weight\n")
        fh.writelines(f"{k},{0.25 + k % 2 / 2!r},1\n" for k in range(rows))
    # every other row falls in the window [0, 0.5]; without one all are kept
    for window, share in (((0.0, 0.5), 2), ((None, None), 1)):
        tracemalloc.start()
        try:
            out = cli._read_column(str(f), "value", *window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == rows // share
        # one float64 a row kept, plus the array's growth slack (1/16) and
        # one block of lines with numpy's buffers for it: about 9.4 B a row
        # with half the rows kept, where a list of floats takes 32 B
        assert peak < 10 * len(out)
