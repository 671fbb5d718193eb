"""The streaming column reader behind ``fit``: same values and same errors
as the three-list reader it replaced, and memory that follows the rows
kept."""

import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from trunc_moments import cli


def _reference_read_column(path: str, selector: str) -> list[float]:
    """The former reader, kept as the oracle: it builds the numbered
    lines, the data rows and each row's cells as full lists."""
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

    out = []
    for no, ln in rows:
        cells = split(ln)
        if idx >= len(cells):
            raise ValueError(f"{path}: line {no}: missing column {idx + 1}")
        try:
            out.append(float(cells[idx]))
        except ValueError:
            raise ValueError(
                f"{path}: line {no}: non-numeric value {cells[idx]!r}") from None
    return out


def _outcome(read, *args):
    """The values bit for bit (float.hex tells -0.0 and NaN apart), or the
    error text."""
    try:
        return [x.hex() for x in read(*args)]
    except ValueError as exc:
        return str(exc)


# -- generated files ---------------------------------------------------------

_NAMES = ("id", "value", "x", "weight")
_PAD = st.text(alphabet=" \t\x0b\xa0", max_size=2)
_SMALL = st.integers(-3, 3)  # shared with the window bounds, to hit edges
_NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    _SMALL.map(str),
    st.sampled_from(["1e3", "-0.0", "+.5", "1_000", "nan", "-inf",
                     "Infinity"]))
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
    want = _outcome(_reference_read_column, path, selector)
    if isinstance(want, list):
        # the window as fit applied it to the whole column before
        want = [h for h in want if (lower is None or float.fromhex(h) >= lower)
                and (upper is None or float.fromhex(h) <= upper)]
    assert _outcome(cli._read_column, path, selector, lower, upper) == want


@pytest.mark.parametrize("text, selector, message", [
    ("", "1", "{path}: no data rows"),
    ("# only a comment\n\n   \n", "value", "{path}: no data rows"),
    ("", "0", "{path}: no data rows"),  # the empty file wins over the index
    ("1\n2\n", "0", "column index must be >= 1, got 0"),
    ("id,value\n1,2\n", "speed", "{path}: no column named 'speed' in header"),
    ("a b c\n1 2 3\n# c\n4 5\n", "3", "{path}: line 4: missing column 3"),
    ("x,y\n1, 2\n\n3,  oops \n", "y",
     "{path}: line 4: non-numeric value 'oops'"),
])
def test_error_paths(tmp_path, text, selector, message):
    f = tmp_path / "data.csv"
    f.write_text(text)
    with pytest.raises(ValueError) as exc:
        cli._read_column(str(f), selector)
    assert str(exc.value) == message.format(path=f)


def test_memory_follows_the_rows_kept(tmp_path):
    # every other row falls in the window [0, 0.5]
    rows = 200_000
    f = tmp_path / "big.csv"
    with open(f, "w", encoding="utf-8") as fh:
        fh.write("# generated\nid,value,weight\n")
        fh.writelines(f"{k},{0.25 + k % 2 / 2!r},1\n" for k in range(rows))
    tracemalloc.start()
    try:
        out = cli._read_column(str(f), "value", 0.0, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == rows // 2
    # the list and its floats, about 32 B a row kept; holding every line,
    # row or cell list of the file took about 250 B a row read
    kept = sys.getsizeof(out) + sum(sys.getsizeof(x) for x in out)
    assert peak < 3 * kept
