"""The fixture parser: one row per error it can raise, with the line and
the reason it reports, and the interleaved blocks that parse."""

import sys

import pytest

from tiltlab.dedekind import FgZModule
from tiltlab.errors import ParseError
from tiltlab.exactlin import PrimeField
from tiltlab.parsefmt import parse_input

# a two-vertex quiver with one arrow (lines 1-3), a field (line 4) and a
# rep over the quiver (line 5)
QUIVER = "quiver q\nvertices 2\narrow a 1 2\n"
FIELD = "field F 5\n"
REP = QUIVER + FIELD + "rep m dim 1 1\n"
# rep m's matrix, then a field line that leaves it over the wrong field
WRONG_FIELD = REP + "matrix a [[1]]\nfield F 7\n"


def parse_text(tmp_path, text):
    path = tmp_path / "fixture.txt"
    path.write_text(text, encoding="utf-8")
    return parse_input(str(path))


# (id, fixture text, line, reason)
ERRORS = [
    # the usage message of every directive
    ("quiver-no-name", "quiver\n", 1, "usage: quiver <name>"),
    ("quiver-two-names", "quiver q r\n", 1, "usage: quiver <name>"),
    ("vertices-no-count", "quiver q\nvertices\n", 2, "usage: vertices <n>"),
    ("vertices-not-integer", "quiver q\nvertices two\n", 2, "usage: vertices <n>"),
    ("arrow-no-target", QUIVER + "arrow b 1\n", 4, "usage: arrow <name> <src> <dst>"),
    ("arrow-not-integer", QUIVER + "arrow b 1 x\n", 4, "usage: arrow <name> <src> <dst>"),
    ("field-no-prime", "field F\n", 1, "usage: field F <p> | field Q"),
    ("field-unknown", "field R\n", 1, "usage: field F <p> | field Q"),
    ("field-q-extra", "field Q 5\n", 1, "usage: field F <p> | field Q"),
    ("rep-no-dim", QUIVER + FIELD + "rep m\n", 5, "usage: rep <name> dim d1 ... dn"),
    ("rep-no-dim-keyword", QUIVER + FIELD + "rep m 1 1\n", 5, "usage: rep <name> dim d1 ... dn"),
    ("matrix-no-entries", REP + "matrix a\n", 6, "usage: matrix <arrow> [[..],[..]]"),
    ("zmod-bare", "zmod\n", 1, "usage: zmod free <r> factors d1,d2,..."),
    ("zmod-not-free", "zmod torsion 1\n", 1, "usage: zmod free <r> factors d1,d2,..."),
    ("zmod-no-rank", "zmod free\n", 1, "usage: zmod free <r> factors d1,d2,..."),
    ("zmod-negative-rank", "zmod free -1\n", 1, "usage: zmod free <r> factors d1,d2,..."),
    ("zmod-not-factors", "zmod free 1 2,6\n", 1, "usage: zmod free <r> factors d1,d2,..."),
    ("zmod-factor-not-integer", "zmod free 1 factors 2,x\n", 1,
     "usage: zmod free <r> factors d1,d2,..."),
    ("zmod-factors-by-space", "zmod free 1 factors 2 6\n", 1,
     "usage: zmod free <r> factors d1,d2,..."),
    ("alphabet-bare", "alphabet\n", 1, "usage: alphabet x,y"),
    ("alphabet-two-tokens", "alphabet x y\n", 1, "usage: alphabet x,y"),
    # quiver blocks
    ("vertices-outside-quiver", "vertices 2\n", 1, "vertices outside a quiver block"),
    ("vertices-after-rep", REP + "vertices 2\n", 6, "vertices outside a quiver block"),
    ("arrow-outside-quiver", "arrow a 1 2\n", 1, "arrow outside a quiver block"),
    ("arrow-before-vertices", "quiver q\narrow a 1 2\n", 2, "arrow before the vertices line"),
    ("arrow-target-out-of-range", "quiver q\nvertices 2\narrow a 1 3\n", 3,
     "arrow 'a': vertex out of range 1..2"),
    ("arrow-source-out-of-range", "quiver q\nvertices 2\narrow a 0 1\n", 3,
     "arrow 'a': vertex out of range 1..2"),
    ("quiver-no-vertices", "quiver q\n", 1, "quiver 'q' has no vertices line"),
    ("quiver-no-vertices-closed-by-quiver", "field F 5\nquiver q\nquiver r\n", 2,
     "quiver 'q' has no vertices line"),
    ("quiver-cyclic", QUIVER + "arrow b 2 1\n", 1, "quiver 'q': quiver must be acyclic"),
    ("quiver-no-vertex", "quiver q\nvertices 0\n", 1, "quiver 'q': quiver needs at least one vertex"),
    ("quiver-duplicate-arrow", QUIVER + "arrow a 1 2\n", 1, "quiver 'q': duplicate arrow name a"),
    ("quiver-cyclic-closed-by-rep", QUIVER + "arrow b 2 1\n" + FIELD + "rep m dim 1 1\n", 1,
     "quiver 'q': quiver must be acyclic"),
    # duplicate names
    ("quiver-duplicate", QUIVER + "quiver q\n", 4, "duplicate quiver name 'q'"),
    ("rep-duplicate", REP + "rep m dim 1 1\n", 6, "duplicate rep name 'm'"),
    # rep lines
    ("rep-before-field", QUIVER + "rep m dim 1 1\n", 4, "rep before any field line"),
    ("rep-no-quiver", "field F 5\nrep m dim 1\n", 2, "no quiver defined yet"),
    ("rep-dims-not-integers", QUIVER + FIELD + "rep m dim 1 x\n", 5, "dimensions must be integers"),
    ("rep-too-few-dims", QUIVER + FIELD + "rep m dim 1\n", 5, "expected 2 nonnegative dimensions"),
    ("rep-too-many-dims", QUIVER + FIELD + "rep m dim 1 1 1\n", 5, "expected 2 nonnegative dimensions"),
    ("rep-negative-dim", QUIVER + FIELD + "rep m dim 1 -1\n", 5, "expected 2 nonnegative dimensions"),
    # matrix lines
    ("matrix-outside-rep", "matrix a [[1]]\n", 1, "matrix outside a rep block"),
    ("matrix-in-quiver-block", QUIVER + "matrix a [[1]]\n", 4, "matrix outside a rep block"),
    ("matrix-unknown-arrow", REP + "matrix b [[1]]\n", 6, "unknown arrow 'b'"),
    ("matrix-not-json", REP + "matrix a [[1]\n", 6, "arrow 'a': entries are not a JSON array of rows"),
    # json.loads raises RecursionError, not JSONDecodeError, this deep
    ("matrix-nested-past-recursion-limit", REP + "matrix a " + "[" * 100000 + "\n", 6,
     "arrow 'a': entries are not a JSON array of rows"),
    ("matrix-too-wide", REP + "matrix a [[1,2]]\n", 6, "arrow 'a': matrix must have shape 1x1"),
    ("matrix-scalar", REP + "matrix a 1\n", 6, "arrow 'a': matrix must have shape 1x1"),
    ("matrix-flat-row", REP + "matrix a [1]\n", 6, "arrow 'a': matrix must have shape 1x1"),
    ("matrix-wrong-field", WRONG_FIELD, 5, "rep 'm': arrow a: matrix over wrong field"),
    # fields, integer modules and words
    ("field-not-prime", "field F 4\n", 1, "4 is not prime"),
    ("field-too-small", "field F 1\n", 1, "characteristic must be a prime < 2^31, got 1"),
    ("field-not-integer", "field F x\n", 1, "invalid literal for int() with base 10: 'x'"),
    ("zmod-zero-factor", "zmod free 1 factors 2,0\n", 1, "factors must be positive"),
    ("zmod-negative-factor", "zmod free 0 factors -3\n", 1, "factors must be positive"),
    ("zmod-free-rank-past-cap", "zmod free 20000\n", 1, "free rank plus factor count 20000 exceeds cap 32"),
    ("zmod-pieces-past-cap", "zmod free 30 factors 2,2,6\n", 1, "free rank plus factor count 33 exceeds cap 32"),
    ("matrix-q-exponent", QUIVER + "field Q\nrep m dim 1 1\nmatrix a [[\"1e1000000\"]]\n", 6,
     "arrow 'a': entries may not hold an exponent"),
    ("matrix-q-capital-exponent", QUIVER + "field Q\nrep m dim 1 1\nmatrix a [[\"2.5E3\"]]\n", 6,
     "arrow 'a': entries may not hold an exponent"),
    ("alphabet-repeated", "alphabet x,y,x\n", 1, "alphabet needs distinct nonempty symbols"),
    ("alphabet-empty", "alphabet ,\n", 1, "alphabet needs distinct nonempty symbols"),
    ("word-before-alphabet", "word x\n", 1, "word before any alphabet line"),
    ("word-unknown-generator", "alphabet x,y\nword x z\n", 2, "unknown generator 'z'"),
    ("word-too-long", "alphabet x\nword" + " x" * 17 + "\n", 2, "reduced word length 17 exceeds cap 16"),
    ("unknown-directive", "# comment\n\nfrobnicate 1\n", 3, "unknown directive 'frobnicate'"),
    # checks run in order: at a rep line the field, the usage, closing the
    # previous rep, the duplicate name, the quiver, then the dimensions
    ("rep-field-before-usage", QUIVER + "rep m\n", 4, "rep before any field line"),
    ("rep-usage-before-closing", WRONG_FIELD + "rep n\n", 8, "usage: rep <name> dim d1 ... dn"),
    ("rep-closing-before-duplicate", WRONG_FIELD + "rep m dim 1 1\n", 5,
     "rep 'm': arrow a: matrix over wrong field"),
    ("rep-duplicate-before-dims", REP + "rep m dim x\n", 6, "duplicate rep name 'm'"),
    ("rep-quiver-before-dims", "field F 5\nrep m dim x\n", 2, "no quiver defined yet"),
    # a quiver header leaves the rep open, and closing that quiver block
    # closes the rep first
    ("rep-closes-before-next-quiver-builds", WRONG_FIELD + "quiver r\n", 5,
     "rep 'm': arrow a: matrix over wrong field"),
    ("rep-closes-at-quiver-after-quiver", REP + "quiver r\nvertices 1\nmatrix a [[1]]\nfield F 7\nquiver s\n",
     5, "rep 'm': arrow a: matrix over wrong field"),
    ("quiver-usage-before-closing", WRONG_FIELD + "quiver\n", 8, "usage: quiver <name>"),
    ("matrix-after-quiver-header-names-the-rep-arrows", REP + "quiver r\nvertices 1\narrow b 1 1\nmatrix b [[1]]\n",
     9, "unknown arrow 'b'"),
]


# Python's cap on the digits int() reads from a string, 0 where it has none
DIGIT_CAP = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
LONG = "1" * (DIGIT_CAP + 1)
PAST_CAP = f"integer of {DIGIT_CAP + 1} digits exceeds cap {DIGIT_CAP}"
# integers one digit past the cap: json.loads and int() refuse them with a
# ValueError that names no fixture line
DIGIT_CAP_ERRORS = [
    ("matrix-entry-past-digit-cap", REP + f"matrix a [[{LONG}]]\n", 6, PAST_CAP),
    ("zmod-factor-past-digit-cap", f"zmod free 0 factors 2,{LONG}\n", 1, PAST_CAP),
    ("zmod-free-rank-past-digit-cap", f"zmod free {LONG}\n", 1, PAST_CAP),
    ("zmod-factor-digits-counted-across-underscores", f"zmod free 0 factors 1_{LONG[1:]}\n", 1, PAST_CAP),
]
NEEDS_DIGIT_CAP = pytest.mark.skipif(not DIGIT_CAP, reason="this Python reads integers of any length")


@pytest.mark.parametrize(
    "text, line, reason",
    [pytest.param(*row[1:], id=row[0]) for row in ERRORS]
    + [pytest.param(*row[1:], id=row[0], marks=NEEDS_DIGIT_CAP) for row in DIGIT_CAP_ERRORS],
)
def test_each_parse_error_names_its_line_and_reason(tmp_path, text, line, reason):
    with pytest.raises(ParseError) as info:
        parse_text(tmp_path, text)
    assert (info.value.line, info.value.reason) == (line, reason)


def test_rep_left_open_across_a_quiver_header_keeps_its_matrices(tmp_path):
    # the matrix line after the new quiver header still belongs to rep m,
    # which is built over quiver q
    parsed = parse_text(tmp_path, REP + "quiver r\nvertices 1\nmatrix a [[3]]\n")
    assert list(parsed.quivers) == ["q", "r"]
    rep = parsed.reps["m"]
    assert rep.quiver is parsed.quivers["q"]
    assert rep.maps[0].rows == [[3]]


def test_field_line_inside_a_rep_sets_its_field(tmp_path):
    # the rep is built over the field in force when it closes, and each
    # matrix line is read in the field in force on that line
    parsed = parse_text(tmp_path, REP + "field F 7\nmatrix a [[8]]\n")
    rep = parsed.reps["m"]
    assert rep.field == PrimeField(7) and parsed.field == PrimeField(7)
    assert rep.maps[0].rows == [[1]]


def test_rep_takes_the_open_quiver_or_the_last_closed_one(tmp_path):
    parsed = parse_text(
        tmp_path, QUIVER + "quiver r\nvertices 1\n" + FIELD + "rep m dim 2\nrep n dim 0\n"
    )
    assert parsed.reps["m"].quiver is parsed.quivers["r"]
    assert parsed.reps["n"].quiver is parsed.quivers["r"]
    assert parsed.reps["n"].dims == (0,)
    assert parsed.reps["n"].maps == ()


def test_zmod_line_at_the_cap_parses(tmp_path):
    parsed = parse_text(tmp_path, "zmod free 30 factors 6,2\n")
    assert parsed.zmods == [FgZModule(30, (2, 6))]


@NEEDS_DIGIT_CAP
def test_integers_at_the_digit_cap_parse(tmp_path):
    at_cap = "1" * DIGIT_CAP
    parsed = parse_text(tmp_path, REP + f"matrix a [[{at_cap}]]\nzmod free 0 factors {at_cap}\n")
    assert parsed.reps["m"].maps[0].rows == [[int(at_cap) % 5]]
    assert parsed.zmods == [FgZModule(0, (int(at_cap),))]
