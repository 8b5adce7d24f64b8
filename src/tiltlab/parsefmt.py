"""Line-oriented text format for quivers, representations, integer
modules, alphabets and words.

Directives (whitespace separated, ``#`` starts a comment):

* ``quiver <name>`` / ``vertices <n>`` / ``arrow <name> <src> <dst>``
  with 1-based vertex numbers,
* ``field F <p>`` or ``field Q``,
* ``rep <name> dim d1 ... dn``, over the open quiver block or else the
  quiver closed last, followed by ``matrix <arrow> [[..],[..]]`` lines
  (missing arrows are zero maps) of JSON integers, or under ``field Q``
  also strings that ``Fraction`` reads, such as ``"1/2"``, but with no
  exponent,
* ``zmod free <r> factors d1,d2,...`` (the ``factors`` clause may be
  omitted), with at most :data:`MAX_ZMOD_PIECES` free and torsion pieces,
* ``alphabet x,y`` (no symbol may contain ``^``) and ``word <letters>``
  with tokens ``x`` or ``x^-1``.

A quiver block closes at the next ``quiver`` or ``rep`` line; a rep block
at the next ``rep`` line or when a quiver block opened after it closes, so
a ``matrix`` line after a new ``quiver`` header still belongs to the rep.
Both close at the end of the file.  A block is built when it closes, a rep
over the field in force then, and its errors name its first line.  No
line may hold an integer past Python's int-string digit cap (4,300).
"""

from __future__ import annotations

import json
import re
import sys

from .dedekind import from_pieces
from .errors import ParseError
from .exactlin import Matrix, PrimeField, QQ
from .freegrp import parse_alphabet, parse_reduce
from .quiverrep import Arrow, Quiver, QuiverRep

MAX_ZMOD_PIECES = 32  # free rank plus factor count, the size of the Smith forms a zmod line costs


class ParsedInput:
    __slots__ = ("field", "quivers", "reps", "zmods", "alphabet", "words")

    def __init__(self):
        self.field = self.alphabet = None
        self.quivers, self.reps, self.zmods, self.words = {}, {}, [], []

    def __eq__(self, other):
        return isinstance(other, ParsedInput) and all(
            getattr(self, k) == getattr(other, k) for k in self.__slots__)


def parse_input(path: str) -> ParsedInput:
    """Parse a fixture file; deterministic, with 1-based line numbers in
    every error."""
    out = ParsedInput()
    cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    quiver = None  # the open quiver block
    rep = None  # the open rep block

    def check(ok, reason: str):
        if not ok:
            raise ParseError(line_no, reason)

    def close_rep():
        nonlocal rep
        if rep is None:
            return
        q, dims, maps = rep["quiver"], rep["dims"], rep["maps"]
        for a in q.arrows:
            if a.name not in maps:
                maps[a.name] = Matrix.zeros(out.field, dims[a.target], dims[a.source])
        try:
            out.reps[rep["name"]] = QuiverRep(q, out.field, dims, [maps[a.name] for a in q.arrows])
        except ValueError as exc:
            raise ParseError(rep["line"], f"rep {rep['name']!r}: {exc}")
        rep = None

    def close_quiver():
        nonlocal quiver
        if quiver is None:
            return
        close_rep()
        if quiver["vertices"] is None:
            raise ParseError(quiver["line"], f"quiver {quiver['name']!r} has no vertices line")
        try:
            out.quivers[quiver["name"]] = Quiver(quiver["vertices"], tuple(quiver["arrows"]))
        except ValueError as exc:
            raise ParseError(quiver["line"], f"quiver {quiver['name']!r}: {exc}")
        quiver = None

    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0]
            tokens = text.split()
            if not tokens:
                continue
            if cap and len(text) > cap:  # a shorter line holds no integer past the cap
                # digits as int() counts them, single underscores between them skipped
                digits = max((len(m) - m.count("_") for m in re.findall(r"\d(?:_?\d)*", text)), default=0)
                check(digits <= cap, f"integer of {digits} digits exceeds cap {cap}")
            key = tokens[0]
            if key == "quiver":
                check(len(tokens) == 2, "usage: quiver <name>")
                close_quiver()
                check(tokens[1] not in out.quivers, f"duplicate quiver name {tokens[1]!r}")
                quiver = {"name": tokens[1], "line": line_no, "vertices": None, "arrows": []}
            elif key == "vertices":
                check(quiver is not None, "vertices outside a quiver block")
                try:
                    quiver["vertices"] = int(tokens[1])
                except (IndexError, ValueError):
                    check(False, "usage: vertices <n>")
            elif key == "arrow":
                check(quiver is not None, "arrow outside a quiver block")
                n = quiver["vertices"]
                check(n is not None, "arrow before the vertices line")
                try:
                    name, src, dst = tokens[1], int(tokens[2]), int(tokens[3])
                except (IndexError, ValueError):
                    check(False, "usage: arrow <name> <src> <dst>")
                check(1 <= src <= n and 1 <= dst <= n, f"arrow {name!r}: vertex out of range 1..{n}")
                quiver["arrows"].append(Arrow(name, src - 1, dst - 1))
            elif key == "field":
                if tokens[1:] == ["Q"]:
                    out.field = QQ
                else:
                    check(len(tokens) == 3 and tokens[1] == "F", "usage: field F <p> | field Q")
                    try:
                        out.field = PrimeField(int(tokens[2]))
                    except ValueError as exc:
                        check(False, str(exc))
            elif key == "rep":
                check(out.field is not None, "rep before any field line")
                check(len(tokens) >= 3 and tokens[2] == "dim", "usage: rep <name> dim d1 ... dn")
                close_rep()
                name = tokens[1]
                check(name not in out.reps, f"duplicate rep name {name!r}")
                close_quiver()
                check(out.quivers, "no quiver defined yet")
                q = out.quivers[next(reversed(out.quivers))]
                try:
                    dims = tuple(int(t) for t in tokens[3:])
                except ValueError:
                    check(False, "dimensions must be integers")
                check(len(dims) == q.nvertices and all(d >= 0 for d in dims),
                      f"expected {q.nvertices} nonnegative dimensions")
                rep = {"name": name, "line": line_no, "quiver": q, "dims": dims, "maps": {}}
            elif key == "matrix":
                check(rep is not None, "matrix outside a rep block")
                check(len(tokens) >= 3, "usage: matrix <arrow> [[..],[..]]")
                aname = tokens[1]
                arrow = next((a for a in rep["quiver"].arrows if a.name == aname), None)
                check(arrow is not None, f"unknown arrow {aname!r}")
                try:
                    entries = json.loads(" ".join(tokens[2:]))
                except (json.JSONDecodeError, RecursionError):
                    check(False, f"arrow {aname!r}: entries are not a JSON array of rows")
                rows, cols = rep["dims"][arrow.target], rep["dims"][arrow.source]
                check(isinstance(entries, list) and len(entries) == rows
                      and all(isinstance(r, list) and len(r) == cols for r in entries),
                      f"arrow {aname!r}: matrix must have shape {rows}x{cols}")
                # a bool or a float is refused, not rounded; under field Q a
                # string is read by Fraction
                not_int = f"arrow {aname!r}: entries must be integers"
                check(all(type(x) is int or out.field == QQ and isinstance(x, str) for r in entries for x in r),
                      not_int)
                # Fraction expands an exponent exactly: "1e10000000" has 33 million bits
                check(not any(isinstance(x, str) and "e" in x.lower() for r in entries for x in r),
                      f"arrow {aname!r}: entries may not hold an exponent")
                try:
                    rep["maps"][aname] = Matrix(out.field, entries, cols)
                except (ValueError, ZeroDivisionError):
                    check(False, not_int)
            elif key == "zmod":
                usage = "usage: zmod free <r> factors d1,d2,..."
                check(tokens[1:2] == ["free"] and tokens[3:4] in ([], ["factors"]), usage)
                try:
                    free_rank = int(tokens[2])
                    factors = [int(x) for x in " ".join(tokens[4:]).split(",") if x.strip()]
                except (IndexError, ValueError):
                    check(False, usage)
                check(free_rank >= 0, usage)
                check(all(f > 0 for f in factors), "factors must be positive")
                pieces = free_rank + len(factors)
                check(pieces <= MAX_ZMOD_PIECES,
                      f"free rank plus factor count {pieces} exceeds cap {MAX_ZMOD_PIECES}")
                out.zmods.append(from_pieces(free_rank, factors))
            elif key == "alphabet":
                check(len(tokens) == 2, "usage: alphabet x,y")
                symbols = parse_alphabet(tokens[1])
                check(symbols is not None, "alphabet needs distinct nonempty symbols")
                out.alphabet = symbols
            elif key == "word":
                check(out.alphabet is not None, "word before any alphabet line")
                try:
                    out.words.append(parse_reduce(" ".join(tokens[1:]), out.alphabet))
                except ValueError as exc:
                    check(False, str(exc))
            else:
                check(False, f"unknown directive {key!r}")
    close_quiver()
    close_rep()
    return out
