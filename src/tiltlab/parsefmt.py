"""Line-oriented text format for quivers, representations, integer
modules, alphabets and words.

Directives (whitespace separated, ``#`` starts a comment):

* ``quiver <name>`` / ``vertices <n>`` / ``arrow <name> <src> <dst>``
  with 1-based vertex numbers,
* ``field F <p>`` or ``field Q``,
* ``rep <name> dim d1 ... dn`` followed by ``matrix <arrow> [[..],[..]]``
  lines (missing arrows are zero maps),
* ``zmod free <r> factors d1,d2,...`` (the ``factors`` clause may be
  omitted),
* ``alphabet x,y`` and ``word <letters>`` with tokens ``x`` or ``x^-1``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

from .dedekind import FgZModule, from_pieces
from .errors import ParseError
from .exactlin import Matrix, PrimeField, QQ
from .freegrp import FreeWord, parse_reduce
from .quiverrep import Arrow, Quiver, QuiverRep


@dataclass
class ParsedInput:
    field: object | None = None
    quivers: dict[str, Quiver] = dc_field(default_factory=dict)
    reps: dict[str, QuiverRep] = dc_field(default_factory=dict)
    rep_quiver: dict[str, str] = dc_field(default_factory=dict)
    zmods: list[FgZModule] = dc_field(default_factory=list)
    alphabet: tuple[str, ...] | None = None
    words: list[FreeWord] = dc_field(default_factory=list)


class _Parser:
    def __init__(self):
        self.out = ParsedInput()
        self.quiver_name: str | None = None
        self.quiver_line = 0
        self.vertex_count: int | None = None
        self.arrows: list[Arrow] = []
        self.rep_name: str | None = None
        self.rep_line = 0
        self.rep_dims: tuple[int, ...] | None = None
        self.rep_maps: dict[str, Matrix] = {}

    def fail(self, line: int, reason: str):
        raise ParseError(line, reason)

    def finish_quiver(self):
        if self.quiver_name is None:
            return
        self.finish_rep()
        if self.vertex_count is None:
            self.fail(self.quiver_line, f"quiver {self.quiver_name!r} has no vertices line")
        try:
            q = Quiver(self.vertex_count, tuple(self.arrows))
        except ValueError as exc:
            self.fail(self.quiver_line, f"quiver {self.quiver_name!r}: {exc}")
        self.out.quivers[self.quiver_name] = q
        self.quiver_name = None
        self.vertex_count = None
        self.arrows = []

    def current_quiver(self, line: int) -> tuple[str, Quiver]:
        # a rep may reference the quiver being built; close it first
        if self.quiver_name is not None:
            name = self.quiver_name
            self.finish_quiver()
            return name, self.out.quivers[name]
        if not self.out.quivers:
            self.fail(line, "no quiver defined yet")
        name = next(reversed(self.out.quivers))
        return name, self.out.quivers[name]

    def finish_rep(self):
        if self.rep_name is None:
            return
        qname = self.out.rep_quiver[self.rep_name]
        q = self.out.quivers[qname]
        maps = []
        for a in q.arrows:
            if a.name in self.rep_maps:
                maps.append(self.rep_maps[a.name])
            else:
                maps.append(
                    Matrix.zeros(self.out.field, self.rep_dims[a.target], self.rep_dims[a.source])
                )
        try:
            self.out.reps[self.rep_name] = QuiverRep(q, self.out.field, self.rep_dims, maps)
        except ValueError as exc:
            self.fail(self.rep_line, f"rep {self.rep_name!r}: {exc}")
        self.rep_name = None
        self.rep_dims = None
        self.rep_maps = {}

    def handle(self, line_no: int, tokens: list[str]):
        key = tokens[0]
        if key == "quiver":
            if len(tokens) != 2:
                self.fail(line_no, "usage: quiver <name>")
            self.finish_quiver()
            if tokens[1] in self.out.quivers:
                self.fail(line_no, f"duplicate quiver name {tokens[1]!r}")
            self.quiver_name = tokens[1]
            self.quiver_line = line_no
        elif key == "vertices":
            if self.quiver_name is None:
                self.fail(line_no, "vertices outside a quiver block")
            try:
                self.vertex_count = int(tokens[1])
            except (IndexError, ValueError):
                self.fail(line_no, "usage: vertices <n>")
        elif key == "arrow":
            if self.quiver_name is None:
                self.fail(line_no, "arrow outside a quiver block")
            if self.vertex_count is None:
                self.fail(line_no, "arrow before the vertices line")
            try:
                name, src, dst = tokens[1], int(tokens[2]), int(tokens[3])
            except (IndexError, ValueError):
                self.fail(line_no, "usage: arrow <name> <src> <dst>")
            if not (1 <= src <= self.vertex_count and 1 <= dst <= self.vertex_count):
                self.fail(line_no, f"arrow {name!r}: vertex out of range 1..{self.vertex_count}")
            self.arrows.append(Arrow(name, src - 1, dst - 1))
        elif key == "field":
            if len(tokens) == 2 and tokens[1] == "Q":
                self.out.field = QQ
            elif len(tokens) == 3 and tokens[1] == "F":
                try:
                    self.out.field = PrimeField(int(tokens[2]))
                except ValueError as exc:
                    self.fail(line_no, str(exc))
            else:
                self.fail(line_no, "usage: field F <p> | field Q")
        elif key == "rep":
            if self.out.field is None:
                self.fail(line_no, "rep before any field line")
            if len(tokens) < 3 or tokens[2] != "dim":
                self.fail(line_no, "usage: rep <name> dim d1 ... dn")
            self.finish_rep()
            name = tokens[1]
            if name in self.out.reps:
                self.fail(line_no, f"duplicate rep name {name!r}")
            qname, q = self.current_quiver(line_no)
            try:
                dims = tuple(int(t) for t in tokens[3:])
            except ValueError:
                self.fail(line_no, "dimensions must be integers")
            if len(dims) != q.nvertices or any(d < 0 for d in dims):
                self.fail(line_no, f"expected {q.nvertices} nonnegative dimensions")
            self.rep_name = name
            self.rep_line = line_no
            self.rep_dims = dims
            self.out.rep_quiver[name] = qname
        elif key == "matrix":
            if self.rep_name is None:
                self.fail(line_no, "matrix outside a rep block")
            if len(tokens) < 3:
                self.fail(line_no, "usage: matrix <arrow> [[..],[..]]")
            aname = tokens[1]
            q = self.out.quivers[self.out.rep_quiver[self.rep_name]]
            arrow = next((a for a in q.arrows if a.name == aname), None)
            if arrow is None:
                self.fail(line_no, f"unknown arrow {aname!r}")
            try:
                entries = json.loads(" ".join(tokens[2:]))
            except json.JSONDecodeError:
                self.fail(line_no, f"arrow {aname!r}: entries are not a JSON array of rows")
            shape = (self.rep_dims[arrow.target], self.rep_dims[arrow.source])
            if (
                not isinstance(entries, list)
                or len(entries) != shape[0]
                or any(not isinstance(r, list) or len(r) != shape[1] for r in entries)
            ):
                self.fail(line_no, f"arrow {aname!r}: matrix must have shape {shape[0]}x{shape[1]}")
            self.rep_maps[aname] = Matrix(self.out.field, entries, shape[1])
        elif key == "zmod":
            try:
                assert tokens[1] == "free"
                free_rank = int(tokens[2])
                assert free_rank >= 0
                factors = []
                if len(tokens) > 3:
                    assert tokens[3] == "factors"
                    if len(tokens) > 4:
                        factors = [int(x) for x in " ".join(tokens[4:]).split(",") if x.strip()]
            except (AssertionError, IndexError, ValueError):
                self.fail(line_no, "usage: zmod free <r> factors d1,d2,...")
            if any(f <= 0 for f in factors):
                self.fail(line_no, "factors must be positive")
            self.out.zmods.append(from_pieces(free_rank, factors))
        elif key == "alphabet":
            if len(tokens) != 2:
                self.fail(line_no, "usage: alphabet x,y")
            symbols = tuple(s for s in tokens[1].split(",") if s)
            if not symbols or len(set(symbols)) != len(symbols):
                self.fail(line_no, "alphabet needs distinct nonempty symbols")
            self.out.alphabet = symbols
        elif key == "word":
            if self.out.alphabet is None:
                self.fail(line_no, "word before any alphabet line")
            try:
                self.out.words.append(parse_reduce(" ".join(tokens[1:]), self.out.alphabet))
            except ParseError as exc:
                self.fail(line_no, exc.reason)
        else:
            self.fail(line_no, f"unknown directive {key!r}")


def parse_input(path: str) -> ParsedInput:
    """Parse a fixture file; deterministic, with 1-based line numbers in
    every error."""
    parser = _Parser()
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parser.handle(line_no, line.split())
    parser.finish_quiver()
    parser.finish_rep()
    return parser.out
