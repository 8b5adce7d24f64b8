"""Exact dense linear algebra over prime fields and the rationals, plus
Smith normal form over the integers.

Everything upstream (morphism spaces, Ext/Tor, subrepresentations,
quotients, minimal polynomials, module classification) reduces to the
kernels in this module: ``kernel_basis``, ``span`` (basis, coordinates,
defining equations and a unit-vector complement of a column space, from one
elimination; ``inverse`` reads its coordinates) and ``snf``.  Scalars are
exact throughout: prime fields use canonical integer representatives in
``[0, p)``, the rationals use :class:`fractions.Fraction`.  Matrices with
zero rows or zero columns are legal everywhere and behave as the unique
maps to or from the zero space.

Each field class implements one protocol: the scalar operations
``coerce``, ``add``, ``mul``, ``neg``, ``inv`` and the row kernels
``scale_row(c, row)``, ``sub_scaled(row, f, prow)`` (``row - f * prow``)
and ``dot(u, v)``, one list comprehension or sum each (an inline ``% p``
over ``GF(p)``).  ``dot`` is ``sum(map(mul, u, v))``, reduced once mod ``p``
over ``GF(p)`` and started at ``Fraction(0)`` over ``QQ``: ``map`` with
``operator.mul`` loops in C, so over ``GF(p)`` it takes about half the time
of a generator over ``zip`` on rows of 3 to 40 entries (over ``QQ`` the
``Fraction`` arithmetic dominates either way).  Matrix products and
``apply`` make one ``dot`` per entry, and ``IntMatrix`` products use the
same sum.

Elimination is one algorithm: the forward pass, which clears each pivot
column below the pivot only, in the manner of Dumas, Giorgi and Pernet,
"FFLAS and FFPACK" (ACM TOMS 35(3), 2008), then back substitution over
only the columns a reader needs.  The forward pass gives the pivots and one
normalised echelon row per pivot; ``pivots`` and ``rank`` stop there.
``kernel_basis`` back-substitutes over the free columns (not at all when
there is none; ``kernel_and_free`` also returns those columns, at which the
basis is the identity), ``span`` over the identity columns of ``[A | I]``, and
``rref`` over every column (``_back_substitute``).

The forward pass has three loops, one per representation of a row:

* lists, over ``QQ`` and over ``GF(p)`` with ``p > 2`` when ``min(nrows,
  ncols) < PACKED_MIN``: ``Matrix._forward`` makes one row-kernel call per
  row operation;
* packed slots, over ``GF(p)`` with ``p > 2`` from ``PACKED_MIN`` on
  (``_forward_packed``);
* XOR bytes, over ``GF(2)`` at every size (``_forward_gf2``).

``_forward_packed`` works on rows packed into one Python int each, one
fixed-width slot per column and column 0 in the top slot.  It sweeps the
columns from left to right, as the list loop does, over the rows that are
not yet pivots, in input order.  A row's slot at the swept column is one
shift, since every slot left of it is zero; a row operation is one big-int
multiply-add ``row + (p - f) * pivot_row`` and a mask that clears that
slot, and reduction mod ``p`` waits until a row is unpacked.  A slot starts
below ``p`` and gains at most ``(p - 1)^2`` per row operation, and a row
takes at most ``k = min(nrows, ncols)`` of them between two unpackings, so
slots of ``p - 1 + k (p - 1)^2`` never carry into their neighbours.  A
pivot row is reduced and scaled to lead with one in a single pass over its
unpacked slots.  Back substitution always runs on lists: the pivot rows
come out of the forward pass as lists, and a packed back substitution lost
to the list loop when few columns are free.

Over ``GF(2)`` addition is XOR, so a row packed one byte per entry never
grows and every pivot already leads with one, as in M4RI (Albrecht, Bard
and Hart, "Algorithm 898: Efficient multiplication of dense matrices over
GF(2)", ACM TOMS 37(1), 2010).  ``_forward_gf2`` is the same column sweep
with ``row ^ pivot_row`` as its row operation: nothing is reduced, masked
or rescaled, and a pivot row comes back as its bytes.

``Matrix.block_sum`` sums scaled blocks into one matrix of list rows, one
``sub_scaled`` call per block row over every field.  Only
``Matrix.block_sum_rank`` sums packed: from ``PACKED_MIN`` on over
``GF(p)`` with ``p > 2``, each output row is one packed int that every
block row meeting it adds into with one multiply-add ``row + c * (block_row
<< shift)`` (``_packed_block_sum``), and the rows go to ``_forward_packed``
unreduced, in slots of ``p - 1 + (t + k) (p - 1)^2`` for ``t`` terms, so no
row is unpacked until it becomes a pivot.  Over ``GF(2)``, over ``QQ`` and
below ``PACKED_MIN`` it ranks ``block_sum``, whose ``GF(2)`` forward pass
is ``_forward_gf2``.  The packed loops follow
Dumas, Fousse and Salvy, "Simultaneous modular reduction and Kronecker
substitution for small finite fields" (J. Symb. Comput. 46, 2011).

``Matrix(field, rows)`` coerces every entry and checks the row lengths,
for input from outside; the module's own results are built by the private
``Matrix._of``, which trusts rows it knows to be canonical.

The private ``_gf_factor`` factors polynomials over ``GF(p)`` by
Berlekamp's algorithm, whose one linear-algebra step is a
``kernel_basis``; ``artheory`` factors minimal polynomials with it.
"""

from __future__ import annotations

import functools
import math
import struct
from fractions import Fraction
from operator import mul

# Below this min(nrows, ncols) GF(p) for p > 2 takes the list loop, and
# GF(2) takes the XOR loop at every size.  Timed on the GF(p), p > 2,
# forward passes of one pass of ar-search and of homext-dense at seed 77
# (best of 7, 2-vCPU VM, Python 3.11): from 8 to 47 columns the packed
# loop took 11.5 ms against the list loop's 16.0 ms on ar-search's GF(3)
# and GF(5) systems (only the 8-15 column ones over GF(3) lost, 1.24
# against 1.17 ms), and 11.1 against 18.5 ms on homext-dense's GF(101)
# ones; under 8 columns it took 1.25-1.26 times as long over GF(3) and
# GF(5), and 0.94 times as long over GF(101).
PACKED_MIN = 8


class PrimeField:
    """The field with ``p`` elements, scalars stored as ints in ``[0, p)``."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if p < 2 or p >= 2**31:
            raise ValueError(f"characteristic must be a prime < 2^31, got {p}")
        if any(p % d == 0 for d in range(2, min(p, int(p**0.5) + 1))):
            raise ValueError(f"{p} is not prime")
        self.p = p

    zero = 0
    one = 1

    def coerce(self, x) -> int:
        if isinstance(x, Fraction):
            return int(x.numerator) * self.inv(int(x.denominator) % self.p) % self.p
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def scale_row(self, c, row):
        p = self.p
        return [c * x % p for x in row]

    def sub_scaled(self, row, f, prow):
        """``row - f * prow``."""
        p = self.p
        return [(x - f * y) % p for x, y in zip(row, prow)]

    def dot(self, u, v):
        return sum(map(mul, u, v)) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class Rationals:
    """The field of rational numbers, scalars are ``Fraction`` values."""

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x) -> Fraction:
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def scale_row(self, c, row):
        return [c * x for x in row]

    def sub_scaled(self, row, f, prow):
        """``row - f * prow``."""
        return [x - f * y for x, y in zip(row, prow)]

    def dot(self, u, v):
        return sum(map(mul, u, v), self.zero)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Rationals")

    def __repr__(self):
        return "QQ"


QQ = Rationals()


# ---------------------------------------------------------------------------
# factoring over GF(p), on ascending coefficient lists of ints in [0, p)
# with no zero on top (the zero polynomial is [])


def _gf_factor(field: PrimeField, f: list[int]) -> list[tuple[list[int], int]]:
    """Factor the monic ``f`` into monic irreducibles with multiplicities,
    sorted by degree, multiplicity, then coefficients from the top down:
    the order of sympy's ``factor_list``.

    The square-free split takes gcds with the derivative, and in
    characteristic ``p`` recurses on the part left over, a ``p``-th power
    ``h(x)^p = h(x^p)`` whose root ``h`` is every ``p``-th coefficient
    (Geddes, Czapor and Labahn, *Algorithms for Computer Algebra*, 1992,
    Algorithm 8.3).  :func:`_gf_berlekamp` factors each part."""
    p, out = field.p, []
    c = _gf_gcd(p, f, _trim([i * a % p for i, a in enumerate(f)][1:]))
    w, i = _gf_divmod(p, f, c)[0], 1
    while len(w) > 1:  # the product of the factors of multiplicity >= i
        y = _gf_gcd(p, w, c)
        if len(y) < len(w):
            out += [(h, i) for h in _gf_berlekamp(field, _gf_divmod(p, w, y)[0])]
        w, c, i = y, _gf_divmod(p, c, y)[0], i + 1
    if len(c) > 1:
        out += [(h, m * p) for h, m in _gf_factor(field, c[::p])]
    return sorted(out, key=lambda hm: (len(hm[0]), hm[1], hm[0][::-1]))


def _gf_berlekamp(field: PrimeField, g: list[int]) -> list[list[int]]:
    """The irreducible factors of the square-free monic ``g``, after
    Berlekamp, "Factoring polynomials over large finite fields", Math.
    Comp. 24 (1970).  The ``v`` with ``v^p = v mod g`` are the kernel of
    ``(Q - I)^T``, row ``i`` of ``Q`` being ``x^(ip) mod g``, and its
    dimension ``k`` is the number of factors.  Each ``v`` is a constant
    modulo every factor, so ``gcd(g, v + s)`` over GF(2), and ``gcd(g, (v +
    s)^((p-1)/2) - 1)`` over odd ``p``, separates factors where ``v + s``
    differs (in quadratic character).  Some ``s < p`` and some ``v``
    separate each pair; the split stops at ``k`` factors, all irreducible."""
    p, n = field.p, len(g) - 1
    if n == 1:
        return [g]
    xp, row, Q = _gf_powmod(p, [0, 1], p, g), [1], []
    for _ in range(n):
        Q.append(row + [0] * (n - len(row)))
        row = _gf_mulmod(p, row, xp, g)
    K = Matrix._of(field, [[(Q[i][j] - (i == j)) % p for i in range(n)] for j in range(n)], n).kernel_basis()
    basis, factors = [_trim(v) for v in K.columns()], [g]
    for s, v in ((s, v) for s in range(p) for v in basis):
        if len(factors) == K.ncols:
            break
        t = _gf_add(p, v, s)
        if p > 2:
            t = _gf_add(p, _gf_powmod(p, t, (p - 1) // 2, g), -1)
        split = []
        for h in factors:
            d = _gf_gcd(p, h, t)
            split += [d, _gf_divmod(p, h, d)[0]] if 1 < len(d) < len(h) else [h]
        factors = split
    assert len(factors) == K.ncols, f"Berlekamp split of a degree-{n} polynomial fell short of its factor count"
    return factors


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _gf_add(p: int, a: list[int], c: int) -> list[int]:
    """``a + c`` for a constant ``c``."""
    return _trim([(a[0] + c) % p] + a[1:] if a else [c % p])


def _gf_divmod(p: int, a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of ``a`` by the nonzero ``b``."""
    r, db, inv = list(a), len(b) - 1, pow(b[-1], -1, p)
    q = [0] * max(len(a) - db, 0)
    for i in reversed(range(len(q))):
        c = q[i] = r[i + db] * inv % p
        for j, y in enumerate(b):
            r[i + j] = (r[i + j] - c * y) % p
    return q, _trim(r[:db])


def _gf_gcd(p: int, a: list[int], b: list[int]) -> list[int]:
    """The monic gcd of ``a`` and ``b``, not both zero."""
    while b:
        a, b = b, _gf_divmod(p, a, b)[1]
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _gf_mulmod(p: int, a: list[int], b: list[int], m: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _gf_divmod(p, _trim([x % p for x in out]), m)[1]


def _gf_powmod(p: int, a: list[int], e: int, m: list[int]) -> list[int]:
    """``a^e mod m`` for ``a`` of lower degree than ``m``, by
    square-and-multiply."""
    out = [1]
    while e:
        if e & 1:
            out = _gf_mulmod(p, out, a, m)
        a, e = _gf_mulmod(p, a, a, m), e >> 1
    return out


def _width(rows: list[list], ncols: int | None) -> int:
    """The common length of ``rows``, which ``ncols`` must match when it
    is given; ``ncols`` itself when there are no rows."""
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise ValueError("ragged rows")
    if ncols is None and not widths:
        raise ValueError("ncols required for a matrix with no rows")
    if ncols is not None and widths - {ncols}:
        raise ValueError("ncols disagrees with row length")
    return widths.pop() if widths else ncols


class Matrix:
    """Immutable-by-convention dense matrix over a :class:`PrimeField` or
    :data:`QQ`.  Rows are lists of field scalars.

    The constructor coerces every entry and rejects ragged rows, for input
    from outside the module's own arithmetic; results of matrix operations
    are built by :meth:`_of`, which trusts its rows."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, ncols: int | None = None):
        self.field = field
        self.rows = [[field.coerce(x) for x in row] for row in rows]
        self.nrows, self.ncols = len(self.rows), _width(self.rows, ncols)

    @classmethod
    def _of(cls, field, rows: list[list], ncols: int) -> "Matrix":
        """Wrap ``rows`` without copying or checking them.  The caller
        guarantees canonical scalars of ``field`` (ints in ``[0, p)`` or
        ``Fraction`` values), ``ncols`` entries per row, and row lists that
        no other matrix holds."""
        m = object.__new__(cls)
        m.field, m.rows, m.nrows, m.ncols = field, rows, len(rows), ncols
        return m

    @classmethod
    def zeros(cls, field, nrows: int, ncols: int) -> "Matrix":
        z = field.zero
        return cls._of(field, [[z] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return cls._of(field, [[o if i == j else z for j in range(n)] for i in range(n)], n)

    @classmethod
    def from_columns(cls, field, cols, nrows: int) -> "Matrix":
        m = cls.zeros(field, nrows, len(cols))
        for j, col in enumerate(cols):
            if len(col) != nrows:
                raise ValueError(f"column {j} has length {len(col)}, expected {nrows}")
            for i, x in enumerate(col):
                m.rows[i][j] = field.coerce(x)
        return m

    @classmethod
    def block_sum(cls, field, nrows: int, ncols: int, terms) -> "Matrix":
        """The ``nrows x ncols`` sum of ``coeff * block`` over the terms
        ``(row, col, coeff, block)``, each block with its top-left entry
        at ``(row, col)``; blocks may overlap.  Each block row is one
        ``sub_scaled`` call on a list row."""
        coerce, rows = field.coerce, [[field.zero] * ncols for _ in range(nrows)]
        for r, c, x, B in _fitting_terms(field, nrows, ncols, terms):
            minus, c1 = field.neg(coerce(x)), c + B.ncols
            for brow, orow in zip(B.rows, rows[r:]):
                orow[c:c1] = field.sub_scaled(orow[c:c1], minus, brow)
        return cls._of(field, rows, ncols)

    @classmethod
    def block_sum_rank(cls, field, nrows: int, ncols: int, terms) -> int:
        """``block_sum(field, nrows, ncols, terms).rank()``.  Where the
        forward pass is packed, the packed rows of the sum go into it
        unreduced and are never unpacked: a slot starts at ``len(terms)``
        terms of at most ``(p - 1)^2`` and gains at most ``k = min(nrows,
        ncols)`` more in row operations, so slots sized for ``len(terms) +
        k`` terms hold it."""
        k = min(nrows, ncols)
        if not (isinstance(field, PrimeField) and field.p > 2 and k >= PACKED_MIN):
            return cls.block_sum(field, nrows, ncols, terms).rank()
        terms = _fitting_terms(field, nrows, ncols, terms)
        nbytes = _slot_bytes(field.p, len(terms) + k)
        rows = _packed_block_sum(field, nrows, ncols, terms, nbytes)
        return len(_forward_packed(field.p, rows, ncols, nbytes)[1])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def column(self, j: int) -> list:
        return [row[j] for row in self.rows]

    def columns(self) -> list[list]:
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self) -> "Matrix":
        rows = [list(col) for col in zip(*self.rows)] if self.rows else [[] for _ in range(self.ncols)]
        return Matrix._of(self.field, rows, self.nrows)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.shape == other.shape
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"

    def __add__(self, other: "Matrix") -> "Matrix":
        self._compat(other, same_shape=True)
        add = self.field.add
        return Matrix._of(
            self.field,
            [[add(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
            self.ncols,
        )

    def __neg__(self) -> "Matrix":
        neg = self.field.neg
        return Matrix._of(self.field, [[neg(a) for a in row] for row in self.rows], self.ncols)

    def scale(self, c) -> "Matrix":
        field = self.field
        c = field.coerce(c)
        return Matrix._of(field, [field.scale_row(c, row) for row in self.rows], self.ncols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._compat(other)
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        field = self.field
        bt = list(zip(*other.rows)) if other.rows else []
        if not bt:
            return Matrix.zeros(field, self.nrows, other.ncols)
        dot = field.dot
        return Matrix._of(field, [[dot(row, col) for col in bt] for row in self.rows], other.ncols)

    def apply(self, vec: list) -> list:
        """Matrix-vector product ``A @ v`` (column-vector convention)."""
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        field = self.field
        vec = [field.coerce(x) for x in vec]
        dot = field.dot
        return [dot(row, vec) for row in self.rows]

    def is_zero(self) -> bool:
        z = self.field.zero
        return all(x == z for row in self.rows for x in row)

    def hstack(self, other: "Matrix") -> "Matrix":
        self._compat(other)
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch")
        return Matrix._of(
            self.field,
            [ra + rb for ra, rb in zip(self.rows, other.rows)],
            self.ncols + other.ncols,
        )

    def vstack(self, other: "Matrix") -> "Matrix":
        self._compat(other)
        if self.ncols != other.ncols:
            raise ValueError("column count mismatch")
        return Matrix._of(self.field, [r[:] for r in self.rows] + [r[:] for r in other.rows], self.ncols)

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and its pivot columns: the forward pass,
        then back substitution over every column."""
        field = self.field
        echelon, pivots = self._forward()
        rows = _back_substitute(field, echelon, pivots, range(self.ncols))
        rows += [[field.zero] * self.ncols for _ in range(self.nrows - len(pivots))]
        return Matrix._of(field, rows, self.ncols), pivots

    def _forward(self) -> tuple[list[list], list[int]]:
        """The forward pass: one row per pivot of a row echelon form, each
        scaled to lead with one, and the pivot columns.  Row ``i`` is zero
        left of ``pivots[i]``; its entries at later pivot columns are what
        back substitution would clear.  All three loops sweep the columns
        from left to right.  Lists, over ``QQ`` and over ``GF(p)`` with ``p
        > 2`` below ``PACKED_MIN``, take one row-kernel call per row
        operation, on a copy of the rows.  Packed slots, over ``GF(p)`` with
        ``p > 2`` from ``PACKED_MIN`` on, take one multiply-add and a mask
        per row operation, with no row swaps (:func:`_forward_packed`).
        XOR bytes, over ``GF(2)`` at every size, take one XOR, with no
        swaps and nothing reduced or rescaled (:func:`_forward_gf2`)."""
        field, k = self.field, min(self.nrows, self.ncols)
        if isinstance(field, PrimeField):
            if field.p == 2:
                return _forward_gf2([int.from_bytes(bytes(row), "big") for row in self.rows], self.ncols)
            if k >= PACKED_MIN:
                nbytes = _slot_bytes(field.p, k)
                return _forward_packed(field.p, [_pack(row, nbytes) for row in self.rows], self.ncols, nbytes)
        rows = [row[:] for row in self.rows]
        pivots: list[int] = []
        r = 0
        zero = field.zero
        scale_row, sub_scaled = field.scale_row, field.sub_scaled
        for c in range(self.ncols):
            pivot_row = None
            for i in range(r, len(rows)):
                if rows[i][c] != zero:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            # rows r, r+1, ... are zero left of column c, so every row
            # operation below changes only the tail from column c on
            tail = rows[r][c:] = scale_row(field.inv(rows[r][c]), rows[r][c:])
            for i in range(r + 1, len(rows)):
                row = rows[i]
                if row[c] != zero:
                    row[c:] = sub_scaled(row[c:], row[c], tail)
            pivots.append(c)
            r += 1
            if r == len(rows):
                break
        return rows[:r], pivots

    def pivots(self) -> list[int]:
        """Pivot columns of the row echelon form, the columns outside the
        span of the columns before them, from the forward pass alone."""
        return self._forward()[1]

    def rank(self) -> int:
        """The number of pivots of the forward pass; nothing is
        back-substituted."""
        return len(self.pivots())

    def kernel_basis(self) -> "Matrix":
        """Basis of ``{x : Ax = 0}`` as the columns of the returned matrix.

        ``rank(result) + rank(A) = ncols(A)`` and ``A @ result = 0``.
        Column ``j`` is the unit vector at the ``j``-th free (non-pivot)
        column less the rref's entries in that column at the pivots, the
        basis the rref gives.  Back substitution on the rows of the forward
        pass runs over the free columns only, and not at all when there is
        none.
        """
        return self.kernel_and_free()[0]

    def kernel_and_free(self) -> tuple["Matrix", list[int]]:
        """:meth:`kernel_basis` and the free columns of the same forward
        pass, ascending.  The basis is the identity at the free rows, so
        the entries at ``free`` of a kernel vector are its coordinates in
        the basis."""
        field = self.field
        echelon, pivots = self._forward()
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        K = Matrix.zeros(field, self.ncols, len(free))
        if not free:
            return K, free
        scale_row, minus_one = field.scale_row, field.neg(field.one)
        for pc, row in zip(pivots, _back_substitute(field, echelon, pivots, free)):
            K.rows[pc] = scale_row(minus_one, row)
        for j, fc in enumerate(free):
            K.rows[fc][j] = field.one
        return K, free

    def inverse(self) -> "Matrix | None":
        """``A^-1``, or ``None`` unless ``A`` is square of full rank: the
        rref of ``[A | I]`` is then ``[I | A^-1]``, so ``A^-1`` is the
        coordinate matrix of the span."""
        if self.nrows != self.ncols:
            return None
        coords = self.span().coords
        return coords if coords.nrows == self.nrows else None

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows

    def span(self) -> "Span":
        """Column space of ``A`` from the forward pass of ``[A | I]``.  Its
        rref is ``[E A | E]`` with ``E`` invertible, and the first
        ``rank(A)`` of its ``n`` pivots lie in ``A``, the rest in ``I``; so
        back substitution runs over the ``n`` columns of ``I`` alone, and
        the rows it gives are ``E``."""
        field, n, m = self.field, self.nrows, self.ncols
        identity = Matrix.identity(field, n)
        AI = self.hstack(identity)
        echelon, pivots = AI._forward()
        E = _back_substitute(field, echelon, pivots, range(m, m + n))
        r = sum(1 for c in pivots if c < m)
        return Span(
            basis=Matrix._of(field, [[row[c] for c in pivots[:r]] for row in self.rows], r),
            coords=Matrix._of(field, E[:r], n),
            equations=Matrix._of(field, E[r:], n),
            complement=Matrix._of(field, [[identity.rows[i][c - m] for c in pivots[r:]] for i in range(n)], n - r),
        )

    def _compat(self, other: "Matrix", same_shape: bool = False):
        if self.field != other.field:
            raise ValueError("field mismatch")
        if same_shape and self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")


def _fitting_terms(field, nrows: int, ncols: int, terms) -> list:
    """``terms`` as a list, each a ``(row, col, coeff, block)`` whose block
    lies over ``field`` and fits in ``nrows x ncols`` at ``(row, col)``."""
    terms = list(terms)
    for r, c, _, B in terms:
        if not (0 <= r <= nrows - B.nrows and 0 <= c <= ncols - B.ncols) or B.field != field:
            raise ValueError(f"{B!r} does not fit at ({r}, {c}) in {nrows}x{ncols} over {field}")
    return terms


def _packed_block_sum(field: PrimeField, nrows: int, ncols: int, terms: list, nbytes: int) -> list[int]:
    """The ``nrows`` rows of the block sum of the fitting ``terms``, each
    packed into one int of ``ncols`` slots of ``nbytes`` bytes as in
    :func:`_forward_packed`.  A block row adds in one multiply-add ``row +
    c * (block_row << shift)``, with nothing reduced, so a slot gains at
    most ``(p - 1)^2`` per term; a block that recurs is packed once."""
    coerce, rows, packed = field.coerce, [0] * nrows, {}
    for r, c, x, B in terms:
        brows = packed.get(id(B))
        if brows is None:
            brows = packed[id(B)] = [_pack(brow, nbytes) for brow in B.rows]
        x, shift = coerce(x), 8 * nbytes * (ncols - c - B.ncols)
        for i, brow in enumerate(brows, r):
            rows[i] += x * brow << shift
    return rows


def _forward_gf2(rows: list[int], ncols: int) -> tuple[list[list[int]], list[int]]:
    """The forward pass of :meth:`Matrix._forward` on ``GF(2)`` rows
    packed one byte per entry, column 0 in the top byte.  It is the column
    sweep of :func:`_forward_packed` with addition as XOR: at column ``c``
    the pivot is the first row left, in input order, whose byte at ``c``
    is set, and every later row with that byte set becomes ``row ^
    pivot_row``.  Every byte left of ``c`` is zero in the rows left, so
    that byte is set exactly when the row is at least ``top``, a one in
    it.  A byte is always 0 or 1, so nothing is reduced or masked, and a
    pivot row already leads with one: it is returned as its bytes.  A row
    that reaches zero drops out."""
    active = [row for row in rows if row]
    pivots, echelon = [], []
    for c in range(ncols):
        if not active:
            break
        top = 1 << 8 * (ncols - 1 - c)
        pivot_row, kept = None, []
        for row in active:
            if row >= top:
                if pivot_row is None:
                    pivot_row = row
                    pivots.append(c)
                    echelon.append(list(row.to_bytes(ncols, "big")))
                    continue
                row ^= pivot_row
                if not row:
                    continue
            kept.append(row)
        active = kept
    return echelon, pivots


def _forward_packed(p: int, rows: list[int], ncols: int, nbytes: int) -> tuple[list[list[int]], list[int]]:
    """The forward pass of :meth:`Matrix._forward` on ``GF(p)`` rows
    packed into one int each, ``ncols`` slots of ``nbytes`` bytes: column
    ``j`` is the slot ``ncols - 1 - j`` slots above the bottom one.  Slots
    need not be reduced mod ``p``; the caller sizes them to hold their
    start plus ``min(len(rows), ncols)`` row operations of at most ``(p -
    1)^2`` each.

    The pass sweeps the columns from left to right over the rows that are
    not yet pivots, kept in input order.  Every slot left of the swept
    column ``c`` is exactly zero in them, so ``row >> shift`` is the slot
    at ``c``.  The first row whose slot is nonzero mod ``p`` is the pivot;
    it is unpacked, reduced and normalised once, in one pass over its
    slots.  A later row whose slot is nonzero mod ``p`` takes a row
    operation, which leaves a multiple of ``p`` there; that slot, like one
    that already held an unreduced zero, is masked off.  A row that
    reaches zero drops out."""
    w = 8 * nbytes
    active = [row for row in rows if row]
    pivots, echelon = [], []
    for c in range(ncols):
        if not active:
            break
        shift = (ncols - 1 - c) * w
        below = (1 << shift) - 1
        pivot_row, kept = None, []
        for row in active:
            t = row >> shift
            if t:
                f = t % p
                if f and pivot_row is None:
                    vals = _unpack(row, ncols - c, nbytes, p)
                    pivot_row = _pack(vals, nbytes)
                    pivots.append(c)
                    echelon.append([0] * c + vals)
                    continue
                row = (row + (p - f) * pivot_row) & below if f else row & below
                if not row:
                    continue
            kept.append(row)
        active = kept
    return echelon, pivots


def _back_substitute(field, echelon: list[list], pivots: list[int], cols) -> list[list]:
    """The rows of the rref at the ascending columns ``cols``, from the
    rows of the forward pass: from the last pivot row up, row ``i`` less
    ``echelon[i][pivots[j]]`` times the finished row ``j``, for each later
    pivot ``j``.  Finished rows vanish at every pivot column but their
    own, so these multiples are read off the forward pass."""
    r = len(pivots)
    out: list[list] = [[] for _ in range(r)]
    zero, sub_scaled = field.zero, field.sub_scaled
    for i in range(r - 1, -1, -1):
        e = echelon[i]
        row = [e[c] for c in cols]
        for j in range(i + 1, r):
            f = e[pivots[j]]
            if f != zero:
                row = sub_scaled(row, f, out[j])
        out[i] = row
    return out


def _slot_bytes(p: int, k: int) -> int:
    """Bytes per packed slot: the least power of two that holds
    ``p - 1 + k (p - 1)^2``.  16 bytes hold it for ``p < 2^31`` and any
    real ``k``."""
    bound = p - 1 + k * (p - 1) ** 2
    nbytes = 1
    while bound >> (8 * nbytes):
        nbytes *= 2
    return nbytes


@functools.lru_cache(maxsize=1024)
def _slot_codec(nbytes: int, n: int) -> tuple[struct.Struct, struct.Struct]:
    """Packer and unpacker of ``n`` big-endian slots of ``nbytes`` bytes.
    The packer takes entries below 2^64; a 16-byte slot is written as eight
    zero bytes and the entry, and read back as two 8-byte halves."""
    if nbytes == 16:
        return struct.Struct(">" + "8xQ" * n), struct.Struct(f">{2 * n}Q")
    codec = struct.Struct(f">{n}{'BHIQ'[nbytes.bit_length() - 1]}")
    return codec, codec


def _pack(vals: list[int], nbytes: int) -> int:
    return int.from_bytes(_slot_codec(nbytes, len(vals))[0].pack(*vals), "big")


def _unpack(row: int, n: int, nbytes: int, p: int) -> list[int]:
    """The lowest ``n`` slots of a packed pivot row, reduced mod ``p`` and
    divided by the top one, nonzero mod ``p``, in one pass."""
    vals = _slot_codec(nbytes, n)[1].unpack(row.to_bytes(n * nbytes, "big"))
    if nbytes == 16:
        vals = [hi << 64 | lo for hi, lo in zip(vals[::2], vals[1::2])]
    inv = pow(vals[0] % p, -1, p)
    return [x * inv % p for x in vals]


class Span:
    """A subspace ``S`` of ``field^n`` given by spanning columns ``A``.

    * ``basis``: the pivot columns of ``A``, a basis of ``S`` (``n x r``);
    * ``coords``: ``r x n`` with ``coords @ basis = I``, so ``coords @ v``
      is the coordinate vector in ``basis`` of any ``v`` in ``S``;
    * ``equations``: ``(n - r) x n``, zero exactly on ``S``; it sends a
      vector to its coordinates in ``complement`` modulo ``S``, so
      ``equations @ complement = I``;
    * ``complement``: ``n x (n - r)``, the unit vectors ``e_i`` that lie
      outside the span of ``S`` and ``e_0, ..., e_{i-1}``, ascending.
    """

    __slots__ = ("basis", "coords", "equations", "complement")

    def __init__(self, basis: Matrix, coords: Matrix, equations: Matrix, complement: Matrix):
        self.basis, self.coords, self.equations, self.complement = basis, coords, equations, complement


class IntMatrix:
    """Rectangular matrix of arbitrary-precision integers."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows, ncols: int | None = None):
        self.rows = [[int(x) for x in row] for row in rows]
        self.nrows, self.ncols = len(self.rows), _width(self.rows, ncols)

    @classmethod
    def _of(cls, rows: list[list[int]], ncols: int) -> "IntMatrix":
        """Wrap ``rows`` without copying or checking them, like
        :meth:`Matrix._of`: the caller guarantees ints, ``ncols`` entries
        per row, and row lists that no other matrix holds."""
        m = object.__new__(cls)
        m.rows, m.nrows, m.ncols = rows, len(rows), ncols
        return m

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "IntMatrix":
        return cls([[0] * ncols for _ in range(nrows)], ncols)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.shape == other.shape and self.rows == other.rows

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        bt = list(zip(*other.rows)) if other.rows else []
        if not bt:
            return IntMatrix.zeros(self.nrows, other.ncols)
        return IntMatrix._of(
            [[sum(map(mul, row, col)) for col in bt] for row in self.rows],
            other.ncols,
        )

    def diagonal(self) -> list[int]:
        return [self.rows[i][i] for i in range(min(self.nrows, self.ncols))]

    def __repr__(self):
        return f"IntMatrix({self.nrows}x{self.ncols})"


def snf(A: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: returns unimodular ``U``, diagonal ``D`` and
    unimodular ``V`` with ``U @ A @ V == D``, ``d_1 | d_2 | ...``, all
    ``d_i >= 0`` and the zeros last.

    Row and column Hermite forms alternate until ``D`` is diagonal, in the
    manner of Kannan and Bachem, "Polynomial algorithms for computing the
    Smith and Hermite normal forms of an integer matrix" (SIAM J. Comput.
    8, 1979): each entry below a pivot is cleared by one unimodular Bezout
    step on two rows (columns), the pivot is made positive, and the entries
    above it are reduced modulo it.  A diagonal ``D`` then gets its
    divisibility chain from the unimodular gcd/lcm step on pairs of
    diagonal entries.  The reductions keep the entries of ``U``, ``D`` and
    ``V`` small: on random 5 x 5 matrices with entries in [-100, 100] the
    tests hold them to at most 512 bits (72 at most over 600 inputs).  A
    row of ``U`` (column of ``V``) is fixed only up to vectors of the left
    (right) kernel of ``A``, which are not reduced, so an input with a
    kernel can leave a few hundred bits there (645 at most over 3,000
    random low-rank shapes up to 6 x 6).
    """
    m, n = A.nrows, A.ncols
    D = [row[:] for row in A.rows]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    # column operations on D are row operations on V^T, which is kept
    Vt = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    transposed = False  # D holds the transpose of the working matrix
    while True:
        _hermite_rows(D, Vt if transposed else U)
        # D is in row echelon form, so it is diagonal when nothing lies
        # right of the diagonal
        if not any(any(row[i + 1:]) for i, row in enumerate(D)):
            break
        D = [list(col) for col in zip(*D)]
        transposed = not transposed
    if transposed:
        D = [list(col) for col in zip(*D)]
    k = min(m, n)
    for i in range(k):
        for j in range(i + 1, k):
            a, b = D[i][i], D[j][j]
            if not a:  # zeros are last
                break
            if b % a:
                # [[x, y], [-b/g, a/g]] diag(a, b) [[1, -y b/g], [1, x a/g]]
                # is diag(g, lcm), and both factors have determinant 1
                g, x, y = _xgcd(a, b)
                ag, bg = a // g, b // g
                U[i], U[j] = _combine_rows(U[i], U[j], x, y, -bg, ag)
                Vt[i], Vt[j] = _combine_rows(Vt[i], Vt[j], 1, 1, -y * bg, x * ag)
                D[i][i], D[j][j] = g, ag * b
    return IntMatrix._of(U, m), IntMatrix._of(D, n), IntMatrix._of([list(col) for col in zip(*Vt)], n)


def _hermite_rows(D: list[list[int]], U: list[list[int]]) -> None:
    """Bring ``D`` to row Hermite form in place by unimodular row
    operations, applying each one to ``U`` as well: pivots positive, every
    entry below a pivot zero, every entry above one reduced into
    ``[0, pivot)``."""
    r, nrows = 0, len(D)
    for c in range(len(D[0]) if D else 0):
        if r == nrows:
            break
        p = r
        while p < nrows and not D[p][c]:
            p += 1
        if p == nrows:
            continue
        if p != r:
            D[r], D[p] = D[p], D[r]
            U[r], U[p] = U[p], U[r]
        for i in range(r + 1, nrows):
            b = D[i][c]
            if not b:
                continue
            a = D[r][c]
            if b % a:
                g, x, y = _xgcd(a, b)
                D[r], D[i] = _combine_rows(D[r], D[i], x, y, -b // g, a // g)
                U[r], U[i] = _combine_rows(U[r], U[i], x, y, -b // g, a // g)
            else:
                q = b // a
                D[i] = [s - q * t for s, t in zip(D[i], D[r])]
                U[i] = [s - q * t for s, t in zip(U[i], U[r])]
        if D[r][c] < 0:
            D[r] = [-s for s in D[r]]
            U[r] = [-s for s in U[r]]
        a = D[r][c]
        for k in range(r):
            q = D[k][c] // a
            if q:
                D[k] = [s - q * t for s, t in zip(D[k], D[r])]
                U[k] = [s - q * t for s, t in zip(U[k], U[r])]
        r += 1


def _combine_rows(u: list[int], v: list[int], a: int, b: int, c: int, d: int) -> tuple[list[int], list[int]]:
    """The rows ``a u + b v`` and ``c u + d v``."""
    return [a * s + b * t for s, t in zip(u, v)], [c * s + d * t for s, t in zip(u, v)]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """``(g, x, y)`` with ``g = gcd(a, b) > 0`` and ``x a + y b = g``,
    ``|x| < |b| / g`` and ``|y| <= |a| / g``, for nonzero ``b``."""
    g = math.gcd(a, b)
    x = pow(a // g, -1, abs(b // g))
    return g, x, (g - x * a) // b
