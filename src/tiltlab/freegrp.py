"""Reduced words, group-algebra arithmetic, and divisible-module actions
for a free group on a small alphabet.

A word is a reduced sequence of ``(generator, +-1)`` letters.  Modules on
which every generator acts invertibly support the inductive extension of a
vector along words: positive letters act directly, negative letters act by
the (unique, because the action is invertible) solution of ``n * x = m``.
Right-module convention throughout: vectors are rows, actions multiply on
the right.

An :class:`XDivModule` keeps one letter table, from each letter ``(sym,
+-1)`` to the rows of the transposed action of ``sym`` or of its inverse,
and a block table built from it on demand, from each run of up to
:data:`BLOCK_LEN` letters to the rows of their composed transposed action.
``envelope_value`` walks a word :data:`BLOCK_LEN` letters at a time, so a
block, like a letter, costs ``dim`` field ``dot`` products.
``envelope_value_alg`` evaluates the words of a group-algebra element in
sorted order and reuses the value at the prefix each word shares with the
word before, so it makes one letter action per distinct prefix of the
terms, not one per letter.  Words multiply by cancelling at the junction
only, since both factors are reduced, and every word holds the one shared
tuple of each of its letters.
"""

from __future__ import annotations

from .errors import SameGenerator
from .exactlin import Matrix

MAX_WORD_LEN = 16  # longest reduced word parse_reduce accepts

# Letters per block of envelope_value.  On 187 random reduced words of
# 50-1,498 letters (GF(7), dim 3, two generators; Python 3.11, Xeon) a
# warm walk ran 2.3x as fast as letter by letter at 3, 3.3x at 4, 5.4x at
# 6 (1,456 blocks) and 6.2x at 8 (11,932 blocks), and the first pass at 8
# took 3.7x its warm time (1.2x at 4).  The table grows as (2k - 1)^len
# with k generators, which the free-envelope command lets a user choose:
# at 4 it holds at most sum over j = 1..4 of 2k (2k - 1)^(j - 1) blocks,
# 160 for two generators and 936 for three (23,436 for three at 6).
BLOCK_LEN = 4

# One tuple per letter, shared by every word: a long word holds pointers,
# not a fresh (sym, e) pair per letter.  Entries equal their keys, so words
# compare and hash as they would without it.
_intern = {}.setdefault


class FreeWord:
    __slots__ = ("letters",)

    def __init__(self, letters: tuple[tuple[str, int], ...]):
        interned, last = [], None
        for letter in letters:
            sym, e = letter
            # an int, so that no ``1.0`` or ``True`` enters the intern table
            # and every later word's letters
            if type(e) is not int or e not in (1, -1):
                raise ValueError("exponents must be +1 or -1")
            if last is not None and last[0] == sym and last[1] == -e:
                raise ValueError("word is not reduced")
            last = _intern(letter, letter)
            interned.append(last)
        self.letters = tuple(interned)

    @classmethod
    def _of(cls, letters: tuple[tuple[str, int], ...]) -> "FreeWord":
        """Wrap ``letters`` without checking or interning them.  The caller
        guarantees a reduced tuple of interned ``(generator, +-1)``
        letters."""
        w = object.__new__(cls)
        w.letters = letters
        return w

    def __eq__(self, other):
        return isinstance(other, FreeWord) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        # both factors are reduced, so letters cancel at the junction only
        # and what is left is reduced
        a, b = self.letters, other.letters
        i, n = 0, min(len(a), len(b))
        while i < n and a[-1 - i][0] == b[i][0] and a[-1 - i][1] == -b[i][1]:
            i += 1
        return FreeWord._of(a[:len(a) - i] + b[i:])

    def inverse(self) -> "FreeWord":
        # the reversed inverse letters of a reduced word are reduced
        inverted = [(sym, -e) for sym, e in reversed(self.letters)]
        return FreeWord._of(tuple([_intern(letter, letter) for letter in inverted]))

    def __str__(self):
        if not self.letters:
            return "1"
        return " ".join(sym if e == 1 else f"{sym}^-1" for sym, e in self.letters)


def reduce_letters(letters) -> tuple[tuple[str, int], ...]:
    """Free cancellation via a stack; confluent, so the result is the
    unique reduced form."""
    stack: list[tuple[str, int]] = []
    for sym, e in letters:
        if stack and stack[-1][0] == sym and stack[-1][1] == -e:
            stack.pop()
        else:
            stack.append((sym, e))
    return tuple(stack)


def word(sym: str, e: int = 1) -> FreeWord:
    return FreeWord(((sym, e),))


def parse_alphabet(text: str) -> tuple[str, ...] | None:
    """The generators of a comma-separated list, or ``None`` unless they
    are one or more distinct symbols that :func:`parse_reduce` can name:
    none may contain ``^`` or whitespace."""
    symbols = tuple(s for s in text.split(",") if s)
    if not symbols or len(set(symbols)) != len(symbols):
        return None
    if any("^" in s or s.split() != [s] for s in symbols):
        return None
    return symbols


def parse_reduce(text: str, alphabet) -> FreeWord:
    """Parse a whitespace-separated word (tokens ``x`` or ``x^-1``) and
    return its reduced form.  Raises ``ValueError`` with the reason, and
    no line number, on an unknown symbol or a reduced word longer than
    :data:`MAX_WORD_LEN`."""
    alphabet = tuple(alphabet)
    letters = []
    for token in text.split():
        if token.endswith("^-1"):
            sym, e = token[:-3], -1
        elif token.endswith("^1"):
            sym, e = token[:-2], 1
        else:
            sym, e = token, 1
        if sym not in alphabet:
            raise ValueError(f"unknown generator {sym!r}")
        letters.append((sym, e))
    reduced = reduce_letters(letters)
    if len(reduced) > MAX_WORD_LEN:
        raise ValueError(f"reduced word length {len(reduced)} exceeds cap {MAX_WORD_LEN}")
    return FreeWord(reduced)


class GroupAlgElem:
    """Finite linear combination of reduced words with nonzero field
    coefficients."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms: dict[FreeWord, object] | None = None):
        self.field = field
        clean = {}
        for w, c in (terms or {}).items():
            c = field.coerce(c)
            if c != field.zero:
                clean[w] = c
        self.terms = clean

    @classmethod
    def zero(cls, field) -> "GroupAlgElem":
        return cls(field, {})

    @classmethod
    def of(cls, field, w: FreeWord, coeff=None) -> "GroupAlgElem":
        return cls(field, {w: field.one if coeff is None else coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "GroupAlgElem") -> "GroupAlgElem":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = self.field.add(out.get(w, self.field.zero), c)
        return GroupAlgElem(self.field, out)

    def __neg__(self) -> "GroupAlgElem":
        return GroupAlgElem(self.field, {w: self.field.neg(c) for w, c in self.terms.items()})

    def __mul__(self, other: "GroupAlgElem") -> "GroupAlgElem":
        out: dict[FreeWord, object] = {}
        f = self.field
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 * w2
                out[w] = f.add(out.get(w, f.zero), f.mul(c1, c2))
        return GroupAlgElem(f, out)

    def __eq__(self, other):
        return isinstance(other, GroupAlgElem) and self.field == other.field and self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda w: (len(w), str(w)))
        return " + ".join(f"{self.terms[w]}*{w}" for w in keys)

    __repr__ = __str__


class XDivModule:
    """Finite-dimensional right module on which every generator acts by an
    invertible matrix (so right division by a generator is possible and
    unique).  ``actions`` keeps the generator matrices as given.

    ``_letters`` maps each letter to the rows of its transposed action, and
    ``_blocks`` maps a tuple of up to :data:`BLOCK_LEN` letters to the rows
    of the transposed action of the letters in turn.  Blocks are built on
    first use, each from the letter table and the block one letter
    shorter, so the letter table is the one source of every block."""

    def __init__(self, field, alphabet, actions: dict[str, Matrix]):
        self.field = field
        self.alphabet = tuple(alphabet)
        dims = set()
        # the letter table: ``vec * m`` is ``m^T @ vec``, so the letter
        # ``(sym, 1)`` maps to the rows of the transposed action and
        # ``(sym, -1)`` to those of its transposed inverse
        self._letters = {}
        for sym in self.alphabet:
            if sym not in actions:
                raise ValueError(f"missing action for generator {sym}")
            m = actions[sym]
            if m.nrows != m.ncols:
                raise ValueError(f"action of {sym} is not square")
            inv = m.inverse()
            if inv is None:
                raise ValueError(f"action of {sym} is not invertible")
            dims.add(m.nrows)
            self._letters[sym, 1] = tuple(map(tuple, m.transpose().rows))
            self._letters[sym, -1] = tuple(map(tuple, inv.transpose().rows))
        if len(dims) != 1:
            raise ValueError("actions must share one dimension")
        self.dim = dims.pop()
        self.actions = {sym: actions[sym] for sym in self.alphabet}
        self._blocks = {}

    def act(self, vec, sym: str, e: int = 1) -> tuple:
        """Right action ``vec * sym^e``, ``e`` being ``1`` or ``-1``, on a
        row vector of ``dim`` field elements, which are not coerced: ints
        over ``GF(p)``, where ``dot`` reduces mod ``p`` so any
        representative gives the canonical result, and ``Fraction`` or int
        values over ``QQ``."""
        if e not in (1, -1):
            raise ValueError(f"exponent must be +1 or -1, got {e!r}")
        if len(vec) != self.dim:
            raise ValueError("vector length mismatch")
        dot = self.field.dot
        return tuple([dot(row, vec) for row in self._letters[sym, e]])

    def _block(self, letters: tuple) -> tuple:
        """Rows of the transposed action of ``letters`` in turn, memoized:
        ``vec`` acted on by each letter is the block's rows dotted with
        ``vec``.  The block of ``c + (l,)`` is ``L^T B^T``, ``B^T`` being
        the block of ``c`` and ``L^T`` the table rows of ``l``: one letter
        action on each column of ``B^T``."""
        block = self._blocks.get(letters)
        if block is None:
            last = self._letters[letters[-1]]
            if len(letters) == 1:
                block = last
            else:
                block = _compose(last, self._block(letters[:-1]), self.field.dot)
            self._blocks[letters] = block
        return block


def _compose(a: tuple, b: tuple, dot) -> tuple:
    """Rows of the product ``a b`` of two square matrices given by rows."""
    columns = list(zip(*b))
    return tuple(tuple([dot(row, col) for col in columns]) for row in a)


def _base(m0, M: XDivModule) -> tuple:
    value = tuple(M.field.coerce(x) for x in m0)
    if len(value) != M.dim:
        raise ValueError("base vector has wrong length")
    return value


def envelope_value(m0, g: FreeWord, M: XDivModule) -> tuple:
    """Value at ``g`` of the extension of ``1 -> m0`` along the embedding
    of the free monoid algebra into the group algebra, by induction on the
    word length: the value at a word is the value at the word without its
    last letter, acted on by that letter (positive letter) or divided by it
    (negative letter, unique because the action is invertible).  The
    letters are walked :data:`BLOCK_LEN` at a time, each run one read of
    the module's block table."""
    value = _base(m0, M)
    blocks, dot, letters = M._blocks, M.field.dot, g.letters
    for i in range(0, len(letters), BLOCK_LEN):
        chunk = letters[i:i + BLOCK_LEN]
        rows = blocks.get(chunk)
        if rows is None:  # a dim-0 block is ``()``
            rows = M._block(chunk)
        value = tuple([dot(row, value) for row in rows])
    return value


def envelope_value_alg(m0, elem: GroupAlgElem, M: XDivModule) -> tuple:
    """Linear extension of :func:`envelope_value` to group-algebra
    elements.  The words are evaluated in sorted order on a stack of
    prefix values, ``stack[i]`` being the value at the first ``i`` letters
    of the word before: each word starts from the longest prefix it shares
    with that word, so the cost is one letter-table action per distinct
    prefix of the terms, not one per letter."""
    f = M.field
    table, dot = M._letters, f.dot
    stack, prev = [_base(m0, M)], ()
    coeffs, values = [], []
    for w in sorted(elem.terms, key=lambda w: w.letters):
        letters, k = w.letters, 0
        while k < len(prev) and k < len(letters) and prev[k] == letters[k]:
            k += 1
        del stack[k + 1:]
        for letter in letters[k:]:
            stack.append(tuple([dot(row, stack[-1]) for row in table[letter]]))
        coeffs.append(elem.terms[w])
        values.append(stack[-1])
        prev = letters
    return tuple(dot(coeffs, [v[i] for v in values]) for i in range(M.dim))


class FlatnessWitness:
    """A nonzero element of the rank-two free module over the group
    algebra that maps to zero under ``(a, b) -> a x + b y``."""

    __slots__ = ("pair", "image")

    def __init__(self, pair: tuple[GroupAlgElem, GroupAlgElem], image: GroupAlgElem):
        self.pair, self.image = pair, image


def flatness_witness(alphabet, x: str, y: str, field) -> FlatnessWitness:
    """The pair ``(x^-1, -y^-1)``: both components map to the identity (up
    to sign) under ``(a, b) -> a x + b y``, so the map between free modules
    induced by the inclusion of the free algebra is not injective."""
    alphabet = tuple(alphabet)
    if x == y:
        raise SameGenerator("need two distinct generators")
    if x not in alphabet or y not in alphabet:
        raise ValueError("generators must belong to the alphabet")
    first = GroupAlgElem.of(field, word(x, -1))
    second = -GroupAlgElem.of(field, word(y, -1))
    image = first * GroupAlgElem.of(field, word(x)) + second * GroupAlgElem.of(field, word(y))
    return FlatnessWitness((first, second), image)


def random_xdiv_module(alphabet, field, dim: int, seed: int = 0) -> XDivModule:
    """Seeded random module with invertible generator actions."""
    import random as _random

    if dim < 0:
        raise ValueError(f"module dimension must be >= 0, got {dim}")
    rng = _random.Random(seed)
    actions = {}
    for sym in alphabet:
        while True:
            m = Matrix(field, [[rng.randrange(field.p) for _ in range(dim)] for _ in range(dim)], dim)
            if m.is_invertible():
                actions[sym] = m
                break
    return XDivModule(field, alphabet, actions)
