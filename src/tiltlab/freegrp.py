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
so one letter costs ``dim`` field ``dot`` products.  ``envelope_value``
walks a word's letters through the table; ``envelope_value_alg`` evaluates
the words of a group-algebra element in sorted order and reuses the value
at the prefix each word shares with the word before, so it makes one action
per distinct prefix of the terms, not one per letter.  Words multiply by
cancelling at the junction only, since both factors are reduced.
"""

from __future__ import annotations

from .errors import ParseError, SameGenerator
from .exactlin import Matrix

MAX_WORD_LEN = 16  # longest reduced word parse_reduce accepts


class FreeWord:
    __slots__ = ("letters",)

    def __init__(self, letters: tuple[tuple[str, int], ...]):
        for i, (sym, e) in enumerate(letters):
            if e not in (1, -1):
                raise ValueError("exponents must be +1 or -1")
            if i and letters[i - 1][0] == sym and letters[i - 1][1] == -e:
                raise ValueError("word is not reduced")
        self.letters = letters

    @classmethod
    def _of(cls, letters: tuple[tuple[str, int], ...]) -> "FreeWord":
        """Wrap ``letters`` without checking them.  The caller guarantees
        a reduced tuple of ``(generator, +-1)`` letters."""
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
        return FreeWord._of(tuple((sym, -e) for sym, e in reversed(self.letters)))

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
    return its reduced form.  Rejects unknown symbols and reduced words
    longer than :data:`MAX_WORD_LEN`."""
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
            raise ParseError(1, f"unknown generator {sym!r}")
        letters.append((sym, e))
    reduced = reduce_letters(letters)
    if len(reduced) > MAX_WORD_LEN:
        raise ParseError(1, f"reduced word length {len(reduced)} exceeds cap {MAX_WORD_LEN}")
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
    unique).  ``actions`` keeps the generator matrices as given."""

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
    (negative letter, unique because the action is invertible).  Each
    letter is one read of the letter table."""
    value = _base(m0, M)
    table, dot = M._letters, M.field.dot
    for letter in g.letters:
        value = tuple([dot(row, value) for row in table[letter]])
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
