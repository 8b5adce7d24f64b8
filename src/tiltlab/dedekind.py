"""Finitely generated modules over the integers, multiplicative sets and
their prime supports, and the classification of divisibility classes by
sets of primes.

Modules are kept in invariant-factor form ``Z^a + Z/d_1 + ... + Z/d_t``
with ``2 <= d_1 | d_2 | ...`` (free part first).  The subring of the
rationals with denominators supported on a prime set ``P`` plays the role
of the localization at the multiplicative set generated by ``P``.

For a multiplicative set, the primes dividing its elements are exactly the
primes dividing its generators (any prime factor of a product divides one
of the factors), which is why :func:`u_set_of_ore` reads supports off the
generators.

Primality and prime supports are computed here, exactly, for integers
below :data:`MR_BOUND`; larger ones are refused.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math

from .errors import NotPrime
from .exactlin import IntMatrix, snf


class FgZModule:
    """``Z^free_rank + Z/d_1 + ...`` with the divisibility chain enforced."""

    __slots__ = ("free_rank", "invariant_factors")

    def __init__(self, free_rank: int, invariant_factors: tuple[int, ...]):
        if free_rank < 0:
            raise ValueError("negative free rank")
        prev = None
        for d in invariant_factors:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
            if prev is not None and d % prev != 0:
                raise ValueError("invariant factors must form a divisibility chain")
            prev = d
        self.free_rank, self.invariant_factors = free_rank, invariant_factors

    def __eq__(self, other):
        return (isinstance(other, FgZModule) and self.free_rank == other.free_rank
                and self.invariant_factors == other.invariant_factors)

    @classmethod
    def zero(cls) -> "FgZModule":
        return cls(0, ())

    @classmethod
    def cyclic(cls, n: int) -> "FgZModule":
        n = abs(n)
        if n == 0:
            return cls(1, ())
        if n == 1:
            return cls.zero()
        return cls(0, (n,))

    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def presentation(self) -> IntMatrix:
        """Minimal presentation: generators index the rows, relation
        columns kill the torsion generators."""
        return _diagonal(self.free_rank, self.invariant_factors)

    def __str__(self):
        parts = []
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}" if self.free_rank > 1 else "Z")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " + ".join(parts) if parts else "0"


def classify(presentation: IntMatrix) -> FgZModule:
    """Cokernel of the presentation (rows are generators, columns are
    relations) in canonical invariant-factor form."""
    _, D, _ = snf(presentation)
    diag = D.diagonal()
    nonzero = [d for d in diag if d != 0]
    factors = tuple(d for d in nonzero if d > 1)
    return FgZModule(presentation.nrows - len(nonzero), factors)


def _diagonal(free_rank: int, orders) -> IntMatrix:
    """The presentation of ``Z^free_rank + sum Z/k``: one row per
    generator, free ones first, and one column ``k e_i`` per order ``k``."""
    mat = [[0] * len(orders) for _ in range(free_rank + len(orders))]
    for j, k in enumerate(orders):
        mat[free_rank + j][j] = k
    return IntMatrix(mat, len(orders))


def from_pieces(free_rank: int, torsion_orders) -> FgZModule:
    """Canonical form of ``Z^free_rank + sum Z/k`` for arbitrary ``k``.
    Each ``Z/0`` is a free summand.  The torsion needs no Smith form:
    ``Z/a + Z/b`` is ``Z/gcd + Z/lcm``, and that step on every pair ``i <
    j`` in turn leaves ``d_i`` the gcd of ``d_i, d_{i+1}, ...``, so the
    orders end as a divisibility chain behind the ones."""
    orders = [abs(int(k)) for k in torsion_orders]
    d = [k for k in orders if k > 1]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = math.gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return FgZModule(free_rank + orders.count(0), tuple(k for k in d if k > 1))


def hom(M: FgZModule, N: FgZModule) -> FgZModule:
    """Closed form from invariant factors."""
    torsion = [n for n in N.invariant_factors for _ in range(M.free_rank)]
    torsion += [
        math.gcd(m, n) for m in M.invariant_factors for n in N.invariant_factors
    ]
    return from_pieces(M.free_rank * N.free_rank, torsion)


def ext1(M: FgZModule, N: FgZModule) -> FgZModule:
    """Closed form: the free part of ``M`` contributes nothing, each
    ``Z/m`` contributes ``(Z/m)^rank(N)`` plus ``Z/gcd(m, n)`` pieces."""
    torsion = [m for m in M.invariant_factors for _ in range(N.free_rank)]
    torsion += [
        math.gcd(m, n) for m in M.invariant_factors for n in N.invariant_factors
    ]
    return from_pieces(0, torsion)


def tor1(M: FgZModule, N: FgZModule) -> FgZModule:
    """Closed form: pairwise gcds of the torsion factors."""
    torsion = [math.gcd(m, n) for m in M.invariant_factors for n in N.invariant_factors]
    return from_pieces(0, torsion)


# ---------------------------------------------------------------------------
# primality and factorization of integers

# psi_k, the least strong pseudoprime to the first k prime bases: below it
# Miller-Rabin to those k bases is exact (Jaeschke, Math. Comp. 61, 1993;
# Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", Math.
# Comp. 86, 2017).  psi_13 bounds what this module certifies.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI = (2047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747, 3_474_749_660_383,
        341_550_071_728_321, 341_550_071_728_321, *[3_825_123_056_546_413_051] * 3,
        318_665_857_834_031_151_167_461, 3_317_044_064_679_887_385_961_981)
MR_BOUND = _PSI[-1]


def _certifiable(n: int) -> int:
    if n >= MR_BOUND:
        raise ValueError(f"{n} is at or above {MR_BOUND}, the bound below which primality is certified")
    return n


def is_prime(n: int) -> bool:
    """Exact primality test: trial division by the bases, then a strong
    probable-prime test to as many bases as ``n`` needs.  Refuses
    ``n >= MR_BOUND``."""
    if _certifiable(n) < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n < 43 * 43:  # no prime factor up to 41
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES[:bisect.bisect_right(_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """A proper factor of the odd composite ``n`` with no prime factor below
    1000: Pollard rho with Brent's cycle finding, the gcds batched over 128
    steps (Brent, BIT 20, 1980).  Deterministic: the constants are 1, 2, ..."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def _prime_factors(n: int) -> set[int]:
    """Distinct prime factors of ``n >= 1``: trial division below 1000, then
    Pollard-Brent rho on the cofactor, each factor certified by
    :func:`is_prime`."""
    found = set()
    for p in itertools.chain((2,), range(3, 1000, 2)):
        if p * p > n:
            break  # what is left is 1 or a prime
        if n % p == 0:
            found.add(p)
            while n % p == 0:
                n //= p
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if is_prime(m):
            found.add(m)
        else:
            d = _rho_factor(m)
            rest += [d, m // d]
    return found


# ---------------------------------------------------------------------------
# prime sets and Ore sets


class PrimeSet:
    __slots__ = ("primes",)

    def __init__(self, primes: tuple[int, ...]):
        prev = 0
        for p in primes:
            if not is_prime(p):
                raise NotPrime(f"{p} is not prime")
            if p <= prev:
                raise ValueError("primes must be sorted and distinct")
            prev = p
        self.primes = primes

    def __eq__(self, other):
        return isinstance(other, PrimeSet) and self.primes == other.primes

    @classmethod
    def of(cls, *primes: int) -> "PrimeSet":
        return cls(tuple(sorted(set(primes))))

    def __len__(self):
        return len(self.primes)


class OreSet:
    """Multiplicative set of nonzero integers, given by generators."""

    __slots__ = ("generators",)

    def __init__(self, generators: tuple[int, ...]):
        if any(g == 0 for g in generators):
            raise ValueError("Ore set generators must be nonzero")
        self.generators = generators

    def __eq__(self, other):
        return isinstance(other, OreSet) and self.generators == other.generators


@functools.lru_cache(maxsize=1024)  # an Ore line reads each generator's support twice
def prime_support(n: int) -> tuple[int, ...]:
    n = _certifiable(abs(n))
    return tuple(sorted(_prime_factors(n))) if n > 1 else ()


def u_set_of_ore(S: OreSet) -> PrimeSet:
    """Primes ``p`` with ``Z/p`` killed by some element of the
    multiplicative closure: exactly the primes dividing a generator."""
    return PrimeSet.of(*(p for g in S.generators for p in prime_support(g)))


def universal_localization_eq(S: OreSet) -> bool:
    """Check ``Z[1/s : s generator] = Z[1/p : p in primes(S)]`` as subrings
    of the rationals.  The generators are divided by the primes found, not
    factored again, so a prime missing from the support fails the check."""
    P = u_set_of_ore(S).primes
    # every generator becomes invertible in Z[1/P]: it is P-smooth
    for g in S.generators:
        rest = abs(g)
        for p in P:
            while rest % p == 0:
                rest //= p
        if rest != 1:
            return False
    # every p in P divides some generator, so 1/p is a generator multiple
    return all(any(g % p == 0 for g in S.generators) for p in P)


def is_divisible_by(M: FgZModule, P: PrimeSet) -> bool:
    """Membership in the divisibility class of ``{Z/p : p in P}``; the
    homological characterization (``Ext^1(Z/p, M) = 0``) and the elementary
    one (``M = pM``) are both computed and compared."""
    homological = all(ext1(FgZModule.cyclic(p), M).is_zero() for p in P.primes)
    elementary = True
    for p in P.primes:
        # |M / pM| = p^rank * prod gcd(p, d)
        size = p**M.free_rank
        for d in M.invariant_factors:
            size *= math.gcd(p, d)
        if size != 1:
            elementary = False
            break
    if homological != elementary:
        raise AssertionError("divisibility characterizations disagree")
    return homological


# ---------------------------------------------------------------------------
# classification of divisibility classes


class SubsetRow:
    __slots__ = ("subset",)

    def __init__(self, subset: tuple[int, ...]):
        self.subset = subset


class TiltingClassTable:
    """All subsets of a prime universe with, for every unordered pair of
    distinct subsets, a cyclic witness module lying in exactly one of the
    two divisibility classes."""

    __slots__ = ("rows", "witnesses")

    def __init__(self, rows: tuple[SubsetRow, ...], witnesses: tuple[tuple[int, int, int], ...]):
        self.rows, self.witnesses = rows, witnesses  # each witness: (row index a, row index b, prime)

    @property
    def num_classes(self) -> int:
        return len(self.rows)


def classify_tilting(universe: PrimeSet) -> TiltingClassTable:
    """Enumerate the ``2^n`` divisibility classes over a small prime
    universe and certify pairwise distinctness with ``Z/p`` witnesses.

    Membership is decided prime by prime, on two identities:
    ``Ext^1(+_{q in P} Z/q, M) = prod_{q in P} Ext^1(Z/q, M)``, and ``M`` is
    ``P``-divisible exactly when ``M = qM`` for each ``q`` in ``P``.  So
    ``Z/p`` lies in the class of ``P`` exactly when it lies in the class of
    every ``{q}`` with ``q`` in ``P``.  The ``n x n`` table
    ``is_divisible_by(Z/p, {q})`` (each entry compares both
    characterizations) gives each class its membership bitmask, the AND of
    the rows of its primes.  The primes ascend, so the lowest bit where two
    masks differ is the least prime in exactly one of the two subsets."""
    primes = universe.primes
    if len(primes) > 6:
        raise ValueError("universe capped at 6 primes")
    # single[i] has bit j set when Z/primes[j] is {primes[i]}-divisible
    single = []
    for q in primes:
        P = PrimeSet((q,))
        single.append(sum(1 << j for j, p in enumerate(primes) if is_divisible_by(FgZModule.cyclic(p), P)))
    subsets, masks = [], []
    everything = (1 << len(primes)) - 1  # the class of the empty set
    for r in range(len(primes) + 1):
        for combo in itertools.combinations(range(len(primes)), r):
            subsets.append(tuple(primes[i] for i in combo))
            mask = everything
            for i in combo:
                mask &= single[i]
            masks.append(mask)
    witnesses = []
    for a, mask_a in enumerate(masks):
        for b in range(a + 1, len(masks)):
            diff = mask_a ^ masks[b]
            if not diff:
                raise AssertionError("witness fails to separate the classes")
            witnesses.append((a, b, primes[(diff & -diff).bit_length() - 1]))
    return TiltingClassTable(tuple(SubsetRow(s) for s in subsets), tuple(witnesses))
