"""Integer reference arithmetic for the zmod-words checks: Bareiss
determinants, determinantal divisors, primary decompositions and a
deterministic Miller-Rabin test.  Pure Python, independent of tiltlab."""

from __future__ import annotations

import itertools
import math


def bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def invariant_factors(rows: list[list[int]]) -> list[int]:
    """Nonzero invariant factors via determinantal divisors: ``d_k`` is the
    gcd of all ``k x k`` minors and ``s_k = d_k / d_(k-1)``."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    out, prev = [], 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for ri in itertools.combinations(range(m), k):
            for ci in itertools.combinations(range(n), k):
                g = math.gcd(g, bareiss_det([[rows[i][j] for j in ci] for i in ri]))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def matmul_int(A, B):
    bt = list(zip(*B))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in A]


def prime_powers(n: int) -> list[tuple[int, int]]:
    """Trial-division factorisation for the small invariant factors that
    the closed-form checks meet."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def canonical_from_primary(free_rank: int, primary: list[tuple[int, int]]) -> tuple[int, tuple[int, ...]]:
    """Invariant-factor form from a list of cyclic prime-power orders
    ``(p, e)``: the largest power of every prime goes into the last factor,
    the next largest into the one before, and so on."""
    by_prime: dict[int, list[int]] = {}
    for q, e in primary:
        if e > 0:
            by_prime.setdefault(q, []).append(e)
    length = max((len(v) for v in by_prime.values()), default=0)
    factors = [1] * length
    for q, exps in by_prime.items():
        exps.sort(reverse=True)
        for i, e in enumerate(exps):
            factors[length - 1 - i] *= q**e
    return free_rank, tuple(factors)


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for ``n < 3.3 * 10**24``."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for q in small:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def subspace_count(p: int, n: int) -> int:
    """Number of subspaces of GF(p)^n (a sum of Gaussian binomials)."""
    total = 0
    for k in range(n + 1):
        num = den = 1
        for i in range(k):
            num *= p**n - p**i
            den *= p**k - p**i
        total += num // den
    return total


def next_prime(n: int) -> int:
    while not is_probable_prime(n):
        n += 1
    return n


def _primary(orders) -> list[tuple[int, int]]:
    return [pe for d in orders for pe in prime_powers(d)]


def canonical(free_rank: int, orders) -> tuple[int, tuple[int, ...]]:
    """Invariant-factor form of ``Z^free_rank + sum Z/k`` (every k >= 2)."""
    return canonical_from_primary(free_rank, _primary(orders))


def closed_form(which: str, m, n) -> tuple[int, tuple[int, ...]]:
    """Hom, Ext^1 or Tor_1 of ``Z^r + sum Z/k`` modules from their primary
    parts: ``Z/p^a`` against ``Z/p^b`` gives ``Z/p^min(a, b)`` in all
    three, distinct primes give nothing, ``Hom(Z, N) = N`` and
    ``Ext^1(Z/m, Z) = Z/m``."""
    (rm, tm), (rn, tn) = m, n
    pm, pn = _primary(tm), _primary(tn)
    pairs = [(p, min(a, b)) for p, a in pm for q, b in pn if p == q]
    if which == "hom":
        return canonical_from_primary(rm * rn, pn * rm + pairs)
    if which == "ext1":
        return canonical_from_primary(0, pm * rn + pairs)
    return canonical_from_primary(0, pairs)
