"""zmod-words: integer Smith form, Z-module closed forms, Ore sets and
free-group envelopes.

Integer SNF, big-integer arithmetic and word recursion use ``exactlin``
differently from field elimination.  Each of the twelve input groups of a
pass holds:

* ``classify`` and ``snf`` on one dense random n x n integer matrix per
  n = 3, 4, 5, entries in [-100, 100] (at 5 x 5 the SNF coefficients
  blow up on many inputs, see ``SNF_BITS``);
* one closed-form ``hom``/``ext1``/``tor1`` table over all ordered pairs
  of four random finitely generated Z-modules, and one batch of
  ``is_divisible_by`` calls on random modules (an op each, since one call
  takes microseconds);
* prime supports of three Ore sets, as ``dedekind --random-ore 3``
  draws, with generators up to 10^12 (sympy ``factorint``);
* ``classify_tilting`` over 6 primes;
* ``envelope_value`` on 16 random reduced words; the lengths of all
  groups' words form one even grid of 192 lengths over 50-1500 letters (the
  recursion depth limit is reached near 1000 letters, so about a third of
  the words fail);
* ``envelope_value_alg`` on the product of two ~50-term group-algebra
  elements.
"""

from __future__ import annotations

import functools
import random
import sys

from common import rand_invertible
from harness import OK, OVER_BUDGET, WRONG, Op, late

SNF_SIZES = (3, 4, 5)
ENTRY = 100
TABLE_MODULES = 4
DIVISIBLE_BATCH = 6
ORE_PER_GROUP = 3
WORDS_PER_GROUP = 16
WORD_LEN = (50, 1500)
ALG_TERMS = 50
FIELD_P = 7
ALPHABET = ("x", "y")
DIM = 3
GROUPS = 12  # input groups per pass
BUDGET_S = 5.0  # slowest op apart from SNF (envelope_value_alg) takes ~0.4 s
# The 5 x 5 SNF budget is on coefficient size, so that whether an op runs
# over it depends on the input alone and not on machine load.  A
# polynomial-time Smith form (Kannan & Bachem) keeps the multipliers of a
# 5 x 5 matrix with entries in [-100, 100] to a few hundred bits; an op
# over budget is one whose snf returned an entry of more than SNF_BITS bits.  Of 600 random inputs,
# those within it took at most 4.5 ms; about half of the rest grow without
# end and run until the wall cap SNF_BUDGET_S, over 30x above that.
SNF_BITS = 2**13
SNF_BUDGET_S = 0.15
CLOSED = ("hom", "ext1", "tor1")
# envelope_value recurses once per letter, so a word this long, with the
# caller's own frames on the stack, can reach the recursion limit
RECURSION_LETTERS = sys.getrecursionlimit() - 50
SMALL_PRIMES = [q for q in range(2, 1000) if all(q % d for d in range(2, int(q**0.5) + 1))]


def _rand_word(rng: random.Random, n: int) -> list[list]:
    """Uniform reduced word of length n: each letter avoids cancelling the
    previous one."""
    out: list[list] = []
    while len(out) < n:
        sym, e = rng.choice(ALPHABET), rng.choice((1, -1))
        if out and out[-1][0] == sym and out[-1][1] == -e:
            continue
        out.append([sym, e])
    return out


def _rand_zmod(rng: random.Random) -> list:
    """(free rank, torsion orders) in no particular form."""
    free, ntors = rng.randrange(3), rng.randrange(4)
    return [free, [rng.randint(2, 60) for _ in range(ntors)]]


def _ore_generator(rng: random.Random) -> tuple[int, list[int]]:
    """A generator up to 10^12 with its prime support known by
    construction: one to three small primes, sometimes times a large prime."""
    primes = rng.sample(SMALL_PRIMES, rng.randint(1, 3))
    g = 1
    for q in primes:
        e = rng.randint(1, 3)
        while q**e > 10**4:  # three factors stay below 10^12
            e -= 1
        g *= q**e
    if rng.random() < 0.5 and g < 10**5:
        import modp_int

        big = modp_int.next_prime(rng.randrange(10**6, 10**12 // g))
        g *= big
        primes.append(big)
    return g, sorted(primes)


def generate(seed: int) -> dict:
    rng = random.Random(seed)
    groups = []
    for g in range(GROUPS):
        grp: dict = {
            "classify": [[[rng.randint(-ENTRY, ENTRY) for _ in range(n)] for _ in range(n)] for n in SNF_SIZES],
            "snf": [[[rng.randint(-ENTRY, ENTRY) for _ in range(n)] for _ in range(n)] for n in SNF_SIZES],
            "closed": [_rand_zmod(rng) for _ in range(TABLE_MODULES)],
            "divisible": [[_rand_zmod(rng), sorted(rng.sample(SMALL_PRIMES[:8], rng.randint(1, 3)))]
                          for _ in range(DIVISIBLE_BATCH)],
            "ore": [[_ore_generator(rng) for _ in range(rng.randint(1, 3))] for _ in range(ORE_PER_GROUP)],
            "tilting": sorted(rng.sample(SMALL_PRIMES[:20], 6)),
        }
        # the groups' lengths interleave into one even grid
        lo, hi = WORD_LEN
        grp["words"] = [_rand_word(rng, int(lo + (hi - lo) * (i * GROUPS + g + 0.5) / (WORDS_PER_GROUP * GROUPS)))
                        for i in range(WORDS_PER_GROUP)]
        grp["alg"] = [[[_rand_word(rng, rng.randint(0, 8)), rng.randrange(1, FIELD_P)] for _ in range(ALG_TERMS)]
                      for _ in range(2)]
        groups.append(grp)
    actions = {}
    for sym in ALPHABET:
        a, a_inv = rand_invertible(rng, FIELD_P, DIM)
        actions[sym] = [a, a_inv]
    base = [rng.randrange(FIELD_P) for _ in range(DIM)]
    return {"groups": groups, "module": actions, "base": base}


# -- ops ----------------------------------------------------------------------


def build(spec: dict) -> list[Op]:
    from tiltlab import dedekind as dk
    from tiltlab import freegrp as fg
    from tiltlab import exactlin
    from tiltlab.exactlin import IntMatrix, Matrix, PrimeField

    field = PrimeField(FIELD_P)
    module = fg.XDivModule(field, ALPHABET, {s: Matrix(field, a, DIM) for s, (a, _) in spec["module"].items()})
    ref = _Actions(spec["module"], spec["base"])
    base = tuple(spec["base"])
    snf_homes = (exactlin, dk)  # the modules whose ``snf`` binding the ops call
    groups = []
    for grp in spec["groups"]:
        ops = []
        for rows in grp["classify"]:
            ops.append(_snf_op("classify", late(dk, "classify", IntMatrix(rows)),
                               functools.partial(check_classify, rows), rows, snf_homes))
        for rows in grp["snf"]:
            ops.append(_snf_op("snf", late(exactlin, "snf", IntMatrix(rows)),
                               functools.partial(check_snf, rows), rows, snf_homes))
        mods = grp["closed"]
        ops.append(Op("closed_form", functools.partial(_closed_table, dk, [_zmod(dk, m) for m in mods]),
                      functools.partial(check_closed, mods)))
        batch = grp["divisible"]
        args = [(_zmod(dk, m), dk.PrimeSet(tuple(primes))) for m, primes in batch]
        ops.append(Op("is_divisible_by", functools.partial(_divisible_batch, dk, args),
                      functools.partial(check_divisible, batch)))
        for gens in grp["ore"]:
            S = dk.OreSet(tuple(g for g, _ in gens))
            support = sorted({q for _, qs in gens for q in qs})
            ops.append(Op("ore_support", functools.partial(_ore_op, dk, S),
                          lambda r, s=support: OK if r == (tuple(s), True) else WRONG,
                          size=f"max {max(g for g, _ in gens):.0e}"))
        ops.append(Op("classify_tilting", late(dk, "classify_tilting", dk.PrimeSet(tuple(grp["tilting"]))),
                      functools.partial(check_tilting, grp["tilting"])))
        for letters in grp["words"]:
            w = fg.FreeWord(tuple((s, e) for s, e in letters))
            ops.append(Op("envelope_value", late(fg, "envelope_value", base, w, module),
                          functools.partial(ref.check_word, letters), size=f"{len(letters)} letters",
                          **({"tag": "recursion-depth", "known_failure": "RecursionError"}
                             if len(letters) >= RECURSION_LETTERS else {})))
        a_terms, b_terms = grp["alg"]
        a, b = _alg(fg, field, a_terms), _alg(fg, field, b_terms)
        ops.append(Op("envelope_value_alg", functools.partial(_alg_op, fg, base, a, b, module),
                      functools.partial(ref.check_product, a_terms, b_terms)))
        groups.append(ops)
    return [op for ops in groups for op in ops]


def _snf_op(kind, run, check, rows, homes) -> Op:
    """An op that runs ``snf``.  5 x 5 inputs run under the SNF budget,
    and running over it is the known coefficient blow-up."""
    size = f"{len(rows)}x{len(rows)}"
    if len(rows) < 5:
        return Op(kind, run, check, size=size)
    return Op(kind, functools.partial(_snf_watched, run, homes), functools.partial(_within_bits, check),
              size=size, tag="snf-5x5", budget_s=SNF_BUDGET_S, known_failure=OVER_BUDGET)


def _snf_watched(run, homes):
    """``run()`` with every ``snf`` binding in ``homes`` wrapped; returns
    the result and the bit length of the largest entry of any U, D or V
    that ``snf`` returned meanwhile.  The wrapper wraps whatever binding is
    there, so it composes with the tracer's."""
    peak = [0]

    def watch(f):
        def snf(A):
            r = f(A)
            peak[0] = max(peak[0], max((abs(x).bit_length() for m in r for row in m.rows for x in row),
                                       default=0))
            return r
        snf.watching = f
        return snf

    # a watcher left behind by an alarm during the restore below is dropped
    saved = [(m, getattr(m.snf, "watching", m.snf)) for m in homes]
    for m, f in saved:
        m.snf = watch(f)
    try:
        result = run()
    finally:
        for m, f in saved:
            m.snf = f
    return result, peak[0]


def _within_bits(check, watched) -> str:
    result, bits = watched
    outcome = check(result)
    return OVER_BUDGET if outcome == OK and bits > SNF_BITS else outcome


def _zmod(dk, data):
    import modp_int

    free, tors = data
    return dk.FgZModule(*modp_int.canonical(free, tors))


def _alg(fg, field, terms):
    out = fg.GroupAlgElem.zero(field)
    for letters, c in terms:
        w = fg.FreeWord(fg.reduce_letters(tuple((s, e) for s, e in letters)))
        out = out + fg.GroupAlgElem.of(field, w, c)
    return out


def _closed_table(dk, mods):
    return [getattr(dk, which)(M, N) for which in CLOSED for M in mods for N in mods]


def _divisible_batch(dk, args):
    return [dk.is_divisible_by(M, P) for M, P in args]


def _ore_op(dk, S):
    return dk.u_set_of_ore(S).primes, dk.universal_localization_eq(S)


def _alg_op(fg, base, a, b, module):
    return fg.envelope_value_alg(base, a * b, module)


# -- independent checks ----------------------------------------------------------


def check_classify(rows, M) -> str:
    import modp_int

    factors = modp_int.invariant_factors(rows)
    return OK if (M.free_rank, tuple(M.invariant_factors)) == (len(rows) - len(factors),
                                                              tuple(d for d in factors if d > 1)) else WRONG


def check_snf(rows, result) -> str:
    """``U A V = D``, ``|det U| = |det V| = 1``, ``D`` diagonal with a
    nonnegative divisibility chain equal to the determinantal-divisor
    invariant factors."""
    import modp_int

    U, D, V = (m.rows for m in result)
    if modp_int.matmul_int(modp_int.matmul_int(U, rows), V) != D:
        return WRONG
    if abs(modp_int.bareiss_det(U)) != 1 or abs(modp_int.bareiss_det(V)) != 1:
        return WRONG
    n = len(D)
    if any(D[i][j] for i in range(n) for j in range(n) if i != j):
        return WRONG
    diag = [D[i][i] for i in range(n)]
    nonzero = [d for d in diag if d]
    if any(d < 0 for d in diag) or diag[:len(nonzero)] != nonzero:
        return WRONG
    if any(b % a for a, b in zip(nonzero, nonzero[1:])):
        return WRONG
    return OK if nonzero == modp_int.invariant_factors(rows) else WRONG


def check_closed(mods, results) -> str:
    import modp_int

    want = [modp_int.closed_form(which, m, n) for which in CLOSED for m in mods for n in mods]
    got = [(r.free_rank, tuple(r.invariant_factors)) for r in results]
    return OK if got == want else WRONG


def check_divisible(batch, results) -> str:
    import modp_int

    want = []
    for m, primes in batch:
        free, tors = modp_int.canonical(*m)
        want.append(free == 0 and not any(d % q == 0 for d in tors for q in primes))
    return OK if [r is True for r in results] == want and all(isinstance(r, bool) for r in results) else WRONG


def check_tilting(primes, table) -> str:
    """All 2^6 subsets as rows, and for every pair of rows a prime lying in
    exactly one of the two subsets."""
    import itertools

    subsets = [tuple(r.subset) for r in table.rows]
    want = {c for k in range(len(primes) + 1) for c in itertools.combinations(primes, k)}
    if len(subsets) != len(want) or set(subsets) != want:
        return WRONG
    pairs = set()
    for a, b, q in table.witnesses:
        if (q in subsets[a]) == (q in subsets[b]):
            return WRONG
        pairs.add((min(a, b), max(a, b)))
    n = len(subsets)
    return OK if len(pairs) == n * (n - 1) // 2 == len(table.witnesses) else WRONG


class _Actions:
    """Letter-by-letter right action with the generated matrices and
    inverses, on row vectors mod p."""

    def __init__(self, module_spec, base):
        self.mats = {(s, 1): a for s, (a, _) in module_spec.items()}
        self.mats.update({(s, -1): ai for s, (_, ai) in module_spec.items()})
        self.base = list(base)

    def value(self, letters, vec=None):
        v = self.base if vec is None else vec
        for s, e in letters:
            m = self.mats[(s, e)]
            v = [sum(v[i] * m[i][j] for i in range(DIM)) % FIELD_P for j in range(DIM)]
        return v

    def check_word(self, letters, result) -> str:
        return OK if list(result) == self.value(letters) else WRONG

    def check_product(self, a_terms, b_terms, result) -> str:
        acc = [0] * DIM
        for u, c in a_terms:
            vu = self.value(u)
            for w, d in b_terms:
                acc = [(x + c * d * y) % FIELD_P for x, y in zip(acc, self.value(w, vu))]
        return OK if list(result) == acc else WRONG
