import math
import random
import time

import pytest
from oracles import ext_oracle, hom_oracle, rand_fgz, tor_oracle, torsion_part

from tiltlab import dedekind
from tiltlab.dedekind import (
    FgZModule,
    IdealPairReport,
    OreSet,
    PrimeSet,
    classify,
    classify_tilting,
    essential_iff_finite,
    ext1,
    from_pieces,
    hom,
    is_divisible_by,
    is_prime,
    prime_support,
    tor1,
    u_set_of_ore,
    universal_localization_eq,
)
from tiltlab.errors import NotContained, NotPrime
from tiltlab.exactlin import IntMatrix


def test_classify_diag_2_3():
    m = classify(IntMatrix([[2, 0], [0, 3]]))
    assert m == FgZModule(0, (6,))


def test_classify_free():
    m = classify(IntMatrix([[]], ncols=0))
    assert m == FgZModule(1, ())


def test_classify_single_row():
    assert classify(IntMatrix([[4, 6]])) == FgZModule(0, (2,))


def test_invariant_factor_chain_enforced():
    with pytest.raises(ValueError):
        FgZModule(0, (4, 6))
    assert from_pieces(0, [4, 6]) == FgZModule(0, (2, 12))


def test_from_pieces_matches_the_smith_form_of_its_diagonal():
    """The gcd/lcm sweep reads the invariant factors that ``classify``
    reads off the Smith form of the diagonal presentation, on orders with
    shared primes, units, negatives and zeros."""
    rng = random.Random(31)
    for _ in range(400):
        free_rank = rng.randrange(0, 3)
        orders = [rng.choice([0, 1, -rng.randrange(2, 50), rng.randrange(2, 500),
                              2 ** rng.randrange(0, 6) * 3 ** rng.randrange(0, 4) * 5 ** rng.randrange(0, 2)])
                  for _ in range(rng.randrange(0, 8))]
        assert from_pieces(free_rank, orders) == classify(dedekind._diagonal(free_rank, orders)), orders


def test_from_pieces_on_large_factors_needs_no_smith_form():
    """32 orders of 1000 bits, the most a ``zmod`` line holds; a Smith
    form of their diagonal took seconds."""
    rng = random.Random(5)
    orders = [rng.getrandbits(1000) | 1 << 999 for _ in range(32)]
    start = time.perf_counter()
    m = from_pieces(0, orders)
    assert time.perf_counter() - start < 0.5
    assert m.free_rank == 0 and math.prod(m.invariant_factors) == math.prod(orders)


@pytest.mark.parametrize("build, error, message", [
    (lambda: FgZModule(-1, ()), ValueError, "negative free rank"),
    (lambda: FgZModule(0, (1,)), ValueError, "invariant factors must be >= 2"),
    (lambda: PrimeSet((3, 2)), ValueError, "primes must be sorted and distinct"),
    (lambda: PrimeSet((2, 2)), ValueError, "primes must be sorted and distinct"),
    (lambda: PrimeSet((4,)), NotPrime, "4 is not prime"),
    (lambda: OreSet((6, 0)), ValueError, "Ore set generators must be nonzero"),
], ids=["negative-rank", "unit-factor", "unsorted-primes", "repeated-prime", "not-prime", "zero-generator"])
def test_records_check_their_arguments(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_records_compare_by_value():
    assert PrimeSet.of(3, 2) == PrimeSet((2, 3)) != PrimeSet((2,))
    assert FgZModule(1, (2,)) == FgZModule(1, (2,)) != FgZModule(0, (2,))
    assert OreSet((6,)) == OreSet((6,)) != OreSet((3,))


def test_hom_ext_tor_closed_forms():
    z4, z6 = FgZModule.cyclic(4), FgZModule.cyclic(6)
    assert ext1(z4, z6) == FgZModule(0, (2,))
    assert tor1(z4, z6) == FgZModule(0, (2,))
    assert hom(z4, z6) == FgZModule(0, (2,))
    assert ext1(FgZModule(1, ()), z6).is_zero()
    assert hom(FgZModule(2, ()), FgZModule(3, ())) == FgZModule(6, ())


def test_torsion_part_oracle_basics():
    z6 = FgZModule.cyclic(6)
    assert torsion_part(z6, 4) == FgZModule(0, (2,))
    assert torsion_part(FgZModule(1, ()), 5).is_zero()


def test_closed_forms_match_resolution_oracle_spot():
    m, n = from_pieces(1, [4, 8]), from_pieces(0, [6, 36])
    assert hom(m, n) == hom_oracle(m, n)
    assert ext1(m, n) == ext_oracle(m, n)
    assert tor1(m, n) == tor_oracle(m, n)


def test_closed_forms_match_resolution_oracle_sampled():
    rng = random.Random(30)
    for _ in range(120):
        m, n = rand_fgz(rng), rand_fgz(rng)
        assert hom(m, n) == hom_oracle(m, n)
        assert ext1(m, n) == ext_oracle(m, n)
        assert tor1(m, n) == tor_oracle(m, n)


def sympy_support(n):
    import sympy

    return tuple(sorted(sympy.factorint(n)))


def test_number_theory_matches_sympy_on_small_and_random_integers():
    sympy = pytest.importorskip("sympy")

    rng = random.Random(19)
    samples = [*range(20001), *(rng.randrange(10**12) for _ in range(1000)),
               *(rng.randrange(10**20) for _ in range(100))]
    for n in samples:
        assert is_prime(n) == sympy.isprime(n), n
        assert prime_support(n) == (sympy_support(n) if n else ()), n


@pytest.mark.parametrize("n", [
    561, 1105,                           # Carmichael numbers
    # the least strong pseudoprimes to the first k prime bases, k = 1..12:
    # each is where the test must take one more base
    2047, 1_373_653, 25_326_001,
    3_215_031_751,                       # bases 2..7
    2_152_302_898_747, 3_474_749_660_383, 341_550_071_728_321,
    3_825_123_056_546_413_051,           # bases 2..31: base 37 rejects it
    318_665_857_834_031_151_167_461,     # bases 2..37: base 41 rejects it
    1_000_000_007 * 1_000_000_009,       # no factor below 10^9: trial division alone fails
    2**5 * 1_000_003**2,                 # a prime square past the trial divisors
    3_317_044_064_679_887_385_961_813,   # the largest prime below the bound
    dedekind.MR_BOUND - 1,
])
def test_number_theory_matches_sympy_on_hard_integers(n):
    sympy = pytest.importorskip("sympy")

    assert is_prime(n) == sympy.isprime(n)
    assert prime_support(n) == sympy_support(n)


def test_number_theory_refuses_the_miller_rabin_bound():
    for n in (dedekind.MR_BOUND, dedekind.MR_BOUND + 2, 2**100):
        with pytest.raises(ValueError, match=str(dedekind.MR_BOUND)):
            is_prime(n)
        with pytest.raises(ValueError, match=str(dedekind.MR_BOUND)):
            prime_support(-n)


def test_u_set_of_ore():
    assert u_set_of_ore(OreSet((6,))) == PrimeSet((2, 3))
    assert u_set_of_ore(OreSet((1,))) == PrimeSet(())
    assert u_set_of_ore(OreSet((4, 9))) == PrimeSet((2, 3))


def test_ore_set_rejects_zero():
    with pytest.raises(ValueError):
        OreSet((0,))


def test_universal_localization_eq():
    assert universal_localization_eq(OreSet((6,)))
    assert universal_localization_eq(OreSet((1,)))
    rng = random.Random(31)
    for _ in range(20):
        gens = tuple(rng.randrange(1, 500) for _ in range(rng.randrange(1, 4)))
        assert universal_localization_eq(OreSet(gens))


def test_is_divisible_by():
    assert is_divisible_by(FgZModule.cyclic(3), PrimeSet.of(2))
    assert not is_divisible_by(FgZModule(1, ()), PrimeSet.of(2))
    assert not is_divisible_by(FgZModule.cyclic(2), PrimeSet.of(2))
    assert is_divisible_by(FgZModule(1, ()), PrimeSet(()))


def test_essential_iff_finite_examples():
    rep = essential_iff_finite((2,), (6,))
    assert rep == IdealPairReport(True, True, 3)
    rep = essential_iff_finite((1,), (0,))
    assert rep == IdealPairReport(False, False, None)
    rep = essential_iff_finite((0,), (0,))
    assert rep.essential and rep.finite_quotient


def test_essential_iff_finite_containment_checked():
    with pytest.raises(NotContained):
        essential_iff_finite((4,), (6,))


def test_essential_iff_finite_agreement_sampled():
    rng = random.Random(33)
    for _ in range(100):
        gi = rng.randrange(1, 60)
        gj = gi * rng.randrange(0, 40)
        rep = essential_iff_finite((gi,), (gj,))
        assert rep.essential == rep.finite_quotient


def test_classify_tilting_two_primes():
    table = classify_tilting(PrimeSet.of(2, 3))
    assert table.num_classes == 4
    assert len(table.witnesses) == 6
    # the witness separating {2} from {3} is Z/2
    subsets = [r.subset for r in table.rows]
    a, b = subsets.index((2,)), subsets.index((3,))
    pair = next(w for w in table.witnesses if {w[0], w[1]} == {a, b})
    assert pair[2] == 2
    assert not is_divisible_by(FgZModule.cyclic(2), PrimeSet.of(2))
    assert is_divisible_by(FgZModule.cyclic(2), PrimeSet.of(3))


def test_classify_tilting_builds_each_prime_set_once(monkeypatch):
    """One ``PrimeSet`` per prime of the universe (6) plus the universe
    itself, not one per subset."""
    calls = []
    validate = PrimeSet.__init__

    def counting(self, primes):
        calls.append(primes)
        validate(self, primes)

    monkeypatch.setattr(PrimeSet, "__init__", counting)
    table = classify_tilting(PrimeSet.of(2, 3, 5, 7, 11, 13))
    assert table.num_classes == 64 and len(table.witnesses) == 64 * 63 // 2
    assert len(calls) <= 6 + 1


def test_classify_tilting_decides_each_membership_once(monkeypatch):
    """One ``is_divisible_by`` call per pair of primes (6 * 6), not one per
    class and prime (384)."""
    calls = []

    def counting(M, P):
        calls.append((M, P))
        return is_divisible_by(M, P)

    monkeypatch.setattr(dedekind, "is_divisible_by", counting)
    table = classify_tilting(PrimeSet.of(2, 3, 5, 7, 11, 13))
    assert table.num_classes == 64 and len(table.witnesses) == 64 * 63 // 2
    assert len(calls) == 6 * 6


UNIVERSE = (2, 3, 5, 7, 11, 13)


@pytest.mark.parametrize("q, p", [(q, p) for q in UNIVERSE for p in UNIVERSE if q != p])
def test_classify_tilting_cross_checks_every_table_entry(monkeypatch, q, p):
    """A homological side that wrongly finds ``Ext^1(Z/q, Z/p) != 0`` for
    one pair of distinct primes disagrees with ``Z/p = q Z/p``, and the
    classification refuses to build its table."""
    true_ext1 = dedekind.ext1

    def faulty(M, N):
        if M == FgZModule.cyclic(q) and N == FgZModule.cyclic(p):
            return FgZModule.cyclic(q)
        return true_ext1(M, N)

    monkeypatch.setattr(dedekind, "ext1", faulty)
    with pytest.raises(AssertionError, match="divisibility characterizations disagree"):
        classify_tilting(PrimeSet.of(*UNIVERSE))


def test_classify_tilting_empty_universe():
    table = classify_tilting(PrimeSet(()))
    assert table.num_classes == 1
    assert table.witnesses == ()


def test_classify_tilting_rejects_composite():
    with pytest.raises(NotPrime):
        classify_tilting(PrimeSet.of(4))
