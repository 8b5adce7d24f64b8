"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to see them).  All
assertions are exact; the arithmetic everywhere is exact, so there are no
tolerances to tune."""

import math
import random
import time
from contextlib import contextmanager

from oracles import det, ext_oracle, hom_oracle, rand_fgz, tor_oracle

from tiltlab.artheory import (
    BoundSet,
    build_extension,
    defect,
    defect_function,
    is_isomorphic,
    tau,
    transpose,
    tube_catalog,
    u_filtration,
)
from tiltlab.cli import main
from tiltlab.dedekind import (
    FgZModule,
    OreSet,
    PrimeSet,
    classify,
    classify_tilting,
    ext1,
    hom,
    is_divisible_by,
    tor1,
    u_set_of_ore,
    universal_localization_eq,
)
from tiltlab.exactlin import IntMatrix, PrimeField, snf
from tiltlab.freegrp import FreeWord, envelope_value, flatness_witness, random_xdiv_module, reduce_letters, word
from tiltlab.perpcat import class_compare, is_divisible, perp_conditions
from tiltlab.quiverrep import (
    affine_a3_cycle,
    euler_form,
    ext1_dim,
    hom_dim,
    hom_ext_dims,
    kronecker,
    proj_presentation,
    projective,
    random_rep,
    regular_dims,
)

KRON = kronecker()
A3 = affine_a3_cycle()


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {label}: FAIL")
        raise
    print(f"[criterion {number}] {label}: PASS")


def bound_pool(family, field):
    cat = tube_catalog(family, field)
    pool = list(cat.members)
    first = cat.tubes[0]
    pool.append(build_extension(first[-1], first[0]))
    return cat, pool


def test_c1_tube_example_reproduction():
    with criterion(1, "rank-3 tube class separation over F5 and F7, < 10 s"):
        start = time.monotonic()
        for p in (5, 7):
            field = PrimeField(p)
            cat = tube_catalog("a31", field)
            s, tau_s, tau_minus_s = cat.tubes[0]
            layer2 = build_extension(tau_minus_s, s)
            tau_layer2 = build_extension(s, tau_s)
            assert ext1_dim(layer2, s) == 0
            assert ext1_dim(tau_layer2, s) == 0
            assert ext1_dim(tau_minus_s, s) != 0
            pair_set = BoundSet((layer2, tau_layer2))
            triple_set = BoundSet((s, tau_s, tau_minus_s))
            testset = [s, tau_s, tau_minus_s, layer2, tau_layer2]
            witness = class_compare(pair_set, triple_set, testset)
            assert witness is not None and is_isomorphic(witness, s)
            assert is_divisible(s, pair_set) and not is_divisible(s, triple_set)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_c2_membership_conditions_oracle():
    with criterion(2, "three membership conditions agree on 200 sampled pairs"):
        rng = random.Random(0)
        checked = 0
        for family, q in (("kronecker", KRON), ("a31", A3)):
            field = PrimeField(5)
            _, pool = bound_pool(family, field)
            for _ in range(100):
                M = random_rep(q, field, rng, dim_cap=4)
                U = pool[rng.randrange(len(pool))]
                assert perp_conditions(M, U).consistent
                checked += 1
        assert checked >= 200


def test_c3_euler_identity_and_ar_formula():
    with criterion(3, "bilinear-form identity (200 pairs per quiver) and translate formula (100 pairs)"):
        field = PrimeField(5)
        rng = random.Random(1)
        pairs = 0
        for q in (KRON, A3):
            for _ in range(200):
                M = random_rep(q, field, rng, dim_cap=3)
                N = random_rep(q, field, rng, dim_cap=3)
                h, e = hom_ext_dims(M, N)
                assert h == hom_dim(M, N)
                assert euler_form(q, M.dims, N.dims) == h - e
                pairs += 1
        assert pairs >= 400
        ar_pairs = 0
        while ar_pairs < 100:
            q = KRON if ar_pairs % 2 == 0 else A3
            # pd M <= 1, so the formula holds with projective summands too
            M = random_rep(q, field, rng, dim_cap=2)
            if M.is_zero():
                continue
            N = random_rep(q, field, rng, dim_cap=2)
            assert ext1_dim(M, N) == hom_dim(N, tau(M))
            ar_pairs += 1


def test_c4_transpose_duality():
    with criterion(4, "transpose pairing (100 pairs) and double transpose on the corpus"):
        field = PrimeField(5)
        rng = random.Random(2)
        done = 0
        pools = {}
        for family, q in (("kronecker", KRON), ("a31", A3)):
            pools[family] = bound_pool(family, field)[1]
            for _ in range(50):
                U = pools[family][rng.randrange(len(pools[family]))]
                X = random_rep(q.opposite(), field, rng, dim_cap=3)
                pres = proj_presentation(U)
                assert pres.tor_dims(X)[0] == hom_dim(transpose(pres), X)
                done += 1
        assert done >= 100
        for family in ("kronecker", "a31"):
            for U in pools[family]:
                tr = transpose(proj_presentation(U))
                assert is_isomorphic(transpose(proj_presentation(tr)), U)


def test_c5_defect_axioms_and_filtration():
    with criterion(5, "defect axioms, regular catalog, and the layer-two filtration"):
        field = PrimeField(5)
        for family, q in (("kronecker", KRON), ("a31", A3)):
            df = defect_function(q)
            assert defect(df, regular_dims(q)) == 1
            for i in range(q.nvertices):
                assert defect(df, projective(q, field, i).dims) > 0
            cat = tube_catalog(family, field)
            for member in cat.members:
                assert defect(df, member.dims) == 0
        cat = tube_catalog("a31", field)
        s, tau_s, tau_minus_s = cat.tubes[0]
        layer2 = build_extension(tau_minus_s, s)
        filt = u_filtration(layer2, (s, tau_minus_s))
        assert filt is not None and filt.factors == [0, 1]
        assert filt.validate(layer2, (s, tau_minus_s))


def test_c6_dedekind_classification():
    with criterion(6, "8 and 64 distinct classes over {2,3,5} and {2,...,13}, Ore cross-checks, "
                      "500 oracle pairs, < 5 s"):
        start = time.monotonic()
        for primes in ((2, 3, 5), (2, 3, 5, 7, 11, 13)):
            table = classify_tilting(PrimeSet.of(*primes))
            n = 2 ** len(primes)
            assert table.num_classes == n
            assert len(table.witnesses) == n * (n - 1) // 2
            # each witness rechecked class by class, not through the table
            for a, b, p in table.witnesses:
                w_in_a = is_divisible_by(FgZModule.cyclic(p), PrimeSet(table.rows[a].subset))
                w_in_b = is_divisible_by(FgZModule.cyclic(p), PrimeSet(table.rows[b].subset))
                assert w_in_a != w_in_b
        rng = random.Random(3)
        for _ in range(20):
            gens = tuple(rng.randrange(1, 1000) for _ in range(rng.randrange(1, 4)))
            ore = OreSet(gens)
            assert universal_localization_eq(ore)
            support = u_set_of_ore(ore)
            for p in support.primes:
                assert any(g % p == 0 for g in gens)
        for _ in range(500):
            m, n = rand_fgz(rng), rand_fgz(rng)
            assert hom(m, n) == hom_oracle(m, n)
            assert ext1(m, n) == ext_oracle(m, n)
            assert tor1(m, n) == tor_oracle(m, n)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_c7_essential_ideal_iff_finite_quotient():
    with criterion(7, "essential <=> finite quotient on 100 nested ideal pairs"):
        rng = random.Random(4)
        for _ in range(100):
            gi = rng.randrange(1, 80)
            gj = gi * rng.randrange(0, 50)
            # I/J = (gi)/(gj) is presented by the 1x1 matrix gj/gi
            quotient = classify(IntMatrix([[gj // gi]], 1))
            finite = quotient.free_rank == 0
            if finite:
                assert math.prod(quotient.invariant_factors) == gj // gi
            # J is essential in I when it meets every nonzero subideal (k gi)
            essential = all(math.lcm(gj, k * gi) != 0 for k in range(1, 6))
            assert essential == finite


def test_c8_free_group_envelope_and_snf():
    with criterion(8, "word extension property, flatness witness, SNF validity"):
        field = PrimeField(7)
        module = random_xdiv_module(("x", "y"), field, 2, seed=5)
        base = (1, 1)
        rng = random.Random(5)
        for _ in range(100):
            letters = [(rng.choice(("x", "y")), rng.choice((1, -1))) for _ in range(rng.randrange(0, 13))]
            g = FreeWord(reduce_letters(letters))
            sym, e = rng.choice(("x", "y")), rng.choice((1, -1))
            lhs = envelope_value(base, g * word(sym, e), module)
            rhs = module.act(envelope_value(base, g, module), sym, e)
            assert lhs == rhs
        wit = flatness_witness(("x", "y"), "x", "y", field)
        assert wit.image.is_zero()
        assert not wit.pair[0].is_zero() and not wit.pair[1].is_zero()
        for _ in range(200):
            r, c = rng.randrange(1, 6), rng.randrange(1, 6)
            A = IntMatrix([[rng.randrange(-30, 31) for _ in range(c)] for _ in range(r)])
            U, D, V = snf(A)
            assert (U @ A) @ V == D
            assert abs(det(U.rows)) == 1 and abs(det(V.rows)) == 1
            diag = D.diagonal()
            for i in range(len(diag) - 1):
                if diag[i + 1] != 0:
                    assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
            assert all(d >= 0 for d in diag)


def test_c9_cli_determinism(capsys, tmp_path):
    with criterion(9, "every CLI scenario is byte-identical across reruns"):
        fixture = tmp_path / "fixture.txt"
        fixture.write_text(
            "quiver kron\nvertices 2\narrow a 1 2\narrow b 1 2\nfield F 5\n"
            "rep tube dim 1 1\nmatrix a [[1]]\nmatrix b [[2]]\n"
            "zmod free 0 factors 4\nalphabet x,y\nword x y^-1\n",
            encoding="utf-8",
        )
        invocations = [
            ["tube-demo", "--seed", "1"],
            ["dedekind", "--primes", "2,3", "--ore", "6", "--random-ore", "3", "--seed", "1"],
            ["free-envelope", "--trials", "25", "--word", "x y y^-1", "--seed", "1"],
            ["perp-check", "--trials", "10", "--seed", "1"],
            ["custom", str(fixture), "--seed", "1"],
        ]
        for argv in invocations:
            for fmt in ("text", "json"):
                outputs = []
                for _ in range(2):
                    code = main(argv + ["--format", fmt])
                    assert code == 0, f"{argv} exited {code}"
                    outputs.append(capsys.readouterr().out)
                assert outputs[0] == outputs[1], f"non-deterministic output for {argv} ({fmt})"
