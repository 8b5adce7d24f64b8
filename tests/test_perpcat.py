import random

import pytest
from conftest import random_basis_change

from tiltlab import perpcat
from tiltlab.artheory import (
    BoundSet,
    build_extension,
    is_isomorphic,
    tau,
    tube_catalog,
)
from tiltlab.errors import NotBound
from tiltlab.exactlin import Matrix, PrimeField
from tiltlab.perpcat import (
    class_compare,
    divisible_radical,
    extension_closure_sample,
    in_perp_category,
    is_divisible,
    is_torsionfree,
    perp_conditions,
    trace,
    transpose_duality_check,
)
from tiltlab.quiverrep import (
    QuiverRep,
    affine_a3_cycle,
    direct_sum,
    injective,
    kronecker,
    projective,
    quotient_by,
    random_rep,
)

F5 = PrimeField(5)
KRON = kronecker()
A3 = affine_a3_cycle()
KCAT = tube_catalog("kronecker", F5)
ACAT = tube_catalog("a31", F5)


def tube_pair_modules():
    s, tau_s, tau_minus_s = ACAT.tubes[0]
    layer2 = build_extension(tau_minus_s, s)          # socle s
    tau_layer2 = build_extension(s, tau_s)            # socle tau(s)
    return s, tau_s, tau_minus_s, layer2, tau_layer2


def test_perp_conditions_orthogonal_tube_simples():
    r0, r1 = KCAT.tubes[0][0], KCAT.tubes[1][0]
    report = perp_conditions(r0, r1)
    assert report.cond_invert and report.cond_tor and report.cond_homext
    assert report.consistent and report.member


def test_perp_conditions_self_fail():
    r0 = KCAT.tubes[0][0]
    report = perp_conditions(r0, r0)
    assert not (report.cond_invert or report.cond_tor or report.cond_homext)
    assert report.consistent


def test_perp_routes_invert_and_homext_share_no_matrix(monkeypatch):
    # a fault in the presentation matrix of route (i) must not reach route (iii)
    U, M = KCAT.tubes[0][0], KCAT.tubes[1][0]
    assert perp_conditions(M, U).member
    true_matrix = perpcat.presentation_tensor_matrix

    def with_zero_row(pres, X):
        psi = true_matrix(pres, X)
        return psi.vstack(Matrix.zeros(X.field, 1, psi.ncols))

    monkeypatch.setattr(perpcat, "presentation_tensor_matrix", with_zero_row)
    report = perp_conditions(M, U)
    assert not report.cond_invert
    assert report.cond_homext and report.cond_tor
    assert not report.consistent


def test_perp_conditions_requires_bound():
    with pytest.raises(NotBound):
        perp_conditions(KCAT.tubes[0][0], projective(KRON, F5, 0))


def test_perp_conditions_consistent_on_samples():
    rng = random.Random(20)
    bound_pool = KCAT.members + [build_extension(KCAT.members[0], KCAT.members[0])]
    for _ in range(40):
        M = random_rep(KRON, F5, rng, dim_cap=3)
        U = bound_pool[rng.randrange(len(bound_pool))]
        assert perp_conditions(M, U).consistent


def test_perp_membership_invariant_under_isomorphism():
    rng = random.Random(21)
    U = KCAT.tubes[0][0]
    for _ in range(10):
        M = random_rep(KRON, F5, rng, dim_cap=3)
        twisted = random_basis_change(M, rng)
        assert perp_conditions(M, U).member == perp_conditions(twisted, U).member


def test_divisibility_facts_in_rank3_tube():
    s, tau_s, tau_minus_s, layer2, tau_layer2 = tube_pair_modules()
    pair_set = BoundSet((layer2, tau_layer2))
    triple_set = BoundSet((s, tau_s, tau_minus_s))
    assert is_divisible(s, pair_set)
    assert not is_divisible(s, triple_set)


def test_zero_module_is_divisible_and_torsionfree():
    z = QuiverRep.zero(KRON, F5)
    assert is_divisible(z, BoundSet(tuple(KCAT.members)))
    assert is_torsionfree(z, BoundSet(tuple(KCAT.members)))
    assert in_perp_category(z, KCAT.members)


def test_trace_of_module_in_itself():
    u = KCAT.tubes[2][0]
    tr, incl = trace(u, u)
    assert tr.dims == u.dims
    assert is_isomorphic(tr, u)


def test_trace_of_simple_in_projective_vanishes():
    s1 = QuiverRep.simple(KRON, F5, 0)
    tr, _ = trace(s1, projective(KRON, F5, 0))
    assert tr.is_zero()


def test_trace_is_idempotent():
    rng = random.Random(22)
    u = KCAT.tubes[1][0]
    for _ in range(8):
        M = random_rep(KRON, F5, rng, dim_cap=3)
        tr, _ = trace(u, M)
        tr2, _ = trace(u, tr)
        assert tr2.dims == tr.dims


def test_transpose_duality_zero_target():
    u = KCAT.tubes[0][0]
    z = QuiverRep.zero(KRON.opposite(), F5)
    assert transpose_duality_check(u, z) == (0, 0)


def test_transpose_duality_self_pairing():
    u = KCAT.tubes[0][0]
    x = u.dual()
    tor1, hom = transpose_duality_check(u, x)
    assert tor1 == hom
    assert tor1 > 0


def test_transpose_duality_sampled():
    rng = random.Random(23)
    bound_pool = KCAT.members
    for _ in range(30):
        U = bound_pool[rng.randrange(len(bound_pool))]
        X = random_rep(KRON.opposite(), F5, rng, dim_cap=3)
        tor1, hom = transpose_duality_check(U, X)
        assert tor1 == hom


def test_class_compare_reflexive():
    v = BoundSet((KCAT.tubes[0][0],))
    assert class_compare(v, v, KCAT.members) is None


def test_class_compare_tube_separation():
    s, tau_s, tau_minus_s, layer2, tau_layer2 = tube_pair_modules()
    pair_set = BoundSet((layer2, tau_layer2))
    triple_set = BoundSet((s, tau_s, tau_minus_s))
    testset = [s, tau_s, tau_minus_s, layer2, tau_layer2]
    witness = class_compare(pair_set, triple_set, testset)
    assert witness is not None
    assert is_isomorphic(witness, s)
    # symmetry of the comparison
    assert class_compare(triple_set, pair_set, testset) is witness


def test_class_compare_same_set_after_full_period():
    s, tau_s, tau_minus_s, *_ = tube_pair_modules()
    triple = BoundSet((s, tau_s, tau_minus_s))
    rotated = BoundSet((tau(tau(tau(s))), tau_s, tau_minus_s))
    testset = [s, tau_s, tau_minus_s, injective(A3, F5, 0), projective(A3, F5, 3)]
    assert class_compare(triple, rotated, testset) is None


def _kronecker_pool():
    pool = [m for tube in KCAT.tubes[1:] for m in tube]
    pool += [injective(KRON, F5, 0), injective(KRON, F5, 1), QuiverRep.zero(KRON, F5)]
    pool.append(direct_sum(pool[0], pool[1]))
    return pool


def test_extension_closure_sample_empty_set_vacuous():
    result = extension_closure_sample((), [KCAT.tubes[0][0]], seed=0, trials=10)
    assert result.ok


def test_extension_closure_on_kronecker_tube_class():
    u = BoundSet((KCAT.tubes[0][0],))
    result = extension_closure_sample(u, _kronecker_pool(), seed=1, trials=60)
    assert result.ok


def test_extension_closure_on_rank3_pair_class():
    s, tau_s, tau_minus_s, layer2, tau_layer2 = tube_pair_modules()
    pair_set = BoundSet((layer2, tau_layer2))
    pool = [s, QuiverRep.zero(A3, F5), injective(A3, F5, 0), injective(A3, F5, 3), direct_sum(s, s)]
    result = extension_closure_sample(pair_set, pool, seed=2, trials=60)
    assert result.ok


def test_divisible_radical_quotient_has_no_radical():
    # the divisibility class is closed under extensions, so dividing by
    # the largest subrepresentation in the class leaves nothing divisible
    rng = random.Random(24)
    u = BoundSet((KCAT.tubes[0][0],))
    checked = 0
    while checked < 6:
        M = random_rep(KRON, F5, rng, dim_cap=2)
        if M.total_dim() > 5:
            continue
        rad, bases = divisible_radical(M, u)
        assert is_divisible(rad, u)
        quo, _ = quotient_by(M, bases)
        rad2, _ = divisible_radical(quo, u)
        assert rad2.is_zero()
        checked += 1
