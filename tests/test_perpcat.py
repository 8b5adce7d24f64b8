import random

import pytest
from conftest import random_basis_change

from tiltlab import perpcat
from tiltlab.artheory import (
    BoundSet,
    all_submodules,
    build_extension,
    is_isomorphic,
    tau,
    transpose,
    tube_catalog,
)
from tiltlab.errors import NotBound, QuiverMismatch
from tiltlab.exactlin import PrimeField
from tiltlab.perpcat import (
    class_compare,
    divisible_radical,
    is_divisible,
    perp_conditions,
)
from tiltlab.quiverrep import (
    QuiverRep,
    affine_a3_cycle,
    direct_sum,
    hom_dim,
    injective,
    kronecker,
    proj_presentation,
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
    true_terms = perpcat.presentation_tensor_terms

    def with_zero_row(pres, X):
        nrows, ncols, terms = true_terms(pres, X)
        return nrows + 1, ncols, terms

    monkeypatch.setattr(perpcat, "presentation_tensor_terms", with_zero_row)
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
    assert all(hom_dim(u, z) == 0 for u in KCAT.members)


def test_transpose_duality_zero_target():
    pres = proj_presentation(KCAT.tubes[0][0])
    z = QuiverRep.zero(KRON.opposite(), F5)
    assert pres.tor_dims(z)[0] == hom_dim(transpose(pres), z) == 0


def test_transpose_duality_self_pairing():
    u = KCAT.tubes[0][0]
    pres = proj_presentation(u)
    x = u.dual()
    tor1 = pres.tor_dims(x)[0]
    assert tor1 == hom_dim(transpose(pres), x)
    assert tor1 > 0


def test_transpose_duality_sampled():
    rng = random.Random(23)
    bound_pool = KCAT.members
    for _ in range(30):
        pres = proj_presentation(bound_pool[rng.randrange(len(bound_pool))])
        X = random_rep(KRON.opposite(), F5, rng, dim_cap=3)
        assert pres.tor_dims(X)[0] == hom_dim(transpose(pres), X)


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


def test_each_member_is_presented_once_per_call(monkeypatch):
    """``divisible_radical`` and ``class_compare`` present each member of
    the set once, however many submodules or test modules they check."""
    calls = []
    present = perpcat.proj_presentation
    monkeypatch.setattr(perpcat, "proj_presentation", lambda u: calls.append(u) or present(u))
    s, tau_s, tau_minus_s, layer2, tau_layer2 = tube_pair_modules()
    triple = BoundSet((s, tau_s, tau_minus_s))
    M = direct_sum(layer2, s)
    divisible_radical(M, triple)
    assert len(calls) == 3
    assert sum(1 for _ in all_submodules(M)) > 3
    calls.clear()
    testset = [s, tau_s, tau_minus_s, layer2, tau_layer2]
    assert is_isomorphic(class_compare(BoundSet((layer2, tau_layer2)), triple, testset), s)
    assert len(calls) == 2 + 3


@pytest.mark.parametrize("M", [QuiverRep.simple(A3, F5, 0), QuiverRep.simple(KRON, PrimeField(3), 0)],
                         ids=["quiver", "field"])
def test_divisibility_refuses_a_module_over_another_quiver_or_field(M):
    u = BoundSet((KCAT.tubes[0][0],))
    message = "representations live over different quivers or fields"
    with pytest.raises(QuiverMismatch, match=message):
        is_divisible(M, u)
    with pytest.raises(QuiverMismatch, match=message):
        class_compare(u, u, [M])
    with pytest.raises(QuiverMismatch, match=message):
        divisible_radical(M, u)


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
