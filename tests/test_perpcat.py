import random

import pytest
from conftest import random_basis_change
from oracles import brute_force_submodules

from tiltlab import artheory, perpcat
from tiltlab.artheory import (
    BoundSet,
    build_extension,
    is_isomorphic,
    tau,
    transpose,
    tube_catalog,
)
from tiltlab.errors import NotBound, QuiverMismatch
from tiltlab.exactlin import Matrix, PrimeField
from tiltlab.perpcat import (
    class_compare,
    divisible_radical,
    is_divisible,
    perp_conditions,
)
from tiltlab.quiverrep import (
    QuiverRep,
    RepMap,
    affine_a3_cycle,
    direct_sum,
    ext1_dim,
    hom_dim,
    injective,
    kronecker,
    proj_presentation,
    projective,
    quotient_by,
    random_rep,
    subrep,
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
    """``divisible_radical``, ``is_divisible`` and ``class_compare``
    translate each member of the set once, however many kernel steps or
    test modules they take."""
    calls = []
    translate = perpcat.tau
    monkeypatch.setattr(perpcat, "tau", lambda u: calls.append(u) or translate(u))
    s, tau_s, tau_minus_s, layer2, tau_layer2 = tube_pair_modules()
    triple = BoundSet((s, tau_s, tau_minus_s))
    M = direct_sum(layer2, s)
    divisible_radical(M, triple)
    assert calls == [s, tau_s, tau_minus_s]
    calls.clear()
    assert is_divisible(s, BoundSet((layer2, tau_layer2)))
    assert calls == [layer2, tau_layer2]
    calls.clear()
    testset = [s, tau_s, tau_minus_s, layer2, tau_layer2]
    assert is_isomorphic(class_compare(BoundSet((layer2, tau_layer2)), triple, testset), s)
    assert calls == [layer2, tau_layer2, s, tau_s, tau_minus_s]


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


def _member_pool(q, field) -> list:
    """Catalog members, their non-split extensions, and every projective
    and injective of ``q``: the members the differential tests draw."""
    catalog = tube_catalog("kronecker" if q is KRON else "a31", field)
    tube = catalog.tubes[0]
    return (catalog.members[:4] + [build_extension(tube[-1], tube[0])]
            + [make(q, field, v) for make in (projective, injective) for v in range(q.nvertices)])


def _radical_reference(M, members) -> list:
    """Vertex-wise spanning columns of the sum of the submodules ``S`` of
    ``M``, from the brute-force enumeration, with ``Ext^1(u, S) = 0`` for
    every member ``u``."""
    cols = [[] for _ in M.dims]
    for bases in brute_force_submodules(M):
        sub = subrep(M, bases)[0]
        if all(ext1_dim(u, sub) == 0 for u in members):
            for v, B in enumerate(bases):
                cols[v] += B.columns()
    return [Matrix.from_columns(M.field, c, d) for c, d in zip(cols, M.dims)]


@pytest.mark.parametrize("q", [KRON, A3], ids=["kronecker", "a31"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_divisibility_matches_ext1_and_the_brute_force_radical(q, p):
    field = PrimeField(p)
    rng = random.Random(100 + p)
    pool = _member_pool(q, field)
    proper = checked = 0
    while checked < 20:
        M = random_rep(q, field, rng, 3 if q is KRON else 2)
        if M.total_dim() > 5:
            continue
        members = rng.sample(pool, rng.randrange(1, 3))
        assert is_divisible(M, members) == all(ext1_dim(u, M) == 0 for u in members)
        rad, bases = divisible_radical(M, members)
        assert RepMap(rad, M, bases).is_valid()
        for v, want in enumerate(_radical_reference(M, members)):
            assert bases[v].ncols == rad.dims[v] == want.rank() == want.hstack(bases[v]).rank()
        proper += 0 < rad.total_dim() < M.total_dim()
        checked += 1
    assert proper > 0


def test_radical_and_filtration_run_no_submodule_search(monkeypatch):
    # the answers are those of the search, taken before it is patched out
    s, tau_s, tau_minus_s, layer2, tau_layer2 = tube_pair_modules()
    M, members = direct_sum(layer2, tau_layer2), (tau_minus_s,)
    want = _radical_reference(M, members)
    assert 0 < sum(B.rank() for B in want) < M.total_dim()

    def search(*args):
        raise RuntimeError("the exhaustive submodule search ran")

    monkeypatch.setattr(artheory, "all_submodules", search)
    monkeypatch.setattr(artheory, "_all_subspaces", search)
    rad, bases = divisible_radical(M, members)
    assert [B.ncols for B in bases] == [W.rank() for W in want] == [W.hstack(B).rank() for W, B in zip(want, bases)]
    filt = artheory.u_filtration(layer2, (s, tau_minus_s))
    assert filt.factors == [0, 1] and filt.validate(layer2, (s, tau_minus_s))
