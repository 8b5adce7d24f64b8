import functools
import itertools
import random
from fractions import Fraction

import pytest
from conftest import identity_map, random_basis_change
from oracles import brute_force_submodules, gauss_jordan, min_poly_reference
from oracles import fitting_reference, simple_regular_reference, transpose_reference, u_filtration_reference

from tiltlab import artheory

from tiltlab.artheory import (
    BoundSet,
    _factor_min_poly,
    _flat,
    _min_poly,
    all_submodules,
    build_extension,
    decompose,
    defect,
    defect_function,
    is_bound,
    is_isomorphic,
    is_simple_regular,
    strip_projective_summands,
    tau,
    tau_minus,
    transpose,
    tube_catalog,
    u_filtration,
)
from tiltlab.errors import (
    NoExtension,
    NonSplitField,
    NotBound,
    NotInvariant,
    SearchBudgetExceeded,
    UnsupportedFamily,
)
from tiltlab.exactlin import QQ, Matrix, PrimeField
from tiltlab.quiverrep import (
    Arrow,
    Quiver,
    QuiverRep,
    RepMap,
    affine_a3_cycle,
    direct_sum,
    ext1_dim,
    hom_dim,
    hom_space,
    injective,
    kronecker,
    proj_presentation,
    projective,
    random_rep,
    regular_dims,
    socle,
    tor_dims,
)

F5 = PrimeField(5)
KRON = kronecker()
A3 = affine_a3_cycle()
UNORDERED = Quiver(3, (Arrow("x", 2, 0), Arrow("y", 0, 1)))  # 2 -> 0 -> 1: numbering not topological


def tube_simple(lam):
    return QuiverRep.from_entries(KRON, F5, (1, 1), {"a": [[1]], "b": [[lam]]})


# -- transpose ---------------------------------------------------------------


def test_transpose_of_projective_is_zero():
    for i in range(2):
        assert transpose(proj_presentation(projective(KRON, F5, i))).is_zero()


def test_transpose_of_kronecker_simple():
    tr = transpose(proj_presentation(QuiverRep.simple(KRON, F5, 0)))
    # dual of P(1)^2 has dims (4, 2), dual of P(0) has dims (1, 0)
    assert tr.quiver == KRON.opposite()
    assert tr.dims == (3, 2)


def test_transpose_involutive_on_bound_modules():
    cat = tube_catalog("kronecker", F5)
    members = cat.members + [build_extension(cat.members[0], cat.members[0])]
    for U in members:
        tr = transpose(proj_presentation(U))
        assert is_isomorphic(transpose(proj_presentation(tr)), U)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_transpose_matches_the_cokernel_route(p):
    """The kernel of ``D alpha*``, dualized, is the cokernel of ``alpha*``
    up to isomorphism, on random modules, every a31 catalog member and
    their duals."""
    field, rng = PrimeField(p), random.Random(45 + p)
    modules = [random_rep(q, field, rng, 3) for q in (KRON, A3) for _ in range(25)]
    modules += tube_catalog("a31", field).members
    nonzero = 0
    for M in modules:
        for X in (M, M.dual()):
            pres = proj_presentation(X)
            tr, ref = transpose(pres), transpose_reference(pres)
            assert tr.quiver == ref.quiver and tr.dims == ref.dims
            assert is_isomorphic(tr, ref)
            nonzero += not tr.is_zero()
    assert nonzero >= 50


def test_translates_and_divisibility_take_no_span_and_no_quotient(monkeypatch):
    """tau, tau^-, Tr, the socle and the three divisibility predicates read
    every kernel through ``kernel_piece``: none spans or takes a quotient."""
    from tiltlab import perpcat, quiverrep

    cat = tube_catalog("a31", PrimeField(3))
    simple, t_simple, tminus = cat.tubes[0]
    layer2 = build_extension(tminus, simple)
    modules = [simple, t_simple, tminus, layer2, build_extension(simple, t_simple), cat.members[3]]
    pair, triple = BoundSet(tuple(modules[3:5])), BoundSet((simple, t_simple, tminus))

    def refuse(*args, **kwargs):
        raise AssertionError("a span or a quotient was taken")

    monkeypatch.setattr(Matrix, "span", refuse)
    monkeypatch.setattr(quiverrep, "quotient_by", refuse)
    monkeypatch.setattr(artheory, "quotient_by", refuse)
    trio = (simple, t_simple, tminus)
    for i, M in enumerate(trio):
        assert tau(M).dims == trio[(i + 1) % 3].dims and tau_minus(M).dims == trio[i - 1].dims
    for M in modules:
        assert transpose(proj_presentation(M)).dual().dims == tau(M).dims
        assert socle(M)[0].total_dim() >= 1
        assert perpcat.divisible_radical(M, pair)[0].dims == M.dims or not perpcat.is_divisible(M, pair)
    assert perpcat.class_compare(pair, triple, modules) is simple
    assert perpcat.is_divisible(simple, pair) and not perpcat.is_divisible(simple, triple)
    assert perpcat.divisible_radical(layer2, triple)[0].is_zero()


# -- translates --------------------------------------------------------------


def test_tau_kills_projectives():
    for q in (KRON, A3):
        for i in range(q.nvertices):
            assert tau(projective(q, F5, i)).is_zero()


def test_tau_minus_kills_injectives():
    for i in range(2):
        assert tau_minus(injective(KRON, F5, i)).is_zero()


def test_tau_fixes_homogeneous_tube_simple():
    r = tube_simple(3)
    assert is_isomorphic(tau(r), r)


def test_tau_period_three_on_a31_tube():
    trio = tube_catalog("a31", F5).tubes[0]
    m = trio[0]
    assert is_isomorphic(tau(tau(tau(m))), m)
    assert not is_isomorphic(tau(m), m)


def test_tau_round_trips():
    rng = random.Random(11)
    checked = 0
    while checked < 8:
        M = strip_projective_summands(random_rep(KRON, F5, rng, dim_cap=2))
        if M.is_zero():
            continue
        assert is_isomorphic(tau_minus(tau(M)), M)
        checked += 1


def strip_injective_summands(M):
    return strip_projective_summands(M.dual()).dual()


def test_tau_minus_round_trips():
    rng = random.Random(14)
    checked = 0
    while checked < 8:
        M = strip_injective_summands(random_rep(KRON, F5, rng, dim_cap=2))
        if M.is_zero():
            continue
        assert is_isomorphic(tau(tau_minus(M)), M)
        checked += 1


def test_ar_formula_sampled():
    rng = random.Random(12)
    checked = 0
    while checked < 12:
        # pd M <= 1, so the formula holds with projective summands too
        M = random_rep(KRON, F5, rng, dim_cap=2)
        N = random_rep(KRON, F5, rng, dim_cap=2)
        if M.is_zero():
            continue
        assert ext1_dim(M, N) == hom_dim(N, tau(M))
        checked += 1


# -- isomorphism -------------------------------------------------------------


@pytest.mark.parametrize("t", range(40))
def test_is_isomorphic_finds_a_basis_change_of_a_sum_over_gf2(t):
    # End M mod its radical has several GF(2) factors, so a random
    # combination of Hom(M, N) is often singular
    field = PrimeField(2)
    rng = random.Random(t)
    X = random_rep(A3, field, rng, 2)
    Y = random_rep(A3, field, rng, 2)
    M = direct_sum(direct_sum(X, Y), X)
    N = random_basis_change(M, rng)
    assert is_isomorphic(M, N)


def kron_pencil(b):
    """Kronecker module with ``a = I`` and the given square ``b``."""
    n = len(b)
    return QuiverRep.from_entries(KRON, F5, (n, n), {"a": [[int(i == j) for j in range(n)] for i in range(n)], "b": b})


E2 = kron_pencil([[2, 1], [0, 2]])  # self-extension of the point 2: End is F[e], e^2 = 0
P3, P2 = kron_pencil([[0, 3], [1, 0]]), kron_pencil([[0, 2], [1, 0]])  # points x^2 - 3, x^2 - 2: End is GF(25)


def spy_decompositions(monkeypatch):
    """Record ``[(W.dims, multiplicity), ...]`` for every decomposition,
    in call order; ``is_isomorphic`` compares ``M``'s with ``N``'s."""
    seen = []
    decompose = artheory.decompose

    def spy(M):
        parts = decompose(M)
        seen.append([(W.dims, mult) for W, mult in parts])
        return parts

    monkeypatch.setattr(artheory, "decompose", spy)
    return seen


def without_rank_scan(monkeypatch):
    """Make the rank-raising scan of ``is_isomorphic`` stall, so
    Krull-Schmidt decides every pair."""
    monkeypatch.setattr(artheory, "_raise_rank", lambda basis, n: None)


def test_is_isomorphic_counts_summands_with_a_radical(monkeypatch):
    seen = spy_decompositions(monkeypatch)
    M = direct_sum(direct_sum(E2, E2), tube_simple(2))
    N = random_basis_change(M, random.Random(0))
    assert is_isomorphic(M, N)
    assert seen == []  # the scan found an isomorphism, nothing was decomposed
    without_rank_scan(monkeypatch)
    assert is_isomorphic(M, N)
    assert seen == [[((1, 1), 1), ((2, 2), 2)]] * 2
    seen.clear()
    assert not is_isomorphic(M, direct_sum(E2, direct_sum(tube_simple(2), direct_sum(tube_simple(2), tube_simple(2)))))
    assert seen == [[((1, 1), 1), ((2, 2), 2)], [((1, 1), 3), ((2, 2), 1)]]


def test_is_isomorphic_over_a_residue_field_of_degree_two(monkeypatch):
    seen = spy_decompositions(monkeypatch)
    without_rank_scan(monkeypatch)  # the scan alone refutes the first pair
    PP = direct_sum(P3, P3)
    assert not is_isomorphic(PP, direct_sum(P3, P2))
    assert seen == [[((2, 2), 2)], [((2, 2), 1), ((2, 2), 1)]]
    assert is_isomorphic(PP, random_basis_change(PP, random.Random(1)))


def test_a_stalled_walk_compares_isomorphism_types_not_only_dimension_vectors(monkeypatch):
    """Each refuted pair decomposes into groups of equal dimension vectors
    and multiplicities, which differ only in which members they hold."""
    without_rank_scan(monkeypatch)
    X = tube_catalog("kronecker", F5).members
    H = [tube[0] for tube in tube_catalog("a31", PrimeField(3)).tubes[1:]]

    def plus(*parts):
        return functools.reduce(direct_sum, parts)

    assert not is_isomorphic(plus(X[1], X[2]), plus(X[1], X[3]))
    assert not is_isomorphic(plus(X[1], X[1], X[2]), plus(X[1], X[2], X[2]))
    assert not is_isomorphic(plus(H[0], H[1]), plus(H[0], H[2]))
    assert is_isomorphic(plus(X[1], X[2]), plus(X[2], X[1]))


def refuse_summands(monkeypatch):
    def refuse(M):
        raise AssertionError("is_isomorphic decomposed M")

    monkeypatch.setattr(artheory, "decompose", refuse)


def test_is_isomorphic_refutes_a_vertex_no_morphism_spans_without_decomposing(monkeypatch):
    # Hom(P3, P2) = 0, so every morphism P3 + P3 -> P3 + P2 lands in P3
    refuse_summands(monkeypatch)
    PP, PQ = direct_sum(P3, P3), direct_sum(P3, P2)
    assert artheory._raise_rank(hom_space(PP, PQ), PP.total_dim()) is False
    assert not is_isomorphic(PP, PQ)
    assert not is_isomorphic(direct_sum(E2, tube_simple(2)), direct_sum(E2, kron_pencil([[3]])))


def differential_pairs(q, field, rng):
    """Random pairs of dimension ``k * (1, ..., 1)``, where isomorphism
    classes come in families, so most pairs are not isomorphic; then basis
    changes of ``X + Y + X`` and ``X^3``."""
    pairs = []
    for k in (1, 1, 2, 2, 2, 2, 3, 3):
        dims = (k,) * q.nvertices
        pairs.append((rep_with_dims(q, field, dims, rng), rep_with_dims(q, field, dims, rng)))
    for _ in range(2):
        X, Y = random_rep(q, field, rng, 2), random_rep(q, field, rng, 2)
        for M in (direct_sum(direct_sum(X, Y), X), direct_sum(direct_sum(X, X), X)):
            pairs.append((M, random_basis_change(M, rng)))
    return pairs


@pytest.mark.parametrize("q", [KRON, A3], ids=["kronecker", "a31"])
@pytest.mark.parametrize("p", [2, 3])
def test_is_isomorphic_gives_the_krull_schmidt_verdict(monkeypatch, q, p):
    pairs = differential_pairs(q, PrimeField(p), random.Random(p))
    with_scan = [is_isomorphic(M, N) for M, N in pairs]
    without_rank_scan(monkeypatch)
    assert with_scan == [is_isomorphic(M, N) for M, N in pairs]
    assert with_scan[-4:] == [True] * 4 and False in with_scan


@pytest.mark.parametrize("d", [2, 3, 4])
def test_is_isomorphic_certifies_a_power_of_a_tube_member(monkeypatch, d):
    refuse_summands(monkeypatch)
    for i, E in enumerate(tube_catalog("a31", PrimeField(3)).members):
        M = functools.reduce(direct_sum, [E] * d)
        assert is_isomorphic(M, random_basis_change(M, random.Random(i)))


def five_summands_over_gf2():
    """The three tube members of the GF(2) Kronecker catalog and both
    simples, summed."""
    field = PrimeField(2)
    simples = [QuiverRep.simple(KRON, field, v) for v in (0, 1)]
    M = functools.reduce(direct_sum, tube_catalog("kronecker", field).members + simples)
    assert M.dims == (4, 4)
    return M


def test_is_isomorphic_certifies_five_summands_over_gf2(monkeypatch):
    M = five_summands_over_gf2()
    refuse_summands(monkeypatch)
    for t in range(10):
        assert is_isomorphic(M, random_basis_change(M, random.Random(t)))


def test_decompose_splits_five_summands_over_gf2_without_subrep(monkeypatch):
    M = five_summands_over_gf2()

    def refuse(*args):
        raise AssertionError("decompose built a submodule through subrep")

    monkeypatch.setattr(artheory, "subrep", refuse)
    for t in range(10):
        parts = sorted((W.dims, m) for W, m in decompose(random_basis_change(M, random.Random(t))))
        assert parts == [((0, 1), 1), ((1, 0), 1), ((1, 1), 1), ((1, 1), 1), ((1, 1), 1)]


# -- decompose ---------------------------------------------------------------


def test_decompose_simple_power():
    s = QuiverRep.simple(KRON, F5, 0)
    parts = decompose(direct_sum(s, s))
    assert len(parts) == 1
    rep, mult = parts[0]
    assert mult == 2 and rep.dims == (1, 0)


def test_decompose_projective_is_trivial():
    parts = decompose(projective(KRON, F5, 0))
    assert len(parts) == 1 and parts[0][1] == 1
    assert hom_dim(parts[0][0], parts[0][0]) == 1


def test_decompose_mixed_sum():
    m = direct_sum(tube_simple(2), QuiverRep.simple(KRON, F5, 1))
    parts = decompose(m)
    assert sorted((rep.dims, mult) for rep, mult in parts) == [((0, 1), 1), ((1, 1), 1)]


def test_decompose_invariant_under_base_change():
    rng = random.Random(13)
    m = direct_sum(tube_simple(1), direct_sum(tube_simple(1), QuiverRep.simple(KRON, F5, 0)))
    reference = sorted((rep.dims, mult) for rep, mult in decompose(m))
    for _ in range(50):
        # conjugate by a random invertible change of basis at each vertex
        while True:
            gl = [Matrix(F5, [[rng.randrange(5) for _ in range(d)] for _ in range(d)], d) for d in m.dims]
            if all(g.is_invertible() for g in gl):
                break
        maps = []
        for k, a in enumerate(m.quiver.arrows):
            maps.append(gl[a.target] @ m.maps[k] @ gl[a.source].inverse())
        twisted = QuiverRep(m.quiver, F5, m.dims, maps)
        assert sorted((rep.dims, mult) for rep, mult in decompose(twisted)) == reference


def test_decompose_finds_extension_field_points_indecomposable():
    # companion matrix of an irreducible quadratic over F_5: a tube simple
    # over the quadratic extension, indecomposable over F_5
    m = QuiverRep.from_entries(KRON, F5, (2, 2), {"a": [[1, 0], [0, 1]], "b": [[0, 3], [1, 0]]})
    parts = decompose(m)
    assert len(parts) == 1 and parts[0][1] == 1


def test_decompose_certifies_the_self_extension_of_a_degree_two_point():
    C = [[0, 3], [1, 0]]
    Q = kron_pencil([C[0] + [1, 0], C[1] + [0, 1], [0, 0] + C[0], [0, 0] + C[1]])
    (W, mult), = decompose(Q)
    assert (W.dims, mult) == ((4, 4), 1)
    assert not is_isomorphic(Q, direct_sum(P3, P3))


def rep_with_dims(q, field, dims, rng, draw=lambda field, rng: rng.randrange(field.p)):
    return QuiverRep(q, field, dims, [
        Matrix(field, [[draw(field, rng) for _ in range(dims[a.source])] for _ in range(dims[a.target])],
               dims[a.source]) for a in q.arrows])


def split_stages(monkeypatch, M):
    """``decompose(M)`` and, for each module it splits, the candidate that
    split it: a basis element of its endomorphism ring, a pairwise sum of
    basis elements, an element of the nilpotent ideal, or one of the later
    products and combinations."""
    stages = []
    split_or_certify, primary = artheory._split_or_certify, artheory._primary

    def spy(X, endos):
        sums = [_flat(a + b) for a, b in itertools.combinations(endos, 2)]
        first = []

        def primary_spy(Y, g):
            out = primary(Y, g)
            if out[0] and not first:
                first.append("basis" if any(_flat(g) == _flat(f) for f in endos)
                             else "sum" if _flat(g) in sums else "search")
            return out

        monkeypatch.setattr(artheory, "_primary", primary_spy)
        out = split_or_certify(X, endos)
        monkeypatch.setattr(artheory, "_primary", primary)
        if out:  # [] certifies End X local
            stages.append(first[0] if first else "ideal")
        return out

    monkeypatch.setattr(artheory, "_split_or_certify", spy)
    return decompose(M), stages


@pytest.mark.parametrize("p, n, seed, stages", [
    (5, 3, 0, ["basis", "sum"]),
    (3, 2, 694, ["ideal"]),
    (5, 2, 105, ["search"]),
], ids=["sum", "ideal", "search"])
def test_decompose_splits_a_power_of_an_a31_brick_at_each_stage(monkeypatch, p, n, seed, stages):
    field = PrimeField(p)
    rng = random.Random(seed)
    W = rep_with_dims(A3, field, (1, 1, 1, 2), rng)
    assert hom_dim(W, W) == 1
    X = W
    for _ in range(n - 1):
        X = direct_sum(X, W)
    parts, found = split_stages(monkeypatch, random_basis_change(X, rng))
    assert [(V.dims, mult) for V, mult in parts] == [(W.dims, n)]
    assert found == stages


A3_LINEAR = Quiver(3, (Arrow("x", 0, 1), Arrow("y", 1, 2)))


def _draw(field, rng):
    return rng.randrange(-3, 4) if field == QQ else rng.randrange(field.p)


def _conjugated(M, maps_of, rng):
    """``M`` and the endomorphisms given by ``maps_of`` (lists of vertex
    matrices) moved to a random basis: arrows ``g_t M_a g_s^-1`` and
    endomorphisms ``g_v f_v g_v^-1``."""
    field = M.field
    while True:
        gl = [Matrix(field, [[_draw(field, rng) for _ in range(d)] for _ in range(d)], d) for d in M.dims]
        if all(g.is_invertible() for g in gl):
            break
    inv = [g.inverse() for g in gl]
    N = QuiverRep(M.quiver, field, M.dims, [gl[a.target] @ M.maps[k] @ inv[a.source]
                                           for k, a in enumerate(M.quiver.arrows)])
    return N, [RepMap(N, N, [g @ f @ h for g, f, h in zip(gl, maps, inv)]) for maps in maps_of]


def fitting_cases(q, field, seed):
    """``(X, g)`` pairs on ``X + Y + X`` in a random basis, ``X`` nonzero:
    ``n``, the first ``X`` sent to the last one (nilpotent); ``1 + n``
    (invertible); ``e + n`` with ``e`` the projection onto the first ``X``
    (rank ``dim X``, a proper nonzero Fitting split); then the basis of
    ``End`` and one random combination of it."""
    rng = random.Random(seed)
    cases = []
    for _ in range(3):
        X = rep_with_dims(q, field, [rng.randrange(1, 3) for _ in range(q.nvertices)], rng, _draw)
        Y = rep_with_dims(q, field, [rng.randrange(0, 3) for _ in range(q.nvertices)], rng, _draw)
        M = direct_sum(direct_sum(X, Y), X)
        shifts, units, halves = [], [], []
        for dx, dy in zip(X.dims, Y.dims):
            n = 2 * dx + dy
            shift = [[int(i == j + dx + dy and j < dx) for j in range(n)] for i in range(n)]
            shifts.append(Matrix(field, shift, n))
            units.append(Matrix(field, [[int(i == j) + shift[i][j] for j in range(n)] for i in range(n)], n))
            halves.append(Matrix(field, [[int(i == j < dx) + shift[i][j] for j in range(n)] for i in range(n)], n))
        N, endos = _conjugated(M, [shifts, units, halves], rng)
        basis = hom_space(N, N)
        mixed = functools.reduce(lambda f, b: f + b.scale(_draw(field, rng)), basis[1:], basis[0])
        cases += [(N, g) for g in endos + basis + [mixed]]
    return cases


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), PrimeField(101), QQ], ids=repr)
@pytest.mark.parametrize("q", [KRON, A3, A3_LINEAR], ids=["kronecker", "a31", "a3"])
def test_fitting_matches_the_split_through_subrep(q, field):
    kinds = set()
    for X, g in fitting_cases(q, field, 41):
        rank, pieces = artheory._fitting(X, g)
        ref_rank, ref_pieces = fitting_reference(X, g)
        assert rank == ref_rank
        assert [W.dims for W in pieces] == [W.dims for W in ref_pieces]
        assert [W.maps for W in pieces] == [W.maps for W in ref_pieces]
        kinds.add("nilpotent" if rank == 0 else "invertible" if rank == X.total_dim() else "split")
    assert kinds == {"nilpotent", "invertible", "split"}


def test_decompose_returns_the_summands_of_the_subrep_split(monkeypatch):
    modules = [N for q in (KRON, A3) for N, _ in fitting_cases(q, PrimeField(3), 43)[::9]]
    ours = [[(W.dims, W.maps, m) for W, m in decompose(M)] for M in modules]
    monkeypatch.setattr(artheory, "_fitting", fitting_reference)
    assert ours == [[(W.dims, W.maps, m) for W, m in decompose(M)] for M in modules]
    assert any(len(parts) > 1 for parts in ours)


def test_fitting_runs_one_elimination_per_vertex_and_no_span(monkeypatch):
    forwards = []
    forward = Matrix._forward

    def counted(self):
        forwards.append(self.shape)
        return forward(self)

    def refuse(*args):
        raise AssertionError("_fitting built a span")

    cases = fitting_cases(A3, PrimeField(3), 47)[:9]
    monkeypatch.setattr(Matrix, "_forward", counted)
    monkeypatch.setattr(Matrix, "span", refuse)
    monkeypatch.setattr(artheory, "subrep", refuse)
    splits = 0
    for X, g in cases:
        forwards.clear()
        rank, pieces = artheory._fitting(X, g)
        assert forwards == [(d, d) for d in X.dims]
        splits += bool(pieces)
    assert splits


def test_fitting_refuses_an_endomorphism_that_does_not_commute():
    # g is the identity at the source and zero at the target of a and b, so
    # g a = 0 != a = a g, and g has rank 1 of 2
    X = tube_simple(2)
    g = RepMap(X, X, [Matrix.identity(F5, 1), Matrix.zeros(F5, 1, 1)])
    with pytest.raises(NotInvariant):
        artheory._fitting(X, g)


def test_raise_rank_starts_from_the_sum_of_the_basis(monkeypatch):
    ranked = []
    rank = Matrix.rank

    def spy(self):
        ranked.append(self)
        return rank(self)

    M = direct_sum(direct_sum(E2, E2), tube_simple(2))
    for N in (M, random_basis_change(M, random.Random(3))):
        basis = hom_space(M, N)
        assert len(basis) > 2
        ranked.clear()
        monkeypatch.setattr(Matrix, "rank", spy)
        artheory._raise_rank(basis, M.total_dim())
        monkeypatch.setattr(Matrix, "rank", rank)
        start = functools.reduce(lambda f, b: f + b, basis[1:], basis[0])
        assert ranked[:len(M.dims)] == list(start.maps)


def test_raise_rank_returns_before_any_cap_when_the_start_is_invertible(monkeypatch):
    """A start of full rank is an isomorphism: ``_raise_rank`` ranks its
    vertex blocks and nothing else, and tests no block for zero."""
    ranked = []
    rank = Matrix.rank

    def spy(self):
        ranked.append(self.shape)
        return rank(self)

    def refuse(self):
        raise AssertionError("_raise_rank tested a block for zero")

    M = direct_sum(E2, tube_simple(2))
    starts = 0
    for seed in range(6):
        N = random_basis_change(M, random.Random(seed))
        basis = hom_space(M, N)
        start = functools.reduce(lambda f, b: f + b, basis[1:], basis[0])
        if sum(m.rank() for m in start.maps) < M.total_dim():
            continue
        starts += 1
        ranked.clear()
        monkeypatch.setattr(Matrix, "rank", spy)
        monkeypatch.setattr(Matrix, "is_zero", refuse)
        assert artheory._raise_rank(basis, M.total_dim()) is True
        monkeypatch.undo()
        assert ranked == [m.shape for m in start.maps]
    assert starts


def test_decompose_refuses_a_noncommutative_division_ring():
    pytest.importorskip("sympy")  # the minimal polynomial is factored over QQ
    # left multiplication by i and j on the rational quaternions: End is the
    # quaternions acting on the right, local but not certifiable here
    q = Quiver(2, (Arrow("a", 0, 1), Arrow("b", 0, 1), Arrow("c", 0, 1)))
    one = [[int(i == j) for j in range(4)] for i in range(4)]
    left_i = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    left_j = [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]
    H = QuiverRep.from_entries(q, QQ, (4, 4), {"a": one, "b": left_i, "c": left_j})
    with pytest.raises(NonSplitField):
        decompose(H)


def poly_mul(field, a, b):
    """Product of two polynomials given by ascending coefficients."""
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return out


@pytest.mark.parametrize("field, pieces", [
    (F5, [([2, 0, 1], 1), ([1, 1], 2)]),  # (x^2 + 2)(x + 1)^2, x^2 + 2 irreducible mod 5
    (QQ, [([-2, 0, 1], 1), ([Fraction(-1, 2), 1], 3)]),  # (x^2 - 2)(x - 1/2)^3
], ids=["GF(5)", "QQ"])
def test_factor_min_poly_multiplies_back(field, pieces):
    if field == QQ:
        pytest.importorskip("sympy")
    poly = [field.one]
    for coeffs, mult in pieces:
        for _ in range(mult):
            poly = poly_mul(field, poly, [field.coerce(c) for c in coeffs])
    factors = _factor_min_poly(field, poly)
    back = [field.one]
    for coeffs, mult in factors:
        assert coeffs[-1] == field.one
        for _ in range(mult):
            back = poly_mul(field, back, coeffs)
    assert back == poly
    assert sorted((len(c) - 1, m) for c, m in factors) == sorted((len(c) - 1, m) for c, m in pieces)


@pytest.mark.parametrize("field", [PrimeField(2), F5, PrimeField(101), QQ], ids=repr)
def test_min_poly_matches_reference(field):
    rng = random.Random(31)
    p = None if field == QQ else field.p
    draw = (lambda: rng.randrange(p)) if p else (lambda: rng.randrange(-3, 4))

    def rep(dims):
        return QuiverRep(KRON, field, dims, [
            Matrix(field, [[draw() for _ in range(dims[0])] for _ in range(dims[1])], dims[0]) for _ in KRON.arrows])

    def simple_regular(lam):
        return QuiverRep.from_entries(KRON, field, (1, 1), {"a": [[1]], "b": [[lam]]})

    pairs = direct_sum(simple_regular(0), simple_regular(0))
    modules = [rep(dims) for dims in ((1, 1), (2, 2), (2, 3), (3, 2))]
    modules += [direct_sum(X, X) for X in modules[:2]]
    modules += [direct_sum(pairs, direct_sum(simple_regular(1), QuiverRep.simple(KRON, field, 0)))]
    cases = []
    for X in modules:
        basis = hom_space(X, X)
        for _ in range(4):
            coeffs = [field.coerce(draw()) for _ in basis]
            cases.append(sum((f.scale(c) for f, c in zip(basis[1:], coeffs[1:])), basis[0].scale(coeffs[0])))
    X = modules[-1]
    zero, identity = identity_map(X).scale(0), identity_map(X)
    # (x, y) -> (0, x) on S + S, S simple regular: nilpotent of order two
    shift = Matrix(field, [[0, 0], [1, 0]])
    nilpotent = RepMap(pairs, pairs, [shift, shift])
    z, o = field.zero, field.one
    assert _min_poly(zero) == [z, o]
    assert _min_poly(identity) == [field.neg(o), o]
    assert _min_poly(nilpotent) == [z, z, o]
    assert any(len(_min_poly(f)) > 3 for f in cases)
    for f in cases + [zero, identity, nilpotent]:
        assert f.is_valid()
        assert _min_poly(f) == min_poly_reference(f, p)


@pytest.mark.parametrize("field", [PrimeField(2), F5, PrimeField(101), QQ], ids=repr)
def test_evaluate_poly_and_is_scalar_match_their_definitions(field):
    """``_evaluate_poly`` against ``sum c_i f^i`` from ``f^0 = 1`` by
    repeated products, and ``_is_scalar`` against a comparison with
    ``lam * 1``, on endomorphisms of Kronecker modules, the scalars
    among them."""
    rng = random.Random(37)
    draw = (lambda: rng.randrange(-3, 4)) if field == QQ else (lambda: rng.randrange(field.p))
    endos = []
    for dims in ((1, 1), (2, 2), (2, 3), (0, 2)):
        X = QuiverRep(KRON, field, dims, [
            Matrix(field, [[draw() for _ in range(dims[0])] for _ in range(dims[1])], dims[0]) for _ in KRON.arrows])
        endos += hom_space(X, X) + [identity_map(X).scale(draw()) for _ in range(2)]
    scalars = 0
    for f in endos:
        lam = next(m.rows[0][0] for m in f.maps if m.nrows)
        expected = all(m == Matrix.identity(field, m.nrows).scale(lam) for m in f.maps)
        assert artheory._is_scalar(f) == expected
        scalars += expected
        for degree in range(4):
            coeffs = [field.coerce(draw()) for _ in range(degree)] + [field.one]
            power, total = identity_map(f.source), identity_map(f.source).scale(0)
            for c in coeffs:
                total, power = total + power.scale(c), power @ f
            assert artheory._evaluate_poly(f, coeffs).maps == total.maps
    assert 0 < scalars < len(endos)


# -- defect ------------------------------------------------------------------


def test_defect_function_on_kronecker():
    df = defect_function(KRON)
    assert df.radical_vector == (1, 1)
    assert df.normalizer == 2
    assert defect(df, (0, 1)) == Fraction(1, 2)
    assert defect(df, (1, 0)) == Fraction(-1, 2)
    assert defect(df, regular_dims(KRON)) == 1


def test_defect_axioms_on_projectives():
    for q in (KRON, A3):
        df = defect_function(q)
        assert defect(df, regular_dims(q)) == 1
        for i in range(q.nvertices):
            assert defect(df, projective(q, F5, i).dims) > 0


# -- extensions --------------------------------------------------------------


def test_build_extension_in_rank3_tube():
    trio = tube_catalog("a31", F5).tubes[0]
    s, tminus = trio[0], trio[2]
    assert ext1_dim(tminus, s) == 1
    layer2 = build_extension(tminus, s)
    assert layer2.dims == tuple(a + b for a, b in zip(s.dims, tminus.dims))
    assert len(decompose(layer2)) == 1
    assert not is_isomorphic(layer2, direct_sum(s, tminus))


def test_build_extension_is_certified_non_split():
    # 0 -> Hom(C, A) -> Hom(C, E) -> Hom(C, C) -> Ext^1(C, A) sends id_C to
    # the chosen class; it is nonzero, so Hom(C, E) is smaller than the sum.
    # The random GF(3) pairs have unequal arrow blocks, so a misread class
    # layout shows too.
    trio = tube_catalog("a31", F5).tubes[0]
    kron_simples = (QuiverRep.simple(KRON, F5, 0), QuiverRep.simple(KRON, F5, 1))
    assert ext1_dim(trio[2], trio[0]) == 1 and ext1_dim(*kron_simples) == 2
    rng, F3 = random.Random(8), PrimeField(3)
    pairs = [(trio[2], trio[0]), kron_simples]
    pairs += [(random_rep(A3, F3, rng, 2), random_rep(A3, F3, rng, 2)) for _ in range(20)]
    built = 0
    for C, A in pairs:
        field = C.field
        if ext1_dim(C, A):
            E = build_extension(C, A)
            built += 1
            assert hom_dim(C, E) < hom_dim(C, A) + hom_dim(C, C)
            inclusion = [Matrix.identity(field, a).vstack(Matrix.zeros(field, c, a)) for a, c in zip(A.dims, C.dims)]
            projection = [Matrix.zeros(field, c, a).hstack(Matrix.identity(field, c)) for a, c in zip(A.dims, C.dims)]
            assert RepMap(A, E, inclusion).is_valid() and RepMap(E, C, projection).is_valid()
    assert built == 12  # the pairs with Ext^1(C, A) != 0


def test_build_extension_needs_nonzero_ext():
    s = QuiverRep.simple(KRON, F5, 1)
    with pytest.raises(NoExtension):
        build_extension(s, QuiverRep.simple(KRON, F5, 0))


# -- bound sets and filtrations ----------------------------------------------


def test_catalog_members_are_bound():
    for family, q in (("kronecker", KRON), ("a31", A3)):
        for member in tube_catalog(family, F5).members:
            assert is_bound(member)
    BoundSet(tuple(tube_catalog("kronecker", F5).members))


def test_projective_is_not_bound():
    assert not is_bound(projective(KRON, F5, 0))
    with pytest.raises(NotBound):
        BoundSet((projective(KRON, F5, 0),))


def test_filtration_of_layer_two_module():
    trio = tube_catalog("a31", F5).tubes[0]
    s, tminus = trio[0], trio[2]
    layer2 = build_extension(tminus, s)
    filt = u_filtration(layer2, (s, tminus))
    assert filt is not None
    assert filt.factors == [0, 1]
    assert filt.validate(layer2, (s, tminus))


def test_filtration_length_one():
    trio = tube_catalog("a31", F5).tubes[0]
    filt = u_filtration(trio[0], (trio[0],))
    assert filt is not None and filt.factors == [0]
    assert filt.validate(trio[0], (trio[0],))


def test_filtration_skips_a_zero_member():
    trio = tube_catalog("a31", F5).tubes[0]
    members = (QuiverRep.zero(A3, F5), trio[0])
    filt = u_filtration(trio[0], members)
    assert filt is not None and filt.factors == [1]
    assert filt.validate(trio[0], members)


def test_filtration_validate_refuses_a_layer_that_misses_the_one_before(monkeypatch):
    # all of layer2, then its socle: the first factor matches its member,
    # and the second layer does not contain the first
    trio = tube_catalog("a31", F5).tubes[0]
    s, tminus = trio[0], trio[2]
    layer2 = build_extension(tminus, s)
    filt = u_filtration(layer2, (s, tminus))
    compared = []
    iso = artheory.is_isomorphic
    monkeypatch.setattr(artheory, "is_isomorphic", lambda A, B: compared.append(B) or iso(A, B))
    assert not artheory.Filtration(filt.chain[::-1], [0, 1]).validate(layer2, (layer2, s))
    assert compared == [layer2]


def test_filtration_validate_refuses_a_factor_unlike_its_member(monkeypatch):
    # the chain reversed: its first factor is all of layer2, not the socle
    # simple that factor 0 names
    trio = tube_catalog("a31", F5).tubes[0]
    s, tminus = trio[0], trio[2]
    layer2 = build_extension(tminus, s)
    filt = u_filtration(layer2, (s, tminus))
    compared = []
    iso = artheory.is_isomorphic
    monkeypatch.setattr(artheory, "is_isomorphic", lambda A, B: compared.append(B) or iso(A, B))
    assert not artheory.Filtration(filt.chain[::-1], filt.factors).validate(layer2, (s, tminus))
    assert compared == [s]


def test_filtration_impossible_dims():
    s1 = QuiverRep.simple(KRON, F5, 0)
    assert u_filtration(s1, (QuiverRep.simple(KRON, F5, 1),)) is None


@functools.lru_cache(maxsize=None)
def _semibrick_cases() -> tuple:
    """``(N, members)`` pairs over Kronecker and a31 at GF(2), GF(3) and
    GF(5) whose nonzero members are pairwise Hom-orthogonal bricks: the
    simples at a source and a sink (one injective, one projective), every
    simple, and members of the catalogs' tubes.  Each ``N`` has total
    dimension at most 5: tube members, their non-split extensions and
    sums, simples, projectives, injectives and random representations."""
    rng = random.Random(44)
    cases = []
    for family, q in (("kronecker", KRON), ("a31", A3)):
        for p in (2, 3, 5):
            field = PrimeField(p)
            catalog = tube_catalog(family, field)
            tube, homogeneous = catalog.tubes[0], [t[0] for t in catalog.tubes[1:]]
            simples = [QuiverRep.simple(q, field, v) for v in range(q.nvertices)]
            sets = [(simples[0], simples[-1]), tuple(simples), tube[::2], tube,
                    (homogeneous[0], tube[0]), (QuiverRep.zero(q, field), homogeneous[-1])]
            basics = [make(q, field, v) for make in (projective, injective) for v in range(q.nvertices)]
            pool = catalog.members + simples + basics + [random_rep(q, field, rng, 2) for _ in range(4)]
            pool += [build_extension(C, A) for C in catalog.members[:4] for A in catalog.members[:4] if ext1_dim(C, A)]
            pool += [direct_sum(rng.choice(catalog.members), rng.choice(catalog.members)) for _ in range(2)]
            cases += [(N, members) for N in pool if N.total_dim() <= 5 for members in sets]
    return tuple(cases)


def test_filtration_matches_the_exhaustive_search():
    cases = _semibrick_cases()
    filtered = 0
    for N, members in cases:
        filt = u_filtration(N, members)
        assert (filt is None) == (u_filtration_reference(N, members) is None)
        if filt is not None:
            assert filt.validate(N, members)
            filtered += 1
    assert 0 < filtered < len(cases)


@pytest.mark.parametrize("members", ["hom", "endo", "repeat"])
def test_filtration_refuses_a_set_that_is_no_semibrick(members):
    trio = tube_catalog("a31", F5).tubes[0]
    s, tminus = trio[0], trio[2]
    layer2 = build_extension(tminus, s)
    members = {"hom": (s, layer2), "endo": (direct_sum(s, s),), "repeat": (s, tminus, s)}[members]
    with pytest.raises(ValueError, match="^u_filtration needs nonzero members that are pairwise "
                                         "Hom-orthogonal bricks$"):
        u_filtration(layer2, members)


def test_all_submodules_of_tube_simple():
    subs = list(all_submodules(tube_simple(0)))
    # 0, S(1) at the sink, and the whole module
    assert sorted(tuple(B.ncols for B in bases) for bases in subs) == [(0, 0), (0, 1), (1, 1)]


def _canonical(bases, p):
    """A submodule's vertex subspaces as the rref rows of each basis
    transposed: equal exactly when the subspaces are."""
    return tuple(tuple(map(tuple, gauss_jordan(B.transpose().rows, p)[0])) for B in bases)


@pytest.mark.parametrize("p", [2, 3])
def test_all_submodules_matches_brute_force(p):
    field = PrimeField(p)
    rng = random.Random(40 + p)
    for q, dim_cap, count in ((KRON, 3, 10), (A3, 2, 6), (UNORDERED, 2, 6)):
        for _ in range(count):
            M = random_rep(q, field, rng, dim_cap)
            found = list(all_submodules(M))
            assert all(B.rank() == B.ncols for bases in found for B in bases)
            keys = [_canonical(bases, p) for bases in found]
            assert len(set(keys)) == len(keys)
            assert set(keys) == {_canonical(bases, p) for bases in brute_force_submodules(M)}


def _kronecker_4x4_gf3():
    rng = random.Random(7)
    a = [[rng.randrange(3) for _ in range(4)] for _ in range(4)]
    b = [[rng.randrange(3) for _ in range(4)] for _ in range(4)]
    return QuiverRep.from_entries(KRON, PrimeField(3), (4, 4), {"a": a, "b": b})


def test_all_submodules_work_is_output_sensitive(monkeypatch):
    calls = 0
    matmul = Matrix.__matmul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return matmul(self, other)

    M = _kronecker_4x4_gf3()
    monkeypatch.setattr(Matrix, "__matmul__", counted)
    subs = list(all_submodules(M))
    assert len(subs) == 698
    assert calls <= 4 * len(subs)


def test_all_submodules_enumerates_each_dimension_once_per_call(monkeypatch):
    # the search reads complement dimensions many times over, but lists the
    # subspaces of each once; a second call lists them afresh
    dims = []
    subspaces = artheory._all_subspaces
    monkeypatch.setattr(artheory, "_all_subspaces", lambda field, d: dims.append(d) or subspaces(field, d))
    M = _kronecker_4x4_gf3()
    assert len(list(all_submodules(M))) == 698
    assert len(dims) == len(set(dims)) > 1
    first = sorted(dims)
    dims.clear()
    assert len(list(all_submodules(M))) == 698
    assert sorted(dims) == first


def test_all_submodules_stops_at_the_search_budget(monkeypatch):
    monkeypatch.setattr(artheory, "SEARCH_BUDGET", 50)
    with pytest.raises(SearchBudgetExceeded):
        list(all_submodules(_kronecker_4x4_gf3()))


def test_simple_regular_detection():
    df = defect_function(A3)
    for field in (PrimeField(2), F5):
        trio = tube_catalog("a31", field).tubes[0]
        assert all(is_simple_regular(m, df) for m in trio)
        layer2 = build_extension(trio[2], trio[0])
        assert not is_simple_regular(layer2, df)


@functools.lru_cache(maxsize=None)
def _simple_regular_pool() -> tuple:
    """Kronecker and a31 modules of total dimension at most 8 over GF(2),
    GF(3) and GF(5): catalog members, their non-split extensions, sums,
    projectives, injectives, simples, random representations, and the
    translates of some of them."""
    rng = random.Random(26)
    pool = []
    for family, q in (("kronecker", KRON), ("a31", A3)):
        for p in (2, 3, 5):
            field = PrimeField(p)
            members = tube_catalog(family, field).members
            basics = [make(q, field, v) for make in (projective, injective, QuiverRep.simple) for v in range(q.nvertices)]
            randoms = [random_rep(q, field, rng, 4 if q is KRON else 2) for _ in range(20)]
            pool += members + basics + randoms
            pool += [build_extension(C, A) for C in members for A in members if ext1_dim(C, A)]
            pool += [direct_sum(rng.choice(members), rng.choice(members)) for _ in range(6)]
            pool += [direct_sum(rng.choice(basics), rng.choice(basics)) for _ in range(6)]
            pool += [translate(M) for M in basics + randoms[:6] for translate in (tau, tau_minus)]
    return tuple(M for M in pool if M.total_dim() <= 8)


def _verdict(check, M):
    """``check``'s answer on ``M``, or the type of the exception it raised."""
    try:
        return check(M, defect_function(M.quiver))
    except SearchBudgetExceeded as exc:
        return type(exc)


def test_is_simple_regular_matches_the_decompose_route():
    pool = _simple_regular_pool()
    verdicts = [_verdict(is_simple_regular, M) for M in pool]
    assert verdicts == [_verdict(simple_regular_reference, M) for M in pool]
    # both answers occur, and most modules of defect zero are not simple regular
    balanced = [M for M in pool if defect(defect_function(M.quiver), M.dims) == 0]
    assert 50 <= verdicts.count(True) < len(balanced) // 2


def test_is_simple_regular_runs_neither_decompose_nor_subrep_below_the_cap(monkeypatch):
    pool = _simple_regular_pool()
    assert all(M.total_dim() <= artheory.DIM_CAP and isinstance(M.field, PrimeField) for M in pool)
    calls = []
    monkeypatch.setattr(artheory, "decompose", lambda M: calls.append("decompose"))
    monkeypatch.setattr(artheory, "subrep", lambda M, bases: calls.append("subrep"))
    for M in pool:
        is_simple_regular(M, defect_function(M.quiver))
    assert calls == []


def test_is_simple_regular_decomposes_only_where_the_search_cannot_run(monkeypatch):
    # above the cap, and past the search budget, a splitting refutes and an
    # indecomposable module of defect zero raises, as on the decompose route
    members = tube_catalog("kronecker", F5).members
    split = functools.reduce(direct_sum, members + members[:1])
    identity = [[int(j == i) for j in range(7)] for i in range(7)]
    jordan = [[int(j == i + 1) for j in range(7)] for i in range(7)]
    one_point = QuiverRep.from_entries(KRON, F5, (7, 7), {"a": identity, "b": jordan})
    assert split.dims == one_point.dims == (7, 7) and 14 > artheory.DIM_CAP
    assert len(decompose(split)) == 6 and len(decompose(one_point)) == 1
    cases = [(split, False), (one_point, SearchBudgetExceeded)]
    for M, expected in cases:
        assert _verdict(is_simple_regular, M) == _verdict(simple_regular_reference, M) == expected
    monkeypatch.setattr(artheory, "SEARCH_BUDGET", 3)
    cases = [(direct_sum(members[0], members[1]), False), (build_extension(members[0], members[0]), SearchBudgetExceeded)]
    for M, expected in cases:
        assert _verdict(is_simple_regular, M) == _verdict(simple_regular_reference, M) == expected


# -- catalogs ----------------------------------------------------------------


def test_kronecker_catalog():
    cat = tube_catalog("kronecker", F5)
    assert cat.ranks == [1] * 6
    for (member,) in cat.tubes:
        assert member.dims == (1, 1)
        assert is_isomorphic(tau(member), member)
    # pairwise non-isomorphic
    members = cat.members
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            assert not is_isomorphic(members[i], members[j])


def test_a31_catalog():
    cat = tube_catalog("a31", F5)
    assert cat.ranks[0] == 3
    assert set(cat.ranks[1:]) == {1}
    df = defect_function(A3)
    total = [0] * 4
    for m in cat.tubes[0]:
        assert is_simple_regular(m, df)
        for v, d in enumerate(m.dims):
            total[v] += d
    assert tuple(total) == df.radical_vector


def _a31_point(field, lam):
    return QuiverRep.from_entries(A3, field, (1, 1, 1, 1), {"a1": [[1]], "a2": [[1]], "a3": [[1]], "b": [[lam]]})


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_a31_homogeneous_members_are_the_points_b_equals_lambda(p):
    field = PrimeField(p)
    assert tube_catalog("a31", field).tubes[1:] == tuple((_a31_point(field, lam),) for lam in range(p))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_a31_catalog_refuses_a_member_that_tau_moves(monkeypatch, p):
    field = PrimeField(p)
    moved, real_tau = _a31_point(field, 1), artheory.tau
    monkeypatch.setattr(artheory, "tau", lambda M: _a31_point(field, 2 % p) if M == moved else real_tau(M))
    with pytest.raises(AssertionError):
        tube_catalog("a31", field)


def test_unsupported_family():
    for family in ("d4", "affine_a3", "Kronecker"):
        with pytest.raises(UnsupportedFamily):
            tube_catalog(family, F5)


def test_tube_catalog_stops_at_the_member_cap(monkeypatch):
    """The cap counts one member per field element plus the
    non-homogeneous tube (1 Kronecker member, 3 of a31) and refuses
    before anything is built."""
    monkeypatch.setattr(artheory, "MAX_TUBE_MEMBERS", 8)
    assert len(tube_catalog("kronecker", PrimeField(7)).members) == 8
    assert len(tube_catalog("a31", PrimeField(5)).members) == 8
    monkeypatch.setattr(artheory, "tau", None)  # nothing past the cap may reach it
    monkeypatch.setattr(QuiverRep, "from_entries", None)
    for family, p, members in (("kronecker", 11, 12), ("a31", 7, 10)):
        with pytest.raises(SearchBudgetExceeded, match=f"has {members} members, exceeds cap 8"):
            tube_catalog(family, PrimeField(p))


def test_socle_of_layer_two_is_the_socle_member():
    trio = tube_catalog("a31", F5).tubes[0]
    layer2 = build_extension(trio[2], trio[0])
    soc, _ = socle(layer2)
    assert is_isomorphic(soc, trio[0])


def test_transpose_duality_spot_check():
    # Tor_1(U, Tr U) pairs with morphisms from Tr U to itself
    u = tube_simple(1)
    tru = transpose(proj_presentation(u))
    assert tor_dims(u, tru)[0] == hom_dim(tru, tru)


@pytest.mark.parametrize("call, error, message", [
    (lambda: tube_catalog("kronecker", QQ), UnsupportedFamily, "tube catalogs are enumerated over finite fields"),
    (lambda: defect_function(Quiver(2, (Arrow("a", 0, 1),))), UnsupportedFamily,
     "radical of the symmetrized Euler form has dimension 0, not 1"),
    (lambda: next(all_submodules(QuiverRep.zero(KRON, QQ))), SearchBudgetExceeded,
     "exhaustive submodule search requires a finite field"),
], ids=["tube-catalog-over-qq", "defect-on-a2", "submodules-over-qq"])
def test_bad_input_is_refused_by_name(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
