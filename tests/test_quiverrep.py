import random
from fractions import Fraction

import pytest
from oracles import hom_system_reference, presentation_tensor_reference, socle_reference, top_reference

from tiltlab import quiverrep
from tiltlab.artheory import all_submodules, transpose
from tiltlab.errors import NotInvariant, QuiverMismatch
from tiltlab.exactlin import QQ, Matrix, PrimeField
from tiltlab.quiverrep import (
    Arrow,
    ProjPresentation,
    Quiver,
    QuiverRep,
    affine_a3_cycle,
    cokernel,
    direct_sum,
    euler_form,
    ext1_dim,
    extend_generators,
    hom_dim,
    hom_ext_dims,
    hom_space,
    hom_system,
    injective,
    is_projective,
    kernel_piece,
    kronecker,
    presentation_tensor_terms,
    proj_presentation,
    proj_sum,
    projective,
    quotient_by,
    random_rep,
    regular_dims,
    socle,
    subrep,
    tor_dims,
)

F5 = PrimeField(5)
F7 = PrimeField(7)
KRON = kronecker()
A3 = affine_a3_cycle()


def tube_simple(q, field, lam):
    # dims (1,1) Kronecker module with maps (1), (lam)
    return QuiverRep.from_entries(q, field, (1, 1), {"a": [[1]], "b": [[lam]]})


def test_quiver_rejects_cycles():
    with pytest.raises(ValueError):
        Quiver(2, (Arrow("a", 0, 1), Arrow("b", 1, 0)))


def test_equal_quivers_hash_alike_and_share_cached_projectives():
    # each quiver stores its hash when built; equal quivers built apart
    # must still meet in every cache keyed by a quiver
    q1, q2 = kronecker(), kronecker()
    assert q1 is not q2 and q1 == q2 and hash(q1) == hash(q2)
    assert q1 != Quiver(2, (Arrow("a", 0, 1),)) and q1 != q1.opposite()
    assert Arrow("a", 0, 1) == Arrow("a", 0, 1) != Arrow("a", 1, 0)
    quiverrep.proj_sum.cache_clear()
    first = quiverrep.proj_sum(q1, F5, (0, 1))
    assert quiverrep.proj_sum(q2, F5, (0, 1)) is first
    assert quiverrep.proj_sum.cache_info().hits == 1
    a1, a2 = affine_a3_cycle(), affine_a3_cycle()
    assert a1 is not a2 and hash(a1) == hash(a2) and a1.opposite() is a2.opposite()
    assert quiverrep.proj_sum(a1, F5, (0, 2)) is quiverrep.proj_sum(a2, F5, (0, 2))
    assert quiverrep.proj_sum.cache_info().hits == 2


def test_the_opposite_quiver_is_built_once_and_reverses_back():
    for q in (kronecker(), affine_a3_cycle(), Quiver(3, (Arrow("x", 2, 0), Arrow("y", 0, 1)))):
        op = q.opposite()
        assert op is q.opposite() and op.opposite() == q and op != q
        assert [(a.name, a.source, a.target) for a in op.arrows] == [(a.name, a.target, a.source) for a in q.arrows]


def test_topological_order_points_every_arrow_forward():
    for q in (KRON, A3, Quiver(3, (Arrow("x", 2, 0), Arrow("y", 0, 1)))):
        order = q.topological_order()
        assert sorted(order) == list(range(q.nvertices))
        assert all(order.index(a.source) < order.index(a.target) for a in q.arrows)
    with pytest.raises(ValueError, match="quiver must be acyclic"):
        Quiver(4, (Arrow("a", 3, 0), Arrow("b", 0, 1), Arrow("c", 1, 2), Arrow("d", 2, 0)))


def test_projective_dims_on_kronecker():
    assert projective(KRON, F5, 1).dims == (0, 1)
    assert projective(KRON, F5, 0).dims == (1, 2)
    assert regular_dims(KRON) == (1, 3)


def test_sum_of_projectives_is_regular_module():
    for q in (KRON, A3):
        total = [0] * q.nvertices
        for i in range(q.nvertices):
            for v, d in enumerate(projective(q, F5, i).dims):
                total[v] += d
        assert tuple(total) == regular_dims(q)


def test_hom_between_kronecker_simples_vanishes():
    s1 = QuiverRep.simple(KRON, F5, 0)
    s2 = QuiverRep.simple(KRON, F5, 1)
    assert hom_dim(s1, s2) == 0
    assert hom_dim(s2, s1) == 0


def test_hom_contains_identity():
    m = tube_simple(KRON, F5, 2)
    assert hom_dim(m, m) >= 1


def test_end_of_projective_is_one_dimensional():
    p1 = projective(KRON, F5, 0)
    assert hom_dim(p1, p1) == 1


def test_hom_basis_maps_commute():
    rng = random.Random(3)
    for _ in range(20):
        M, N = random_rep(KRON, F5, rng), random_rep(KRON, F5, rng)
        for f in hom_space(M, N):
            assert f.is_valid()


def test_presentation_of_projective_has_zero_kernel():
    p0 = projective(KRON, F5, 0)
    pres = proj_presentation(p0)
    assert pres.P.rep.is_zero()
    assert pres.Q.rep.dims == p0.dims
    assert is_projective(p0)


def test_is_projective_agrees_with_the_presentation_kernel():
    rng = random.Random(9)
    modules = [random_rep(KRON, F5, rng, dim_cap=2) for _ in range(30)]
    modules += [projective(KRON, F5, 0), projective(KRON, F5, 1), QuiverRep.simple(KRON, F5, 0)]
    verdicts = [is_projective(M) for M in modules]
    assert verdicts == [proj_presentation(M).P.rep.is_zero() for M in modules]
    assert True in verdicts and False in verdicts


def test_cover_that_misses_a_generator_is_refused(monkeypatch):
    # a top without its last generator spans a proper submodule, so the
    # cover's kernel bases show a rank deficit
    top = quiverrep._top
    monkeypatch.setattr(quiverrep, "_top", lambda X: top(X)[:-1])
    for M in (QuiverRep.simple(KRON, F5, 0), tube_simple(KRON, F5, 2), projective(A3, F5, 0)):
        with pytest.raises(AssertionError, match="projective cover failed to be surjective"):
            proj_presentation(M)


LINEAR_A3 = Quiver(3, (Arrow("a", 0, 1), Arrow("b", 1, 2)))


def low_rank_rep(q, field, rng):
    """Dims in ``0..3`` and each arrow map a product ``L R`` through a
    random inner dimension up to the smaller side, so zero maps and
    rank-deficient maps are common; fractions over ``QQ``."""
    def draw():
        return Fraction(rng.randrange(-3, 4), rng.randint(1, 3)) if field == QQ else rng.randrange(field.p)

    dims = [rng.randrange(0, 4) for _ in range(q.nvertices)]
    maps = []
    for a in q.arrows:
        rows, cols = dims[a.target], dims[a.source]
        inner = rng.randrange(0, min(rows, cols) + 1)
        L = Matrix(field, [[draw() for _ in range(inner)] for _ in range(rows)], inner)
        maps.append(L @ Matrix(field, [[draw() for _ in range(cols)] for _ in range(inner)], cols))
    return QuiverRep(q, field, dims, maps)


def lifted(top, bases):
    """``_top``'s ``(vertex, index)`` pairs as ``top_reference`` gives them:
    the vertices, and column ``index`` of ``bases[vertex]`` for each."""
    return tuple(v for v, _ in top), [bases[v].column(c) for v, c in top]


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), PrimeField(101), QQ], ids=repr)
def test_top_matches_the_pivots_of_images_beside_the_basis(field):
    """Both tops in ``proj_presentation``, the module's and the cover
    kernel's, lifted through the identity and the kernel bases, against
    the pivots of ``[images | B]``; and the kernel read by
    ``kernel_piece`` against the ``subrep`` its bases span."""

    rng = random.Random(23)
    seen = {"zero dim": 0, "rank deficient": 0, "kernel top at several vertices": 0}
    for q in (KRON, A3, LINEAR_A3):
        for _ in range(25):
            M = low_rank_rep(q, field, rng)
            units = [Matrix.identity(field, d) for d in M.dims]
            verts, gens = lifted(quiverrep._top(M), units)
            assert (verts, gens) == top_reference(M, units)
            Qs = proj_sum(q, field, verts)
            kernel = [m.kernel_and_free() for m in extend_generators(Qs, M, gens).maps]
            bases = [K for K, _ in kernel]
            K = kernel_piece(Qs.rep, kernel)
            assert K == subrep(Qs.rep, bases)[0]
            ktop = lifted(quiverrep._top(K), bases)
            assert ktop == top_reference(Qs.rep, bases)
            seen["zero dim"] += 0 in M.dims
            seen["rank deficient"] += any(0 < m.rank() < min(m.shape) for m in M.maps)
            seen["kernel top at several vertices"] += len(set(ktop[0])) > 1
    assert min(seen.values()) >= 3, seen


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), PrimeField(101), QQ], ids=repr)
def test_socle_matches_the_subrep_of_its_kernel_bases(field):
    """``socle`` builds zero arrow maps on the joint kernels; the
    ``subrep`` route reads them off spans, entry for entry the same."""
    rng = random.Random(31)
    nonzero = 0
    for q in (KRON, A3):
        for _ in range(25):
            M = low_rank_rep(q, field, rng)
            soc, incl = socle(M)
            ref, ref_incl = socle_reference(M)
            assert soc == ref and incl.maps == ref_incl.maps
            nonzero += not soc.is_zero() and soc.dims != M.dims
    assert nonzero >= 5


def _is_identity(m: Matrix) -> bool:
    one, zero = m.field.one, m.field.zero
    return m.nrows == m.ncols >= 1 and all(x == (one if i == j else zero)
                                           for i, row in enumerate(m.rows) for j, x in enumerate(row))


def test_presentations_build_no_identity_and_take_no_product_with_one(monkeypatch):
    """``proj_presentation``, ``is_projective`` and the tensor terms on
    Kronecker and a31 modules with dense maps, where paths of length 2 and
    3 make products along ``X``."""
    rng = random.Random(29)
    cases = []
    for q in (KRON, A3):
        for _ in range(6):
            cases.append((dense_rep(q, PrimeField(101), rng, 4), dense_rep(q.opposite(), PrimeField(101), rng, 3)))
    cases.append((QuiverRep.simple(A3, F5, 0), QuiverRep.simple(A3.opposite(), F5, 3)))
    built, products = [], []
    identity, matmul = Matrix.identity, Matrix.__matmul__

    def spy_matmul(A, B):
        if _is_identity(A) or _is_identity(B):
            products.append((A.shape, B.shape))
        return matmul(A, B)

    monkeypatch.setattr(Matrix, "identity", staticmethod(lambda field, n: built.append(n) or identity(field, n)))
    monkeypatch.setattr(Matrix, "__matmul__", spy_matmul)
    lengths = set()
    for M, X in cases:
        pres = proj_presentation(M)
        is_projective(M)
        presentation_tensor_terms(pres, X)
        lengths |= {len(w) for _, _, w, _ in pres.path_matrix()}
    assert built == [] and products == []
    assert {2, 3} <= lengths


def test_presentation_of_kronecker_simple():
    s1 = QuiverRep.simple(KRON, F5, 0)
    pres = proj_presentation(s1)
    assert pres.Q.summands == (0,)           # cover P_1
    assert sorted(pres.P.summands) == [1, 1]  # radical P_2^2
    assert all(m.rank() == m.ncols for m in pres.alpha.maps)


def test_presentation_of_tube_simple():
    r = tube_simple(KRON, F5, 2)
    pres = proj_presentation(r)
    assert pres.Q.summands == (0,)
    assert pres.P.summands == (1,)
    # dimension count (1,2) - (0,1) = (1,1)
    assert tuple(qd - pd for qd, pd in zip(pres.Q.rep.dims, pres.P.rep.dims)) == r.dims


def test_presentation_dims_additive_in_k0():
    rng = random.Random(4)
    for q in (KRON, A3):
        for _ in range(15):
            M = random_rep(q, F5, rng)
            pres = proj_presentation(M)
            for v in range(q.nvertices):
                assert pres.P.rep.dims[v] - pres.Q.rep.dims[v] + M.dims[v] == 0


def test_ext_vanishes_on_projectives():
    rng = random.Random(5)
    for i in range(2):
        p = projective(KRON, F5, i)
        for _ in range(5):
            N = random_rep(KRON, F5, rng)
            assert ext1_dim(p, N) == 0


def test_ext_of_kronecker_simples():
    s1 = QuiverRep.simple(KRON, F5, 0)
    s2 = QuiverRep.simple(KRON, F5, 1)
    assert ext1_dim(s1, s2) == 2
    assert ext1_dim(s2, s1) == 0


def test_hom_via_presentation_agrees_with_solver():
    # the commuting-square system's kernel and cokernel are Hom and Ext^1
    rng = random.Random(6)
    for field in (F5, PrimeField(2), PrimeField(3)):
        for q in (KRON, A3):
            for _ in range(10):
                M, N = random_rep(q, field, rng), random_rep(q, field, rng)
                S, _ = hom_system(M, N)
                rank = S.rank()
                assert hom_ext_dims(M, N) == (S.ncols - rank, S.nrows - rank)
                assert hom_ext_dims(M, N)[0] == hom_dim(M, N) == len(hom_space(M, N))


A3_LINEAR = Quiver(3, (Arrow("x", 0, 1), Arrow("y", 1, 2)))


def hom_pairs(q, field, rng):
    """Pairs with every dimension from 0 to 3, so zero dimensions at source,
    target and both ends of an arrow, over a prime field or QQ."""
    draw = (lambda: rng.randrange(-3, 4)) if field == QQ else (lambda: rng.randrange(field.p))

    def rep(dims):
        return QuiverRep(q, field, dims, [Matrix(field, [[draw() for _ in range(dims[a.source])]
                                                         for _ in range(dims[a.target])], dims[a.source])
                                          for a in q.arrows])

    shapes = [tuple(rng.randrange(4) for _ in range(q.nvertices)) for _ in range(12)]
    shapes += [(0,) * q.nvertices, (3,) + (0,) * (q.nvertices - 1), (0,) * (q.nvertices - 1) + (3,)]
    pairs = [(rep(d), rep(e)) for d, e in zip(shapes, shapes[1:] + shapes[:1])]
    return pairs + [(M, M) for M, _ in pairs[:4]]


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), PrimeField(101), QQ], ids=repr)
@pytest.mark.parametrize("q", [KRON, A3, A3_LINEAR], ids=["kronecker", "a31", "a3"])
def test_hom_system_and_hom_space_match_the_entry_loop(q, field):
    for M, N in hom_pairs(q, field, random.Random(53)):
        system, offs = hom_system(M, N)
        ref, ref_offs = hom_system_reference(M, N)
        assert offs == ref_offs
        assert system.shape == ref.shape and system.rows == ref.rows
        K = ref.kernel_basis()
        expected = [[Matrix._of(field, [K.column(j)[o + r * m: o + (r + 1) * m] for r in range(n)], m)
                     for o, m, n in zip(offs, M.dims, N.dims)] for j in range(K.ncols)]
        assert [list(f.maps) for f in hom_space(M, N)] == expected


def padded_presentation(pres: ProjPresentation, vertex: int) -> ProjPresentation:
    """A non-minimal presentation: add the identity of P(vertex) to both
    ends of the exact sequence."""
    from tiltlab.quiverrep import generator_images

    q, field = pres.module.quiver, pres.module.field
    P2 = proj_sum(q, field, pres.P.summands + (vertex,))
    Q2 = proj_sum(q, field, pres.Q.summands + (vertex,))
    gens = generator_images(pres.P, pres.alpha)
    embedded = []
    for p, vec in enumerate(gens):
        v = pres.P.summands[p]
        pad = vec + [field.zero] * (Q2.rep.dims[v] - len(vec))
        embedded.append(pad)
    extra = [field.zero] * Q2.rep.dims[vertex]
    extra[Q2.rep.dims[vertex] - 1] = field.one  # generator of the appended summand
    alpha2 = extend_generators(P2, Q2.rep, embedded + [extra])
    proj_gens = generator_images(pres.Q, pres.projection)
    proj2 = extend_generators(Q2, pres.module, proj_gens + [[field.zero] * pres.module.dims[vertex]])
    return ProjPresentation(P2, Q2, alpha2, pres.module, proj2)


def test_extend_generators_coerces_no_path_image(monkeypatch):
    """The image of each path label is read from the canonical image of its
    prefix, so rebuilding a cover coerces no entry and gives its maps."""
    from tiltlab.quiverrep import generator_images

    rng = random.Random(12)
    coerced = []
    coerce = PrimeField.coerce
    for q in (KRON, A3):
        for _ in range(10):
            M = random_rep(q, F5, rng, dim_cap=3)
            pres = proj_presentation(M)
            gens = generator_images(pres.Q, pres.projection)
            monkeypatch.setattr(PrimeField, "coerce", lambda self, x: coerced.append(x) or coerce(self, x))
            rebuilt = extend_generators(pres.Q, M, gens)
            monkeypatch.setattr(PrimeField, "coerce", coerce)
            assert rebuilt.maps == pres.projection.maps
    assert coerced == []


def test_ext_independent_of_presentation():
    rng = random.Random(7)
    count = 0
    for q in (KRON, A3):
        while count < 25 or q is A3 and count < 50:
            M, N = random_rep(q, F5, rng), random_rep(q, F5, rng)
            pres = proj_presentation(M)
            pres2 = padded_presentation(pres, rng.randrange(q.nvertices))
            psi = Matrix.block_sum(F5, *presentation_tensor_terms(pres2, N.dual()))
            rank = psi.rank()
            assert hom_ext_dims(M, N) == (psi.nrows - rank, psi.ncols - rank)
            count += 1
        if q is KRON:
            count = 25
    assert count >= 50


def dense_rep(q, field, rng, dim_cap):
    """Random dims in ``1..dim_cap`` and random entries, fractions over ``QQ``."""
    def draw():
        return Fraction(rng.randrange(-9, 10), rng.randint(1, 4)) if field == QQ else rng.randrange(field.p)

    dims = [rng.randint(1, dim_cap) for _ in range(q.nvertices)]
    return QuiverRep(q, field, dims, [Matrix(field, [[draw() for _ in range(dims[a.source])] for _ in range(dims[a.target])],
                                             dims[a.source]) for a in q.arrows])


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), PrimeField(101), PrimeField(2**31 - 1), QQ], ids=repr)
def test_presentation_tensor_matrix_matches_the_per_row_loop(field):
    """Kronecker and a31 modules and modules over their opposite quivers,
    against the loop that sums each block row by ``sub_scaled``."""
    rng, lengths = random.Random(19), set()
    for q in (KRON, KRON.opposite(), A3, A3.opposite()):
        for _ in range(5):
            M, X = dense_rep(q, field, rng, 4), dense_rep(q.opposite(), field, rng, 3)
            pres = proj_presentation(M)
            nrows, ncols, terms = presentation_tensor_terms(pres, X)
            psi = presentation_tensor_reference(pres, X)
            assert Matrix.block_sum(field, nrows, ncols, terms) == psi
            assert Matrix.block_sum_rank(field, nrows, ncols, terms) == psi.rank()
            lengths |= {len(w) for _, _, w, _ in pres.path_matrix()}
    assert {1, 2, 3} <= lengths


def test_tor_vanishes_on_projectives():
    rng = random.Random(8)
    p = projective(KRON, F5, 0)
    for _ in range(5):
        X = random_rep(KRON.opposite(), F5, rng)
        assert tor_dims(p, X)[0] == 0


def test_tor_against_dual_ext():
    # Tor_1(M, D N) = D Ext^1(M, N) and M (x) D N = D Hom(M, N), the cokernel
    # and the kernel of the commuting-square system, which never sees a
    # presentation
    rng = random.Random(9)
    for field in (PrimeField(2), PrimeField(3), F5):
        for q in (KRON, A3):
            for _ in range(10):
                M, N = random_rep(q, field, rng), random_rep(q, field, rng)
                S, _ = hom_system(M, N)
                rank = S.rank()
                assert tor_dims(M, N.dual()) == (S.nrows - rank, S.ncols - rank)


def test_tor_requires_opposite_quiver():
    M = tube_simple(KRON, F5, 1)
    with pytest.raises(QuiverMismatch):
        tor_dims(M, M)


def test_hom_ext_and_tor_read_the_presentation_method():
    rng = random.Random(30)
    for q in (KRON, A3):
        for _ in range(10):
            M, N = random_rep(q, F5, rng), random_rep(q, F5, rng)
            pres = proj_presentation(M)
            assert tor_dims(M, N.dual()) == pres.tor_dims(N.dual()) == hom_ext_dims(M, N)[::-1]


def test_hom_ext_dims_names_a_mismatched_pair():
    with pytest.raises(QuiverMismatch, match="different quivers or fields"):
        hom_ext_dims(tube_simple(KRON, F5, 1), QuiverRep.simple(A3, F5, 0))
    with pytest.raises(QuiverMismatch, match="different quivers or fields"):
        hom_ext_dims(tube_simple(KRON, F5, 1), QuiverRep.simple(KRON, PrimeField(7), 0))


def test_euler_form_values_on_kronecker():
    assert euler_form(KRON, (1, 0), (0, 1)) == -2
    assert euler_form(KRON, (2, 3), (0, 0)) == 0
    assert euler_form(KRON, (1, 1), (1, 1)) == 0


def test_euler_form_identity_sampled():
    rng = random.Random(10)
    for q in (KRON, A3):
        for _ in range(30):
            M, N = random_rep(q, F5, rng, dim_cap=2), random_rep(q, F5, rng, dim_cap=2)
            h, e = hom_ext_dims(M, N)
            assert euler_form(q, M.dims, N.dims) == hom_dim(M, N) - e
            assert h == hom_dim(M, N)


def test_direct_sum_dims_additive():
    m = tube_simple(KRON, F5, 1)
    s = QuiverRep.simple(KRON, F5, 1)
    d = direct_sum(m, s)
    assert d.dims == (1, 2)
    z = QuiverRep.zero(KRON, F5)
    assert direct_sum(m, z).dims == m.dims
    assert hom_dim(direct_sum(m, z), m) == hom_dim(m, m)


def test_subrep_rejects_unstable_subspace():
    m = tube_simple(KRON, F5, 1)
    with pytest.raises(NotInvariant):
        subrep(m, [Matrix(F5, [[1]]), Matrix.zeros(F5, 1, 0)])


def test_subrep_and_quotient_shapes():
    m = tube_simple(KRON, F5, 1)
    sub, incl = subrep(m, [Matrix.zeros(F5, 1, 0), Matrix(F5, [[1]])])
    assert sub.dims == (0, 1)
    assert incl.is_valid() and all(m.rank() == m.ncols for m in incl.maps)
    quo, proj = quotient_by(m, [Matrix.zeros(F5, 1, 0), Matrix(F5, [[1]])])
    assert quo.dims == (1, 0)
    assert proj.is_valid() and all(m.rank() == m.nrows for m in proj.maps)


def _pivot_basis(G):
    _, pivots = G.rref()
    return Matrix.from_columns(G.field, [G.column(j) for j in pivots], G.nrows)


def _redundant(B, rng):
    """Columns spanning the column space of ``B`` with zero and repeated
    columns and combinations mixed in, so the pivot columns differ from
    ``B``."""
    field = B.field
    combos = [B @ Matrix(field, [[rng.randrange(field.p)] for _ in range(B.ncols)], 1) for _ in range(2)]
    cols = [c.column(0) for c in combos] + B.columns() + B.columns()[:1] + [[field.zero] * B.nrows]
    rng.shuffle(cols)
    return Matrix.from_columns(field, cols, B.nrows)


def test_spanning_columns_agree_with_pivot_basis():
    field = PrimeField(3)
    rng = random.Random(8)
    for q in (KRON, A3):
        for _ in range(6):
            M = random_rep(q, field, rng, 3 if q is KRON else 2)
            for bases in list(all_submodules(M))[::3]:
                gens = [_redundant(B, rng) for B in bases]
                pivot = [_pivot_basis(G) for G in gens]
                sub, incl = subrep(M, gens)
                ref, ref_incl = subrep(M, pivot)
                assert sub == ref and incl.maps == ref_incl.maps
                quo, proj = quotient_by(M, gens)
                ref, ref_proj = quotient_by(M, bases)
                assert quo == ref and proj.maps == ref_proj.maps
            N = random_rep(q, field, rng, 2)
            for f in hom_space(N, M):
                pivot = [_pivot_basis(m) for m in f.maps]
                im, im_incl = subrep(f.target, list(f.maps))
                ref, ref_incl = subrep(M, pivot)
                assert im == ref and im_incl.maps == ref_incl.maps
                co, co_proj = cokernel(f)
                ref, ref_proj = quotient_by(M, pivot)
                assert co == ref and co_proj.maps == ref_proj.maps


def test_socle_of_projective_cover_example():
    p0 = projective(KRON, F5, 0)
    soc, _ = socle(p0)
    assert soc.dims == (0, 2)


def test_injective_dims():
    assert injective(KRON, F5, 0).dims == (1, 0)
    assert injective(KRON, F5, 1).dims == (2, 1)


def test_hom_requires_same_quiver():
    m = tube_simple(KRON, F5, 1)
    n = QuiverRep.simple(A3, F5, 0)
    with pytest.raises(QuiverMismatch):
        hom_space(m, n)


def test_proj_sum_path_basis_is_deterministic():
    ps1 = proj_sum(A3, F5, (0, 2))
    ps2 = proj_sum.__wrapped__(A3, F5, (0, 2))
    assert ps1.basis == ps2.basis
    assert ps1.rep == ps2.rep


def test_shared_proj_sums_survive_hom_and_ext_work():
    """``proj_sum`` returns one object per argument tuple to every caller;
    Hom, Ext, Tor and transpose work on presentations built from it must
    leave it equal to a freshly built one."""
    rng = random.Random(4)
    for q, dims in ((KRON, (3, 4)), (A3, (2, 2, 3, 2))):
        M = QuiverRep(q, F5, dims, [Matrix(F5, [[rng.randrange(5) for _ in range(dims[a.source])]
                                                 for _ in range(dims[a.target])], dims[a.source])
                                    for a in q.arrows])
        N = direct_sum(M, projective(q, F5, 0))
        pres = proj_presentation(M)
        hom_space(pres.Q.rep, N)
        hom_space(N, pres.P.rep)
        hom_ext_dims(M, N)
        hom_ext_dims(pres.Q.rep, M)
        tor_dims(M, N.dual())
        transpose(pres)
        proj_presentation(N)
        for ps in (pres.P, pres.Q, proj_sum(q.opposite(), F5, pres.Q.summands)):
            assert proj_sum(ps.quiver, F5, ps.summands) is ps
            fresh = proj_sum.__wrapped__(ps.quiver, F5, ps.summands)
            assert (ps.basis, ps.index, ps.rep) == (fresh.basis, fresh.index, fresh.rep)


@pytest.mark.parametrize("call, error, message", [
    (lambda: Quiver(2, (Arrow("a", 0, 2),)), ValueError, "arrow a has out-of-range endpoints"),
    (lambda: QuiverRep(KRON, F5, (1,), ()), ValueError, "bad dimension vector"),
    (lambda: QuiverRep(KRON, F5, (1, -1), ()), ValueError, "bad dimension vector"),
    (lambda: QuiverRep(KRON, F5, (1, 1), (Matrix(F5, [[1]]),)), ValueError, "one matrix per arrow required"),
    (lambda: QuiverRep(KRON, F5, (1, 1), (Matrix(F5, [[1, 0]]), Matrix(F5, [[1]]))), ValueError,
     "arrow a: matrix shape (1, 2) != (1, 1)"),
    (lambda: subrep(projective(KRON, F5, 0), [Matrix.identity(F5, 2), Matrix.identity(F5, 2)]), ValueError,
     "vertex 0: generators have wrong height"),
    (lambda: projective(KRON, F5, 2), ValueError, "vertex out of range"),
    (lambda: extend_generators(proj_sum(KRON, F5, (0,)), projective(KRON, F7, 0), [[1]]), QuiverMismatch,
     "target lives over a different quiver or field"),
    (lambda: extend_generators(proj_sum(KRON, F5, (0,)), projective(KRON, F5, 0), [[]]), ValueError,
     "generator 0: image of length 0, expected 1"),
    (lambda: euler_form(KRON, (1,), (1, 1)), ValueError, "dimension vectors must match the vertex count"),
], ids=["arrow-out-of-range", "dims-wrong-length", "dims-negative", "matrix-missing", "matrix-wrong-shape",
        "subrep-wrong-height", "projective-vertex-out-of-range", "extend-other-field", "extend-image-length",
        "euler-form-wrong-length"])
def test_bad_input_is_refused_by_name(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
