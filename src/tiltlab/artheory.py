"""Transpose, translates, decomposition and the defect rank function.

The transpose of a module with presentation ``0 -> P -> Q -> U -> 0`` is
the cokernel of the dualized map ``Q* -> P*`` between projectives over the
opposite quiver; combining it with the standard duality gives the
translates ``tau = D Tr`` and ``tau^- = Tr D``.  Duality turns that
cokernel into a kernel, ``D Tr U = ker(D P* -> D Q*)`` (the Nakayama
functor applied to the presentation), which ``kernel_piece`` reads, so no
quotient or span is taken.

The defect is the rank function obtained by pairing dimension vectors with
the radical vector of the symmetrized Euler form, normalized so the path
algebra itself has defect one.  Regular modules are exactly the modules
whose indecomposable summands have defect zero.

Isomorphism testing and decomposition sample nothing.  An isomorphism is
certified by an invertible element of ``Hom(M, N)``, which a deterministic
walk over its basis finds by adding basis elements that raise the rank.
When the basis images span less than ``N`` at some vertex, no morphism is
invertible and the answer is no.  Only when the walk stalls with every
vertex spanned does Krull-Schmidt decide: summands split along
Fitting decompositions of endomorphisms, each is certified indecomposable by
a local endomorphism ring, and the verdict compares the decompositions of
``M`` and ``N`` group by group.  A Fitting split ``X = ker g^e + im g^e``
reads its rank and both pieces off one elimination of ``g^e`` per vertex,
the kernel basis with its free columns, and builds no span.  The
splitting factors minimal polynomials of endomorphisms: over ``GF(p)``
with the library's own Berlekamp factorizer, over QQ with sympy, the one
use of the optional ``qq`` extra.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import (
    MissingExtra,
    NoExtension,
    NonSplitField,
    NotBound,
    NotInvariant,
    SearchBudgetExceeded,
    UnsupportedFamily,
)
from .exactlin import Matrix, PrimeField, QQ, _gf_factor
from .quiverrep import (
    ProjPresentation,
    Quiver,
    QuiverRep,
    RepMap,
    affine_a3_cycle,
    direct_sum,
    extend_generators,
    euler_form,
    hom_dim,
    hom_space,
    hom_system,
    is_projective,
    kernel_piece,
    kronecker,
    proj_presentation,
    proj_sum,
    projective,
    quotient_by,
    regular_dims,
    subrep,
)

SEARCH_BUDGET = 200_000  # vertex subspaces one exhaustive submodule search may choose
DIM_CAP = 12  # largest total dimension the submodule search accepts
# most members a tube catalog builds, one per field element plus its
# non-homogeneous tube: 1024 a31 members build in about 0.4 s
MAX_TUBE_MEMBERS = 1024

# ---------------------------------------------------------------------------
# transpose and translates


def transpose(pres: ProjPresentation) -> QuiverRep:
    """Transpose of the presented module: the cokernel of the dualized
    presentation map ``alpha*: Q* -> P*``, a representation of the opposite
    quiver, read as ``D ker(D alpha*)``.  The transpose of a projective is
    zero."""
    field = pres.module.field
    qop = pres.module.quiver.opposite()
    q_star = proj_sum(qop, field, pres.Q.summands)
    p_star = proj_sum(qop, field, pres.P.summands)
    gen_images = [[field.zero] * p_star.rep.dims[v] for v in pres.Q.summands]
    for (qi, pi, path, coeff) in pres.path_matrix():
        vtx = pres.Q.summands[qi]
        pos = p_star.index[vtx][(pi, tuple(reversed(path)))]
        gen_images[qi][pos] = field.add(gen_images[qi][pos], coeff)
    alpha_star = extend_generators(q_star, p_star.rep, gen_images)
    return kernel_piece(p_star.rep.dual(), [m.transpose().kernel_and_free() for m in alpha_star.maps]).dual()


def tau(M: QuiverRep) -> QuiverRep:
    """Translate ``D Tr``; kills projective summands."""
    return transpose(proj_presentation(M)).dual()


def tau_minus(M: QuiverRep) -> QuiverRep:
    """Inverse translate ``Tr D``; kills injective summands."""
    return transpose(proj_presentation(M.dual()))


# ---------------------------------------------------------------------------
# isomorphism testing and decomposition


def is_isomorphic(M: QuiverRep, N: QuiverRep) -> bool:
    """Certified isomorphism test.  An invertible morphism ``M -> N``
    proves ``M ~ N``; :func:`_raise_rank` looks for one in ``Hom(M, N)``,
    or shows that none exists.  When its walk stalls, Krull-Schmidt
    decides: ``M ~ N`` exactly when :func:`decompose` gives ``M`` and ``N``
    equally many groups and each group of ``M`` has a group of ``N`` with
    its multiplicity and an isomorphic summand (:func:`_same_indecomposable`).
    The groups of one decomposition are pairwise non-isomorphic, so that
    pairing is one to one.  Only a stalled walk decomposes, and so only it
    may raise :class:`NonSplitField`, for ``M`` or for ``N``."""
    if M.quiver != N.quiver or M.field != N.field or M.dims != N.dims:
        return False
    n = M.total_dim()
    if n == 0:
        return True
    basis = hom_space(M, N)
    if not basis:
        return False
    verdict = _raise_rank(basis, n)
    if verdict is not None:
        return verdict
    ours, theirs = decompose(M), decompose(N)
    return len(ours) == len(theirs) and all(
        any(m == k and _same_indecomposable(W, V) for V, k in theirs) for W, m in ours)


def _raise_rank(basis: list[RepMap], n: int) -> bool | None:
    """``True`` when a walk through ``Hom(M, N)`` reaches total rank ``n =
    dim M``, the sum of the vertex blocks' ranks, so an isomorphism;
    ``False`` when no morphism is invertible; ``None`` when the walk stalls
    below ``n``.  The walk starts at the sum of the basis, formed vertex by
    vertex with one ``dot`` against a vector of ones per entry, and goes
    round the basis, replacing ``f`` by ``f + b`` whenever that raises the
    rank, until the rank is ``n`` or a whole round raises nothing: at most
    ``(n + 1) * len(basis)`` steps.  A single basis element, or one pass,
    often stays singular on a sum with repeated summands over a small
    field.

    A start of full rank returns ``True`` at once, before anything else
    is ranked.  No morphism has more rank at a vertex than the span of
    the basis' images there, its cap (read only where the start is
    singular).  So when a cap is below full rank no morphism is onto that
    vertex, the answer is ``False`` and the walk does not start; and a
    step ranks only the blocks where ``b`` is nonzero, none when ``f`` is
    at its cap on all of them."""
    field = basis[0].source.field
    ones = [field.one] * len(basis)
    f = []
    for v, m in enumerate(basis[0].maps):  # the sum of the basis, one dot per entry
        at_v = [b.maps[v].rows for b in basis]
        f.append(Matrix._of(field, [[field.dot(col, ones) for col in zip(*(rows[i] for rows in at_v))]
                                    for i in range(m.nrows)], m.ncols))
    ranks = [m.rank() for m in f]
    if sum(ranks) == n:
        return True
    caps = [r if r == m.nrows else
            Matrix._of(field, [[x for b in basis for x in b.maps[v].rows[i]] for i in range(m.nrows)],
                       m.ncols * len(basis)).rank()
            for v, (m, r) in enumerate(zip(f, ranks))]
    if sum(caps) < n:
        return False
    supports = [[v for v, m in enumerate(b.maps) if not m.is_zero()] for b in basis]
    stale = 0
    for b, support in itertools.cycle(zip(basis, supports)):
        if stale == len(basis):
            return None
        stale += 1
        if all(ranks[v] == caps[v] for v in support):
            continue
        blocks = [f[v] + b.maps[v] for v in support]
        new = [m.rank() for m in blocks]
        if sum(new) > sum(ranks[v] for v in support):
            for v, m, r in zip(support, blocks, new):
                f[v], ranks[v] = m, r
            if sum(ranks) == n:
                return True
            stale = 0


def _same_indecomposable(W: QuiverRep, V: QuiverRep) -> bool:
    """Whether the certified indecomposables ``W`` and ``V`` are
    isomorphic: some basis element of ``Hom(W, V)`` is invertible.  The
    non-invertible morphisms form the proper subspace ``rad``, as ``End W``
    is local, so if any morphism is invertible, some basis element is."""
    return W.dims == V.dims and any(all(m.is_invertible() for m in f.maps) for f in hom_space(W, V))


def _flat(f: RepMap) -> list:
    """The vertex blocks of a morphism, flattened row by row into one
    vector."""
    return [x for m in f.maps for row in m.rows for x in row]


def _min_poly(f: RepMap) -> list:
    """Ascending coefficient list of the monic minimal polynomial of an
    endomorphism.  Column ``k`` of the Krylov matrix holds the vertex
    blocks of ``f^k`` flattened, for ``k = 0 .. n`` (``n`` the total
    dimension, which bounds the degree).  The first free column is the
    first power that depends on the lower ones, so the first kernel vector
    stops there with a one: it is the minimal polynomial."""
    field = f.source.field
    n = f.source.total_dim()
    one, zero = field.one, field.zero
    cols = [[one if i == j else zero for d in f.source.dims for i in range(d) for j in range(d)]]  # f^0
    powers = f.maps
    for k in range(1, n + 1):
        cols.append([x for m in powers for row in m.rows for x in row])
        if k < n:
            powers = [m @ g for m, g in zip(powers, f.maps)]
    K = Matrix._of(field, [list(r) for r in zip(*cols)], n + 1).kernel_basis()
    return K.column(0)[: n + 2 - K.ncols]


def _factor_min_poly(field, coeffs: list) -> list[tuple[list, int]]:
    """Factor a monic polynomial (ascending coefficients) over the ground
    field; returns ``(monic ascending coefficients, multiplicity)`` pairs,
    whose product is the input, in sympy's order: by degree, then
    multiplicity, then coefficients from the top down.  Over ``GF(p)`` this
    is the library's Berlekamp factorizer; over QQ it is sympy's, loaded
    on first use, which the ``qq`` extra installs."""
    if isinstance(field, PrimeField):
        return _gf_factor(field, coeffs)
    try:
        import sympy
    except ImportError:
        raise MissingExtra("factoring over QQ needs sympy: install tiltlab[qq]") from None
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(coeffs))
    _, factors = sympy.Poly(expr, x, domain="QQ").factor_list()
    return [([Fraction(int(c.p), int(c.q)) for c in reversed(fac.monic().all_coeffs())], int(mult))
            for fac, mult in factors]


def _evaluate_poly(f: RepMap, coeffs: list) -> RepMap:
    """Evaluate a nonzero polynomial at an endomorphism, vertex by vertex:
    the constant term times the identity, then one product per further
    power, up to the top coefficient's."""
    field = f.source.field
    maps = []
    for v, d in enumerate(f.source.dims):
        acc, power = Matrix.identity(field, d).scale(coeffs[0]), None
        for c in coeffs[1:]:
            power = f.maps[v] if power is None else power @ f.maps[v]
            acc = acc + power.scale(c)
        maps.append(acc)
    return RepMap(f.source, f.source, maps)


def _fitting(X: QuiverRep, g: RepMap) -> tuple[int, list[QuiverRep]]:
    """The rank of ``A = g^e``, with ``e`` a power of two no smaller than
    any vertex dimension, so past the Fitting index at every vertex.  When
    the rank lies strictly between 0 and ``dim X``, also Fitting's
    splitting ``X = ker A + im A`` into two nonzero submodules; otherwise
    ``g`` is nilpotent (rank 0) or invertible and the list is empty.

    One :meth:`Matrix.kernel_and_free` per vertex gives all three.  The
    rank at ``v`` is ``n_v`` less the free columns ``F``, and
    :func:`kernel_piece` reads the kernel piece off the same pairs.  The
    image piece has the pivot columns ``P`` of ``A`` as basis; as ``A[:, F] =
    -A[:, P] K[P, :]``, the coordinates of ``A y`` are ``y_P - K[P, :]
    y_F``, and as ``A`` commutes with ``M_a``, its arrow map is ``M_a[P_t,
    P_s] - K_t[P_t, :] M_a[F_t, P_s]``.  Raises :class:`NotInvariant` when
    ``A`` does not commute with every arrow, before reading a piece."""
    powers = list(g.maps)
    e = 1
    while e < max(X.dims):
        powers = [m @ m for m in powers]
        e *= 2
    kernels = [m.kernel_and_free() for m in powers]
    rank = sum(d - len(free) for d, (_, free) in zip(X.dims, kernels))
    if rank in (0, X.total_dim()):
        return rank, []
    q, field = X.quiver, X.field
    for k, a in enumerate(q.arrows):
        if powers[a.target] @ X.maps[k] != X.maps[k] @ powers[a.source]:
            raise NotInvariant(f"g^{e} does not commute with arrow {a.name}")
    dot, sub_scaled = field.dot, field.sub_scaled
    pivots = [sorted(set(range(d)).difference(free)) for d, (_, free) in zip(X.dims, kernels)]
    im_maps = []
    for k, a in enumerate(q.arrows):
        rows = X.maps[k].rows
        (Kt, Ft), Ps, Pt = kernels[a.target], pivots[a.source], pivots[a.target]
        free_cols = [[rows[f][j] for f in Ft] for j in Ps]  # M_a[F_t, P_s], column by column
        im_maps.append(Matrix._of(field, [
            sub_scaled([rows[i][j] for j in Ps], field.one, [dot(Kt.rows[i], col) for col in free_cols])
            for i in Pt], len(Ps)))
    return rank, [kernel_piece(X, kernels), QuiverRep(q, field, [len(P) for P in pivots], im_maps, check=False)]


def _is_scalar(f: RepMap) -> bool:
    """Whether ``f`` is a multiple ``lam * 1`` of the identity, read entry
    by entry."""
    lam = next(m.rows[0][0] for m in f.maps if m.nrows)
    zero = f.source.field.zero
    return all(x == (lam if i == j else zero) for m in f.maps for i, row in enumerate(m.rows) for j, x in enumerate(row))


def _primary(X: QuiverRep, g: RepMap) -> tuple[list[QuiverRep], RepMap | None, int]:
    """Split ``X`` in two when the minimal polynomial ``mu`` of ``g`` has two
    coprime factors: along ``g`` itself when it is singular, otherwise
    along ``pi(g)`` for an irreducible factor ``pi`` of ``mu`` (for ``pi = x -
    lam``, along ``g - lam``).  When ``mu = pi^k`` instead, the result is
    ``([], pi(g), deg pi)``, and ``pi(g)`` is nilpotent."""
    rank, pieces = _fitting(X, g)
    if pieces:
        return pieces, None, 0
    if rank == 0:
        return [], g, 1
    factors = _factor_min_poly(X.field, _min_poly(g))
    pi_g = _evaluate_poly(g, factors[0][0])
    if len(factors) > 1:
        return _fitting(X, pi_g)[1], None, 0
    return [], pi_g, len(factors[0][0]) - 1


def _split_or_certify(X: QuiverRep, endos: list[RepMap]) -> list[QuiverRep]:
    """Split ``X`` in two along the Fitting decomposition of an
    endomorphism, and return the two pieces; or certify that ``End X``
    (basis ``endos``) is local, and return ``[]``.

    Candidates, in order (:func:`_primary`): each basis element that is
    not a scalar; the pairwise sums of basis elements; the elements of the
    ideal ``I`` below.  After the first stage every basis element ``f`` has
    a minimal polynomial ``pi^k`` with ``pi`` irreducible, so ``pi(f)`` is
    nilpotent.  ``I`` is the two-sided ideal generated by these nilpotent
    parts, together with the commutators of basis elements when some ``pi``
    is not linear.  Each new element of a spanning set of ``I`` is checked
    nilpotent; a singular one that is not splits ``X``.  An ideal spanned
    by nilpotent elements is nilpotent, since the reduced trace of ``I /
    rad I`` vanishes on it and is non-degenerate over a perfect field.
    ``End X / I`` is then commutative and spanned by roots of the
    irreducible ``pi``; when its dimension is 1 or the degree of some
    ``pi``, it is the field ``F[f]`` for such an ``f``, so ``End X`` is
    local with radical ``I``.  If all ``pi`` are linear, ``End X = F + I``
    and the dimension is always 1.

    An invertible element of ``I`` proves ``End X`` is not local.  In that
    case, and when ``End X / I`` has another dimension, the search goes on
    through the products ``f g`` and the combinations ``f + c g`` of basis
    elements, and raises :class:`NonSplitField` if none splits ``X``."""
    field = X.field
    nilpotent_parts, degrees = [], {1}
    for f in endos:
        if _is_scalar(f):
            continue
        pieces, part, degree = _primary(X, f)
        if pieces:
            return pieces
        nilpotent_parts.append(part)
        degrees.add(degree)
    for a, b in itertools.combinations(endos, 2):
        pieces = _primary(X, a + b)[0]
        if pieces:
            return pieces

    length = sum(d * d for d in X.dims)
    pending = nilpotent_parts
    if degrees != {1}:
        pending += [a @ b - b @ a for a, b in itertools.combinations(endos, 2)]
    ideal: list[list] = []
    equations = Matrix.identity(field, length)  # zero exactly on the span of the ideal found so far
    while pending:
        h = pending.pop()
        if not any(equations.apply(_flat(h))):
            continue
        rank, pieces = _fitting(X, h)
        if pieces:
            return pieces
        if rank:  # invertible, so I = End X
            break
        ideal.append(_flat(h))
        equations = Matrix.from_columns(field, ideal, length).span().equations
        pending += [h @ f for f in endos] + [f @ h for f in endos]
    else:
        if (equations @ Matrix.from_columns(field, [_flat(f) for f in endos], length)).rank() in degrees:
            return []
    scalars = [field.coerce(c) for c in (range(2, field.p) if isinstance(field, PrimeField) else (-1, 2, -2, 3, -3))]
    products = (a @ b for a, b in itertools.permutations(endos, 2))
    combinations = (a + b.scale(c) for a, b in itertools.combinations(endos, 2) for c in scalars)
    for g in itertools.chain(products, combinations):
        pieces = _primary(X, g)[0]
        if pieces:
            return pieces
    raise NonSplitField("no endomorphism found that splits X, and End X is not certified local")


def decompose(M: QuiverRep) -> list[tuple[QuiverRep, int]]:
    """Decompose into indecomposables with multiplicities, smallest first,
    one group per isomorphism class.  Each summand comes from a Fitting
    splitting and is certified indecomposable by a local endomorphism ring
    (:func:`_split_or_certify`); two summands share a group when
    :func:`_same_indecomposable` finds them isomorphic.  Nothing is
    sampled."""
    local: list[QuiverRep] = []
    stack = [M]
    while stack:
        X = stack.pop()
        if X.is_zero():
            continue
        pieces = _split_or_certify(X, hom_space(X, X))
        if pieces:
            stack.extend(pieces)
        else:
            local.append(X)
    local.sort(key=lambda W: (W.total_dim(), W.dims))
    grouped: list[tuple[QuiverRep, int]] = []
    for W in local:
        for i, (V, mult) in enumerate(grouped):
            if _same_indecomposable(W, V):
                grouped[i] = (V, mult + 1)
                break
        else:
            grouped.append((W, 1))
    return grouped


def strip_projective_summands(M: QuiverRep) -> QuiverRep:
    """Direct sum of the non-projective indecomposable summands."""
    out = QuiverRep.zero(M.quiver, M.field)
    for rep, mult in decompose(M):
        if not is_projective(rep):
            for _ in range(mult):
                out = direct_sum(out, rep)
    return out


# ---------------------------------------------------------------------------
# defect


class DefectFunction:
    """Radical vector of the symmetrized Euler form together with the
    normalizer (the form paired against the regular dimension vector)."""

    __slots__ = ("quiver", "radical_vector", "normalizer")

    def __init__(self, quiver: Quiver, radical_vector: tuple[int, ...], normalizer: int):
        self.quiver, self.radical_vector, self.normalizer = quiver, radical_vector, normalizer


def defect_function(q: Quiver) -> DefectFunction:
    """Compute the primitive nonnegative radical vector and its
    normalizer.  Requires a one-dimensional radical (tame type); at least
    one coordinate of the radical vector must be one."""
    n = q.nvertices
    C = [[0] * n for _ in range(n)]
    for i in range(n):
        C[i][i] = 1
    for a in q.arrows:
        C[a.source][a.target] -= 1
    sym = Matrix(QQ, [[Fraction(C[i][j] + C[j][i]) for j in range(n)] for i in range(n)], n)
    K = sym.kernel_basis()
    if K.ncols != 1:
        raise UnsupportedFamily(f"radical of the symmetrized Euler form has dimension {K.ncols}, not 1")
    col = K.column(0)
    denom_lcm = math.lcm(*(c.denominator for c in col))
    ints = [int(c * denom_lcm) for c in col]
    g = math.gcd(*(abs(x) for x in ints))
    ints = [x // g for x in ints]
    if all(x <= 0 for x in ints):
        ints = [-x for x in ints]
    if any(x < 0 for x in ints):
        raise UnsupportedFamily("radical vector is not sign-definite")
    if 1 not in ints:
        raise UnsupportedFamily("no unit coordinate in the radical vector; not a tame quiver")
    v = tuple(ints)
    norm = euler_form(q, regular_dims(q), v)
    if norm == 0:
        raise UnsupportedFamily("degenerate normalizer")
    assert all(x == 0 for x in sym.apply([Fraction(x) for x in v]))
    return DefectFunction(q, v, norm)


def defect(df: DefectFunction, d) -> Fraction:
    """Normalized defect of a dimension vector: the Euler pairing against
    the radical vector divided by the normalizer.  Additive, one on the
    regular representation."""
    return Fraction(euler_form(df.quiver, tuple(d), df.radical_vector), df.normalizer)


# ---------------------------------------------------------------------------
# submodule enumeration (desk scale)


def _all_subspaces(field: PrimeField, dim: int):
    """Yield every subspace of ``field^dim`` once, as a column-basis
    matrix, enumerated through reduced row echelon forms."""
    p = field.p
    yield Matrix.zeros(field, dim, 0)
    for r in range(1, dim + 1):
        for pivots in itertools.combinations(range(dim), r):
            free_positions = [
                (i, j)
                for i in range(r)
                for j in range(dim)
                if j > pivots[i] and j not in pivots
            ]
            for values in itertools.product(range(p), repeat=len(free_positions)):
                rows = [[0] * dim for _ in range(r)]
                for i, pc in enumerate(pivots):
                    rows[i][pc] = 1
                for (i, j), val in zip(free_positions, values):
                    rows[i][j] = val
                yield Matrix._of(field, rows, dim).transpose()


def all_submodules(M: QuiverRep):
    """Yield the vertex-wise bases of every subrepresentation of ``M``
    (including zero and ``M``), each once.  Vertices are taken in
    topological order; the subspace at ``v`` is the span ``R`` of the images
    along the arrows into ``v`` plus a subspace of a complement of ``R``, so
    every choice extends to a submodule.  The subspaces of each complement
    dimension are listed lazily, once per call, in a ``tee`` each read copies.
    Raises :class:`SearchBudgetExceeded` once more than
    :data:`SEARCH_BUDGET` subspaces have been chosen."""
    field = M.field
    if not isinstance(field, PrimeField):
        raise SearchBudgetExceeded("exhaustive submodule search requires a finite field")
    q = M.quiver
    order = q.topological_order()
    bases = [None] * q.nvertices
    choices = 0
    listed = {}  # dim -> a tee of the subspaces of field^dim

    def extend(i: int):
        nonlocal choices
        if i == len(order):
            yield list(bases)
            return
        v = order[i]
        images = Matrix.zeros(field, M.dims[v], 0)
        for k in q.arrows_into(v):
            images = images.hstack(M.maps[k] @ bases[q.arrows[k].source])
        R = images.span()
        d = R.complement.ncols
        if d not in listed:
            listed[d] = itertools.tee(_all_subspaces(field, d), 1)[0]
        for T in listed[d].__copy__():
            choices += 1
            if choices > SEARCH_BUDGET:
                raise SearchBudgetExceeded(f"submodule search exceeds budget of {SEARCH_BUDGET} subspace choices")
            bases[v] = R.basis.hstack(R.complement @ T)
            yield from extend(i + 1)

    yield from extend(0)


def is_simple_regular(M: QuiverRep, df: DefectFunction) -> bool:
    """Regular with no proper nonzero regular subrepresentation, read off
    dimension vectors: ``M`` has defect zero and every proper nonzero
    submodule has positive defect (exhaustive submodule search).

    Preprojective indecomposables have positive defect, preinjective ones
    negative and regular ones zero, and no preinjective module maps to a
    regular one; so the proper submodules of a simple regular module are
    preprojective.  Any other ``M`` of defect zero has a proper submodule
    of defect at most zero: a preinjective summand, the complement of a
    preprojective summand, one summand of a decomposable regular ``M``, or
    a proper regular submodule.

    Where the search cannot run (above :data:`DIM_CAP`, over a field that
    is not prime, or past :data:`SEARCH_BUDGET`), only a splitting can
    refute: a decomposable ``M`` gives ``False``, and otherwise
    :class:`SearchBudgetExceeded` propagates."""
    n = M.total_dim()
    if n == 0 or defect(df, M.dims) != 0:
        return False
    try:
        if n > DIM_CAP:
            raise SearchBudgetExceeded(f"module dimension {n} exceeds cap {DIM_CAP}")
        for bases in all_submodules(M):
            dims = [B.ncols for B in bases]
            if 0 < sum(dims) < n and defect(df, dims) <= 0:
                return False
        return True
    except SearchBudgetExceeded:
        parts = decompose(M)
        if len(parts) != 1 or parts[0][1] != 1:
            return False
        raise


# ---------------------------------------------------------------------------
# extensions


def build_extension(C: QuiverRep, A: QuiverRep) -> QuiverRep:
    """Middle term ``E`` of a non-split extension ``0 -> A -> E -> C -> 0``.
    The first column of ``hom_system(C, A)[0].span().complement``, a basis of
    ``Ext^1(C, A)``, gives blocks ``g_a: C_i -> A_j``; then ``E_v = A_v +
    C_v`` and ``E_a = [[A_a, g_a], [0, C_a]]``, with inclusion ``[I; 0]``
    and projection ``[0 I]``."""
    classes = hom_system(C, A)[0].span().complement
    if classes.ncols == 0:
        raise NoExtension("Ext^1 is zero, so every extension splits")
    g = iter(classes.column(0))
    middle = direct_sum(A, C)
    for k, a in enumerate(A.quiver.arrows):
        for row in middle.maps[k].rows[: A.dims[a.target]]:
            row[A.dims[a.source]:] = [next(g) for _ in range(C.dims[a.source])]
    return middle


# ---------------------------------------------------------------------------
# bound sets and filtrations


def is_bound(U: QuiverRep) -> bool:
    """Nonzero with no morphisms to the path algebra (finite presentation
    and projective dimension one are automatic over a hereditary algebra;
    vanishing of morphisms into every projective also rules out projective
    summands)."""
    if U.is_zero():
        return False
    return all(hom_dim(U, projective(U.quiver, U.field, i)) == 0 for i in range(U.quiver.nvertices))


class BoundSet:
    __slots__ = ("members",)

    def __init__(self, members: tuple[QuiverRep, ...]):
        for i, U in enumerate(members):
            if not is_bound(U):
                raise NotBound(f"member {i} is not a bound module")
        self.members = members


def bound_members(U) -> tuple[QuiverRep, ...]:
    """The modules of a :class:`BoundSet`, a single module or an iterable
    of modules, as a tuple."""
    if isinstance(U, BoundSet):
        return U.members
    if isinstance(U, QuiverRep):
        return (U,)
    return tuple(U)


class Filtration:
    """Ascending chain ``0 = N_0 < N_1 < ... < N_k = N`` given by
    vertex-wise bases inside ``N``, with ``N_i / N_{i-1}`` isomorphic to
    ``members[factors[i-1]]``."""

    __slots__ = ("chain", "factors")

    def __init__(self, chain: list[list[Matrix]], factors: list[int]):
        self.chain, self.factors = chain, factors

    def validate(self, N: QuiverRep, members: tuple[QuiverRep, ...]) -> bool:
        prev_bases = [Matrix.zeros(N.field, d, 0) for d in N.dims]
        for gens, fidx in zip(self.chain, self.factors):
            layer, incl = subrep(N, gens)
            spans = [G.span() for G in gens]
            if not all((sp.equations @ P).is_zero() for sp, P in zip(spans, prev_bases)):
                return False
            quo, _ = quotient_by(layer, [sp.coords @ P for sp, P in zip(spans, prev_bases)])
            if not is_isomorphic(quo, members[fidx]):
                return False
            prev_bases = list(incl.maps)
        return tuple(B.ncols for B in prev_bases) == N.dims


def u_filtration(N: QuiverRep, members) -> Filtration | None:
    """A chain of submodules of ``N`` whose successive factors are
    isomorphic to members, or ``None`` when there is none.  The nonzero
    members must be pairwise Hom-orthogonal bricks (else
    :class:`ValueError`); the modules they filter form an exact abelian
    category with the members as its simple objects (Ringel, J. Algebra 41,
    1976), so the chain is built greedily.  Each layer adds the image of the
    first basis map of ``Hom(u, N / layer)`` for the first member ``u`` that
    has one, and there is no chain when no member maps in or that map is
    not injective.  Zero members are skipped."""
    members = bound_members(members)
    live = [(i, U) for i, U in enumerate(members) if not U.is_zero()]
    if any(hom_dim(U, V) != (i == j) for i, U in live for j, V in live):
        raise ValueError("u_filtration needs nonzero members that are pairwise Hom-orthogonal bricks")
    layer = [Matrix.zeros(N.field, d, 0) for d in N.dims]
    chain, factors = [], []
    while sum(B.ncols for B in layer) < N.total_dim():
        rest, _ = quotient_by(N, layer)
        i, f = next(((i, basis[0]) for i, U in live if (basis := hom_space(U, rest))), (None, None))
        if f is None or any(fv.rank() < fv.ncols for fv in f.maps):
            return None
        layer = [B.hstack(B.span().complement @ fv) for B, fv in zip(layer, f.maps)]
        chain.append(layer)
        factors.append(i)
    return Filtration(chain, factors)


# ---------------------------------------------------------------------------
# tube catalogs


class TubeCatalog:
    """Simple regular modules grouped into tubes; within a tube the
    translate moves members forward cyclically (``tau(tube[i]) ~
    tube[i+1]``)."""

    __slots__ = ("quiver", "field", "tubes")

    def __init__(self, quiver: Quiver, field, tubes: tuple[tuple[QuiverRep, ...], ...]):
        self.quiver, self.field, self.tubes = quiver, field, tubes

    @property
    def members(self) -> list[QuiverRep]:
        return [m for tube in self.tubes for m in tube]

    @property
    def ranks(self) -> list[int]:
        return [len(t) for t in self.tubes]


def tube_catalog(family: str, field: PrimeField) -> TubeCatalog:
    """Closed-form simple regular representations for the supported
    families (``kronecker`` and ``a31``); members are verified to have
    defect zero and trivial endomorphisms at construction.  The a31
    catalog is the rank-3 tube through the simple at vertex 2, then the
    homogeneous members ``a1 = a2 = a3 = 1, b = lam`` for each ``lam`` in
    the field, each checked to be fixed by ``tau``.  A catalog of more
    than :data:`MAX_TUBE_MEMBERS` members raises
    :class:`SearchBudgetExceeded` before any member is built."""
    if not isinstance(field, PrimeField):
        raise UnsupportedFamily("tube catalogs are enumerated over finite fields")
    if family not in ("kronecker", "a31"):
        raise UnsupportedFamily(f"no tube catalog for family {family!r}")
    members = field.p + (1 if family == "kronecker" else 3)
    if members > MAX_TUBE_MEMBERS:
        raise SearchBudgetExceeded(
            f"tube catalog over {field} has {members} members, exceeds cap {MAX_TUBE_MEMBERS}")
    if family == "kronecker":
        q = kronecker()
        tubes = []
        for lam in range(field.p):
            tubes.append((QuiverRep.from_entries(q, field, (1, 1), {"a": [[1]], "b": [[lam]]}),))
        tubes.append((QuiverRep.from_entries(q, field, (1, 1), {"a": [[0]], "b": [[1]]}),))
    else:
        q = affine_a3_cycle()
        first = QuiverRep.simple(q, field, 2)
        second = tau(first)
        third = tau(second)
        trio = (first, second, third)
        if not is_isomorphic(tau(third), first):
            raise AssertionError("rank-3 tube did not close up")
        tubes = [trio]
        for lam in range(field.p):
            entries = {"a1": [[1]], "a2": [[1]], "a3": [[1]], "b": [[lam]]}
            member = QuiverRep.from_entries(q, field, (1, 1, 1, 1), entries)
            if not is_isomorphic(tau(member), member):
                raise AssertionError("homogeneous tube member is not fixed by tau")
            tubes.append((member,))

    df = defect_function(q)
    for tube in tubes:
        for member in tube:
            if defect(df, member.dims) != 0:
                raise AssertionError("catalog member has nonzero defect")
            if hom_dim(member, member) != 1:
                raise AssertionError("catalog member has a nontrivial endomorphism ring")
    return TubeCatalog(tubes[0][0].quiver, field, tuple(tubes))
