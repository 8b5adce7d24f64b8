"""Transpose, translates, decomposition and the defect rank function.

The transpose of a module with presentation ``0 -> P -> Q -> U -> 0`` is
the cokernel of the dualized map ``Q* -> P*`` between projectives over the
opposite quiver; combining it with the standard duality gives the
translates ``tau = D Tr`` and ``tau^- = Tr D``.

The defect is the rank function obtained by pairing dimension vectors with
the radical vector of the symmetrized Euler form, normalized so the path
algebra itself has defect one.  Regular modules are exactly the modules
whose indecomposable summands have defect zero; morphisms between
projectives are *full* when they are injective with regular cokernel, and
*atomic full* when the cokernel is simple regular.

Randomized searches (isomorphism testing, summand splitting) take explicit
seeds and are deterministic given the seed.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    NoExtension,
    NonProjective,
    NonSplitField,
    NotBound,
    SearchBudgetExceeded,
    UnsupportedFamily,
)
from .exactlin import Matrix, PrimeField, QQ
from .quiverrep import (
    ProjPresentation,
    Quiver,
    QuiverRep,
    RepMap,
    affine_a3_cycle,
    cokernel,
    direct_sum,
    extend_generators,
    euler_form,
    hom_dim,
    hom_space,
    hom_system,
    is_projective,
    kronecker,
    proj_presentation,
    proj_sum,
    projective,
    quotient_by,
    regular_dims,
    subrep,
)

SEARCH_BUDGET = 200_000  # vertex subspaces one exhaustive submodule search may choose
DIM_CAP = 12  # largest total dimension the submodule searches accept
ISO_TRIES = 30  # random Hom combinations is_isomorphic tries
SPLIT_TRIES = 40  # candidate endomorphisms decompose tries per module

# ---------------------------------------------------------------------------
# transpose and translates


def transpose(U: QuiverRep, pres: ProjPresentation | None = None) -> QuiverRep:
    """Transpose of ``U``: the cokernel of the dualized presentation map,
    a representation of the opposite quiver.  The transpose of a projective
    is zero."""
    if pres is None:
        pres = proj_presentation(U)
    qop = U.quiver.opposite()
    field = U.field
    q_star = proj_sum(qop, field, pres.Q.summands)
    p_star = proj_sum(qop, field, pres.P.summands)
    gen_images = [[field.zero] * p_star.rep.dims[v] for v in pres.Q.summands]
    for (qi, pi, path, coeff) in pres.path_matrix():
        vtx = pres.Q.summands[qi]
        pos = p_star.index[vtx][(pi, tuple(reversed(path)))]
        gen_images[qi][pos] = field.add(gen_images[qi][pos], coeff)
    alpha_star = extend_generators(q_star, p_star.rep, gen_images)
    tr, _ = cokernel(alpha_star)
    return tr


def tau(M: QuiverRep) -> QuiverRep:
    """Translate ``D Tr``; kills projective summands."""
    return transpose(M).dual()


def tau_minus(M: QuiverRep) -> QuiverRep:
    """Inverse translate ``Tr D``; kills injective summands."""
    return transpose(M.dual())


# ---------------------------------------------------------------------------
# isomorphism testing and decomposition


def is_isomorphic(M: QuiverRep, N: QuiverRep, seed: int = 0) -> bool:
    """Test isomorphism by hunting for an invertible element of the
    morphism space: structured candidates first, then seeded random
    combinations.  A positive answer is certified; a negative answer is
    not: every sampled combination may be singular although the modules are
    isomorphic, which over GF(2) happens often (see ROADMAP item 1)."""
    if M.quiver != N.quiver or M.field != N.field or M.dims != N.dims:
        return False
    if M.total_dim() == 0:
        return True
    basis = hom_space(M, N)
    if not basis:
        return False

    def invertible(f: RepMap) -> bool:
        return all(m.is_invertible() for m in f.maps)

    for f in basis:
        if invertible(f):
            return True
    field = M.field
    if invertible(_combine(basis, [field.one] * len(basis))):
        return True
    rng = random.Random(seed)
    if isinstance(field, PrimeField):
        draw = lambda: field.coerce(rng.randrange(field.p))
    else:
        draw = lambda: field.coerce(rng.randrange(-5, 6))
    for _ in range(ISO_TRIES):
        if invertible(_combine(basis, [draw() for _ in basis])):
            return True
    return False


def _combine(basis: list[RepMap], coeffs: list) -> RepMap:
    """The linear combination ``sum_i coeffs[i] * basis[i]``."""
    out = basis[0].scale(coeffs[0])
    for f, c in zip(basis[1:], coeffs[1:]):
        out = out + f.scale(c)
    return out


def _min_poly(f: RepMap) -> list:
    """Ascending coefficient list of the monic minimal polynomial of an
    endomorphism.  Column ``k`` of the Krylov matrix holds the vertex
    blocks of ``f^k`` flattened, for ``k = 0 .. n`` (``n`` the total
    dimension, which bounds the degree).  The first free column is the
    first power that depends on the lower ones, so the first kernel vector
    stops there with a one: it is the minimal polynomial."""
    field = f.source.field
    n = f.source.total_dim()
    powers = [Matrix.identity(field, d) for d in f.source.dims]
    cols = []
    for k in range(n + 1):
        cols.append([x for m in powers for row in m.rows for x in row])
        if k < n:
            powers = [m @ g for m, g in zip(powers, f.maps)]
    K = Matrix._of(field, [list(r) for r in zip(*cols)], n + 1).kernel_basis()
    return K.column(0)[: n + 2 - K.ncols]


def _factor_min_poly(field, coeffs: list) -> list[tuple[list, int]]:
    """Factor a monic polynomial (ascending coefficients) over the ground
    field; returns ``(monic ascending coefficients, multiplicity)`` pairs,
    whose product is the input."""
    import sympy  # loaded on first use: it dominates the package's import time

    x = sympy.Symbol("x")
    if isinstance(field, PrimeField):
        expr = sum(int(c) * x**i for i, c in enumerate(coeffs))
        poly = sympy.Poly(expr, x, modulus=field.p)
    else:
        expr = sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(coeffs))
        poly = sympy.Poly(expr, x, domain="QQ")
    _, factors = poly.factor_list()
    out = []
    for fac, mult in factors:
        if isinstance(field, PrimeField):
            asc = [field.coerce(int(c)) for c in reversed(fac.monic().all_coeffs())]
        else:
            asc = [Fraction(int(c.p), int(c.q)) for c in reversed(fac.monic().all_coeffs())]
        out.append((asc, int(mult)))
    return out


def _evaluate_poly(f: RepMap, coeffs: list) -> RepMap:
    """Evaluate a polynomial at an endomorphism, vertex by vertex."""
    field = f.source.field
    maps = []
    for v, d in enumerate(f.source.dims):
        acc = Matrix.zeros(field, d, d)
        power = Matrix.identity(field, d)
        for c in coeffs:
            acc = acc + power.scale(c)
            power = power @ f.maps[v]
        maps.append(acc)
    return RepMap(f.source, f.source, maps)


def _matrix_power(m: Matrix, e: int) -> Matrix:
    out = Matrix.identity(m.field, m.nrows)
    for _ in range(e):
        out = out @ m
    return out


def _split_once(M: QuiverRep, endos: list[RepMap], rng: random.Random) -> list[QuiverRep] | None:
    """Try to split ``M`` along the primary decomposition of a candidate
    endomorphism; ``None`` when no candidate yields two pieces."""
    field = M.field
    saw_nonsplit = False
    candidates = iter(endos)

    def draw():
        return field.coerce(rng.randrange(field.p) if isinstance(field, PrimeField) else rng.randrange(-4, 5))

    for _ in range(SPLIT_TRIES):
        phi = next(candidates, None)
        if phi is None:
            phi = _combine(endos, [draw() for _ in endos])
        factors = _factor_min_poly(field, _min_poly(phi))
        if len(factors) >= 2:
            pieces = []
            for fac, mult in factors:
                g = _evaluate_poly(phi, fac)
                power_maps = [_matrix_power(m, mult) for m in g.maps]
                bases = [m.kernel_basis() for m in power_maps]
                piece, _ = subrep(M, bases)
                pieces.append(piece)
            assert sum(p.total_dim() for p in pieces) == M.total_dim()
            return pieces
        if len(factors) == 1 and len(factors[0][0]) > 2:
            saw_nonsplit = True
    if saw_nonsplit and not isinstance(field, PrimeField):
        raise NonSplitField("endomorphism with irreducible non-linear minimal polynomial over QQ")
    return None


def decompose(M: QuiverRep, seed: int = 0) -> list[tuple[QuiverRep, int]]:
    """Decompose into indecomposables with multiplicities.

    Splitting is found through the primary decomposition of candidate
    endomorphisms (basis elements first, then seeded random combinations);
    a module is declared indecomposable when no candidate splits it, which
    is certain when its endomorphism ring is one-dimensional.
    """
    rng = random.Random(seed)
    indecs: list[QuiverRep] = []
    stack = [M]
    while stack:
        X = stack.pop()
        if X.is_zero():
            continue
        endos = hom_space(X, X)
        if len(endos) == 1:
            indecs.append(X)
            continue
        pieces = _split_once(X, endos, rng)
        if pieces is None:
            indecs.append(X)
        else:
            stack.extend(pieces)
    indecs.sort(key=lambda W: (W.total_dim(), W.dims))
    grouped: list[tuple[QuiverRep, int]] = []
    for W in indecs:
        for i, (rep, mult) in enumerate(grouped):
            if is_isomorphic(W, rep, seed=seed):
                grouped[i] = (rep, mult + 1)
                break
        else:
            grouped.append((W, 1))
    return grouped


def strip_projective_summands(M: QuiverRep, seed: int = 0) -> QuiverRep:
    """Direct sum of the non-projective indecomposable summands."""
    out = QuiverRep.zero(M.quiver, M.field)
    for rep, mult in decompose(M, seed=seed):
        if not is_projective(rep):
            for _ in range(mult):
                out = direct_sum(out, rep)
    return out


# ---------------------------------------------------------------------------
# defect


@dataclass(frozen=True)
class DefectFunction:
    """Radical vector of the symmetrized Euler form together with the
    normalizer (the form paired against the regular dimension vector)."""

    quiver: Quiver
    radical_vector: tuple[int, ...]
    normalizer: int


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


def is_regular(M: QuiverRep, df: DefectFunction, seed: int = 0) -> bool:
    """True when every indecomposable summand has defect zero (summand-wise
    test: defects of opposite sign must not cancel)."""
    return all(defect(df, rep.dims) == 0 for rep, _ in decompose(M, seed=seed))


def is_full(alpha: RepMap, df: DefectFunction, seed: int = 0) -> bool:
    """A morphism between projectives is full when it is injective and its
    cokernel is regular (torsion for the defect rank function)."""
    if not (is_projective(alpha.source) and is_projective(alpha.target)):
        raise NonProjective("fullness is defined for morphisms between projectives")
    if not alpha.is_injective():
        return False
    coker, _ = cokernel(alpha)
    return is_regular(coker, df, seed=seed)


def is_atomic_full(alpha: RepMap, df: DefectFunction, seed: int = 0) -> bool:
    """Full with simple regular cokernel; a simple regular cokernel is
    regular, so no separate fullness test is needed."""
    if not (is_projective(alpha.source) and is_projective(alpha.target)):
        raise NonProjective("fullness is defined for morphisms between projectives")
    return alpha.is_injective() and is_simple_regular(cokernel(alpha)[0], df, seed=seed)


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
                yield Matrix(field, rows, dim).transpose()


def all_submodules(M: QuiverRep):
    """Yield the vertex-wise bases of every subrepresentation of ``M``
    (including zero and ``M``), each once.  Vertices are taken in
    topological order; the subspace at ``v`` is the span ``R`` of the images
    along the arrows into ``v`` plus a subspace of a complement of ``R``, so
    every choice extends to a submodule.  Raises
    :class:`SearchBudgetExceeded` once more than :data:`SEARCH_BUDGET`
    subspaces have been chosen."""
    field = M.field
    if not isinstance(field, PrimeField):
        raise SearchBudgetExceeded("exhaustive submodule search requires a finite field")
    q = M.quiver
    order = q.topological_order()
    bases = [None] * q.nvertices
    choices = 0

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
        for T in _all_subspaces(field, R.complement.ncols):
            choices += 1
            if choices > SEARCH_BUDGET:
                raise SearchBudgetExceeded(f"submodule search exceeds budget of {SEARCH_BUDGET} subspace choices")
            bases[v] = R.basis.hstack(R.complement @ T)
            yield from extend(i + 1)

    yield from extend(0)


def is_simple_regular(M: QuiverRep, df: DefectFunction, seed: int = 0) -> bool:
    """Regular, indecomposable, and without a proper nonzero regular
    subrepresentation (checked by exhaustive submodule search)."""
    if M.is_zero():
        return False
    parts = decompose(M, seed=seed)
    if len(parts) != 1 or parts[0][1] != 1:
        return False
    if defect(df, M.dims) != 0:
        return False
    if M.total_dim() > DIM_CAP:
        raise SearchBudgetExceeded(f"module dimension {M.total_dim()} exceeds cap {DIM_CAP}")
    for bases in all_submodules(M):
        sdims = tuple(B.ncols for B in bases)
        if sum(sdims) in (0, M.total_dim()):
            continue
        sub, _ = subrep(M, bases)
        if is_regular(sub, df, seed=seed):
            return False
    return True


# ---------------------------------------------------------------------------
# extensions


def build_extension(C: QuiverRep, A: QuiverRep, class_index: int = 0) -> QuiverRep:
    """Middle term ``E`` of a non-split extension ``0 -> A -> E -> C -> 0``.
    Class ``class_index`` of ``hom_system(C, A).span().complement``, a
    basis of ``Ext^1(C, A)``, gives blocks ``g_a: C_i -> A_j``; then ``E_v =
    A_v + C_v`` and ``E_a = [[A_a, g_a], [0, C_a]]``, with inclusion ``[I;
    0]`` and projection ``[0 I]``."""
    classes = hom_system(C, A)[0].span().complement
    if class_index >= classes.ncols:
        raise NoExtension(f"requested class {class_index} but Ext^1 has dimension {classes.ncols}")
    g = iter(classes.column(class_index))
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


@dataclass(frozen=True)
class BoundSet:
    members: tuple[QuiverRep, ...]

    def __post_init__(self):
        for i, U in enumerate(self.members):
            if not is_bound(U):
                raise NotBound(f"member {i} is not a bound module")

    def __len__(self):
        return len(self.members)


def bound_members(U) -> tuple[QuiverRep, ...]:
    """The modules of a :class:`BoundSet`, a single module or an iterable
    of modules, as a tuple."""
    if isinstance(U, BoundSet):
        return U.members
    if isinstance(U, QuiverRep):
        return (U,)
    return tuple(U)


@dataclass
class Filtration:
    """Ascending chain ``0 = N_0 < N_1 < ... < N_k = N`` given by
    vertex-wise bases inside ``N``, with ``N_i / N_{i-1}`` isomorphic to
    ``members[factors[i-1]]``."""

    chain: list[list[Matrix]]
    factors: list[int]

    def validate(self, N: QuiverRep, members: tuple[QuiverRep, ...], seed: int = 0) -> bool:
        prev_bases = [Matrix.zeros(N.field, d, 0) for d in N.dims]
        for gens, fidx in zip(self.chain, self.factors):
            layer, incl = subrep(N, gens)
            spans = [G.span() for G in gens]
            if not all((sp.equations @ P).is_zero() for sp, P in zip(spans, prev_bases)):
                return False
            quo, _ = quotient_by(layer, [sp.coords @ P for sp, P in zip(spans, prev_bases)])
            if not is_isomorphic(quo, members[fidx], seed=seed):
                return False
            prev_bases = list(incl.maps)
        return tuple(B.ncols for B in prev_bases) == N.dims


def u_filtration(N: QuiverRep, members, dim_cap: int = DIM_CAP, seed: int = 0) -> Filtration | None:
    """Search for a finite chain of submodules of ``N`` whose successive
    factors are isomorphic to the given bound modules; ``None`` when the
    exhaustive search finds no chain."""
    members = bound_members(members)
    if N.total_dim() > dim_cap:
        raise SearchBudgetExceeded(f"module dimension {N.total_dim()} exceeds cap {dim_cap}")

    def search(X: QuiverRep):
        """Returns (list of sub-bases-in-X chains bottom-up, factor list)."""
        if X.is_zero():
            return [], []
        candidates = []
        for bases in all_submodules(X):
            sdims = tuple(B.ncols for B in bases)
            if sum(sdims) == 0:
                continue
            for idx, U in enumerate(members):
                if sdims == U.dims:
                    sub, _ = subrep(X, bases)
                    if is_isomorphic(sub, U, seed=seed):
                        candidates.append((idx, bases))
                        break
        for idx, bases in candidates:
            quo, proj = quotient_by(X, bases)
            rest = search(quo)
            if rest is None:
                continue
            rest_chains, rest_factors = rest
            lifted = []
            for chain_bases in rest_chains:
                lifted.append(_preimage_bases(proj, chain_bases))
            return [bases] + lifted, [idx] + rest_factors
        return None

    found = search(N)
    if found is None:
        return None
    chains, factors = found
    return Filtration(chains, factors)


def _preimage_bases(proj: RepMap, sub_bases: list[Matrix]) -> list[Matrix]:
    """Vertex-wise bases of the preimage of a subspace under a surjection:
    the kernel of the subspace's equations pulled back along it."""
    return [(B.span().equations @ pv).kernel_basis() for pv, B in zip(proj.maps, sub_bases)]


# ---------------------------------------------------------------------------
# tube catalogs


@dataclass(frozen=True)
class TubeCatalog:
    """Simple regular modules grouped into tubes; within a tube the
    translate moves members forward cyclically (``tau(tube[i]) ~
    tube[i+1]``)."""

    quiver: Quiver
    field: object
    tubes: tuple[tuple[QuiverRep, ...], ...]

    @property
    def members(self) -> list[QuiverRep]:
        return [m for tube in self.tubes for m in tube]

    @property
    def ranks(self) -> list[int]:
        return [len(t) for t in self.tubes]


def tube_catalog(family: str, field: PrimeField) -> TubeCatalog:
    """Closed-form simple regular representations for the supported
    families (``kronecker`` and ``a31``); members are verified to have
    defect zero and trivial endomorphisms at construction."""
    if not isinstance(field, PrimeField):
        raise UnsupportedFamily("tube catalogs are enumerated over finite fields")
    name = family.lower()
    if name == "kronecker":
        q = kronecker()
        tubes = []
        for lam in range(field.p):
            tubes.append((QuiverRep.from_entries(q, field, (1, 1), {"a": [[1]], "b": [[lam]]}),))
        tubes.append((QuiverRep.from_entries(q, field, (1, 1), {"a": [[0]], "b": [[1]]}),))
    elif name in ("a31", "affine_a3"):
        q = affine_a3_cycle()
        first = QuiverRep.simple(q, field, 2)
        second = tau(first)
        third = tau(second)
        trio = (first, second, third)
        if not is_isomorphic(tau(third), first):
            raise AssertionError("rank-3 tube did not close up")
        tubes = [trio]
        homogeneous = []
        candidates = [
            QuiverRep.from_entries(q, field, (1, 1, 1, 1), {"a1": [[1]], "a2": [[1]], "a3": [[1]], "b": [[lam]]})
            for lam in range(field.p)
        ]
        candidates.append(
            QuiverRep.from_entries(q, field, (1, 1, 1, 1), {"a1": [[1]], "a2": [[1]], "a3": [[0]], "b": [[1]]})
        )
        for cand in candidates:
            if is_isomorphic(tau(cand), cand):
                homogeneous.append((cand,))
        if len(homogeneous) != len(candidates) - 1:
            raise AssertionError("expected exactly one exceptional parameter value")
        tubes.extend(homogeneous)
    else:
        raise UnsupportedFamily(f"no tube catalog for family {family!r}")

    df = defect_function(q)
    for tube in tubes:
        for member in tube:
            if defect(df, member.dims) != 0:
                raise AssertionError("catalog member has nonzero defect")
            if hom_dim(member, member) != 1:
                raise AssertionError("catalog member has a nontrivial endomorphism ring")
    return TubeCatalog(tubes[0][0].quiver, field, tuple(tubes))
