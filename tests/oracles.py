"""Reference computations that tests compare the library against.

The Z-module oracles (``hom_oracle``, ``ext_oracle``, ``tor_oracle``) work
from presentation matrices through the library's own ``snf`` and
``classify``, never through gcd shortcuts, so they check the closed forms
but not ``snf`` itself.  ``invariant_factors`` is the reference for
``snf``'s ``D``: it reads the invariant factors off determinantal divisors
(gcds of minors, through ``Fraction`` determinants) and shares no code
with ``snf``.  The greedy basis completion is the reference for
``Matrix.span``'s complement, the brute-force submodule search the
reference for ``all_submodules``, the plain Gauss-Jordan elimination the
reference for ``Matrix.rref`` and ``Matrix.inverse``, the lead-tracking
packed loop the reference for ``exactlin._forward_packed``, the sum entry
by entry in the scalar ``add`` and ``mul``, with no row kernel, the
reference for ``Matrix.block_sum`` and
``quiverrep.presentation_tensor_terms``, the power-by-power solve the
reference for ``artheory._min_poly``, the pivots of ``[images | B]`` the
reference for ``quiverrep._top``, the ``subrep`` of the joint kernels the
reference for ``quiverrep.socle``, the decompose-then-search route the
reference for ``artheory.is_simple_regular``, the split through ``subrep``
of the kernel basis and of the powers the reference for
``artheory._fitting``, and the per-entry loop the reference for
``quiverrep.hom_system``."""

import functools
import itertools
import math
from fractions import Fraction

from tiltlab import artheory
from tiltlab.artheory import _all_subspaces, all_submodules, decompose, defect
from tiltlab.dedekind import FgZModule, classify, from_pieces
from tiltlab.errors import SearchBudgetExceeded
from tiltlab.exactlin import IntMatrix, Matrix, _pack, _slot_bytes, _unpack, snf
from tiltlab.quiverrep import subrep


def _int_kernel(A: IntMatrix) -> IntMatrix:
    """Columns generate the integer kernel lattice of ``A``."""
    _, D, V = snf(A)
    rank = sum(1 for d in D.diagonal() if d != 0)
    cols = [[V.rows[i][j] for i in range(A.ncols)] for j in range(rank, A.ncols)]
    return IntMatrix([[col[i] for col in cols] for i in range(A.ncols)], len(cols))


def _int_solve(L: IntMatrix, B: IntMatrix) -> IntMatrix:
    """Integer solution ``X`` of ``L X = B`` (assumed to exist)."""
    U, D, V = snf(L)
    UB = U @ B
    diag = D.diagonal()
    Y = [[0] * B.ncols for _ in range(L.ncols)]
    for i in range(L.nrows):
        d = diag[i] if i < len(diag) else 0
        for j in range(B.ncols):
            v = UB.rows[i][j]
            if d == 0:
                assert v == 0, "system is inconsistent"
            else:
                assert v % d == 0, "system has no integer solution"
                if i < L.ncols:
                    Y[i][j] = v // d
    return V @ IntMatrix(Y, B.ncols)


def det(rows) -> Fraction:
    """Determinant of a square matrix by elimination over ``Fraction``."""
    rows = [[Fraction(x) for x in row] for row in rows]
    n = len(rows)
    out = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            out = -out
        out *= rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return out


def invariant_factors(A: IntMatrix) -> list[int]:
    """The diagonal of the Smith normal form of ``A``, ``min(m, n)``
    entries, from determinantal divisors: with ``g_k`` the gcd of all
    ``k x k`` minors (``g_0 = 1``), the ``k``-th invariant factor is
    ``g_k / g_{k-1}``, and ``0`` once ``g_k = 0``."""
    out, prev = [], 1
    for k in range(1, min(A.nrows, A.ncols) + 1):
        g = 0
        for rs in itertools.combinations(A.rows, k):
            for cs in itertools.combinations(range(A.ncols), k):
                g = math.gcd(g, int(det([[row[j] for j in cs] for row in rs])))
        out.append(g // prev if g else 0)
        prev = g or 1
    return out


def _stack_cols(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    assert A.nrows == B.nrows
    return IntMatrix([ra + rb for ra, rb in zip(A.rows, B.rows)], A.ncols + B.ncols)


def torsion_part(N: FgZModule, d: int) -> FgZModule:
    """``N[d]``, the kernel of multiplication by ``d``, via the kernel
    lattice of the presentation: generators of ``{x : d x in im B}`` modulo
    the columns of ``B`` and the relations among the generators."""
    assert d != 0
    B = N.presentation()
    s = B.nrows
    # pairs (x, u) with d x = B u
    dI = IntMatrix([[d if i == j else 0 for j in range(s)] for i in range(s)], s)
    negB = IntMatrix([[-x for x in row] for row in B.rows], B.ncols)
    K = _int_kernel(_stack_cols(dI, negB))
    G = IntMatrix(K.rows[:s], K.ncols)  # x-parts generate the preimage lattice
    C = _int_solve(G, B)
    rels = _stack_cols(C, _int_kernel(G))
    return classify(rels)


def quotient_mod(N: FgZModule, d: int) -> FgZModule:
    """``N / dN`` via an augmented presentation."""
    B = N.presentation()
    s = B.nrows
    dI = IntMatrix([[d if i == j else 0 for j in range(s)] for i in range(s)], s)
    return classify(_stack_cols(B, dI))


def _combine(pieces: list[FgZModule]) -> FgZModule:
    free = sum(p.free_rank for p in pieces)
    torsion = [d for p in pieces for d in p.invariant_factors]
    return from_pieces(free, torsion)


def hom_oracle(M: FgZModule, N: FgZModule) -> FgZModule:
    """Morphisms out of the minimal presentation: a free generator maps
    anywhere, a torsion generator of order ``d`` must land in ``N[d]``."""
    pieces = [N] * M.free_rank + [torsion_part(N, d) for d in M.invariant_factors]
    return _combine(pieces) if pieces else FgZModule.zero()


def ext_oracle(M: FgZModule, N: FgZModule) -> FgZModule:
    """Cokernel of ``Hom(Z^gens, N) -> Hom(relations, N)``, one ``N/dN``
    block per torsion relation."""
    pieces = [quotient_mod(N, d) for d in M.invariant_factors]
    return _combine(pieces) if pieces else FgZModule.zero()


def tor_oracle(M: FgZModule, N: FgZModule) -> FgZModule:
    """Kernel of the presentation tensored with ``N``: one ``N[d]`` block
    per torsion relation."""
    pieces = [torsion_part(N, d) for d in M.invariant_factors]
    return _combine(pieces) if pieces else FgZModule.zero()


def rand_fgz(rng, max_rank=2, max_factors=3, max_val=1000) -> FgZModule:
    free = rng.randrange(0, max_rank + 1)
    torsion = [rng.randrange(2, max_val + 1) for _ in range(rng.randrange(0, max_factors + 1))]
    return from_pieces(free, torsion)


def greedy_basis_completion(field, cols, dim: int) -> list[list]:
    """Walk the unit vectors ``e_0, e_1, ...`` in order and keep each one
    that raises the rank of the columns kept so far."""
    kept = [list(c) for c in cols]
    rank = Matrix.from_columns(field, kept, dim).rank()
    added = []
    for i in range(dim):
        e = [field.one if j == i else field.zero for j in range(dim)]
        if Matrix.from_columns(field, kept + [e], dim).rank() > rank:
            kept.append(e)
            added.append(e)
            rank += 1
    return added


def brute_force_submodules(M) -> list[list[Matrix]]:
    """Every tuple of vertex-wise subspaces of ``M``, in the order of the
    product of the per-vertex subspace lists, kept when each arrow
    ``k: s -> t`` maps ``S`` into ``T``: ``rank [T | M_k S] == rank T``."""
    per_vertex = [_all_subspaces(M.field, d) for d in M.dims]
    out = []
    for combo in itertools.product(*per_vertex):
        if all(combo[a.target].hstack(M.maps[k] @ combo[a.source]).rank() == combo[a.target].rank()
               for k, a in enumerate(M.quiver.arrows)):
            out.append(list(combo))
    return out


def gauss_jordan(rows, p=None) -> tuple[list[list], list[int]]:
    """Reduced row echelon form and pivot columns of ``rows``: entries are
    ints reduced mod ``p`` when ``p`` is given, ``Fraction`` values
    otherwise.  Textbook Gauss-Jordan, one entry at a time."""
    def norm(x):
        return x % p if p is not None else Fraction(x)

    def inverse(x):
        return pow(x, -1, p) if p is not None else 1 / x

    R = [[norm(x) for x in row] for row in rows]
    ncols = len(R[0]) if R else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(R)) if R[i][c] != 0), None)
        if i is None:
            continue
        R[r], R[i] = R[i], R[r]
        inv = inverse(R[r][c])
        for j in range(ncols):
            R[r][j] = norm(R[r][j] * inv)
        for i in range(len(R)):
            if i != r:
                f = R[i][c]
                for j in range(ncols):
                    R[i][j] = norm(R[i][j] - f * R[r][j])
        pivots.append(c)
    return R, pivots


def forward_packed_reference(p: int, rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """``exactlin._forward_packed`` by tracking each row's leading column.
    The next pivot column is the least lead, and its pivot the first row,
    in input order, that leads there.  After each row operation the row's
    new lead is read from ``bit_length()``, and leading slots that reduce
    to zero are masked off one by one."""
    nrows, last = len(rows), ncols - 1
    nbytes = _slot_bytes(p, min(nrows, ncols))
    w = 8 * nbytes
    active, leads = [], []
    for r in rows:
        row = _pack(r, nbytes)
        if row:
            active.append(row)
            leads.append(last - (row.bit_length() - 1) // w)
    pivots, echelon = [], []
    # a row that reduces to zero stays in place with lead ``ncols``
    while leads and (c := min(leads)) < ncols:
        i = leads.index(c)
        del leads[i]
        vals = _unpack(active.pop(i), ncols - c, nbytes, p)
        pivot_row = _pack(vals, nbytes)
        pivots.append(c)
        echelon.append([0] * c + vals)
        shift = (last - c) * w
        below = (1 << shift) - 1
        for i, lead in enumerate(leads):
            if lead != c:
                continue
            row = active[i]
            f = (row >> shift) % p
            row = (row + (p - f) * pivot_row) & below if f else row & below
            while row:
                lead = last - (row.bit_length() - 1) // w
                s = (last - lead) * w
                x = row >> s
                if x % p:
                    break
                row ^= x << s
            active[i], leads[i] = row, (lead if row else ncols)
    return echelon, pivots


def block_sum_reference(field, nrows: int, ncols: int, terms) -> Matrix:
    """``Matrix.block_sum`` entry by entry: each block entry times its
    coefficient is added into its output entry with the scalar
    ``field.add`` and ``field.mul``, and no row kernel runs."""
    add, mul, out = field.add, field.mul, [[field.zero] * ncols for _ in range(nrows)]
    for r0, c0, coeff, block in terms:
        x = field.coerce(coeff)
        for orow, brow in zip(out[r0:], block.rows):
            for j, y in enumerate(brow, c0):
                orow[j] = add(orow[j], mul(x, y))
    return Matrix(field, out, ncols)


def presentation_tensor_reference(pres, X) -> Matrix:
    """``P (x) X -> Q (x) X``, block ``(q, p)`` summed from the path-matrix
    entries evaluated on ``X`` along the reversed paths."""
    poffs = list(itertools.accumulate((X.dims[v] for v in pres.P.summands), initial=0))
    qoffs = list(itertools.accumulate((X.dims[v] for v in pres.Q.summands), initial=0))
    action = functools.cache(X.path_action)
    return block_sum_reference(X.field, qoffs[-1], poffs[-1], [
        (qoffs[qi], poffs[pi], coeff, action(pres.P.summands[pi], tuple(reversed(path))))
        for qi, pi, path, coeff in pres.path_matrix()])


def top_reference(X, bases) -> tuple[tuple[int, ...], list[list]]:
    """``quiverrep._top`` of the submodule ``S`` of ``X`` with basis
    ``bases[v]`` at each vertex ``v``, lifted through those bases (the
    identity for ``S = X``): the columns of ``bases[v]`` outside
    the span of the arrow images into ``v`` and the columns before them,
    read off the pivots of ``[images | bases[v]]`` transposed."""
    q = X.quiver
    verts: list[int] = []
    gens: list[list] = []
    for v in range(q.nvertices):
        images = [col for k in q.arrows_into(v) for col in (X.maps[k] @ bases[q.arrows[k].source]).columns()]
        B, m = bases[v], len(images)
        for c in Matrix._of(X.field, images + B.columns(), X.dims[v]).transpose().pivots():
            if c >= m:
                verts.append(v)
                gens.append(B.column(c - m))
    return tuple(verts), gens


def socle_reference(M):
    """``quiverrep.socle`` through ``subrep``: the submodule spanned by the
    joint kernel of the outgoing arrow maps at each vertex."""
    bases = []
    for v in range(M.quiver.nvertices):
        stacked = Matrix.zeros(M.field, 0, M.dims[v])
        for k in M.quiver.arrows_from(v):
            stacked = stacked.vstack(M.maps[k])
        bases.append(stacked.kernel_basis())
    return subrep(M, bases)


def min_poly_reference(f, p=None) -> list:
    """Monic minimal polynomial, ascending coefficients, of an endomorphism
    ``f`` given vertex by vertex.  Append the flattened powers ``f^0, f^1,
    ...`` as columns until ``gauss_jordan``'s rank stops growing, then read
    the last power's coordinates in the earlier ones off the Gauss-Jordan
    form of that augmented system."""
    powers = [Matrix.identity(f.source.field, d) for d in f.source.dims]
    vecs = []
    while True:
        vecs.append([x for m in powers for row in m.rows for x in row])
        R, pivots = gauss_jordan([list(r) for r in zip(*vecs)], p)
        if len(pivots) < len(vecs):
            break
        powers = [m @ g for m, g in zip(powers, f.maps)]
    d = len(vecs) - 1
    assert pivots == list(range(d))
    neg = (lambda x: -x % p) if p is not None else (lambda x: -x)
    one = 1 if p is not None else Fraction(1)
    return [neg(R[i][d]) for i in range(d)] + [one]


def simple_regular_reference(M, df) -> bool:
    """Simple regularity by certified decomposition: ``M`` is one
    indecomposable of defect zero, and no proper nonzero submodule found by
    the exhaustive search is regular, each decided by decomposing it.
    Raises :class:`SearchBudgetExceeded` above ``artheory.DIM_CAP``, read
    at call time."""
    if M.is_zero():
        return False
    parts = decompose(M)
    if len(parts) != 1 or parts[0][1] != 1:
        return False
    if defect(df, M.dims) != 0:
        return False
    if M.total_dim() > artheory.DIM_CAP:
        raise SearchBudgetExceeded(f"module dimension {M.total_dim()} exceeds cap {artheory.DIM_CAP}")
    for bases in all_submodules(M):
        if 0 < sum(B.ncols for B in bases) < M.total_dim():
            # regular: every summand, not only the sum, has defect zero
            if all(defect(df, rep.dims) == 0 for rep, _ in decompose(subrep(M, bases)[0])):
                return False
    return True


def fitting_reference(X, g) -> tuple[int, list]:
    """``artheory._fitting`` through ``subrep``: the rank of ``A = g^e``
    from ``Matrix.rank``, then the kernel piece as the submodule spanned by
    ``kernel_basis`` and the image piece as the one spanned by the columns
    of ``A``, each read off ``Matrix.span``."""
    powers = list(g.maps)
    e = 1
    while e < max(X.dims):
        powers = [m @ m for m in powers]
        e *= 2
    rank = sum(m.rank() for m in powers)
    if rank in (0, X.total_dim()):
        return rank, []
    return rank, [subrep(X, [m.kernel_basis() for m in powers])[0], subrep(X, powers)[0]]


def hom_system_reference(M, N) -> tuple[Matrix, list[int]]:
    """``quiverrep.hom_system`` entry by entry: row ``(a, r, c)`` holds
    ``N_a[r, t]`` at the entry ``(t, c)`` of ``f_i`` and ``-M_a[l, c]`` at
    the entry ``(r, l)`` of ``f_j``."""
    field = M.field
    offs = list(itertools.accumulate((n * m for n, m in zip(N.dims, M.dims)), initial=0))
    total = offs[-1]
    rows: list[list] = []
    zero, neg = field.zero, field.neg
    for k, a in enumerate(M.quiver.arrows):
        i, j = a.source, a.target
        Na, Ma = N.maps[k], M.maps[k]
        for r in range(N.dims[j]):
            for c in range(M.dims[i]):
                row = [zero] * total
                for t in range(N.dims[i]):
                    row[offs[i] + t * M.dims[i] + c] = Na.rows[r][t]
                for l in range(M.dims[j]):
                    row[offs[j] + r * M.dims[j] + l] = neg(Ma.rows[l][c])
                rows.append(row)
    return Matrix._of(field, rows, total), offs
