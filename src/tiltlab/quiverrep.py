"""Finite-dimensional representations of acyclic quivers.

Conventions used throughout the package:

* A representation places a vector space at every vertex and a matrix
  along every arrow, shaped ``dims[target] x dims[source]`` (column-vector
  convention, maps compose left of vectors).  Representations of a quiver
  play the role of right modules over its path algebra; *left* modules are
  represented as representations of the opposite quiver.
* The path algebra is finite dimensional and hereditary because quivers
  are required to be acyclic.
* Paths are tuples of arrow indices in traversal order and are ordered by
  ``(length, arrow-name sequence)`` wherever a basis is enumerated, so all
  constructions are deterministic.
* The standard duality transposes all matrices and reverses all arrows,
  exchanging representations of a quiver and of its opposite.
"""

from __future__ import annotations

import functools
import itertools

from .errors import NotInvariant, QuiverMismatch
from .exactlin import QQ, Matrix

Path = tuple[int, ...]  # arrow indices, traversal order


class Arrow:
    __slots__ = ("name", "source", "target")

    def __init__(self, name: str, source: int, target: int):
        self.name, self.source, self.target = name, source, target

    def __eq__(self, other):
        return (isinstance(other, Arrow) and self.name == other.name
                and self.source == other.source and self.target == other.target)

    def __hash__(self):
        return hash((self.name, self.source, self.target))


class Quiver:
    """Acyclic quiver with named arrows; vertices are ``0..nvertices-1``.
    Its hash is computed once, since the caches keyed by a quiver
    (``_opposite``, ``_paths_by_source``, ``proj_sum``) ask for it on every
    lookup."""

    __slots__ = ("nvertices", "arrows", "_hash")

    def __init__(self, nvertices: int, arrows: tuple[Arrow, ...]):
        self.nvertices, self.arrows = nvertices, arrows
        self._hash = hash((nvertices, arrows))
        if self.nvertices <= 0:
            raise ValueError("quiver needs at least one vertex")
        names = set()
        for a in self.arrows:
            if not (0 <= a.source < self.nvertices and 0 <= a.target < self.nvertices):
                raise ValueError(f"arrow {a.name} has out-of-range endpoints")
            if a.name in names:
                raise ValueError(f"duplicate arrow name {a.name}")
            names.add(a.name)
        if len(self.topological_order()) != self.nvertices:
            raise ValueError("quiver must be acyclic")

    def __eq__(self, other):
        return isinstance(other, Quiver) and self.nvertices == other.nvertices and self.arrows == other.arrows

    def __hash__(self):
        return self._hash

    def topological_order(self) -> list[int]:
        """Vertices ordered so that every arrow points forward (Kahn's
        algorithm); a cycle leaves its vertices out of the order."""
        indeg = [0] * self.nvertices
        for a in self.arrows:
            indeg[a.target] += 1
        queue = [v for v in range(self.nvertices) if indeg[v] == 0]
        order = []
        while queue:
            v = queue.pop()
            order.append(v)
            for a in self.arrows:
                if a.source == v:
                    indeg[a.target] -= 1
                    if indeg[a.target] == 0:
                        queue.append(a.target)
        return order

    def opposite(self) -> "Quiver":
        return _opposite(self)

    def arrows_from(self, v: int) -> list[int]:
        return [k for k, a in enumerate(self.arrows) if a.source == v]

    def arrows_into(self, v: int) -> list[int]:
        return [k for k, a in enumerate(self.arrows) if a.target == v]


def kronecker() -> Quiver:
    return Quiver(2, (Arrow("a", 0, 1), Arrow("b", 0, 1)))


def affine_a3_cycle() -> Quiver:
    """Four-vertex affine quiver: an oriented arm 0->1->2->3 plus a short
    arrow 0->3; its regular modules form one rank-3 tube and a family of
    homogeneous tubes."""
    return Quiver(4, (Arrow("a1", 0, 1), Arrow("a2", 1, 2), Arrow("a3", 2, 3), Arrow("b", 0, 3)))


@functools.lru_cache(maxsize=None)
def _opposite(q: Quiver) -> Quiver:
    """``q`` with every arrow reversed, built and checked once per quiver:
    ``presentation_tensor_terms`` and ``QuiverRep.dual`` ask for it on
    every call."""
    return Quiver(q.nvertices, tuple(Arrow(a.name, a.target, a.source) for a in q.arrows))


@functools.lru_cache(maxsize=None)
def _paths_by_source(q: Quiver) -> dict[int, list[Path]]:
    """All paths grouped by source vertex, each list ordered by
    (length, name sequence); includes the empty path."""
    out: dict[int, list[Path]] = {}
    for start in range(q.nvertices):
        found: list[Path] = [()]
        frontier: list[tuple[int, Path]] = [(start, ())]
        while frontier:
            nxt: list[tuple[int, Path]] = []
            for v, path in frontier:
                for k in q.arrows_from(v):
                    nxt.append((q.arrows[k].target, path + (k,)))
            found.extend(p for _, p in nxt)
            frontier = nxt
        found.sort(key=lambda p: (len(p), tuple(q.arrows[k].name for k in p)))
        out[start] = found
    return out


def path_target(q: Quiver, start: int, path: Path) -> int:
    return q.arrows[path[-1]].target if path else start


class QuiverRep:
    """Finite-dimensional representation: one space per vertex, one matrix
    per arrow (shape ``dims[target] x dims[source]``)."""

    __slots__ = ("quiver", "field", "dims", "maps")

    def __init__(self, quiver: Quiver, field, dims, maps, check: bool = True):
        self.quiver = quiver
        self.field = field
        self.dims = tuple(int(d) for d in dims)
        self.maps = tuple(maps)
        if check:
            if len(self.dims) != quiver.nvertices or any(d < 0 for d in self.dims):
                raise ValueError("bad dimension vector")
            if len(self.maps) != len(quiver.arrows):
                raise ValueError("one matrix per arrow required")
            for k, a in enumerate(quiver.arrows):
                if self.maps[k].shape != (self.dims[a.target], self.dims[a.source]):
                    raise ValueError(
                        f"arrow {a.name}: matrix shape {self.maps[k].shape} != "
                        f"({self.dims[a.target]}, {self.dims[a.source]})"
                    )
                if self.maps[k].field != field:
                    raise ValueError(f"arrow {a.name}: matrix over wrong field")

    @classmethod
    def from_entries(cls, quiver: Quiver, field, dims, entries: dict[str, list[list]]) -> "QuiverRep":
        """Build from per-arrow-name entry lists (missing arrows are zero)."""
        dims = tuple(dims)
        maps = []
        for a in quiver.arrows:
            shape = (dims[a.target], dims[a.source])
            if a.name in entries:
                maps.append(Matrix(field, entries[a.name], shape[1]))
            else:
                maps.append(Matrix.zeros(field, *shape))
        return cls(quiver, field, dims, maps)

    @classmethod
    def zero(cls, quiver: Quiver, field) -> "QuiverRep":
        dims = (0,) * quiver.nvertices
        return cls(quiver, field, dims, [Matrix.zeros(field, 0, 0) for _ in quiver.arrows], check=False)

    @classmethod
    def simple(cls, quiver: Quiver, field, vertex: int) -> "QuiverRep":
        dims = tuple(1 if v == vertex else 0 for v in range(quiver.nvertices))
        maps = [
            Matrix.zeros(field, dims[a.target], dims[a.source]) for a in quiver.arrows
        ]
        return cls(quiver, field, dims, maps, check=False)

    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim() == 0

    def path_action(self, start: int, path: Path) -> Matrix:
        """Composite of the arrow matrices along ``path`` starting at
        ``start``: the identity when the path is empty, and for one arrow
        that arrow's own matrix, not a copy (matrices are immutable by
        convention, and ``Matrix.block_sum_rank`` packs a block that recurs
        once, by ``id``)."""
        if not path:
            return Matrix.identity(self.field, self.dims[start])
        out = self.maps[path[0]]
        for k in path[1:]:
            out = self.maps[k] @ out
        return out

    def dual(self) -> "QuiverRep":
        """Standard duality: same dimensions over the opposite quiver, all
        matrices transposed."""
        op = self.quiver.opposite()
        return QuiverRep(op, self.field, self.dims, [m.transpose() for m in self.maps], check=False)

    def __eq__(self, other):
        return (
            isinstance(other, QuiverRep)
            and self.quiver == other.quiver
            and self.field == other.field
            and self.dims == other.dims
            and all(a == b for a, b in zip(self.maps, other.maps))
        )

    def __repr__(self):
        return f"QuiverRep(dims={self.dims})"


def random_rep(q: Quiver, field, rng, dim_cap: int = 3) -> QuiverRep:
    """Representation over a prime field with dimensions uniform in
    ``0..dim_cap`` and uniform matrix entries, drawn from ``rng`` in this
    order: the dimension vector, then each arrow's matrix row by row."""
    dims = [rng.randrange(0, dim_cap + 1) for _ in range(q.nvertices)]
    maps = [
        Matrix(field, [[rng.randrange(field.p) for _ in range(dims[a.source])] for _ in range(dims[a.target])],
               dims[a.source])
        for a in q.arrows
    ]
    return QuiverRep(q, field, dims, maps, check=False)


def _require_parallel(M: QuiverRep, N: QuiverRep):
    if M.quiver != N.quiver or M.field != N.field:
        raise QuiverMismatch("representations live over different quivers or fields")


class RepMap:
    """Morphism of representations: one matrix per vertex, commuting with
    all arrow maps.  The constructor trusts its caller; :meth:`is_valid`
    checks the commuting squares."""

    __slots__ = ("source", "target", "maps")

    def __init__(self, source: QuiverRep, target: QuiverRep, maps):
        _require_parallel(source, target)
        self.source = source
        self.target = target
        self.maps = tuple(maps)

    def is_valid(self) -> bool:
        for k, a in enumerate(self.source.quiver.arrows):
            lhs = self.target.maps[k] @ self.maps[a.source]
            rhs = self.maps[a.target] @ self.source.maps[k]
            if not (lhs == rhs):
                return False
        return True

    def __add__(self, other: "RepMap") -> "RepMap":
        return RepMap(self.source, self.target, [a + b for a, b in zip(self.maps, other.maps)])

    def __sub__(self, other: "RepMap") -> "RepMap":
        return RepMap(self.source, self.target, [a + -b for a, b in zip(self.maps, other.maps)])

    def scale(self, c) -> "RepMap":
        return RepMap(self.source, self.target, [m.scale(c) for m in self.maps])

    def __matmul__(self, other: "RepMap") -> "RepMap":
        """The composite ``self o other``."""
        return RepMap(other.source, self.target, [a @ b for a, b in zip(self.maps, other.maps)])

    def __repr__(self):
        return f"RepMap({self.source.dims} -> {self.target.dims})"


# ---------------------------------------------------------------------------
# submodules and quotients


def subrep(M: QuiverRep, gens: list[Matrix]) -> tuple[QuiverRep, RepMap]:
    """Subrepresentation spanned by the given vertex-wise columns, which
    need not be independent; the inclusion uses the pivot columns as the
    basis at each vertex.

    Raises :class:`NotInvariant` when the spans are not stable under the
    arrow maps.
    """
    spans = []
    for v, G in enumerate(gens):
        if G.nrows != M.dims[v]:
            raise ValueError(f"vertex {v}: generators have wrong height")
        spans.append(G.span())
    maps = []
    for k, a in enumerate(M.quiver.arrows):
        pushed = M.maps[k] @ spans[a.source].basis
        if not (spans[a.target].equations @ pushed).is_zero():
            raise NotInvariant(f"subspaces not stable under arrow {a.name}")
        maps.append(spans[a.target].coords @ pushed)
    bases = [sp.basis for sp in spans]
    S = QuiverRep(M.quiver, M.field, [B.ncols for B in bases], maps, check=False)
    return S, RepMap(S, M, bases)


def quotient_by(M: QuiverRep, sub_gens: list[Matrix]) -> tuple[QuiverRep, RepMap]:
    """Quotient of ``M`` by the subrepresentation spanned by the given
    vertex-wise columns (which need not be independent); returns the
    quotient and the projection.  The quotient's basis at each vertex is
    the unit-vector complement of the subspace."""
    spans = [G.span() for G in sub_gens]
    maps = [
        spans[a.target].equations @ M.maps[k] @ spans[a.source].complement
        for k, a in enumerate(M.quiver.arrows)
    ]
    Qr = QuiverRep(M.quiver, M.field, [sp.complement.ncols for sp in spans], maps, check=False)
    return Qr, RepMap(M, Qr, [sp.equations for sp in spans])


def direct_sum(M: QuiverRep, N: QuiverRep) -> QuiverRep:
    _require_parallel(M, N)
    field = M.field
    dims = tuple(a + b for a, b in zip(M.dims, N.dims))
    maps = []
    for k, a in enumerate(M.quiver.arrows):
        top = M.maps[k].hstack(Matrix.zeros(field, M.dims[a.target], N.dims[a.source]))
        bot = Matrix.zeros(field, N.dims[a.target], M.dims[a.source]).hstack(N.maps[k])
        maps.append(top.vstack(bot))
    return QuiverRep(M.quiver, field, dims, maps, check=False)


def socle(M: QuiverRep) -> tuple[QuiverRep, RepMap]:
    """Largest semisimple subrepresentation: at each vertex, the joint
    kernel of the outgoing arrow maps, read by :func:`kernel_piece` (so
    every arrow acts on it by zero)."""
    field, q = M.field, M.quiver
    kernels = [Matrix._of(field, [row[:] for k in q.arrows_from(v) for row in M.maps[k].rows], M.dims[v])
               .kernel_and_free() for v in range(q.nvertices)]
    S = kernel_piece(M, kernels)
    return S, RepMap(S, M, [K for K, _ in kernels])


def kernel_piece(X: QuiverRep, kernels: list[tuple[Matrix, list[int]]]) -> QuiverRep:
    """The kernel of a morphism out of ``X`` as a representation, from the
    pairs ``(K_v, F_v)`` that :meth:`Matrix.kernel_and_free` gives per
    vertex.  ``K_v`` is its basis at ``v``, and a kernel vector has its
    entries at the free rows ``F_v`` as coordinates, so an arrow ``a: s ->
    t`` acts by the rows ``F_t`` of ``M_a K_s``, one ``dot`` per entry."""
    q, field = X.quiver, X.field
    dot = field.dot
    maps = []
    for k, a in enumerate(q.arrows):
        rows, Ks = X.maps[k].rows, kernels[a.source][0]
        cols = list(zip(*Ks.rows))
        maps.append(Matrix._of(field, [[dot(rows[i], col) for col in cols] for i in kernels[a.target][1]], Ks.ncols))
    return QuiverRep(q, field, [len(F) for _, F in kernels], maps, check=False)


def _top(X: QuiverRep) -> list[tuple[int, int]]:
    """The ``(vertex, index)`` pairs of the unit vectors of ``X`` that lift
    a basis of ``X / rad X``.  Unit vector ``e_c`` at ``v`` is kept when it
    lies outside ``rad X + span(e_0, ..., e_{c-1})``, where ``rad X`` is
    spanned by the arrow images into ``v``.  That holds exactly when no
    vector of ``rad X`` has its last nonzero entry at ``c``, so when ``c``
    is not a pivot of the images with their entries reversed: one forward
    pass over the images, with no basis vector in it."""
    q = X.quiver
    top = []
    for v in range(q.nvertices):
        n = X.dims[v]
        rows = [list(col) for k in q.arrows_into(v) for col in zip(*reversed(X.maps[k].rows))]
        lead = {n - 1 - c for c in Matrix._of(X.field, rows, n).pivots()}
        top += [(v, c) for c in range(n) if c not in lead]
    return top


# ---------------------------------------------------------------------------
# projectives and presentations


class ProjSum:
    """Explicit direct sum of indecomposable projectives with its path
    basis.  ``basis[v]`` lists ``(summand, path)`` labels for the chosen
    basis of the vertex-``v`` component, where ``path`` runs from the
    summand's vertex to ``v``; ``index[v]`` maps each label back to its
    position."""

    __slots__ = ("quiver", "field", "summands", "rep", "basis", "index")

    def __init__(self, quiver: Quiver, field, summands: tuple[int, ...], rep: QuiverRep,
                 basis: tuple[tuple[tuple[int, Path], ...], ...], index: tuple[dict[tuple[int, Path], int], ...]):
        self.quiver, self.field, self.summands = quiver, field, summands
        self.rep, self.basis, self.index = rep, basis, index


@functools.lru_cache(maxsize=1024)
def proj_sum(q: Quiver, field, summands: tuple[int, ...]) -> ProjSum:
    """The projective ``P(i_0) + P(i_1) + ...`` with its canonical path
    basis; ``P(i)`` has the paths starting at ``i`` as basis.  Equal
    arguments share one object, so no caller may change its matrices or
    index dicts."""
    paths = _paths_by_source(q)
    basis: list[list[tuple[int, Path]]] = [[] for _ in range(q.nvertices)]
    for p, start in enumerate(summands):
        for path in paths[start]:
            basis[path_target(q, start, path)].append((p, path))
    dims = tuple(len(b) for b in basis)
    index = [{label: i for i, label in enumerate(b)} for b in basis]
    maps = []
    for k, a in enumerate(q.arrows):
        m = Matrix.zeros(field, dims[a.target], dims[a.source])
        for col, (p, path) in enumerate(basis[a.source]):
            row = index[a.target][(p, path + (k,))]
            m.rows[row][col] = field.one
        maps.append(m)
    rep = QuiverRep(q, field, dims, maps, check=False)
    return ProjSum(q, field, summands, rep, tuple(tuple(b) for b in basis), tuple(index))


def projective(q: Quiver, field, vertex: int) -> QuiverRep:
    """Indecomposable projective at ``vertex``; its dimension at ``j`` is
    the number of paths ``vertex -> j``."""
    if not (0 <= vertex < q.nvertices):
        raise ValueError("vertex out of range")
    return proj_sum(q, field, (vertex,)).rep


def injective(q: Quiver, field, vertex: int) -> QuiverRep:
    """Indecomposable injective at ``vertex`` (dual of the opposite
    projective)."""
    return projective(q.opposite(), field, vertex).dual()


def regular_dims(q: Quiver) -> tuple[int, ...]:
    """Dimension vector of the path algebra as a representation of itself
    (sum of all indecomposable projectives)."""
    return proj_sum(q, QQ, tuple(range(q.nvertices))).rep.dims


def extend_generators(ps: ProjSum, target: QuiverRep, gen_images: list[list]) -> RepMap:
    """The unique morphism ``ps.rep -> target`` sending the generator of
    summand ``p`` to ``gen_images[p]``, a vector of canonical scalars (as
    :meth:`Matrix._of` takes them) in the target's component at that
    summand's vertex.  Paths come shortest first, so each path label's
    image is one arrow matrix applied to the image of its prefix; the
    images stay canonical, so no entry is coerced again."""
    if target.quiver != ps.quiver or target.field != ps.field:
        raise QuiverMismatch("target lives over a different quiver or field")
    dot = ps.field.dot
    images = {}
    for p, start in enumerate(ps.summands):
        if len(gen_images[p]) != target.dims[start]:
            raise ValueError(f"generator {p}: image of length {len(gen_images[p])}, expected {target.dims[start]}")
        images[p, ()] = gen_images[p]
        for path in _paths_by_source(ps.quiver)[start][1:]:  # the empty path comes first
            prefix = images[p, path[:-1]]
            images[p, path] = [dot(row, prefix) for row in target.maps[path[-1]].rows]
    maps = [Matrix._of(ps.field, [images[label] for label in ps.basis[v]], target.dims[v]).transpose()
            for v in range(ps.quiver.nvertices)]
    return RepMap(ps.rep, target, maps)


def generator_images(ps: ProjSum, f: RepMap) -> list[list]:
    """Images of the canonical generators under ``f: ps.rep -> X``."""
    return [f.maps[vtx].column(ps.index[vtx][(p, ())]) for p, vtx in enumerate(ps.summands)]


PathEntry = tuple[int, int, Path, object]  # (target summand q, source summand p, path, coeff)


class ProjPresentation:
    """Exact sequence ``0 -> P -> Q -> module -> 0`` with ``P`` and ``Q``
    explicit sums of indecomposable projectives; ``alpha`` is injective and
    ``projection`` is the cokernel map."""

    __slots__ = ("P", "Q", "alpha", "module", "projection")

    def __init__(self, P: ProjSum, Q: ProjSum, alpha: RepMap, module: QuiverRep, projection: RepMap):
        self.P, self.Q, self.alpha, self.module, self.projection = P, Q, alpha, module, projection

    def path_matrix(self) -> list[PathEntry]:
        """``alpha`` written in path coordinates: entries ``(q, p, w, c)``
        meaning the component ``P(i_p) -> P(j_q)`` contains ``c * w`` with
        ``w`` a path from ``j_q`` to ``i_p``."""
        out: list[PathEntry] = []
        zero = self.Q.field.zero
        for p, img in enumerate(generator_images(self.P, self.alpha)):
            vtx = self.P.summands[p]
            for pos, coeff in enumerate(img):
                if coeff != zero:
                    qidx, path = self.Q.basis[vtx][pos]
                    out.append((qidx, p, path, coeff))
        return out

    def tor_dims(self, X: QuiverRep) -> tuple[int, int]:
        """``(dim Tor_1(module, X), dim module (x) X)`` for a left module
        ``X``, from one rank of ``P (x) X -> Q (x) X``, read off its block
        sum by :meth:`Matrix.block_sum_rank`; Hom/Ext^1 pass ``DN``."""
        nrows, ncols, terms = presentation_tensor_terms(self, X)
        rank = Matrix.block_sum_rank(X.field, nrows, ncols, terms)
        return ncols - rank, nrows - rank


def proj_presentation(M: QuiverRep) -> ProjPresentation:
    """Minimal projective presentation built from the projective cover
    ``Q -> M`` (lifting a basis of ``M / rad M``).  The kernel ``K`` stays
    inside ``Q``: :func:`kernel_piece` reads it in the coordinates of the
    cover's kernel bases, the entries at their free rows, its top lifts
    through the columns of those bases, and ``K`` is projective because
    the path algebra is hereditary.  No identity matrix is built and no
    matrix product is taken: :func:`_top` eliminates the arrow images
    alone, and ``alpha``'s injectivity is one rank at the free rows."""
    q, field = M.quiver, M.field
    top = _top(M)
    Qs = proj_sum(q, field, tuple(v for v, _ in top))
    units = [[field.one if i == c else field.zero for i in range(M.dims[v])] for v, c in top]
    projection = extend_generators(Qs, M, units)
    kernel = [m.kernel_and_free() for m in projection.maps]
    # rank = ncols - nullity, so the kernel bases show surjectivity too
    if any(m.ncols - K.ncols != m.nrows for m, (K, _) in zip(projection.maps, kernel)):
        raise AssertionError("projective cover failed to be surjective")
    ktop = _top(kernel_piece(Qs.rep, kernel))
    Ps = proj_sum(q, field, tuple(v for v, _ in ktop))
    if Ps.rep.dims != tuple(K.ncols for K, _ in kernel):
        raise AssertionError("kernel of a cover is not projective; quiver not hereditary?")
    alpha = extend_generators(Ps, Qs.rep, [kernel[v][0].column(c) for v, c in ktop])
    # alpha's block at v is square at the free rows, and a full rank there
    # makes its columns independent
    if any(Matrix._of(field, [m.rows[i][:] for i in free], m.ncols).rank() != m.ncols
           for m, (_, free) in zip(alpha.maps, kernel)):
        raise AssertionError("presentation map is not injective")
    return ProjPresentation(Ps, Qs, alpha, M, projection)


def is_projective(M: QuiverRep) -> bool:
    """The projective cover maps onto ``M``, so ``M`` is projective exactly
    when the cover has the dimensions of ``M``."""
    return proj_sum(M.quiver, M.field, tuple(v for v, _ in _top(M))).rep.dims == M.dims


# ---------------------------------------------------------------------------
# Hom, Ext, Tor


def hom_system(M: QuiverRep, N: QuiverRep) -> tuple[Matrix, list[int]]:
    """The commuting-square equations of ``Hom(M, N)`` and their column
    offsets: the Hom functor on the standard resolution ``0 -> (+)_{a: i->j}
    P(j) (x) M_i -> (+)_i P(i) (x) M_i -> M -> 0`` (Ringel 1976).  Columns
    ``offs[v]`` up to ``offs[v+1]`` hold ``f_v: M_v -> N_v`` row by row; the
    rows hold ``N_a f_i - f_j M_a``, arrow by arrow and row by row.  The
    kernel is ``Hom(M, N)`` and the cokernel is ``Ext^1(M, N)``: a vector of
    row values, cut into the arrow blocks, is a class ``(g_a: M_i -> N_j)``.
    Each row is written as two slices: row ``r`` of ``N_a`` at stride
    ``dim M_i`` from column ``offs[i] + c``, and the negated column ``c`` of
    ``M_a`` contiguously from ``offs[j] + r dim M_j``."""
    _require_parallel(M, N)
    field = M.field
    offs = list(itertools.accumulate((n * m for n, m in zip(N.dims, M.dims)), initial=0))
    total = offs[-1]
    rows: list[list] = []
    zero, neg = field.zero, field.neg
    for k, a in enumerate(M.quiver.arrows):
        i, j = a.source, a.target
        mi, mj = M.dims[i], M.dims[j]
        neg_cols = [[neg(row[c]) for row in M.maps[k].rows] for c in range(mi)]
        for r, n_row in enumerate(N.maps[k].rows):
            start = offs[j] + r * mj
            for c, neg_col in enumerate(neg_cols):
                # i != j (the quiver is acyclic), so the two blocks never overlap
                row = [zero] * total
                row[offs[i] + c: offs[i + 1]: mi] = n_row
                row[start: start + mj] = neg_col
                rows.append(row)
    return Matrix._of(field, rows, total), offs


def hom_space(M: QuiverRep, N: QuiverRep) -> list[RepMap]:
    """Basis of the space of morphisms ``M -> N``: the columns of the
    kernel basis of :func:`hom_system`, in order, each read in one pass
    over the kernel's rows and cut into its vertex blocks."""
    system, offs = hom_system(M, N)
    field, blocks = M.field, list(zip(offs, M.dims, N.dims))
    return [RepMap(M, N, [Matrix._of(field, [list(vec[o + r * m: o + (r + 1) * m]) for r in range(n)], m)
                          for o, m, n in blocks])
            for vec in zip(*system.kernel_basis().rows)]


def hom_dim(M: QuiverRep, N: QuiverRep) -> int:
    system, _ = hom_system(M, N)
    return system.ncols - system.rank()


def presentation_tensor_terms(pres: ProjPresentation, X: QuiverRep) -> tuple[int, int, list]:
    """``P (x) X -> Q (x) X`` for a left module ``X`` (a representation of
    the opposite quiver) as a block sum ``(nrows, ncols, terms)``, the
    arguments of :meth:`Matrix.block_sum` and :meth:`Matrix.block_sum_rank`
    after the field: each path-matrix entry ``(q, p, w, c)`` adds ``c``
    times ``X`` evaluated along the reversed path ``w`` to block ``(q,
    p)``."""
    if X.quiver != pres.module.quiver.opposite() or X.field != pres.module.field:
        raise QuiverMismatch("tensor factor must be a representation of the opposite quiver")
    poffs = list(itertools.accumulate((X.dims[v] for v in pres.P.summands), initial=0))
    qoffs = list(itertools.accumulate((X.dims[v] for v in pres.Q.summands), initial=0))
    action = functools.cache(X.path_action)  # entries repeat their (vertex, path)
    return qoffs[-1], poffs[-1], [
        (qoffs[qi], poffs[pi], coeff, action(pres.P.summands[pi], tuple(reversed(path))))
        for qi, pi, path, coeff in pres.path_matrix()]


def hom_ext_dims(M: QuiverRep, N: QuiverRep) -> tuple[int, int]:
    """``(dim Hom(M, N), dim Ext^1(M, N))`` by the standard duality ``D``:
    ``Hom(M, N) = D(M (x) DN)`` and ``Ext^1(M, N) = D Tor_1(M, DN)``, so
    they are the cokernel and the kernel of ``P (x) DN -> Q (x) DN``, the
    dual of ``Hom(Q, N) -> Hom(P, N)``."""
    _require_parallel(M, N)
    ext1, hom = proj_presentation(M).tor_dims(N.dual())
    return hom, ext1


def ext1_dim(M: QuiverRep, N: QuiverRep) -> int:
    return hom_ext_dims(M, N)[1]


def tor_dims(M: QuiverRep, X: QuiverRep) -> tuple[int, int]:
    """``(dim Tor_1(M, X), dim M (x) X)`` for a right module ``M`` and a
    left module ``X``."""
    return proj_presentation(M).tor_dims(X)


def euler_form(q: Quiver, d, e) -> int:
    """Bilinear form ``sum_i d_i e_i - sum_{a: i->j} d_i e_j``; equals
    ``dim Hom - dim Ext^1`` on dimension vectors."""
    d, e = tuple(d), tuple(e)
    if len(d) != q.nvertices or len(e) != q.nvertices:
        raise ValueError("dimension vectors must match the vertex count")
    val = sum(di * ei for di, ei in zip(d, e))
    for a in q.arrows:
        val -= d[a.source] * e[a.target]
    return val
