"""ar-search: AR theory and perpendicular categories over GF(2), GF(3), GF(5).

Many small eliminations, exhaustive subspace enumeration and sympy
factorization.  Each of the two input groups of a pass holds:

* ``tube_catalog`` for Kronecker and a31 over each field;
* ``decompose`` and ``is_isomorphic`` on one random basis change of a
  direct sum per (quiver, field, number of summands), the summands (2 to
  5) drawn with repetition from the tube members and simples;
* ``is_isomorphic`` on 40 basis changes of the five-summand Kronecker
  module over GF(2), dims (4, 4), the input on which it is known to miss
  isomorphisms;
* ``all_submodules`` on random Kronecker reps over GF(3) of dims (d, d),
  d = 2, 3, 4, ``divisible_radical`` on such reps with d = 2, 3 and on a
  basis change of a sum with a known radical, and ``is_simple_regular`` on
  Kronecker modules over GF(3) whose answer is known by construction;
* ``perp_conditions`` as ``perp-check`` runs it: 40 trials of a random
  Kronecker rep over GF(5), dims 0..4 per vertex, against a random
  bound module;
* ``class_compare`` and ``u_filtration`` on the modules ``tube-demo``
  builds.

Over GF(2), ``is_isomorphic`` hunts for an invertible morphism with
uncertified random combinations and misses on sums of several summands
(its endomorphism ring mod radical is a product of copies of GF(2)); those
ops carry the known-defect tags ``kron-gf2-5sum`` and ``gf2-sum``.
"""

from __future__ import annotations

import functools
import random
from collections import Counter

from common import A31, ARROWS, KRONECKER, NVERTICES, basis_change, build_rep, direct_sum, rand_rep
from harness import MISS, OK, WRONG, Op, late

GROUPS = 2  # input groups per pass, each a full draw of the mix below
FIELDS = (2, 3, 5)
SUMMANDS = (2, 3, 4, 5)
ISO_GF2_FIVE = 40  # the sample ROADMAP item 3 measured the defect on
SEARCH_DIMS = (2, 3, 4)  # Kronecker over GF(3) "up to (4, 4)"
# at (4, 4) divisible_radical is the (4, 4) search again plus an Ext test
# per submodule: it would double the run to time the same search twice
RADICAL_DIMS = (2, 3)
PERP_TRIALS, PERP_DIM_CAP, PERP_FIELD = 40, 4, 5  # perp-check's defaults
TUBE_DEMO_FIELD = 5  # tube-demo's default
BUDGET_S = 40.0  # slowest op (all_submodules at (4, 4)) takes ~4 s
KNOWN_DEFECT = "kron-gf2-5sum"
GF2_SUM = "gf2-sum"


# -- closed-form modules (plain data) ---------------------------------------


def kron_member(p: int, lam: int) -> dict:
    """Simple regular Kronecker module at the point ``lam`` (``lam == p``
    is the point at infinity)."""
    a, b = ([[1]], [[lam]]) if lam < p else ([[0]], [[1]])
    return {"quiver": KRONECKER, "p": p, "dims": [1, 1], "maps": [a, b], "opposite": False}


def simple(quiver: str, p: int, v: int) -> dict:
    dims = [int(i == v) for i in range(NVERTICES[quiver])]
    maps = [[[0] * dims[s] for _ in range(dims[t])] for s, t in ARROWS[quiver]]
    return {"quiver": quiver, "p": p, "dims": dims, "maps": maps, "opposite": False}


def a31_member(p: int, lam: int) -> dict:
    """Homogeneous a31 tube member: 1 along the long path, ``lam`` on the
    short arrow; ``lam`` in 1..p-1 stays away from the exceptional point."""
    return {"quiver": A31, "p": p, "dims": [1, 1, 1, 1], "maps": [[[1]], [[1]], [[1]], [[lam]]],
            "opposite": False}


def candidates(quiver: str, p: int) -> list[dict]:
    """Pairwise non-isomorphic indecomposables that direct sums draw from."""
    if quiver == KRONECKER:
        members = [kron_member(p, lam) for lam in range(p + 1)]
    else:
        members = [a31_member(p, lam) for lam in range(1, p)]
    return members + [simple(quiver, p, v) for v in range(NVERTICES[quiver])]


def kron_pencil(p: int, b: list[list[int]]) -> dict:
    """Kronecker module with ``a = I`` and the given square ``b``."""
    n = len(b)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    return {"quiver": KRONECKER, "p": p, "dims": [n, n], "maps": [eye, b], "opposite": False}


# -- generation ---------------------------------------------------------------


def generate(seed: int) -> dict:
    rng = random.Random(seed)
    return {"groups": [_group(rng) for _ in range(GROUPS)]}


def _group(rng: random.Random) -> dict:
    five = [0, 1, 2, 3, 4]  # the three GF(2) tube members plus both simples
    lam = rng.randrange(3)
    pool = [kron_member(PERP_FIELD, x) for x in range(PERP_FIELD + 1)] + [kron_pencil(PERP_FIELD, [[0, 1], [0, 0]])]
    return {
        "catalogs": [[fam, p] for fam in (KRONECKER, A31) for p in FIELDS],
        "sums": [_random_sum(rng, q, p, n) for q in (KRONECKER, A31) for p in FIELDS for n in SUMMANDS],
        "iso_gf2_five": [basis_change(rng, _sum(KRONECKER, 2, five)) for _ in range(ISO_GF2_FIVE)],
        "submodules": [rand_rep(rng, KRONECKER, 3, (d, d)) for d in SEARCH_DIMS],
        # ground truth by construction: points of degree 1 and 2 are simple
        # regular; a self-extension, a sum and a simple are not
        "simple_regular": [
            [kron_member(3, rng.randrange(4)), True],
            [kron_pencil(3, [[0, 2], [1, 0]]), True],  # x^2 + 1, irreducible over GF(3)
            [kron_pencil(3, [[lam, 1], [0, lam]]), False],
            [direct_sum([kron_member(3, lam), kron_member(3, (lam + 1) % 4)]), False],
            [simple(KRONECKER, 3, rng.randrange(2)), False],
        ],
        "radical": [[rand_rep(rng, KRONECKER, 3, (d, d)), kron_member(3, rng.randrange(4))] for d in RADICAL_DIMS]
        + [[basis_change(rng, direct_sum([kron_member(3, lam), simple(KRONECKER, 3, 1),
                                          kron_member(3, (lam + 1) % 4)])), kron_member(3, lam)]],
        # the pool perp-check draws bound modules from: the tube members and
        # the self-extension closing the first tube
        "perp": [[rand_rep(rng, KRONECKER, PERP_FIELD, [rng.randrange(PERP_DIM_CAP + 1) for _ in range(2)]),
                  rng.choice(pool)] for _ in range(PERP_TRIALS)],
    }


def _sum(quiver: str, p: int, ids: list[int]) -> dict:
    cands = candidates(quiver, p)
    return direct_sum([cands[i] for i in ids])


def _random_sum(rng: random.Random, quiver: str, p: int, n: int) -> list:
    """A random basis change of a sum of ``n`` summands drawn with
    repetition from the candidates."""
    ids = sorted(rng.randrange(len(candidates(quiver, p))) for _ in range(n))
    return [quiver, p, ids, basis_change(rng, _sum(quiver, p, ids))]


# -- ops ----------------------------------------------------------------------


def build(spec: dict) -> list[Op]:
    from tiltlab import artheory as art
    from tiltlab.quiverrep import kronecker

    df_kron = art.defect_function(kronecker())
    return [op for grp in spec["groups"] for op in _group_ops(grp, df_kron)]


def _group_ops(spec: dict, df_kron) -> list[Op]:
    from tiltlab import artheory as art
    from tiltlab import perpcat
    from tiltlab.exactlin import PrimeField

    ops = []
    for fam, p in spec["catalogs"]:
        ops.append(Op("tube_catalog", late(art, "tube_catalog", fam, PrimeField(p)),
                      functools.partial(check_catalog, fam, p), size=f"{fam}/GF({p})"))
    for quiver, p, ids, data in spec["sums"]:
        M = build_rep(data)
        size = f"{quiver}/GF({p}) x{len(ids)}"
        defect = {"tag": GF2_SUM, "known_failure": MISS} if p == 2 else {}
        ops.append(Op("decompose", late(art, "decompose", M), _DecomposeRef(quiver, p, ids, M).check, size=size))
        ops.append(Op("is_isomorphic", late(art, "is_isomorphic", build_rep(_sum(quiver, p, ids)), M),
                      _check_iso, size=size, **defect))
    five = build_rep(_sum(KRONECKER, 2, [0, 1, 2, 3, 4]))
    for data in spec["iso_gf2_five"]:
        ops.append(Op("is_isomorphic", late(art, "is_isomorphic", five, build_rep(data)), _check_iso,
                      tag=KNOWN_DEFECT, size="kronecker/GF(2) x5", known_failure=MISS))
    for data in spec["submodules"]:
        M = build_rep(data)
        ops.append(Op("all_submodules", functools.partial(_submodule_list, art, M),
                      functools.partial(check_submodules, M), size="x".join(map(str, M.dims))))
    for data, expected in spec["simple_regular"]:
        M = build_rep(data)
        ops.append(Op("is_simple_regular", late(art, "is_simple_regular", M, df_kron),
                      lambda r, e=expected: OK if r is e else WRONG, size="x".join(map(str, M.dims))))
    for m_data, u_data in spec["radical"]:
        M, U = build_rep(m_data), build_rep(u_data)
        ops.append(Op("divisible_radical", late(perpcat, "divisible_radical", M, U),
                      _RadicalRef(M, U).check, size="x".join(map(str, M.dims))))
    for m_data, u_data in spec["perp"]:
        M, U = build_rep(m_data), build_rep(u_data)
        ops.append(Op("perp_conditions", late(perpcat, "perp_conditions", M, U),
                      functools.partial(check_perp, M, U), size="x".join(map(str, M.dims))))
    return ops + _tube_demo_ops(art, perpcat, PrimeField(TUBE_DEMO_FIELD))


def _check_iso(result) -> str:
    """Both modules are isomorphic by construction; a False is a miss,
    since ``is_isomorphic`` does not certify negative answers."""
    return OK if result is True else MISS


def _submodule_list(art, M):
    return list(art.all_submodules(M))


def _tube_demo_ops(art, perpcat, field) -> list[Op]:
    """``class_compare`` and ``u_filtration`` on the rank-3 a31 tube, with
    the modules ``tube-demo`` builds."""
    catalog = art.tube_catalog(A31, field)
    simple_, t_simple, tminus = catalog.tubes[0][:3]
    layer2 = art.build_extension(tminus, simple_)
    t_layer2 = art.build_extension(simple_, t_simple)
    pair, triple = art.BoundSet((layer2, t_layer2)), art.BoundSet((simple_, t_simple, tminus))
    testset = [simple_, t_simple, tminus, layer2, t_layer2]
    size = f"a31/GF({field.p})"
    return [
        Op("class_compare", late(perpcat, "class_compare", pair, triple, testset),
           functools.partial(check_class_compare, pair.members, triple.members, testset), size=size),
        Op("u_filtration", late(art, "u_filtration", layer2, (simple_, tminus)),
           functools.partial(check_filtration, layer2, simple_), size=size),
    ]


# -- independent checks ----------------------------------------------------------


def _hom(A, B) -> int:
    import modp

    return modp.rep_hom(A, B, A.field.p)


def _ext(A, B) -> int:
    import modp

    return modp.rep_ext(A, B, A.field.p)


def check_catalog(fam: str, p: int, cat) -> str:
    """Tube ranks as classified (Kronecker: p + 1 homogeneous tubes; a31:
    one tube of rank 3 plus p homogeneous ones), members pairwise
    Hom-orthogonal bricks, and the rank-3 tube's members summing to the
    null root (1, 1, 1, 1)."""
    ranks = [1] * (p + 1) if fam == KRONECKER else [3] + [1] * p
    if list(cat.ranks) != ranks:
        return WRONG
    members = cat.members
    for i, A in enumerate(members):
        for j, B in enumerate(members):
            if _hom(A, B) != int(i == j):
                return WRONG
    if fam == A31 and [sum(m.dims[v] for m in cat.tubes[0]) for v in range(4)] != [1, 1, 1, 1]:
        return WRONG
    return OK


class _DecomposeRef:
    def __init__(self, quiver, p, ids, M):
        self.M = M
        self.cands = [build_rep(c) for c in candidates(quiver, p)]
        self.expected = Counter()
        for i, n in Counter(ids).items():
            self.expected[self.signature(self.cands[i])] += n

    def signature(self, W):
        return (tuple(W.dims), tuple(_hom(C, W) for C in self.cands), tuple(_hom(W, C) for C in self.cands))

    def check(self, parts) -> str:
        """Wrong when the summands do not add up to M; a miss (an
        uncertified indecomposability or grouping verdict) when they add up
        but differ from the constructed summands."""
        total = [sum(m * W.dims[v] for W, m in parts) for v in range(len(self.M.dims))]
        if tuple(total) != tuple(self.M.dims):
            return WRONG
        got = Counter()
        for W, m in parts:
            got[self.signature(W)] += m
        return OK if got == self.expected else MISS


def check_submodules(M, subs) -> str:
    """The count matches an independent count, and every yielded tuple is
    a distinct subrepresentation with independent basis columns."""
    import modp

    p = M.field.p
    _, dims, (a, b) = modp.rep_arrays(M)
    if len(subs) != modp.kronecker_submodule_count(a, b, p):
        return WRONG
    seen = set()
    for bases in subs:
        V0, V1 = (modp.as_array(B, dims[v], B.ncols) for v, B in enumerate(bases))
        if modp.rank(V0, p) != V0.shape[1] or modp.rank(V1, p) != V1.shape[1]:
            return WRONG
        if not modp.contains(V1, (a @ V0) % p, p) or not modp.contains(V1, (b @ V0) % p, p):
            return WRONG
        seen.add((modp.rref_rows(V0.T, p), modp.rref_rows(V1.T, p)))
    return OK if len(seen) == len(subs) else WRONG


class _RadicalRef:
    """Brute force over an independent enumeration of submodules: the sum
    of those with Ext^1(U, S) = 0, computed once per input."""

    def __init__(self, M, U):
        self.M, self.U = M, U

    @functools.cached_property
    def expected(self) -> list:
        import modp
        import numpy as np

        p = self.M.field.p
        arrows, dims, (a, b) = modp.rep_arrays(self.M)
        _, ud, um = modp.rep_arrays(self.U)
        cols = [np.zeros((d, 0), dtype=np.int64) for d in dims]
        for V0, V1 in modp.kronecker_submodules(a, b, p):
            hom = modp.hom_dim(arrows, ud, um, dims, [a, b], p, bases=[V0, V1])
            if hom - modp.euler(arrows, ud, (V0.shape[1], V1.shape[1])) == 0:
                cols = [np.hstack([cols[0], V0]), np.hstack([cols[1], V1])]
        return cols

    def check(self, result) -> str:
        import modp

        p = self.M.field.p
        sub, joined = result
        for v, want_cols in enumerate(self.expected):
            got = modp.as_array(joined[v], self.M.dims[v], joined[v].ncols)
            want = modp.rank(want_cols, p)
            if sub.dims[v] != want or got.shape[1] != want or not modp.contains(want_cols, got, p) \
                    or modp.rank(got, p) != want:
                return WRONG
        return OK


def check_perp(M, U, rep) -> str:
    member = _hom(U, M) == 0 and _ext(U, M) == 0
    return OK if (rep.cond_invert, rep.cond_tor, rep.cond_homext) == (member,) * 3 else WRONG


def check_class_compare(pair, triple, testset, witness) -> str:
    def divisible(T, members):
        return all(_ext(u, T) == 0 for u in members)

    expected = next((T for T in testset if divisible(T, pair) != divisible(T, triple)), None)
    return OK if witness is expected else WRONG


def check_filtration(layer2, simple_, filt) -> str:
    """Two steps with factors [socle simple, inverse translate]: the first
    step is a subrepresentation with the dims of the socle simple and
    receiving a nonzero map from it, the second is everything."""
    import modp

    if filt is None or filt.factors != [0, 1] or len(filt.chain) != 2:
        return WRONG
    p = layer2.field.p
    arrows, dims, maps = modp.rep_arrays(layer2)
    first = [modp.as_array(B, dims[v], B.ncols) for v, B in enumerate(filt.chain[0])]
    if tuple(B.shape[1] for B in first) != tuple(simple_.dims):
        return WRONG
    if any(not modp.contains(first[t], (m @ first[s]) % p, p) for (s, t), m in zip(arrows, maps)):
        return WRONG
    _, sd, sm = modp.rep_arrays(simple_)
    if modp.hom_dim(arrows, sd, sm, dims, maps, p, bases=first) == 0:
        return WRONG
    return OK if tuple(B.ncols for B in filt.chain[1]) == tuple(layer2.dims) else WRONG
