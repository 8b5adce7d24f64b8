"""homext-dense: Hom, Ext, Tor and presentations on dense random reps.

Random Kronecker reps of dims (d, d), d = 6..10, and affine A3 (``a31``)
reps with 3..5 per vertex, over GF(101).  A pass holds four Kronecker
instances per d and twenty a31 instances; an instance is a pair ``(M, N)``
of right modules and a left module ``X``, and gives four ops.  A few
large eliminations per op: ``Matrix.rref`` dominates ``hom_space``.
"""

from __future__ import annotations

import functools
import random

from common import A31, KRONECKER, build_rep, rand_rep
from harness import OK, WRONG, Op, late

P = 101
KRONECKER_DIMS = (6, 7, 8, 9, 10)
INSTANCES_PER_DIM = 4
A31_INSTANCES = 20
BUDGET_S = 20.0  # slowest op (hom_space at (10, 10)) takes ~1.3 s


def generate(seed: int) -> dict:
    rng = random.Random(seed)
    inst = []
    for d in KRONECKER_DIMS:
        dims = (d, d)
        for _ in range(INSTANCES_PER_DIM):
            inst.append([rand_rep(rng, KRONECKER, P, dims), rand_rep(rng, KRONECKER, P, dims),
                         rand_rep(rng, KRONECKER, P, dims, opposite=True)])
    for _ in range(A31_INSTANCES):
        dims = [[rng.randint(3, 5) for _ in range(4)] for _ in range(3)]
        inst.append([rand_rep(rng, A31, P, dims[0]), rand_rep(rng, A31, P, dims[1]),
                     rand_rep(rng, A31, P, dims[2], opposite=True)])
    return {"instances": inst}


def build(spec: dict) -> list[Op]:
    from tiltlab import quiverrep as qr

    ops = []
    for m_spec, n_spec, x_spec in spec["instances"]:
        M, N, X = build_rep(m_spec), build_rep(n_spec), build_rep(x_spec)
        ref = _Reference(M, N, X)
        size = "x".join(map(str, M.dims))
        ops += [
            Op("hom_space", late(qr, "hom_space", M, N), ref.check_hom_space, size=size),
            Op("hom_ext_dims", late(qr, "hom_ext_dims", M, N), ref.check_hom_ext, size=size),
            Op("tor_dims", late(qr, "tor_dims", M, X), ref.check_tor, size=size),
            Op("proj_presentation", late(qr, "proj_presentation", M), ref.check_presentation, size=size),
        ]
    return ops


class _Reference:
    """Independent answers for one instance, computed on first use."""

    def __init__(self, M, N, X):
        self.M, self.N, self.X = M, N, X

    @functools.cached_property
    def hom(self) -> int:
        import modp

        return modp.rep_hom(self.M, self.N, P)

    @functools.cached_property
    def euler(self) -> int:
        import modp

        arrows = [(a.source, a.target) for a in self.M.quiver.arrows]
        return modp.euler(arrows, self.M.dims, self.N.dims)

    @functools.cached_property
    def tor(self) -> tuple[int, int]:
        # Hom_k(M (x) X, k) = Hom(M, DX), and Tor_1(M, X)* = Ext^1(M, DX)
        import modp

        arrows, md, mm = modp.rep_arrays(self.M)
        _, xd, xm = modp.dual_arrays(self.X)
        tensor = modp.hom_dim(arrows, md, mm, xd, xm, P)
        return tensor - modp.euler(arrows, md, xd), tensor

    def check_hom_space(self, basis) -> str:
        import modp
        import numpy as np

        if len(basis) != self.hom or not all(f.is_valid() for f in basis):
            return WRONG
        if basis:
            flat = np.array([[x for m in f.maps for row in m.rows for x in row] for f in basis])
            if modp.rank(flat, P) != len(basis):
                return WRONG
        return OK

    def check_hom_ext(self, he) -> str:
        h, e = he
        return OK if h == self.hom and h - e == self.euler else WRONG

    def check_tor(self, te) -> str:
        return OK if tuple(te) == self.tor else WRONG

    def check_presentation(self, pres) -> str:
        return OK if presentation_ok(pres, self.M) else WRONG


def presentation_ok(pres, M) -> bool:
    """``0 -> P -> Q -> M -> 0`` exact and minimal: both maps are
    morphisms, alpha is injective, the projection is surjective, their
    composite vanishes, dimensions add up, and Q has exactly dim top(M)_v
    summands at each vertex."""
    import modp
    import numpy as np

    p = M.field.p
    if pres.module is not M or not (pres.alpha.is_valid() and pres.projection.is_valid()):
        return False
    pd, qd = pres.P.rep.dims, pres.Q.rep.dims
    if any(q - s != m for q, s, m in zip(qd, pd, M.dims)):
        return False
    for v, m in enumerate(M.dims):
        a = modp.as_array(pres.alpha.maps[v], qd[v], pd[v])
        pi = modp.as_array(pres.projection.maps[v], m, qd[v])
        if modp.rank(a, p) != pd[v] or modp.rank(pi, p) != m or ((pi @ a) % p).any():
            return False
    arrows, dims, maps = modp.rep_arrays(M)
    for v in range(len(dims)):
        incoming = [maps[k] for k, (s, t) in enumerate(arrows) if t == v and dims[s]]
        rad = modp.rank(np.hstack(incoming), p) if incoming and dims[v] else 0
        if sum(1 for s in pres.Q.summands if s == v) != dims[v] - rad:
            return False
    return True
