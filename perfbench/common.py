"""Input generation helpers shared by the workloads.  Generators return
plain data (ints, strings, nested lists) so that inputs can be digested
and rebuilt; only ``build_rep`` touches tiltlab."""

from __future__ import annotations

import functools
import hashlib
import json
import random

KRONECKER = "kronecker"
A31 = "a31"
ARROWS = {
    KRONECKER: [(0, 1), (0, 1)],
    A31: [(0, 1), (1, 2), (2, 3), (0, 3)],
}
NVERTICES = {KRONECKER: 2, A31: 4}


def digest(spec) -> str:
    return hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()[:16]


def rand_matrix(rng: random.Random, p: int, rows: int, cols: int) -> list[list[int]]:
    return [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]


def rand_rep(rng: random.Random, quiver: str, p: int, dims, opposite: bool = False) -> dict:
    """Uniformly random arrow matrices for the given dimension vector; with
    ``opposite`` the arrows are reversed (a left module)."""
    maps = []
    for s, t in ARROWS[quiver]:
        if opposite:
            s, t = t, s
        maps.append(rand_matrix(rng, p, dims[t], dims[s]))
    return {"quiver": quiver, "p": p, "dims": list(dims), "maps": maps, "opposite": opposite}


def rand_invertible(rng: random.Random, p: int, n: int) -> tuple[list[list[int]], list[list[int]]]:
    """Random invertible matrix over GF(p) with its inverse, by Gauss-Jordan
    on ``[A | I]``; redraws singular matrices."""
    while True:
        a = rand_matrix(rng, p, n, n)
        aug = [row[:] + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
        ok = True
        for c in range(n):
            piv = next((r for r in range(c, n) if aug[r][c] % p), None)
            if piv is None:
                ok = False
                break
            aug[c], aug[piv] = aug[piv], aug[c]
            inv = pow(aug[c][c], -1, p)
            aug[c] = [x * inv % p for x in aug[c]]
            for r in range(n):
                if r != c and aug[r][c]:
                    f = aug[r][c]
                    aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[c])]
        if ok:
            return a, [row[n:] for row in aug]


def matmul_mod(a, b, p):
    bt = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(row, col)) % p for col in bt] for row in a]


def direct_sum(reps: list[dict]) -> dict:
    """Block-diagonal direct sum of representation specs."""
    first = reps[0]
    nv = NVERTICES[first["quiver"]]
    dims = [sum(r["dims"][v] for r in reps) for v in range(nv)]
    maps = []
    for k, (s, t) in enumerate(ARROWS[first["quiver"]]):
        m = [[0] * dims[s] for _ in range(dims[t])]
        r0 = c0 = 0
        for r in reps:
            block = r["maps"][k]
            for i, row in enumerate(block):
                for j, x in enumerate(row):
                    m[r0 + i][c0 + j] = x
            r0 += r["dims"][t]
            c0 += r["dims"][s]
        maps.append(m)
    return {"quiver": first["quiver"], "p": first["p"], "dims": dims, "maps": maps, "opposite": False}


def basis_change(rng: random.Random, rep: dict) -> dict:
    """Conjugate every arrow map by random invertible vertex matrices."""
    p = rep["p"]
    gl = [rand_invertible(rng, p, d) for d in rep["dims"]]
    maps = []
    for k, (s, t) in enumerate(ARROWS[rep["quiver"]]):
        if rep["dims"][s] == 0 or rep["dims"][t] == 0:
            maps.append(rep["maps"][k])
            continue
        maps.append(matmul_mod(matmul_mod(gl[t][0], rep["maps"][k], p), gl[s][1], p))
    return dict(rep, maps=maps)


@functools.cache
def _quiver(name: str, opposite: bool):
    from tiltlab.quiverrep import affine_a3_cycle, kronecker

    q = kronecker() if name == KRONECKER else affine_a3_cycle()
    return q.opposite() if opposite else q


def build_rep(spec: dict):
    from tiltlab.exactlin import Matrix, PrimeField
    from tiltlab.quiverrep import QuiverRep

    field = PrimeField(spec["p"])
    q = _quiver(spec["quiver"], spec["opposite"])
    dims = spec["dims"]
    maps = [Matrix(field, m, dims[a.source]) for m, a in zip(spec["maps"], q.arrows)]
    return QuiverRep(q, field, dims, maps, check=False)
