"""Independent reference arithmetic used to verify benchmark results.

Nothing here calls into tiltlab: representations are read as plain
dimension vectors and integer matrices, and every invariant is recomputed
with numpy by mod-p elimination.  numpy is imported only after the timed
phase, so it never shows in timings or in peak memory.
"""

from __future__ import annotations

import itertools

import numpy as np

from modp_int import subspace_count


def as_array(matrix, rows: int, cols: int) -> np.ndarray:
    """Plain integer array of a tiltlab ``Matrix`` (or of nested lists)."""
    data = matrix.rows if hasattr(matrix, "rows") else matrix
    return np.array(data, dtype=np.int64).reshape(rows, cols)


def rep_arrays(rep) -> tuple[list[tuple[int, int]], tuple[int, ...], list[np.ndarray]]:
    """``(arrows as (source, target), dims, arrow matrices)`` of a QuiverRep."""
    arrows = [(a.source, a.target) for a in rep.quiver.arrows]
    dims = tuple(rep.dims)
    maps = [as_array(m, dims[t], dims[s]) for m, (s, t) in zip(rep.maps, arrows)]
    return arrows, dims, maps


def rank(A: np.ndarray, p: int) -> int:
    """Rank over GF(p) by row echelon elimination."""
    A = np.array(A, dtype=np.int64) % p
    nrows, ncols = A.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(A[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        A[r] = A[r] * pow(int(A[r, c]), -1, p) % p
        below = A[r + 1:, c]
        hit = np.flatnonzero(below)
        if hit.size:
            rows = r + 1 + hit
            A[rows] = (A[rows] - np.outer(A[rows, c], A[r])) % p
        r += 1
    return r


def hom_dim(arrows, u_dims, u_maps, m_dims, m_maps, p: int, bases=None) -> int:
    """``dim Hom(U, S)`` where ``S`` is the subrepresentation of ``M``
    spanned at each vertex by the columns of ``bases[v]`` (``S = M`` when
    ``bases`` is None).  Unknowns are ``g_v`` with ``f_v = B_v g_v``; each
    arrow ``s -> t`` gives ``M_a B_s g_s = B_t g_t U_a``, vectorised
    column-major as ``(I (x) M_a B_s) vec g_s - (U_a^T (x) B_t) vec g_t``."""
    nv = len(u_dims)
    if bases is None:
        bases = [np.eye(d, dtype=np.int64) for d in m_dims]
    s_dims = [b.shape[1] for b in bases]
    offs = [0]
    for v in range(nv):
        offs.append(offs[-1] + s_dims[v] * u_dims[v])
    total = offs[-1]
    if total == 0:
        return 0
    blocks = []
    for (s, t), ua, ma in zip(arrows, u_maps, m_maps):
        nrow = m_dims[t] * u_dims[s]
        if nrow == 0:
            continue
        block = np.zeros((nrow, total), dtype=np.int64)
        left = np.kron(np.eye(u_dims[s], dtype=np.int64), (ma @ bases[s]) % p)
        right = np.kron(ua.T, bases[t]) % p
        block[:, offs[s]:offs[s + 1]] += left
        block[:, offs[t]:offs[t + 1]] -= right
        blocks.append(block % p)
    if not blocks:
        return total
    return total - rank(np.vstack(blocks), p)


def euler(arrows, d, e) -> int:
    """``sum_i d_i e_i - sum_{a: i -> j} d_i e_j``."""
    return sum(x * y for x, y in zip(d, e)) - sum(d[s] * e[t] for s, t in arrows)


def rep_hom(M, N, p: int) -> int:
    arrows, md, mm = rep_arrays(M)
    _, nd, nm = rep_arrays(N)
    return hom_dim(arrows, md, mm, nd, nm, p)


def rep_ext(M, N, p: int) -> int:
    arrows, md, _ = rep_arrays(M)
    return rep_hom(M, N, p) - euler(arrows, md, N.dims)


def dual_arrays(X):
    """Arrays of the vector-space dual of a left module ``X`` (a
    representation of the opposite quiver), as a representation of the
    original quiver: arrows reversed back, matrices transposed."""
    arrows = [(a.target, a.source) for a in X.quiver.arrows]
    dims = tuple(X.dims)
    maps = [as_array(m, dims[s], dims[t]).T.copy() for m, (s, t) in zip(X.maps, arrows)]
    return arrows, dims, maps


# ---------------------------------------------------------------------------
# subspaces over GF(p)


def rref_rows(A: np.ndarray, p: int) -> tuple[tuple[int, ...], ...]:
    """Nonzero rows of the reduced row echelon form, as a hashable
    canonical form of the row space."""
    A = np.array(A, dtype=np.int64) % p
    nrows, ncols = A.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(A[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        A[r] = A[r] * pow(int(A[r, c]), -1, p) % p
        others = np.flatnonzero(A[:, c])
        others = others[others != r]
        if others.size:
            A[others] = (A[others] - np.outer(A[others, c], A[r])) % p
        r += 1
    return tuple(tuple(int(x) for x in row) for row in A[:r])


def subspaces(p: int, n: int) -> list[np.ndarray]:
    """Every subspace of GF(p)^n as an ``n x k`` matrix of basis columns,
    from the row echelon forms: pivot columns carry 1, the entries right
    of a pivot in non-pivot columns run over GF(p)."""
    out = []
    for k in range(n + 1):
        for piv in itertools.combinations(range(n), k):
            free = [(i, j) for i in range(k) for j in range(piv[i] + 1, n) if j not in piv]
            for vals in itertools.product(range(p), repeat=len(free)):
                rows = np.zeros((k, n), dtype=np.int64)
                for i, c in enumerate(piv):
                    rows[i, c] = 1
                for (i, j), x in zip(free, vals):
                    rows[i, j] = x
                out.append(rows.T.copy())
    return out


def contains(B: np.ndarray, W: np.ndarray, p: int) -> bool:
    """Column space of ``W`` inside that of ``B``."""
    if W.shape[1] == 0:
        return True
    return rank(np.hstack([B, W]), p) == rank(B, p)


def kronecker_submodules(a: np.ndarray, b: np.ndarray, p: int):
    """Yield ``(V0, V1)`` for every subrepresentation of the Kronecker
    representation ``k^d0 => k^d1`` with arrow matrices ``a`` and ``b``:
    all ``V0``, and all ``V1`` containing ``a V0 + b V0``."""
    d1, d0 = a.shape
    targets = subspaces(p, d1)
    for V0 in subspaces(p, d0):
        W = np.hstack([a @ V0, b @ V0]) % p
        for V1 in targets:
            if contains(V1, W, p):
                yield V0, V1


def kronecker_submodule_count(a: np.ndarray, b: np.ndarray, p: int) -> int:
    """Number of subrepresentations: every ``V0`` contributes the number of
    subspaces of ``k^d1 / (a V0 + b V0)``."""
    d1, d0 = a.shape
    total = 0
    for V0 in subspaces(p, d0):
        w = rank(np.hstack([a @ V0, b @ V0]), p) if V0.shape[1] else 0
        total += subspace_count(p, d1 - w)
    return total
