from tiltlab.exactlin import Matrix
from tiltlab.quiverrep import QuiverRep, RepMap


def random_basis_change(M, rng):
    """Conjugate all arrow maps by random invertible vertex matrices."""
    field = M.field
    while True:
        gl = [
            Matrix(field, [[rng.randrange(field.p) for _ in range(d)] for _ in range(d)], d)
            for d in M.dims
        ]
        if all(g.is_invertible() for g in gl):
            break
    maps = []
    for k, a in enumerate(M.quiver.arrows):
        maps.append(gl[a.target] @ M.maps[k] @ gl[a.source].inverse())
    return QuiverRep(M.quiver, field, M.dims, maps, check=False)


def identity_map(M):
    """The identity morphism of ``M``."""
    return RepMap(M, M, [Matrix.identity(M.field, d) for d in M.dims])
