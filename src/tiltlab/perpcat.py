"""Membership predicates for perpendicular categories and divisibility
classes of bound modules.

For a bound module ``U`` with presentation ``0 -> P -> Q -> U -> 0`` and a
test module ``M``, three conditions are equivalent:

* (i) the map ``M (x) Q* -> M (x) P*`` induced by the dualized
  presentation is invertible,
* (ii) ``Tor_1(M, Tr U)`` and ``M (x) Tr U`` both vanish,
* (iii) ``Hom(U, M)`` and ``Ext^1(U, M)`` both vanish.

The equivalence is used as an oracle: :func:`perp_conditions` computes all
three and reports whether they agree.  Route (i) evaluates the
presentation of ``U`` on ``DM`` with ``presentation_tensor_terms`` and
reads the rank of that block sum; its matrix is the dual of ``Hom(Q, M)
-> Hom(P, M)``.  Routes (i) and (ii) share the presentation of ``U``
(route (ii) through its transpose) and the evaluator (route (ii) tensors
``M``'s own presentation with ``Tr U``), so a fault in either reaches
both.  Route (iii) reads both halves off the commuting-square system
``hom_system(U, M)`` and shares neither, so an evaluator fault still
flips ``consistent``.

Divisibility classes (vanishing of ``Ext^1(U, -)``) stand in for the
tilting classes of the localizations attached to sets of bound modules,
restricted to finite-dimensional modules.
"""

from __future__ import annotations

from .artheory import all_submodules, bound_members, is_bound, transpose
from .errors import NotBound, QuiverMismatch
from .exactlin import Matrix
from .quiverrep import (
    QuiverRep,
    hom_dim,
    hom_system,
    presentation_tensor_terms,
    proj_presentation,
    subrep,
    tor_dims,
)


class PerpReport:
    """The three membership conditions and their agreement flag.  Route
    (i) reads the evaluator on ``DM``, the dual of ``Hom(Q, M) -> Hom(P,
    M)``; routes (i) and (ii) share the presentation of ``U`` and the
    evaluator, and route (iii) shares neither."""

    __slots__ = ("cond_invert", "cond_tor", "cond_homext")

    def __init__(self, cond_invert: bool, cond_tor: bool, cond_homext: bool):
        self.cond_invert, self.cond_tor, self.cond_homext = cond_invert, cond_tor, cond_homext

    @property
    def consistent(self) -> bool:
        return self.cond_invert == self.cond_tor == self.cond_homext

    @property
    def member(self) -> bool:
        return self.cond_invert


def perp_conditions(M: QuiverRep, U: QuiverRep) -> PerpReport:
    """Evaluate the three equivalent membership conditions of ``M`` in the
    perpendicular category of the bound module ``U``."""
    if not is_bound(U):
        raise NotBound("perpendicular conditions require a bound module")
    pres = proj_presentation(U)

    # (i) invertibility of the induced map on tensor products with the
    # dualized presentation; in generator coordinates this is the square
    # test plus full rank of P (x) DM -> Q (x) DM
    nrows, ncols, terms = presentation_tensor_terms(pres, M.dual())
    cond_invert = nrows == ncols and Matrix.block_sum_rank(M.field, nrows, ncols, terms) == nrows

    # (ii) vanishing of Tor_1(M, Tr U) and M (x) Tr U, computed from M's
    # own presentation tensored against the transpose
    tr = transpose(pres)
    tor1, tensor = tor_dims(M, tr)
    cond_tor = tor1 == 0 and tensor == 0

    # (iii) vanishing of Hom(U, M) and Ext^1(U, M), the kernel and the
    # cokernel of the commuting-square system
    system, _ = hom_system(U, M)
    cond_homext = system.rank() == system.nrows == system.ncols

    return PerpReport(cond_invert, cond_tor, cond_homext)


def is_divisible(M: QuiverRep, U) -> bool:
    """``Ext^1(member, M) = 0`` for every member (membership in the
    divisibility class of the set)."""
    return _is_divisible(M, map(proj_presentation, bound_members(U)))


def _is_divisible(M: QuiverRep, presentations) -> bool:
    """:func:`is_divisible` on the presentations of the members, so a
    caller testing many modules presents each member once."""
    DM = M.dual()
    for pres in presentations:
        if pres.module.quiver != M.quiver or pres.module.field != M.field:
            raise QuiverMismatch("representations live over different quivers or fields")
        if pres.tor_dims(DM)[0]:
            return False
    return True


def transpose_duality_check(U: QuiverRep, X: QuiverRep) -> tuple[int, int]:
    """``(dim Tor_1(U, X), dim Hom(Tr U, X))`` for a left module ``X``; the
    two dimensions agree."""
    if not is_bound(U):
        raise NotBound("transpose duality requires a bound module")
    pres = proj_presentation(U)
    return pres.tor_dims(X)[0], hom_dim(transpose(pres), X)


def class_compare(U1, U2, testset) -> QuiverRep | None:
    """Compare divisibility classes on a list of test modules: ``None``
    when membership agrees everywhere, otherwise the first separating
    module."""
    pres1 = [proj_presentation(u) for u in bound_members(U1)]
    pres2 = [proj_presentation(u) for u in bound_members(U2)]
    for M in testset:
        if _is_divisible(M, pres1) != _is_divisible(M, pres2):
            return M
    return None


def divisible_radical(M: QuiverRep, U) -> tuple[QuiverRep, list[Matrix]]:
    """Largest subrepresentation of ``M`` lying in the divisibility class
    of ``U`` (the class is closed under images, sums and extensions, so the
    sum of all such subrepresentations is again one).  Exhaustive over the
    submodule lattice at desk scale."""
    presentations = [proj_presentation(u) for u in bound_members(U)]
    cols: list[list[list]] = [[] for _ in range(M.quiver.nvertices)]
    for bases in all_submodules(M):
        sub, _ = subrep(M, bases)
        if _is_divisible(sub, presentations):
            for v in range(M.quiver.nvertices):
                cols[v].extend(bases[v].columns())
    gens = [Matrix.from_columns(M.field, cols[v], M.dims[v]) for v in range(M.quiver.nvertices)]
    sub, incl = subrep(M, gens)
    return sub, list(incl.maps)
