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
restricted to finite-dimensional modules.  Over a hereditary algebra
``Ext^1(u, X) = D Hom(X, tau u)`` (Assem, Simson and Skowronski,
*Elements*, IV.2.14), so the class is the torsion class of modules with no
morphism into ``tau U``, and it is read that way, one ``tau`` per member.
"""

from __future__ import annotations

from .artheory import bound_members, is_bound, tau, transpose
from .errors import NotBound
from .exactlin import Matrix
from .quiverrep import (
    QuiverRep,
    hom_dim,
    hom_space,
    hom_system,
    kernel_piece,
    presentation_tensor_terms,
    proj_presentation,
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
    divisibility class of the set), read as ``Hom(M, tau member) = 0``."""
    return not any(hom_dim(M, tau(u)) for u in bound_members(U))


def class_compare(U1, U2, testset) -> QuiverRep | None:
    """Compare divisibility classes on a list of test modules: ``None``
    when membership agrees everywhere, otherwise the first separating
    module.  Each member is translated once per call."""
    taus1 = [tau(u) for u in bound_members(U1)]
    taus2 = [tau(u) for u in bound_members(U2)]
    for M in testset:
        if any(hom_dim(M, T) for T in taus1) != any(hom_dim(M, T) for T in taus2):
            return M
    return None


def divisible_radical(M: QuiverRep, U) -> tuple[QuiverRep, list[Matrix]]:
    """Largest subrepresentation of ``M`` lying in the divisibility class
    of ``U``, with its vertex-wise bases inside ``M``.  The class is the
    torsion class of modules with no morphism into ``tau U``, so from ``K
    = M`` each step replaces ``K`` by the joint kernel of every basis map
    ``K -> tau u``, over all members: a submodule in the class lies in
    every such kernel.  The steps stop when ``Hom(K, tau U) = 0``, after
    at most ``dim M`` of them, since each one shrinks ``K``."""
    taus = [tau(u) for u in bound_members(U)]
    K, bases = M, [Matrix.identity(M.field, d) for d in M.dims]
    while maps := [f for T in taus for f in hom_space(K, T)]:
        kernels = [Matrix._of(K.field, [row[:] for f in maps for row in f.maps[v].rows], K.dims[v]).kernel_and_free()
                   for v in range(K.quiver.nvertices)]
        K = kernel_piece(K, kernels)
        bases = [B @ Kv for B, (Kv, _) in zip(bases, kernels)]
    return K, bases
