"""Fixed registry of citation anchors attached to report fields.

Every verdict a report emits carries anchor keys from this registry; the
anchors resolve to one-sentence statements of the mathematical facts the
verdict rests on.  Free-text citations are not allowed anywhere else.
"""

from __future__ import annotations

CITATIONS: dict[str, str] = {
    "crossed-product-af": (
        "Crossed products of product-type order-two symmetries are unital AF "
        "algebras: colimits of finite-dimensional algebras."
    ),
    "k0-colimit": (
        "K0 of the crossed product is the colimit of Z^2 under the symmetric "
        "rank matrices [[p_n, q_n], [q_n, p_n]]; the dual symmetry acts as the "
        "coordinate flip (j, k) -> (k, j)."
    ),
    "rank-exchange": (
        "Exchanging the two eigenspace ranks of any set of factors leaves the "
        "symmetry unchanged, so every factor may be normalized to p >= q."
    ),
    "strictly-approx-representable": (
        "Product-type symmetries are strictly approximately representable: the "
        "generating sign unitaries live at finite stages of the tensor product."
    ),
    "dual-strict-rokhlin": (
        "The dual of a strictly approximately representable symmetry has the "
        "strict Rokhlin property; for product-type symmetries this holds "
        "unconditionally."
    ),
    "condensation": (
        "A finite block of factors collapses to one factor whose size is the "
        "product of the block sizes and whose rank difference is the product of "
        "the block rank differences; gap ratios therefore multiply."
    ),
    "strict-rokhlin-criterion": (
        "The strict Rokhlin property holds exactly when infinitely many factors "
        "are rank-symmetric (gap ratio 0); equivalently the crossed product is a "
        "single matrix colimit (UHF), K0 of the crossed product is totally "
        "ordered, and the dual symmetry is trivial on K0."
    ),
    "tracial-rokhlin-criterion": (
        "The tracial Rokhlin property holds exactly when every tail gap product "
        "vanishes; equivalently the crossed product has a unique tracial state, "
        "equivalently the dual symmetry fixes every tracial state."
    ),
    "outerness-criterion": (
        "The symmetry is outer exactly when infinitely many factors have nonzero "
        "smaller rank (gap ratio < 1), which holds exactly when the crossed "
        "product is simple."
    ),
    "inner-splitting": (
        "When only finitely many factors have nonzero smaller rank, the symmetry "
        "is conjugation by a finite tensor of sign unitaries and the crossed "
        "product splits into two copies of the ambient algebra."
    ),
    "uhf-supernatural": (
        "A UHF algebra is classified by its supernatural number; when the crossed "
        "product is UHF it is the colimit of matrix algebras of size t(n) and so "
        "shares the supernatural number of the ambient algebra."
    ),
    "dual-tracial-duality": (
        "The symmetry has the tracial Rokhlin property exactly when the dual "
        "symmetry is tracially approximately representable, and the strict "
        "Rokhlin property exactly when the dual is strictly approximately "
        "representable."
    ),
    "eta-class": (
        "The dual flip negates the stage class (1, -1); when no later factor is "
        "rank-symmetric the class survives to a nonzero element with neither "
        "sign positive."
    ),
    "k0-cone": (
        "A stage vector is positive when both coordinates are nonnegative; a "
        "colimit class is positive when some pushforward lands in that cone, "
        "with the zero class counted as positive."
    ),
    "torsion-family-k0": (
        "For the torsion family with parameter m, the stage K0 groups are "
        "Z + Z/2^m with stage maps (k, l) -> ((2r+1)k, l); the colimit has "
        "torsion subgroup Z/2^m and K1 of the crossed product vanishes."
    ),
    "torsion-free-family": (
        "For the torsion-free variant the stage K1 maps are isomorphisms of Z, "
        "so K1 of the colimit is Z; K0 is a colimit of copies of Z^2 and is "
        "therefore torsion-free."
    ),
    "cantor-tower": (
        "A finite group acting on a finite quotient of a Cantor system admits an "
        "exact Rokhlin tower (a base whose translates partition the space) "
        "precisely when the action is free; a greedy recursion over any cover by "
        "disjoint-translate sets constructs one."
    ),
}


def cite(*keys: str) -> tuple[str, ...]:
    for key in keys:
        if key not in CITATIONS:
            raise KeyError(f"unknown citation anchor {key!r}")
    return keys
