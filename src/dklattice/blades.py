"""Basis blades of the 16-dimensional site algebra and their products.

Blades are indexed by subsets of {0, 1, 2, 3}, encoded as 4-bit masks with
bit mu flagging the generator e_mu; mask 0 is the unit blade x.  Products
are generated by

    x e_mu = e_mu x = e_mu,
    e_mu e_nu = -e_nu e_mu              (mu != nu),
    e_mu e_mu = g_mumu x,               g = diag(+1, -1, -1, -1),
    e_mu1 e_mu2 ... = e_{mu1 mu2 ...}   (strictly ascending indices),

extended bilinearly.  The product of two blades is always the blade of the
symmetric difference of their generator sets, so all 256 ordered products
reduce to one read-only 16 x 16 table of signs, precomputed at import:

    blade(a) * blade(b) = SIGN[a, b] * blade(a ^ b).

Every operator of the package (the difference stencils, the momentum
symbol, products of fields and constant forms) is derived from this one
table as a signed gather: blade(a) * blade(b) moves a coefficient onto
blade a ^ b and multiplies it by SIGN[a, b].
"""

from __future__ import annotations

import numpy as np

METRIC = (1, -1, -1, -1)
AXES = (0, 1, 2, 3)
NUM_BLADES = 16

# Masks in ascending order; each identifier lists the generator indices.
(X, E0, E1, E01, E2, E02, E12, E012,
 E3, E03, E13, E013, E23, E023, E123, E0123) = range(NUM_BLADES)

ALL_MASKS = tuple(range(NUM_BLADES))


def indices(mask: int) -> tuple[int, ...]:
    """Generator indices present in a blade mask, ascending."""
    return tuple(mu for mu in AXES if mask >> mu & 1)


def grade(mask: int) -> int:
    """Number of generators in the blade."""
    return int(mask).bit_count()


def blade_name(mask: int) -> str:
    """Short blade name: "x" for the unit, otherwise e plus index digits."""
    if mask == X:
        return "x"
    return "e" + "".join(str(mu) for mu in indices(mask))


GRADES = np.array([grade(m) for m in ALL_MASKS], dtype=np.int64)
GRADES.setflags(write=False)
EVEN_BLADES = tuple(m for m in ALL_MASKS if grade(m) % 2 == 0)
ODD_BLADES = tuple(m for m in ALL_MASKS if grade(m) % 2 == 1)
MASK_BY_NAME = {blade_name(m): m for m in ALL_MASKS}


def reduce_product(seq) -> tuple[int, tuple[int, ...]]:
    """Reduce a generator sequence to (sign, ascending index tuple).

    Adjacent transpositions of distinct generators flip the sign; adjacent
    equal generators contract to the metric factor g_mumu.  The loop runs
    until the sequence is strictly ascending.
    """
    sign = 1
    work = list(seq)
    i = 0
    while i < len(work) - 1:
        a, b = work[i], work[i + 1]
        if a == b:
            sign *= METRIC[a]
            del work[i:i + 2]
            i = max(i - 1, 0)
        elif a > b:
            work[i], work[i + 1] = b, a
            sign = -sign
            i = max(i - 1, 0)
        else:
            i += 1
    return sign, tuple(work)


# SIGN[a, b]: the sign of blade(a) * blade(b) = SIGN[a, b] * blade(a ^ b),
# by sequence reduction of the two index tuples.
SIGN = np.array([[reduce_product(indices(a) + indices(b))[0] for b in ALL_MASKS]
                 for a in ALL_MASKS], dtype=np.int8)
SIGN.setflags(write=False)


# Left multiplication by each generator as a signed gather of blade
# coefficients: (e_mu w)[o] = GEN_SIGN[mu, o] * w[GEN_SRC[mu, o]], where
# GEN_SRC[mu, o] = o ^ (1 << mu) is the one blade that e_mu maps onto o.
GEN_SRC = np.array([[o ^ (1 << mu) for o in ALL_MASKS] for mu in AXES])
GEN_SIGN = SIGN[[[1 << mu] for mu in AXES], GEN_SRC]
GEN_SRC.setflags(write=False)
GEN_SIGN.setflags(write=False)
