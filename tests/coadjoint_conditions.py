"""The sufficient bracket-operator conditions for ad* to be a representation,
kept for the tests that study when ad* exists.

They imply existence but are strictly stronger: the second asks for termwise
anticommutation where only a summed cancellation is needed.  `coadjoint_rep`
decides existence by verify_representation alone; `test_tstar` checks on a
corpus that wherever these conditions hold and ad* is twist-equivariant, it
does report existence.
"""

from __future__ import annotations

from axiom_oracle import dense_rho
from dense_wrappers import sub
from nambu.cohomology import Representation, _complex_tables, _wedge
from nambu.core import HomSuperAlgebra, _canonical_tuples


def coadjoint_conditions(a: HomSuperAlgebra, ad: Representation):
    """(True, None) when both conditions hold for the adjoint representation
    ad of a, else (False, the first failure)."""
    wb = _wedge(a)
    cx = _complex_tables(a)
    aw = cx.alpha_wedge
    n = a.arity

    # first condition: ad(x) ad(alpha y) - (-1)^{|x||y|} ad(y) ad(alpha x) = alpha o ad([x,y]_alpha)
    for w1 in range(len(wb)):
        for w2 in range(len(wb)):
            sgn = -1 if (wb.parity(w1) == 1 and wb.parity(w2) == 1) else 1
            lhs = sub(ad.rho[w1] * dense_rho(ad, aw[w2]), (ad.rho[w2] * dense_rho(ad, aw[w1])).scale(sgn))
            rhs = a.alpha * dense_rho(ad, cx.fb(w1, w2))
            if lhs != rhs:
                return False, {
                    "condition": "commutator",
                    "x": [k + 1 for k in wb.elements[w1]],
                    "y": [k + 1 for k in wb.elements[w2]],
                }

    # second condition: ad(x_1..x_{n-2}, y_i) ad(alpha hat-wedge)
    #      = (-1)^{(sum x)(sum hat)} { - ad(alpha hat-wedge) ad(x_1..x_{n-2}, y_i) }
    for xs in _canonical_tuples(a.space, n - 2):
        px = a.space.parity_of_indices(xs)
        for h in range(len(wb)):
            ph = wb.parity(h)
            right = dense_rho(ad, aw[h])
            for y in range(a.dim):
                sign_w, w_small = wb.lookup(xs + (y,))
                if sign_w == 0:
                    continue
                left = ad.rho[w_small].scale(sign_w)
                sgn = -1 if (px == 1 and ph == 1) else 1
                if left * right != (right * left).scale(-sgn):
                    return False, {
                        "condition": "anticommutation",
                        "x": [k + 1 for k in xs],
                        "hat": [k + 1 for k in wb.elements[h]],
                        "y": y + 1,
                    }
    return True, None
