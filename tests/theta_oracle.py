"""Reference forms of the two conditions on a 1-cochain that the library
checks on its support (``cohomology.alternation_pairs`` and
``tstar.cyclic_pairs``): the boundary-swap rows of super-alternation over
every V-block, and the cyclic condition as a loop over every basis tuple.
Slow, and written without the pairs, so that both the kernel rows and the
support predicates can be compared with them."""

from __future__ import annotations

from dense_wrappers import cochain_value, input_tuples
from nambu.cohomology import CochainModel, _wedge
from nambu.core import straighten
from nambu.linalg import sparse_kernel


def boundary_swap_rows(a, r) -> list:
    """The kernel rows of super-alternation: per V-block (x, z), f(x, z) =
    -(-1)^{|x_last||z|} s f(x_1..x_{n-2} z, x_last), s the sign that
    straightens the new wedge; the block vanishes where that wedge repeats
    an even index, or where the swap maps the block to itself with sign -1.
    A block already reached as a partner is not written again."""
    model = CochainModel(a, r, 1)
    wb = model.wb
    p = a.parity
    rows = []
    seen = set()
    for (w,), j in input_tuples(model):
        if (w, j) in seen:
            continue
        t = wb.elements[w]
        last = t[-1]
        sgn_swap = 1 if p[last] == 1 and p[j] == 1 else -1
        s, canon = straighten(t[:-1] + (j,), p)
        seen.add((w, j))
        if s == 0:
            rows.extend({model.flat((w,), j) + v: 1} for v in range(model.DV))
            continue
        w2 = wb.index[canon]
        seen.add((w2, last))
        if (w2, last) == (w, j):
            if sgn_swap * s != 1:
                rows.extend({model.flat((w,), j) + v: 1} for v in range(model.DV))
            continue
        for v in range(model.DV):
            rows.append({model.flat((w,), j) + v: 1, model.flat((w2,), last) + v: -sgn_swap * s})
    return rows


def boundary_swap_subspace(a, r):
    """The 1-cochains of (a, r) that satisfy boundary_swap_rows."""
    return sparse_kernel(boundary_swap_rows(a, r), CochainModel(a, r, 1).raw_dim)


def is_cyclic_by_loop(g, theta) -> bool:
    """theta(x,y)(z) + (-1)^{|y||z|} theta(x,z)(y) = 0 on every basis tuple."""
    p = g.parity
    for w in range(len(_wedge(g))):
        for y in range(g.dim):
            vy = cochain_value(theta, (w,), y)
            for z in range(g.dim):
                vz = cochain_value(theta, (w,), z)
                sgn = -1 if (p[y] == 1 and p[z] == 1) else 1
                if vy[z] + sgn * vz[y] != 0:
                    return False
    return True
