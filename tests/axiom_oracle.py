"""Brute-force axiom sweeps, kept as the oracle for the canonical-tuple loops.

Every sweep here runs over every basis tuple (``itertools.product``) and
applies the bracket and the form literally, with no skew-symmetry argument
and no shared products: slow, but independent of the canonical-tuple loops
in nambu.core, nambu.cohomology and nambu.tstar, which the tests pin
against it report for report.

The bracket is the oracle's own: ``literal_value`` straightens a basis
tuple, looks up the stored entry and applies the sign, and
``literal_bracket`` expands it multilinearly over dense vectors.  Wedges
are the oracle's own too: ``literal_wedge`` straightens every basis tuple
of dense vectors, and ``dense_rho`` sums the dense matrices of rho.
Nothing here calls the production bracket or its expansion loop
(``bracket_eval``, ``bracket_basis``, ``sparse_value``, ``sparse_bracket``,
``multilinear``), the production wedge (``wedge_of_vectors``) or the sparse
action of rho (``action``, ``module_action``), so a slip in those cannot
pass on both sides; a test scans this file for those names.

``verify_algebra``, ``verify_metric``, ``verify_morphism`` and
``verify_representation`` return the production report with every check
that evaluates the bracket or rho replaced by the oracle's verdict and
witness, so comparing ``to_dict()`` compares every check at once.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from dense_wrappers import add, basis_vector
from nambu import cohomology, core
from nambu.cohomology import Representation, _wedge
from nambu.core import (
    BilinearForm,
    Check,
    HomSuperAlgebra,
    SeriesResult,
    _fmt_vec,
    _one_based,
    split_graded,
    straighten,
)
from nambu.linalg import Matrix, Subspace, format_scalar


def vzero(n):
    return [0] * n


def is_zero_vec(u):
    return all(a == 0 for a in u)


def pairing(gram: Matrix, u, v):
    """<u, v> = u . gram v on dense vectors, the gram applied densely."""
    gv = gram.apply(list(v))
    return sum(x * y for x, y in zip(u, gv) if x != 0 and y != 0)


def is_even_map(m: Matrix, p_out, p_in):
    """No entry of the dense m joins basis vectors of different parities."""
    return all(m[i, j] == 0 for i in range(m.rows) for j in range(m.cols) if p_out[i] != p_in[j])


def literal_value(tensor, indices):
    """The bracket of basis vectors by its definition: straighten, look up
    the canonical entry, apply the sign."""
    sign, canon = straighten(indices, tensor.space.parity)
    stored = tensor.entries.get(canon)
    if sign == 0 or stored is None:
        return [0] * tensor.space.dim
    return [sign * c for c in stored]


def literal_bracket(a: HomSuperAlgebra, vectors):
    """The bracket of dense vectors: the sum over basis tuples of the product
    of the coordinates times its literal value.  Tuples through a zero
    coordinate add nothing, so only the nonzero coordinates are combined."""
    out = vzero(a.dim)
    nonzero = [[i for i, c in enumerate(v) if c != 0] for v in vectors]
    for indices in itertools.product(*nonzero):
        coeff = 1
        for v, i in zip(vectors, indices):
            coeff *= v[i]
        out = [x + coeff * c for x, c in zip(out, literal_value(a.bracket, indices))]
    return out


def check_super_skew(a: HomSuperAlgebra):
    p = a.parity
    n = a.arity
    for t in itertools.product(range(a.dim), repeat=n):
        base = literal_value(a.bracket, t)
        for pos in range(n - 1):
            s = list(t)
            s[pos], s[pos + 1] = s[pos + 1], s[pos]
            sgn = 1 if (p[t[pos]] == 1 and p[t[pos + 1]] == 1) else -1
            if base != [sgn * c for c in literal_value(a.bracket, s)]:
                return False, {"args": _one_based(t), "swap_at": pos + 1}
    return True, None


def check_fundamental_identity(a: HomSuperAlgebra):
    n = a.arity
    p = a.parity
    alpha_cols = [a.alpha.col(j) for j in range(a.dim)]
    for xs in itertools.product(range(a.dim), repeat=n - 1):
        px = sum(p[i] for i in xs) % 2
        for ys in itertools.product(range(a.dim), repeat=n):
            inner = literal_value(a.bracket, ys)
            lhs = literal_bracket(a, [alpha_cols[i] for i in xs] + [inner])
            rhs = vzero(a.dim)
            prefix = 0
            for i in range(n):
                sign = -1 if (px == 1 and prefix == 1) else 1
                mid = literal_value(a.bracket, xs + (ys[i],))
                args = [alpha_cols[ys[k]] for k in range(i)] + [mid] + [
                    alpha_cols[ys[k]] for k in range(i + 1, n)
                ]
                term = literal_bracket(a, args)
                for k, c in enumerate(term):
                    if c != 0:
                        rhs[k] += sign * c
                prefix = (prefix + p[ys[i]]) % 2
            if lhs != rhs:
                witness = {
                    "x": _one_based(xs),
                    "y": _one_based(ys),
                    "lhs": _fmt_vec(lhs),
                    "rhs": _fmt_vec(rhs),
                }
                return False, witness
    return True, None


def check_bracket_map(f: Matrix, a: HomSuperAlgebra, b: HomSuperAlgebra):
    """f[x1..xn] = [f x1, ..., f xn]' on canonical tuples, as production
    sweeps them."""
    f_cols = [f.col(j) for j in range(a.dim)]
    for key in core._canonical_tuples(a.space, a.arity):
        lhs = f.apply(literal_value(a.bracket, key))
        rhs = literal_bracket(b, [f_cols[i] for i in key])
        if lhs != rhs:
            return False, {"args": _one_based(key), "lhs": _fmt_vec(lhs), "rhs": _fmt_vec(rhs)}
    return True, None


def literal_wedge(wb, vectors) -> dict:
    """v_1 ^ ... ^ v_k of dense vectors in wedge coordinates: the sum over
    basis tuples of the product of the coordinates times the straightened
    basis wedge."""
    out = {}
    nonzero = [[i for i, c in enumerate(v) if c != 0] for v in vectors]
    for indices in itertools.product(*nonzero):
        sign, canon = straighten(indices, wb.space.parity)
        if sign == 0:
            continue
        coeff = sign
        for v, i in zip(vectors, indices):
            coeff *= v[i]
        pos = wb.index[canon]
        out[pos] = out.get(pos, 0) + coeff
    return {k: c for k, c in out.items() if c != 0}


def dense_rho(r: Representation, coords: dict) -> Matrix:
    """rho of wedge coordinates as the dense sum of the matrices of r."""
    dv = r.target.dim
    out = Matrix.zeros(dv, dv)
    for w, c in coords.items():
        if c != 0:
            out = add(out, r.rho[w].scale(c))
    return out


def alpha_wedges(a: HomSuperAlgebra, wb) -> list:
    """alpha^wedge of every basis wedge, by the literal wedge."""
    alpha_cols = [a.alpha.col(j) for j in range(a.dim)]
    return [literal_wedge(wb, [alpha_cols[i] for i in t]) for t in wb.elements]


def literal_wedge_bracket(a: HomSuperAlgebra, wb, w1, w2) -> dict:
    """[x, y]_alpha of basis wedges x and y: the sum over i of
    (-1)^{|x|(|y_1| + ... + |y_{i-1}|)} alpha y_1 ^ ... ^ [x, y_i] ^ ... ^ alpha y_k."""
    xt, yt = wb.elements[w1], wb.elements[w2]
    px = sum(a.parity[i] for i in xt) % 2
    alpha_cols = [a.alpha.col(j) for j in range(a.dim)]
    out = {}
    prefix = 0
    for i, y in enumerate(yt):
        sign = -1 if (px == 1 and prefix == 1) else 1
        mid = literal_value(a.bracket, xt + (y,))
        vecs = [alpha_cols[k] for k in yt[:i]] + [mid] + [alpha_cols[k] for k in yt[i + 1 :]]
        for pos, c in literal_wedge(wb, vecs).items():
            out[pos] = out.get(pos, 0) + sign * c
        prefix = (prefix + a.parity[y]) % 2
    return {k: c for k, c in out.items() if c != 0}


def check_rep_grading(r: Representation, a: HomSuperAlgebra):
    """Every rho(w) of the parity of w, in (wedge, row, column) order, and
    nu even."""
    wb = _wedge(a)
    pv = r.target.parity
    dv = r.target.dim
    for w, mat in enumerate(r.rho):
        for i in range(dv):
            for j in range(dv):
                if mat[i, j] != 0 and pv[i] != (pv[j] + wb.parity(w)) % 2:
                    return False, {"wedge": [k + 1 for k in wb.elements[w]], "i": i + 1, "j": j + 1}
    return is_even_map(r.nu, pv, pv), None


def check_rep_jacobi(r: Representation, a: HomSuperAlgebra):
    """rho(alpha x) rho(y) = (-1)^{|x||y|} rho(alpha y) rho(x) + rho([x, y]_alpha) nu
    as dense matrix products, over every pair of basis wedges."""
    wb = _wedge(a)
    aw = alpha_wedges(a, wb)
    for w1 in range(len(wb)):
        m1 = dense_rho(r, aw[w1])
        for w2 in range(len(wb)):
            lhs = m1 * r.rho[w2]
            sgn = -1 if (wb.parity(w1) == 1 and wb.parity(w2) == 1) else 1
            rhs = (dense_rho(r, aw[w2]) * r.rho[w1]).scale(sgn)
            rhs = add(rhs, dense_rho(r, literal_wedge_bracket(a, wb, w1, w2)) * r.nu)
            if lhs != rhs:
                return False, {"x": [k + 1 for k in wb.elements[w1]], "y": [k + 1 for k in wb.elements[w2]]}
    return True, None


def check_rep_nary(r: Representation, a: HomSuperAlgebra):
    """The n-ary action law over canonical x-tuples and all basis y-tuples."""
    n = a.arity
    p = a.parity
    wb = _wedge(a)
    alpha_cols = [a.alpha.col(j) for j in range(a.dim)]
    for xs in core._canonical_tuples(a.space, n - 2):
        px = a.space.parity_of_indices(xs)
        x_alpha = [alpha_cols[i] for i in xs]
        for ys in itertools.product(range(a.dim), repeat=n):
            py_total = sum(p[i] for i in ys) % 2
            inner = literal_value(a.bracket, ys)
            lhs = dense_rho(r, literal_wedge(wb, x_alpha + [inner])) * r.nu
            rhs = Matrix.zeros(r.target.dim, r.target.dim)
            for i in range(n):
                sgn = (-1) ** (n - 1 - i)
                if px == 1 and (py_total + p[ys[i]]) % 2 == 1:
                    sgn = -sgn
                suffix = sum(p[ys[k]] for k in range(i + 1, n)) % 2
                if p[ys[i]] == 1 and suffix == 1:
                    sgn = -sgn
                hat = [alpha_cols[ys[k]] for k in range(n) if k != i]
                sign_w, canon = straighten(xs + (ys[i],), p)
                if sign_w == 0:
                    continue
                term = dense_rho(r, literal_wedge(wb, hat)) * r.rho[wb.index[canon]]
                rhs = add(rhs, term.scale(sgn * sign_w))
            if lhs != rhs:
                return False, {
                    "x": [k + 1 for k in xs],
                    "y": [k + 1 for k in ys],
                }
    return True, None


def check_twist_equivariance(r: Representation, a: HomSuperAlgebra):
    """nu rho(x) = rho(alpha x) nu as dense matrix products, per basis wedge."""
    wb = _wedge(a)
    aw = alpha_wedges(a, wb)
    for w in range(len(wb)):
        if r.nu * r.rho[w] != dense_rho(r, aw[w]) * r.nu:
            return False, {"wedge": [k + 1 for k in wb.elements[w]]}
    return True, None


def check_invariance(a: HomSuperAlgebra, form: BilinearForm):
    # invariance: <[x_1..x_{n-1}, y], z> = -(-1)^{|x||y|} <y, [x_1..x_{n-1}, z]>
    g = form.gram
    p = a.parity
    witness = None
    n = a.arity
    basis = [basis_vector(a, k) for k in range(a.dim)]
    for xs in core._canonical_tuples(a.space, n - 1):
        px = a.space.parity_of_indices(xs)
        for y in range(a.dim):
            by = literal_value(a.bracket, xs + (y,))
            sgn = -1 if (px == 1 and p[y] == 1) else 1
            for z in range(a.dim):
                lhs = pairing(g, by, basis[z])
                rhs = -sgn * pairing(g, basis[y], literal_value(a.bracket, xs + (z,)))
                if lhs != rhs:
                    witness = {
                        "x": _one_based(xs),
                        "y": y + 1,
                        "z": z + 1,
                        "lhs": format_scalar(Fraction(lhs)),
                        "rhs": format_scalar(Fraction(rhs)),
                    }
                    break
            if witness:
                break
        if witness:
            break
    return witness is None, witness


def _alpha_stable(h: Subspace, a: HomSuperAlgebra):
    return all(h.contains_vector(a.alpha.apply(v)) for v in h.basis_vectors())


def is_hom_ideal(h: Subspace, a: HomSuperAlgebra) -> bool:
    split_graded(h, a.space)
    if not _alpha_stable(h, a):
        return False
    basis = [basis_vector(a, i) for i in range(a.dim)]
    for v in h.basis_vectors():
        for rest in itertools.product(range(a.dim), repeat=a.arity - 1):
            args = [v] + [basis[i] for i in rest]
            if not h.contains_vector(literal_bracket(a, args)):
                return False
    return True


def series(a: HomSuperAlgebra, kind: str) -> SeriesResult:
    if kind not in ("derived", "lower_central"):
        raise ValueError("kind must be 'derived' or 'lower_central'")
    full = Subspace.full(a.dim)
    terms = [full]
    basis_g = [basis_vector(a, i) for i in range(a.dim)]
    while True:
        current = terms[-1]
        if current.dim == 0:
            break
        rows = current.basis_vectors()
        spanned = []
        if kind == "derived":
            for combo in itertools.product(rows, repeat=a.arity):
                vec = literal_bracket(a, list(combo))
                if not is_zero_vec(vec):
                    spanned.append(vec)
        else:
            for v in rows:
                for rest in itertools.product(range(a.dim), repeat=a.arity - 1):
                    vec = literal_bracket(a, [v] + [basis_g[i] for i in rest])
                    if not is_zero_vec(vec):
                        spanned.append(vec)
        nxt = Subspace.from_vectors(a.dim, spanned)
        if nxt == current:
            return SeriesResult(kind, terms, None, True)
        terms.append(nxt)
    return SeriesResult(kind, terms, len(terms) - 1, False)


def isotropic_half_ideal_bracket_vanishes(a: HomSuperAlgebra, i: Subspace) -> bool:
    """[g, ..., g, I, I] = 0, the g slots over every basis tuple."""
    rows = [list(r) for r in i.basis_vectors()]
    basis = [basis_vector(a, k) for k in range(a.dim)]
    for t in itertools.product(range(a.dim), repeat=a.arity - 2):
        for u in rows:
            for v in rows:
                val = literal_bracket(a, [basis[k] for k in t] + [u, v])
                if any(c != 0 for c in val):
                    return False
    return True


def _with_checks(report, results):
    """The report with each named check replaced by (passed, witness)."""
    report.checks = [
        Check(c.name, *results[c.name]) if c.name in results else c for c in report.checks
    ]
    return report


def verify_algebra(a: HomSuperAlgebra):
    return _with_checks(core.verify_algebra(a), {
        "super-skew-symmetry": check_super_skew(a),
        "fundamental-identity": check_fundamental_identity(a),
        "multiplicativity": check_bracket_map(a.alpha, a, a),
    })


def verify_morphism(f: Matrix, a: HomSuperAlgebra, b: HomSuperAlgebra):
    return _with_checks(core.verify_morphism(f, a, b), {"bracket": check_bracket_map(f, a, b)})


def verify_metric(a: HomSuperAlgebra, form: BilinearForm):
    return _with_checks(core.verify_metric(a, form), {"invariant": check_invariance(a, form)})


def verify_representation(r: Representation, a: HomSuperAlgebra):
    return _with_checks(cohomology.verify_representation(r, a), {
        "grading": check_rep_grading(r, a),
        "hom-jacobi": check_rep_jacobi(r, a),
        "n-ary-compatibility": check_rep_nary(r, a),
        "twist-equivariance": check_twist_equivariance(r, a),
    })
