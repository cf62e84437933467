"""The literal term-by-term coboundary, kept as the oracle for delta_operator,
and the literal twist compatibility, kept as the oracle for compat_test and
cochain_basis.

This is the definition of delta written out slot by slot, with no sharing
between output coordinates: slow, but independent of the one-pass sparse
assembly in nambu.cohomology, which the tests pin against it entry for entry.
"""

from __future__ import annotations

import itertools

from nambu.cohomology import (
    Cochain,
    CochainModel,
    _complex_tables,
    _linear_expansion,
    cochain_basis,
    module_bracket,
)
from nambu.linalg import Matrix, Subspace, sparse_kernel


def evaluate(f: Cochain, wedge_args, z_arg):
    """f(A_1,...,A_m, Z): wedge args as {pos: coeff}, Z as {index: coeff}."""
    out = [0] * f.model.DV
    for off, c in _linear_expansion(f.model, wedge_args, z_arg):
        for v in range(f.model.DV):
            out[v] += c * f.coeffs[off + v]
    return out


def coordinate_parities(model: CochainModel) -> list:
    """The parity of every raw coordinate (x_1..x_m, z, v), summed slot by slot."""
    pv = model.r.target.parity
    return [
        (sum(model.wb.parity(w) for w in ws) + model.a.parity[j] + pv[v]) % 2
        for ws, j in model.input_tuples()
        for v in range(model.DV)
    ]


def literal_satisfies_compat(a, r, f: Cochain) -> bool:
    """f has no coordinate outside its declared parity and nu o f(x_1..x_m, z)
    = f(alpha x_1,...,alpha x_m, alpha z), one input (x_1..x_m, z) of the
    basis at a time, by multilinear expansion."""
    model = f.model
    parities = coordinate_parities(model)
    if any(x != 0 and p != f.parity for x, p in zip(f.coeffs, parities)):
        return False
    cx = _complex_tables(a)
    aw = cx.alpha_wedge()
    for ws, j in model.input_tuples():
        lhs = r.nu.apply(f.value(ws, j))
        rhs = [0] * model.DV
        for off, c in _linear_expansion(model, [aw[w] for w in ws], cx.alpha_cols[j]):
            for v in range(model.DV):
                rhs[v] += c * f.coeffs[off + v]
        if lhs != rhs:
            return False
    return True


def literal_cochain_space(a, r, m, parity="both") -> Subspace:
    """C^m(g, V) of the given parity, from its equations written out one
    input (x_1..x_m, z) at a time.

    For diagonal alpha and nu: the unit vectors of the raw coordinates of a
    wanted parity whose nu-eigenvalue equals the product of the
    alpha-eigenvalues of the inputs.  Otherwise the kernel of nu o f(x, z) -
    f(alpha x, alpha z), one row per raw coordinate by multilinear expansion,
    plus f = 0 on the coordinates of an unwanted parity; a parity-homogeneous
    f only has coordinates of its own parity, so each row keeps the terms of
    its coordinate's parity.
    """
    model = CochainModel(a, r, m)
    parts = {"both": (0, 1), "even": (0,), "odd": (1,)}[parity]
    parities = coordinate_parities(model)
    DV = model.DV
    if a.alpha.is_diagonal() and r.nu.is_diagonal():
        lam = [a.alpha[i, i] for i in range(model.D)]
        mu = [r.nu[v, v] for v in range(DV)]
        kept = []
        for ws, j in model.input_tuples():
            scale = lam[j]
            for w in ws:
                for i in model.wb.elements[w]:
                    scale *= lam[i]
            base = model.flat(ws, j)
            kept += [base + v for v in range(DV) if parities[base + v] in parts and mu[v] == scale]
        return Subspace._from_rref(model.raw_dim, [{k: 1} for k in kept])
    cx = _complex_tables(a)
    aw = cx.alpha_wedge()
    rows = []
    for ws, j in model.input_tuples():
        base = model.flat(ws, j)
        expansion = _linear_expansion(model, [aw[w] for w in ws], cx.alpha_cols[j])
        for v in range(DV):
            p = parities[base + v]
            if p not in parts:
                rows.append({base + v: 1})
                continue
            row = {}
            for u in range(DV):
                c = r.nu[v, u]
                if c != 0 and parities[base + u] == p:
                    row[base + u] = row.get(base + u, 0) + c
            for off, c in expansion:
                if parities[off + v] == p:
                    row[off + v] = row.get(off + v, 0) - c
            rows.append(row)
    return sparse_kernel(rows, model.raw_dim)


def literal_coboundary(a, r, f: Cochain) -> Cochain:
    """The degree-(m+1) coboundary of f, literally term by term.

    Terms: (1) insert a wedge bracket [x_i, x_j]_alpha at slot j and drop
    slot i; (2) replace z by x_i . z and drop slot i; (3) act by
    rho(alpha^m(x_i)) on f without slot i; (4) the module bracket of
    f(x_1..x_m, -) against the components of x_{m+1} and alpha^m(z).
    The parity of f is its declared parity.
    """
    m = f.degree
    pf = f.parity
    model_out = CochainModel(a, r, m + 1)
    out = [0] * model_out.raw_dim
    cx = _complex_tables(a)
    wb = cx.wb
    aw = cx.alpha_wedge()
    apw = cx.alpha_pow_wedge(m)
    apm = cx.alpha_pow(m)
    alpha_cols_sparse = [
        {i: c for i, c in enumerate(a.alpha_column(j)) if c != 0} for j in range(a.dim)
    ]
    rho_apw = [r.matrix_of(apw[w]) for w in range(len(wb))]
    p = a.parity
    DV = model_out.DV
    unit_wedge = [{w: 1} for w in range(len(wb))]

    for ws in itertools.product(range(len(wb)), repeat=m + 1):
        wpar = [wb.parity(w) for w in ws]
        for j in range(a.dim):
            total = [0] * DV

            # term 1: wedge brackets
            for i in range(m + 1):
                for jj in range(i + 1, m + 1):
                    sgn = (-1) ** (i + 1)
                    between = sum(wpar[i + 1 : jj]) % 2
                    if wpar[i] == 1 and between == 1:
                        sgn = -sgn
                    fb = cx.fb(ws[i], ws[jj])
                    if not fb:
                        continue
                    args = [
                        (fb if k == jj else aw[ws[k]])
                        for k in range(m + 1)
                        if k != i
                    ]
                    val = evaluate(f, args, alpha_cols_sparse[j])
                    for v, c in enumerate(val):
                        if c != 0:
                            total[v] += sgn * c

            # term 2: z replaced by x_i . z
            for i in range(m + 1):
                ad = cx.ad(ws[i], j)
                if not ad:
                    continue
                sgn = (-1) ** (i + 1)
                after = sum(wpar[i + 1 :]) % 2
                if wpar[i] == 1 and after == 1:
                    sgn = -sgn
                args = [aw[ws[k]] for k in range(m + 1) if k != i]
                val = evaluate(f, args, ad)
                for v, c in enumerate(val):
                    if c != 0:
                        total[v] += sgn * c

            # term 3: module action of alpha^m(x_i)
            for i in range(m + 1):
                sgn = (-1) ** i
                before = (pf + sum(wpar[:i])) % 2
                if wpar[i] == 1 and before == 1:
                    sgn = -sgn
                args = [unit_wedge[ws[k]] for k in range(m + 1) if k != i]
                val = evaluate(f, args, {j: 1})
                if all(c == 0 for c in val):
                    continue
                acted = rho_apw[ws[i]].apply(val)
                for v, c in enumerate(acted):
                    if c != 0:
                        total[v] += sgn * c

            # term 4: (f(x_1..x_m, ~) . x_{m+1}) bullet_alpha alpha^m(z)
            last = wb.elements[ws[m]]
            head_parity = (pf + sum(wpar[:m])) % 2
            args_head = [unit_wedge[ws[k]] for k in range(m)]
            prefix = 0
            for i in range(len(last)):
                sgn = (-1) ** m
                if head_parity == 1 and prefix == 1:
                    sgn = -sgn
                fval = evaluate(f, args_head, {last[i]: 1})
                prefix = (prefix + p[last[i]]) % 2
                if all(c == 0 for c in fval):
                    continue
                slots = []
                for k in range(len(last)):
                    if k == i:
                        slots.append(("v", fval))
                    else:
                        slots.append(("g", apm.col(last[k])))
                slots.append(("g", apm.col(j)))
                val = module_bracket(a, r, slots)
                for v, c in enumerate(val):
                    if c != 0:
                        total[v] += sgn * c

            base = model_out.flat(ws, j)
            for v in range(DV):
                out[base + v] = total[v]

    return Cochain(model_out, pf, out)


def literal_coboundary_matrix(a, r, m, parity="both") -> Matrix:
    """Matrix of delta^m in the cochain_basis bases, one literal coboundary per column."""
    cm = cochain_basis(a, r, m, parity)
    cm1 = cochain_basis(a, r, m + 1, parity)
    cols = [cm1.represent(literal_coboundary(a, r, f).coeffs) for f in cm.cochains()]
    if not cols:
        return Matrix(cm1.dim, 0, [])
    return Matrix.from_rows(cols, cols=cm1.dim).transpose()
