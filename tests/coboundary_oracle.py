"""The literal term-by-term coboundary, kept as the oracle for delta_operator,
the literal twist compatibility, kept as the oracle for compat_test and
cochain_basis, and the literal module bracket, kept as the oracle for
module_action.

This is the definition of delta written out slot by slot, with no sharing
between output coordinates: slow, but independent of the one-pass sparse
assembly in nambu.cohomology, which the tests pin against it entry for entry.
"""

from __future__ import annotations

import itertools

from axiom_oracle import dense_rho
from dense_wrappers import alpha_pow_wedge, basis_cochains, cochain_value, input_tuples, linear_expansion, represent
from nambu.cohomology import (
    Cochain,
    CochainModel,
    _complex_tables,
    _wedge,
    cochain_basis,
)
from nambu.errors import ArityMismatch
from nambu.linalg import Matrix, Subspace, sparse_kernel


def evaluate(f: Cochain, wedge_args, z_arg):
    """f(A_1,...,A_m, Z): wedge args as {pos: coeff}, Z as {index: coeff}."""
    out = [0] * f.model.DV
    coeffs = f.coeffs
    for off, c in linear_expansion(f.model, wedge_args, z_arg):
        for v in range(f.model.DV):
            out[v] += c * coeffs[off + v]
    return out


def coordinate_parities(model: CochainModel) -> list:
    """The parity of every raw coordinate (x_1..x_m, z, v), summed slot by slot."""
    pv = model.r.target.parity
    return [
        (sum(model.wb.parity(w) for w in ws) + model.a.parity[j] + pv[v]) % 2
        for ws, j in input_tuples(model)
        for v in range(model.DV)
    ]


def literal_satisfies_compat(a, r, f: Cochain) -> bool:
    """f has no coordinate outside its declared parity and nu o f(x_1..x_m, z)
    = f(alpha x_1,...,alpha x_m, alpha z), one input (x_1..x_m, z) of the
    basis at a time, by multilinear expansion."""
    model = f.model
    parities = coordinate_parities(model)
    coeffs = f.coeffs
    if any(x != 0 and p != f.parity for x, p in zip(coeffs, parities)):
        return False
    cx = _complex_tables(a)
    aw = cx.alpha_wedge
    for ws, j in input_tuples(model):
        lhs = r.nu.apply(cochain_value(f, ws, j))
        rhs = [0] * model.DV
        for off, c in linear_expansion(model, [aw[w] for w in ws], cx.alpha_cols[j]):
            for v in range(model.DV):
                rhs[v] += c * coeffs[off + v]
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
        for ws, j in input_tuples(model):
            scale = lam[j]
            for w in ws:
                for i in model.wb.elements[w]:
                    scale *= lam[i]
            base = model.flat(ws, j)
            kept += [base + v for v in range(DV) if parities[base + v] in parts and mu[v] == scale]
        return Subspace._from_rref(model.raw_dim, [{k: 1} for k in kept])
    cx = _complex_tables(a)
    aw = cx.alpha_wedge
    rows = []
    for ws, j in input_tuples(model):
        base = model.flat(ws, j)
        expansion = linear_expansion(model, [aw[w] for w in ws], cx.alpha_cols[j])
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


def literal_module_bracket(a, r, slots) -> list:
    """Bracket with module entries: n slots tagged ('g', vec) or ('v', vec).

    Two V-slots give 0 by definition; exactly one V-slot is moved to the
    last position with straightening signs and then rho is applied, one
    basis tuple of the g-slots and one unit V-vector at a time.
    """
    if len(slots) != a.arity:
        raise ArityMismatch(f"expected {a.arity} slots")
    v_positions = [i for i, (tag, _) in enumerate(slots) if tag == "v"]
    dv = r.target.dim
    if len(v_positions) > 2:
        raise ArityMismatch("more than two module slots")
    if len(v_positions) == 2:
        return [0] * dv
    if not v_positions:
        raise ArityMismatch("module_bracket needs at least one module slot")
    pos = v_positions[0]
    v_vec = slots[pos][1]
    g_vecs = [vec for tag, vec in slots if tag == "g"]
    n_after = len(slots) - 1 - pos  # g-slots passed when moving V to the end
    wb = _wedge(a)
    p = a.parity
    pv_of = r.target.parity

    g_supports = []
    for vec in g_vecs:
        s = [(i, c) for i, c in enumerate(vec) if c != 0]
        if not s:
            return [0] * dv
        g_supports.append(s)
    v_support = [(i, c) for i, c in enumerate(v_vec) if c != 0]
    out = [0] * dv
    for combo in itertools.product(*g_supports):
        idx = tuple(i for i, _ in combo)
        coeff = 1
        for _, c in combo:
            coeff *= c
        sign_w, w = wb.lookup(idx)
        if sign_w == 0:
            continue
        passed_parity = sum(p[i] for i in idx[pos:]) % 2  # g-slots after V
        for vi, cv in v_support:
            pv = pv_of[vi]
            swap_sign = (-1) ** n_after
            if pv == 1 and passed_parity == 1:
                swap_sign = -swap_sign
            c_all = coeff * cv * sign_w * swap_sign
            col = r.rho[w].col(vi)
            for k, x in enumerate(col):
                if x != 0:
                    out[k] += c_all * x
    return out


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
    aw = cx.alpha_wedge
    apw = alpha_pow_wedge(a, m)
    apm = Matrix.identity(a.dim)
    for _ in range(m):
        apm = a.alpha * apm
    alpha_cols_sparse = [
        {i: c for i, c in enumerate(a.alpha.col(j)) if c != 0} for j in range(a.dim)
    ]
    rho_apw = [dense_rho(r, apw[w]) for w in range(len(wb))]
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
                val = literal_module_bracket(a, r, slots)
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
    cols = [represent(cm1, literal_coboundary(a, r, f).coeffs) for f in basis_cochains(cm)]
    if not cols:
        return Matrix(cm1.dim, 0, [])
    return Matrix.from_rows(cols, cols=cm1.dim).transpose()
