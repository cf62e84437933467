"""The swept assembly of delta^m, kept as the oracle for
nambu.cohomology._assemble_delta.

One sweep over every output input (x_1..x_{m+1}, z) emits, per output
coordinate, the linear form in f of the four terms, whether or not any
bracket or rho entry behind it is nonzero, in the algebra's own rational
scalars.  The production assembly emits each term only from the nonzero
entries of its integer tables; the tests require its rows to equal s_m times
this operator as dicts, s_m being the scale it returns.
"""

from __future__ import annotations

import itertools

from dense_wrappers import alpha_pow_wedge, input_tuples, linear_expansion
from nambu.cohomology import CochainModel, _complex_tables, module_action


def swept_delta_operator(a, r, m) -> dict:
    """delta^m of (a, r) on raw coefficients, {out_flat: {in_flat: coeff}}
    with nonzero rows only: (1) insert a wedge bracket [x_i, x_j]_alpha at
    slot j and drop slot i; (2) replace z by x_i . z and drop slot i; (3) act
    by rho(alpha^m(x_i)) on f without slot i; (4) the module action on
    f(x_1..x_m, -) of the components of x_{m+1} and alpha^m(z).  Terms 3 and
    4 carry the parity of f, taken per input coordinate."""
    model_in = CochainModel(a, r, m)
    model_out = CochainModel(a, r, m + 1)
    cx = _complex_tables(a)
    wb = cx.wb
    aw = cx.alpha_wedge
    rho_apw = [r.action(coords) for coords in alpha_pow_wedge(a, m)]
    DV = model_out.DV
    parities = model_in.parities
    apm_cols = [col.items() for col in cx.alpha_pow(m)]
    actions = {}
    for w, t in enumerate(wb.elements):
        for j, i in itertools.product(range(a.dim), range(len(t))):
            g_args = [apm_cols[x] for k, x in enumerate(t) if k != i] + [apm_cols[j]]
            actions[w, j, i] = module_action(a, r, g_args, i)

    rows = {}
    for ws, j in input_tuples(model_out):
        wpar = [wb.parity(w) for w in ws]
        form = {}
        for i in range(m + 1):
            terms = []
            ad = cx.ad(ws[i], j)
            if ad:
                sgn = -1 if wpar[i] == 1 and sum(wpar[i + 1 :]) % 2 == 1 else 1
                terms.append((sgn, [aw[ws[k]] for k in range(m + 1) if k != i], ad))
            for jj in range(i + 1, m + 1):
                fb = cx.fb(ws[i], ws[jj])
                if fb:
                    sgn = -1 if wpar[i] == 1 and sum(wpar[i + 1 : jj]) % 2 == 1 else 1
                    args = [(fb if k == jj else aw[ws[k]]) for k in range(m + 1) if k != i]
                    terms.append((sgn, args, cx.alpha_cols[j]))
            for sgn, args, z in terms:
                for off, c in linear_expansion(model_in, args, z):
                    form[off] = form.get(off, 0) + (-1) ** (i + 1) * sgn * c
        block = [{off + v: c for off, c in form.items()} for v in range(DV)]

        acting = []
        for i in range(m + 1):
            rest = tuple(ws[k] for k in range(m + 1) if k != i)
            acting.append((rest, j, i, sum(wpar[:i]), wpar[i], rho_apw[ws[i]]))
        prefix = 0
        for i, t in enumerate(wb.elements[ws[m]]):
            acting.append((ws[:m], t, m, sum(wpar[:m]), prefix, actions[ws[m], j, i]))
            prefix = (prefix + a.parity[t]) % 2
        for rest, t, i, before, odd, columns in acting:
            base = model_in.flat(rest, t)
            for u, column in enumerate(columns):
                sgn = (-1) ** i
                if odd == 1 and (parities[base + u] + before) % 2 == 1:
                    sgn = -sgn
                for v, c in column.items():
                    block[v][base + u] = block[v].get(base + u, 0) + sgn * c

        out_base = model_out.flat(ws, j)
        for v, row in enumerate(block):
            row = {k: c for k, c in row.items() if c != 0}
            if row:
                rows[out_base + v] = row
    return rows
