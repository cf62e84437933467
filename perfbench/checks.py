"""Independent answer checks for the benchmark.

Everything here is exact rational arithmetic on plain Python data (lists of
Fractions, dicts of bracket entries) and imports nothing from `nambu`, so a
fault in the program cannot hide in a checker that shares its code.

An algebra is the dict that `nambu.fileformat.algebra_to_json` writes (1-based
indices, rationals as strings); `algebra_from_json` turns it into an `Alg`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction


# ---------------------------------------------------------------------------
# exact elimination


def rref_rank(rows, ncols):
    """Rank of a matrix given as a list of rows, by Fraction Gauss-Jordan."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def matmul(a, b):
    return [[sum(x * b[k][j] for k, x in enumerate(row) if x != 0) for j in range(len(b[0]))] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


# ---------------------------------------------------------------------------
# algebras from their JSON form


@dataclass
class Alg:
    n: int
    dim: int
    parity: tuple
    alpha: list  # alpha[i][j], column j is the image of e_j
    bracket: dict  # canonical 0-based tuple -> list of Fractions
    form: list | None = None


def parse_q(x):
    return Fraction(x) if isinstance(x, int) else Fraction(str(x))


def algebra_from_json(obj) -> Alg:
    dim = obj["dim"]
    bracket = {}
    for item in obj.get("bracket", []):
        vec = [Fraction(0)] * dim
        for k, c in item["value"].items():
            vec[int(k) - 1] = parse_q(c)
        bracket[tuple(i - 1 for i in item["args"])] = vec
    form = obj.get("form")
    return Alg(
        obj["n"],
        dim,
        tuple(obj["parity"]),
        [[parse_q(x) for x in row] for row in obj["alpha"]],
        bracket,
        [[parse_q(x) for x in row] for row in form] if form is not None else None,
    )


def sort_sign(indices, parity):
    """(sign, sorted tuple) of a basis tuple under super skew-symmetry.

    Swapping neighbours a, b costs -(-1)^{|a||b|}; a repeated even index makes
    the bracket vanish (sign 0).
    """
    t = list(indices)
    sign = 1
    for i in range(len(t)):
        for j in range(len(t) - 1 - i):
            if t[j] > t[j + 1]:
                a, b = t[j], t[j + 1]
                sign *= 1 if (parity[a] == 1 and parity[b] == 1) else -1
                t[j], t[j + 1] = b, a
    for a, b in zip(t, t[1:]):
        if a == b and parity[a] == 0:
            return 0, tuple(t)
    return sign, tuple(t)


def bracket_basis(alg: Alg, indices):
    sign, key = sort_sign(indices, alg.parity)
    vec = alg.bracket.get(key)
    if sign == 0 or vec is None:
        return [Fraction(0)] * alg.dim
    return [sign * c for c in vec]


# ---------------------------------------------------------------------------
# Der(g) of an untwisted all-even algebra


def derivation_dim(alg: Alg) -> int:
    """dim {D : D[x_1..x_n] = sum_t [x_1..D x_t..x_n]}, solved over Q.

    Unknowns are the entries D[k][l] (image of e_l has coordinate k). One
    equation per basis tuple of increasing indices and output coordinate.
    """
    if any(alg.parity):
        raise ValueError("derivation_dim handles all-even algebras only")
    d = alg.dim
    rows = []
    for tup in itertools.combinations(range(d), alg.n):
        lhs = bracket_basis(alg, tup)
        for k in range(d):
            row = [Fraction(0)] * (d * d)
            # D applied to the bracket: sum_l D[k][l] c^l_tup
            for l, c in enumerate(lhs):
                if c != 0:
                    row[k * d + l] += c
            # minus the bracket with D in slot t: sum_l D[l][tup_t] c^k_{tup with l at t}
            for t in range(alg.n):
                for l in range(d):
                    args = tup[:t] + (l,) + tup[t + 1 :]
                    c = bracket_basis(alg, args)[k]
                    if c != 0:
                        row[l * d + tup[t]] -= c
            if any(x != 0 for x in row):
                rows.append(row)
    return d * d - rref_rank(rows, d * d)


# ---------------------------------------------------------------------------
# abelian closed form


def wedge_tuples(parity, degree):
    """Canonical wedge tuples: nondecreasing, even indices never repeated."""
    out = []

    def rec(start, left, prefix):
        if left == 0:
            out.append(tuple(prefix))
            return
        for i in range(start, len(parity)):
            rec(i + 1 if parity[i] == 0 else i, left - 1, prefix + [i])

    rec(0, degree, [])
    return out


def abelian_cochain_dims(parity, n, m, alpha_diag, nu_diag, nu_parity):
    """(C, Z, B, H) by parity for an abelian algebra with a diagonal twist.

    The bracket is zero, so every term of the coboundary vanishes for the
    adjoint and the coadjoint representation: Z = C and B = 0. C counts the
    raw coordinates (x_1..x_m, z, v) whose twist eigenvalues match,
    nu_v = prod alpha(x) * alpha(z), which for alpha = id is all W^m * D * DV.
    Returns {"both": .., "even": .., "odd": ..} of (C, Z, B, H) tuples.
    """
    wedges = wedge_tuples(parity, n - 1)
    counts = {0: 0, 1: 0}
    for ws in itertools.product(wedges, repeat=m):
        flat = [i for w in ws for i in w]
        for j in range(len(parity)):
            scale = alpha_diag[j]
            for i in flat:
                scale *= alpha_diag[i]
            p_in = (sum(parity[i] for i in flat) + parity[j]) % 2
            for v in range(len(nu_parity)):
                if nu_diag[v] == scale:
                    counts[(p_in + nu_parity[v]) % 2] += 1
    out = {}
    for name, c in (("even", counts[0]), ("odd", counts[1]), ("both", counts[0] + counts[1])):
        out[name] = (c, c, 0, c)
    return out


# ---------------------------------------------------------------------------
# T*-extension pairing, invariance and isometry


def tstar_pairing(parity, u, v):
    """<x+f, y+g> = f(y) + (-1)^{|x||y|} g(x) between basis vectors u, v of
    g (+) g*, given by index: the g block first, then the dual block, where
    e_k* has the parity of e_k and e_k*(e_i) = [k = i]."""
    d = len(parity)
    x, f = (u, None) if u < d else (None, u - d)
    y, g = (v, None) if v < d else (None, v - d)
    total = 0
    if f is not None and y is not None and f == y:
        total += 1
    if g is not None and x is not None and g == x:
        odd = parity[u % d] == 1 and parity[v % d] == 1
        total += -1 if odd else 1
    return Fraction(total)


def tstar_gram(parity):
    d = len(parity)
    return [[tstar_pairing(parity, i, j) for j in range(2 * d)] for i in range(2 * d)]


def bilinear(gram, u, v):
    return sum(u[i] * gram[i][j] * v[j] for i in range(len(u)) if u[i] != 0 for j in range(len(v)) if v[j] != 0)


def invariance_violation(alg: Alg, gram):
    """First (x, y, z) with <[x, y], z> != -(-1)^{|x||y|} <y, [x, z]>, else None.

    x runs over canonical (n-1)-tuples; the brackets come from the structure
    constants through sort_sign.
    """
    d = alg.dim
    p = alg.parity
    unit = [[Fraction(int(i == k)) for i in range(d)] for k in range(d)]
    for xs in wedge_tuples(p, alg.n - 1):
        px = sum(p[i] for i in xs) % 2
        for y in range(d):
            by = bracket_basis(alg, xs + (y,))
            sgn = -1 if (px == 1 and p[y] == 1) else 1
            for z in range(d):
                lhs = bilinear(gram, by, unit[z])
                rhs = -sgn * bilinear(gram, unit[y], bracket_basis(alg, xs + (z,)))
                if lhs != rhs:
                    return {"x": [i + 1 for i in xs], "y": y + 1, "z": z + 1, "lhs": str(lhs), "rhs": str(rhs)}
    return None


def isometry_problem(phi, gram_target, gram_source):
    """None if phi is invertible and phi^T G_target phi = G_source, else a reason."""
    if len(phi) != len(phi[0]):
        return f"phi is {len(phi)}x{len(phi[0])}, not square"
    if rref_rank(phi, len(phi[0])) != len(phi):
        return "phi is singular"
    pulled = matmul(matmul(transpose(phi), gram_target), phi)
    for i, (row, want) in enumerate(zip(pulled, gram_source)):
        for j, (x, y) in enumerate(zip(row, want)):
            if x != y:
                return f"phi^T G phi [{i + 1}][{j + 1}] = {x}, input gram has {y}"
    return None


def block_diag(gram, extra):
    """gram (+) [extra]: the input of decompose after a line is adjoined."""
    d = len(gram)
    out = [list(row) + [Fraction(0)] for row in gram]
    out.append([Fraction(0)] * d + [Fraction(extra)])
    return out
