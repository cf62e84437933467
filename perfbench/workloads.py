"""Seeded inputs and request lists of the three workloads.

Each `build_*` function generates its input files through `nambu` from a
`random.Random` seeded on the command line, writes them under `outdir`, and
returns a `Suite`: the requests of one pass, each with its expected outcome
and its check, plus the checks that compare requests with each other.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from nambu import fileformat as ff
from nambu import samples
from nambu.cohomology import (
    Cochain,
    CochainModel,
    Representation,
    _wedge,
    adjoint_rep,
    alternating_subspace,
    coboundary,
    cochain_basis,
)
from nambu.core import (
    BilinearForm,
    GradedSpace,
    HomSuperAlgebra,
    StructureTensor,
    _canonical_tuples,
    direct_sum,
    twist_by_endomorphism,
    verify_algebra,
    verify_metric,
    verify_morphism,
)
from nambu.errors import CocycleNotClosed
from nambu.linalg import Matrix, Subspace, nullspace, solve_affine
from nambu.tstar import coadjoint_rep, tstar_extend, theta_spaces

import checks

# The dense basis of the two heavy dense requests is fixed rather than seeded:
# the compatibility-path elimination on fil4 with a shear took 17.4-23.4 s at
# --m 1 over five seeded bases, on top of the machine's own drift. det = 1.
FIXED_DENSE_BASIS = [
    ["1", "-1", "1/2", "1"],
    ["2", "-1", "2", "0"],
    ["-2", "0", "-2", "3/2"],
    ["-2", "1", "-1", "1/2"],
]
DENSE_POOL = (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2))
DIAGONAL_POOL = (-1, 1, 2)


@dataclass
class Request:
    label: str
    argv: list
    expect_code: int = 0
    expect_stderr: str = ""  # how the stderr of an expected refusal starts
    out: str | None = None  # file the request writes
    check: object = None  # callable(Result) -> list of problems
    key: tuple | None = None  # lookup key for the cross checks
    largest: bool = False


@dataclass
class Result:
    code: int
    stdout: str
    stderr: str
    out_text: str | None


@dataclass
class Suite:
    requests: list
    cross_checks: list = field(default_factory=list)  # callable(results) -> [(index, check, detail)]


# ---------------------------------------------------------------------------
# generic input builders


def fresh(path):
    """Remove path so that writing it creates a new file: ext4 flushes a file
    that is truncated and rewritten when it is closed, which costs a disk wait
    of up to a second."""
    if os.path.exists(path):
        os.unlink(path)
    return path


def _write(path, obj):
    with open(fresh(path), "w") as fh:
        fh.write(ff.to_json_str(obj))
    return path


def _q(x):
    return Fraction(x) if isinstance(x, int) else Fraction(str(x))


def _matrix(rows):
    return Matrix.from_rows([[_q(x) for x in row] for row in rows])


def _inverse(p: Matrix) -> Matrix:
    cols = []
    for k in range(p.rows):
        unit = [0] * p.rows
        unit[k] = 1
        sol, _ = solve_affine(p, unit)
        cols.append(sol)
    return Matrix.from_rows(cols).transpose()


def dense_basis(rng, parity) -> Matrix:
    """L * U with unit diagonals and seeded off-diagonal entries from
    DENSE_POOL inside each parity block: an even basis change with det 1."""
    d = len(parity)
    lower = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    upper = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for i in range(d):
        for j in range(d):
            if i != j and parity[i] == parity[j]:
                (lower if i > j else upper)[i][j] = Fraction(rng.choice(DENSE_POOL))
    return Matrix.from_rows(checks.matmul(lower, upper))


def scaling_basis(rng, parity) -> Matrix:
    """A seeded diagonal basis change, for algebras whose parity blocks are 1x1."""
    d = len(parity)
    diag = [Fraction(rng.choice(DENSE_POOL)) for _ in range(d)]
    return Matrix(d, d, [diag[i] if i == j else 0 for i in range(d) for j in range(d)])


def rebase(a: HomSuperAlgebra, p: Matrix, name) -> HomSuperAlgebra:
    """The algebra in the basis given by the columns of p, checked to be
    isomorphic to a through p."""
    p_inv = _inverse(p)
    cols = [p.col(j) for j in range(a.dim)]
    entries = {}
    for key in _canonical_tuples(a.space, a.arity):
        vec = p_inv.apply(a.bracket_eval([cols[i] for i in key]))
        if any(c != 0 for c in vec):
            entries[key] = vec
    b = HomSuperAlgebra(a.space, StructureTensor(a.arity, a.space, entries), p_inv * a.alpha * p, name=name)
    if not verify_morphism(p, b, a).ok:
        raise RuntimeError(f"basis change of {a.name} is not an isomorphism")
    return b


def diagonal_twists(a: HomSuperAlgebra):
    """Every non-identity diagonal self-morphism with entries in DIAGONAL_POOL."""
    found = []
    for diag in itertools.product(DIAGONAL_POOL, repeat=a.dim):
        if all(x == 1 for x in diag):
            continue
        rho = Matrix(a.dim, a.dim, [diag[i] if i == j else 0 for i in range(a.dim) for j in range(a.dim)])
        if verify_morphism(rho, a, a).ok:
            found.append(rho)
    return found


def nondiagonal_twists(a: HomSuperAlgebra, positions=None):
    """Self-morphisms id + t E_ij (shears, t = +-1) and transpositions of
    e_i and e_j, for i != j of equal parity."""
    found = []
    d = a.dim
    for i, j in positions or itertools.permutations(range(d), 2):
        if a.parity[i] != a.parity[j]:
            continue
        candidates = []
        for t in (1, -1):
            data = [int(r == c) for r in range(d) for c in range(d)]
            data[i * d + j] = t
            candidates.append(data)
        if i < j:
            data = [int(r == c) for r in range(d) for c in range(d)]
            data[i * d + i] = data[j * d + j] = 0
            data[i * d + j] = data[j * d + i] = 1
            candidates.append(data)
        for data in candidates:
            rho = Matrix(d, d, data)
            if verify_morphism(rho, a, a).ok:
                found.append(rho)
    return found


def pick_twist(rng, base, candidates, accept, name):
    """The first candidate in a seeded order whose twist passes accept."""
    order = list(range(len(candidates)))
    rng.shuffle(order)
    for k in order:
        tw = twist_by_endomorphism(base, candidates[k])
        if accept(tw):
            tw.name = name
            return tw
    raise RuntimeError(f"no admissible twist of {base.name}")


def _has_coadjoint(a):
    return coadjoint_rep(a).exists


def _invertible_diagonal(m: Matrix):
    return all(m[i, i] != 0 for i in range(m.rows))


def _check_algebra(a):
    if not verify_algebra(a).ok:
        raise RuntimeError(f"generated input {a.name} fails verify_algebra")


def _diag(m: Matrix):
    return [m[i, i] for i in range(m.rows)] if m.is_diagonal() else None


# ---------------------------------------------------------------------------
# cohomology requests and their checks


def _parse_dims(stdout):
    # "C=16 Z=12 B=0 (no δ^{-1}) H=12"
    fields = {}
    for token in stdout.replace("(no δ^{-1})", "").split():
        k, _, v = token.partition("=")
        fields[k] = int(v)
    return tuple(fields[k] for k in "CZBH")


class CohomologyPlan:
    """Cohomology requests over a set of algebras plus the cross checks:
    H = Z - B with 0 <= B <= Z <= C, rank-nullity across degrees, even +
    odd = both, Der(g) at m = 0, the abelian closed form, and equality of
    each dense-basis request with its catalog-basis form."""

    def __init__(self, outdir):
        self.outdir = outdir
        self.requests = []
        self.info = {}  # algebra key -> dict(path, alg, catalog)

    def add_algebra(self, key, a, catalog=None):
        """catalog: key of the catalog-basis form of this algebra, if dense."""
        _check_algebra(a)
        path = _write(os.path.join(self.outdir, f"{key}.json"), ff.algebra_to_json(a))
        self.info[key] = {"path": path, "alg": a, "catalog": catalog}

    def ask(self, key, rep, ms, parities=("both",), largest_m=None):
        for m in ms:
            for parity in parities:
                argv = ["cohomology", self.info[key]["path"], "--m", str(m), "--rep", rep]
                if parity != "both":
                    argv += ["--parity", parity]
                self.requests.append(
                    Request(
                        label=f"cohomology {key} --rep {rep} --parity {parity} --m {m}",
                        argv=argv,
                        check=_check_dims,
                        key=(key, rep, parity, m),
                        largest=(m == largest_m and parity == "both"),
                    )
                )

    def suite(self):
        return Suite(self.requests, [self._cross])

    def _cross(self, results):
        dims = {}
        where = {}
        for i, (req, res) in enumerate(zip(self.requests, results)):
            try:
                dims[req.key] = _parse_dims(res.stdout)
                where[req.key] = i
            except (KeyError, ValueError):
                continue
        problems = []
        for (key, rep, parity, m), (c, z, b, h) in dims.items():
            i = where[(key, rep, parity, m)]
            nxt = dims.get((key, rep, parity, m + 1))
            if nxt is not None and c - z != nxt[2]:
                problems.append((where[(key, rep, parity, m + 1)], "rank-nullity",
                                 f"C^{m} - Z^{m} = {c - z} but B^{m + 1} = {nxt[2]}"))
            if parity == "both":
                ev, od = dims.get((key, rep, "even", m)), dims.get((key, rep, "odd", m))
                if ev is not None and od is not None:
                    summed = tuple(x + y for x, y in zip(ev, od))
                    if summed != (c, z, b, h):
                        problems.append((i, "parity-sum", f"even + odd = {summed}, both = {(c, z, b, h)}"))
            info = self.info[key]
            a = info["alg"]
            if m == 0 and rep == "adjoint" and parity == "both" and a.alpha.is_identity() and not any(a.parity):
                want = checks.derivation_dim(checks.algebra_from_json(ff.algebra_to_json(a)))
                if z != want:
                    problems.append((i, "Z0-is-Der", f"Z^0 = {z}, dim Der(g) = {want}"))
            if a.is_abelian() and _diag(a.alpha) is not None:
                lam = _diag(a.alpha)
                want = checks.abelian_cochain_dims(a.parity, a.arity, m, lam, lam, a.parity)[parity]
                if (c, z, b, h) != want:
                    problems.append((i, "abelian-closed-form", f"got {(c, z, b, h)}, closed form {want}"))
            if info["catalog"] is not None:
                ref = dims.get((info["catalog"], rep, parity, m))
                if ref is not None and ref != (c, z, b, h):
                    problems.append((i, "basis-invariance",
                                     f"dense basis gives {(c, z, b, h)}, catalog basis {ref}"))
        return problems


def _check_dims(res: Result):
    try:
        c, z, b, h = _parse_dims(res.stdout)
    except (KeyError, ValueError):
        return [f"unparsable cohomology output {res.stdout!r}"]
    problems = []
    if h != z - b:
        problems.append(f"H = {h} but Z - B = {z - b}")
    if not 0 <= b <= z <= c:
        problems.append(f"not 0 <= B <= Z <= C: C={c} Z={z} B={b}")
    return problems


# ---------------------------------------------------------------------------
# workload: cohom_sparse


def build_cohom_sparse(rng: random.Random, outdir) -> Suite:
    plan = CohomologyPlan(outdir)
    catalog = {
        "N4": samples.n4(),
        "fil4": samples.filiform4(),
        "SH12": samples.sh12(),
        "H3": samples.h3(),
        "oddsq": samples.odd_square(),
        "ab12n3": samples.abelian(1, 2, n=3),
    }
    for key, a in catalog.items():
        plan.add_algebra(key, a)
    for key in ("H3", "SH12", "oddsq", "fil4", "ab12n3"):
        base = catalog[key]
        tw = pick_twist(rng, base, diagonal_twists(base), _has_coadjoint, f"{key}~diag")
        plan.add_algebra(f"{key}~diag", tw)

    plan.ask("N4", "adjoint", (0, 1, 2), largest_m=2)
    plan.ask("N4", "coadjoint", (0, 1))
    plan.ask("fil4", "adjoint", (0, 1, 2))
    plan.ask("fil4", "coadjoint", (0, 1))
    for key in ("H3", "H3~diag", "oddsq~diag"):
        plan.ask(key, "adjoint", (0, 1, 2))
        plan.ask(key, "coadjoint", (0, 1, 2))
    for key in ("SH12", "oddsq"):
        plan.ask(key, "adjoint", (0, 1, 2), parities=("both", "even", "odd"))
        plan.ask(key, "coadjoint", (0, 1, 2))
    plan.ask("SH12~diag", "adjoint", (0, 1, 2), parities=("both", "even", "odd"))
    plan.ask("SH12~diag", "coadjoint", (0, 1))
    plan.ask("ab12n3", "adjoint", (0, 1, 2), parities=("both", "even", "odd"))
    plan.ask("ab12n3", "coadjoint", (0, 1))
    plan.ask("ab12n3~diag", "adjoint", (0, 1), parities=("both", "even", "odd"))
    plan.ask("fil4~diag", "adjoint", (0, 1))
    plan.ask("fil4~diag", "coadjoint", (0, 1))
    return plan.suite()


# ---------------------------------------------------------------------------
# workload: cohom_dense


def build_cohom_dense(rng: random.Random, outdir) -> Suite:
    plan = CohomologyPlan(outdir)
    fixed = _matrix(FIXED_DENSE_BASIS)

    fil4 = samples.filiform4()
    # e1 -> e1 + e2 (column 1 gains e2): the named shear of the largest request
    fil4_sh = twist_by_endomorphism(fil4, nondiagonal_twists(fil4, [(1, 0)])[0])
    plan.add_algebra("fil4~sh", fil4_sh)
    plan.add_algebra("fil4~sh@dense", rebase(fil4_sh, fixed, "fil4~sh@dense"), catalog="fil4~sh")

    n4 = samples.n4()
    plan.add_algebra("N4", n4)
    plan.add_algebra("N4@dense", rebase(n4, fixed, "N4@dense"), catalog="N4")
    n4_sh = pick_twist(rng, n4, nondiagonal_twists(n4, [(1, 0)]), lambda tw: True, "N4~sh")
    plan.add_algebra("N4~sh", n4_sh)

    h3 = samples.h3()
    h3_sh = pick_twist(rng, h3, nondiagonal_twists(h3), _has_coadjoint, "H3~sh")
    plan.add_algebra("H3", h3)
    plan.add_algebra("H3@dense", rebase(h3, dense_basis(rng, h3.parity), "H3@dense"), catalog="H3")
    plan.add_algebra("H3~sh", h3_sh)
    plan.add_algebra("H3~sh@dense", rebase(h3_sh, dense_basis(rng, h3.parity), "H3~sh@dense"), catalog="H3~sh")

    sh12 = samples.sh12()
    sh12_sh = pick_twist(rng, sh12, nondiagonal_twists(sh12), _has_coadjoint, "SH12~sh")
    plan.add_algebra("SH12", sh12)
    plan.add_algebra("SH12@dense", rebase(sh12, dense_basis(rng, sh12.parity), "SH12@dense"), catalog="SH12")
    plan.add_algebra("SH12~sh", sh12_sh)
    plan.add_algebra("SH12~sh@dense", rebase(sh12_sh, dense_basis(rng, sh12.parity), "SH12~sh@dense"),
                     catalog="SH12~sh")

    oddsq = samples.odd_square()
    plan.add_algebra("oddsq", oddsq)
    plan.add_algebra("oddsq@dense", rebase(oddsq, scaling_basis(rng, oddsq.parity), "oddsq@dense"), catalog="oddsq")

    ab = samples.abelian(1, 2, n=3)
    plan.add_algebra("ab12n3", ab)
    plan.add_algebra("ab12n3@dense", rebase(ab, dense_basis(rng, ab.parity), "ab12n3@dense"), catalog="ab12n3")

    plan.ask("fil4~sh", "adjoint", (0, 1))
    plan.ask("fil4~sh@dense", "adjoint", (0, 1), largest_m=1)
    for key in ("N4", "N4@dense"):
        plan.ask(key, "adjoint", (0, 1))
    plan.ask("N4~sh", "adjoint", (0, 1))
    for key in ("H3", "H3@dense", "H3~sh", "H3~sh@dense"):
        plan.ask(key, "adjoint", (0, 1))
        plan.ask(key, "coadjoint", (0, 1))
    for key in ("SH12", "SH12@dense", "SH12~sh", "SH12~sh@dense"):
        plan.ask(key, "adjoint", (0, 1), parities=("both", "even", "odd"))
        plan.ask(key, "coadjoint", (0, 1))
    for key in ("oddsq", "oddsq@dense"):
        plan.ask(key, "adjoint", (0, 1, 2), parities=("both", "even", "odd"))
    for key in ("ab12n3", "ab12n3@dense"):
        plan.ask(key, "adjoint", (0, 1), parities=("both", "even", "odd"))
    return plan.suite()


# ---------------------------------------------------------------------------
# workload: ext_tstar


def _module_json(space, nu: Matrix, rho=None, wedge=None):
    obj = {"dim": space.dim, "parity": list(space.parity), "nu": ff.matrix_to_json(nu), "rho": []}
    if rho is not None:
        for w, t in enumerate(wedge.elements):
            if not rho[w].is_zero():
                obj["rho"].append({"wedge": [i + 1 for i in t], "matrix": ff.matrix_to_json(rho[w])})
    return obj


def _cocycle_spaces(b, module):
    """(even alternating compatible 1-cochains, the closed ones) as Subspaces."""
    model = CochainModel(b, module, 1)
    space = cochain_basis(b, module, 1, "even").to_subspace().intersect(alternating_subspace(b, module))
    if space.dim == 0:
        return model, space, space
    cols = [coboundary(b, module, Cochain(model, 0, list(v)), check=False).coeffs for v in space.basis_vectors()]
    combos = nullspace(Matrix.from_rows(cols).transpose())
    vectors = []
    for sol in combos.basis_vectors():
        vec = [0] * model.raw_dim
        for c, row in zip(sol, space.basis_vectors()):
            if c != 0:
                vec = [x + c * y for x, y in zip(vec, row)]
        vectors.append(vec)
    return model, space, Subspace.from_vectors(model.raw_dim, vectors)


def _combination(rng, subspace):
    """A seeded integer combination of the basis, never zero."""
    rows = subspace.basis_vectors()
    coeffs = [rng.choice((-2, -1, 1, 2)) for _ in rows]
    vec = [0] * subspace.ambient_dim
    for c, row in zip(coeffs, rows):
        vec = [x + c * y for x, y in zip(vec, row)]
    if all(x == 0 for x in vec):  # impossible for independent rows
        raise RuntimeError("zero combination")
    return vec


def _modules(b):
    """Candidate modules: trivial even line, trivial odd line, adjoint."""
    w = len(_wedge(b))
    out = []
    for parity in ((0,), (1,)):
        fiber = GradedSpace(1, parity)
        out.append((fiber, Representation(fiber, [Matrix.zeros(1, 1)] * w, Matrix.identity(1)), False))
    ad = adjoint_rep(b)
    out.append((b.space, ad, True))
    return out


def _datum(b, fiber, module, is_adjoint, cocycle):
    return {
        "base": ff.algebra_to_json(b),
        "fiber": {"dim": fiber.dim, "parity": list(fiber.parity), "alpha": ff.matrix_to_json(module.nu)},
        "module": _module_json(fiber, module.nu, module.rho if is_adjoint else None, _wedge(b)),
        "cocycle": ff.cochain_to_json(cocycle),
    }


def build_ext_tstar(rng: random.Random, outdir) -> Suite:
    requests = []
    cross = []
    h3, fil4 = samples.h3(), samples.filiform4()

    def surjective_with_coadjoint(tw):
        return _invertible_diagonal(tw.alpha) and coadjoint_rep(tw).exists

    bases = [
        ("H3", h3, True),
        ("SH12", samples.sh12(), True),
        ("fil4", fil4, True),
        ("N4", samples.n4(), True),
        ("H3~diag", pick_twist(rng, h3, diagonal_twists(h3), surjective_with_coadjoint, "H3~diag"), False),
        ("fil4~diag", pick_twist(rng, fil4, diagonal_twists(fil4), surjective_with_coadjoint, "fil4~diag"), False),
    ]
    path = lambda name: os.path.join(outdir, name)  # noqa: E731

    for key, g, catalog in bases:
        _check_algebra(g)
        if not coadjoint_rep(g).exists:
            raise RuntimeError(f"{key} has no coadjoint representation")
        g_path = _write(path(f"{key}.json"), ff.algebra_to_json(g))

        # extension data: a closed cocycle on the first module that has one,
        # and (catalog bases) a non-closed one on the first module that has one
        closed_done = open_done = False
        for fiber, module, is_adjoint in _modules(g):
            model, space, closed = _cocycle_spaces(g, module)
            if not closed_done and closed.dim > 0:
                f = Cochain(model, 0, _combination(rng, closed))
                datum = _write(path(f"{key}.datum.json"), _datum(g, fiber, module, is_adjoint, f))
                out = path(f"{key}.ext.json")
                requests.append(Request(f"extend {key} closed cocycle", ["extend", datum, "--out", out], out=out,
                                        check=_extension_check(fiber.dim + g.dim)))
                closed_done = True
            if catalog and not open_done and space.dim > closed.dim:
                outside = [v for v in space.basis_vectors() if not closed.contains_vector(v)]
                f = Cochain(model, 0, list(rng.choice(outside)))
                datum = _write(path(f"{key}.open.json"), _datum(g, fiber, module, is_adjoint, f))
                requests.append(Request(f"extend {key} non-closed cocycle", ["extend", datum],
                                        expect_code=CocycleNotClosed.exit_code,
                                        expect_stderr="error: delta^1 of the cocycle is nonzero\n"))
                open_done = True
        if not closed_done or (catalog and not open_done):
            raise RuntimeError(f"no extension cocycles for {key}")

        sp = theta_spaces(g)
        thetas = [("0", None)]
        if sp["closed_cyclic"].dim > 0:
            theta = Cochain(sp["model"], 0, _combination(rng, sp["closed_cyclic"]))
            th_path = _write(path(f"{key}.theta.json"), {"theta": ff.cochain_to_json(theta)})
            thetas.append(("theta", th_path))
        for tag, th_path in thetas:
            t_out = path(f"{key}.T{tag}.json")
            argv = ["tstar", g_path, "--out", t_out] + (["--theta", th_path] if th_path else [])
            requests.append(Request(f"tstar {key} theta={tag}", argv, out=t_out, check=_tstar_check(g)))
            requests.append(Request(f"verify --metric T*_{tag}({key})", ["verify", t_out, "--metric"],
                                    check=_stdout_has("result: PASS")))
            series_idx = len(requests)
            requests.append(Request(f"series T*_{tag}({key})", ["series", t_out], check=_series_check))
            d_out = path(f"{key}.D{tag}.json")
            requests.append(Request(f"decompose T*_{tag}({key})", ["decompose", t_out, "--out", d_out], out=d_out,
                                    check=_decompose_check(t_out), largest=(key == "N4" and tag == "theta")))
            cross.append(_series_matches_decompose(series_idx, len(requests) - 1))
        if len(thetas) > 1:
            eq_out = path(f"{key}.equiv.json")
            requests.append(Request(f"equiv {key} theta theta", ["equiv", g_path, thetas[1][1], thetas[1][1],
                                                                  "--out", eq_out], out=eq_out,
                                    check=_equiv_check("isometrically_equivalent")))

    # an odd-dimensional nilpotent metric algebra: T*(H3) (+) K c, <c, c> = -s^2,
    # so that decompose runs its adjoin-line stage
    t_h3 = tstar_extend(h3)
    line = HomSuperAlgebra(GradedSpace(1, (0,)), StructureTensor(2, GradedSpace(1, (0,)), {}), Matrix.identity(1),
                           name="line")
    odd = direct_sum(t_h3.algebra, line)
    odd.name = "T*(H3)+line"
    s = rng.choice((1, 2, 3))
    gram = [list(t_h3.form.gram.row(i)) + [0] for i in range(t_h3.algebra.dim)]
    gram.append([0] * t_h3.algebra.dim + [-s * s])
    gram_m = Matrix.from_rows(gram)
    if not verify_metric(odd, BilinearForm(gram_m)).ok:
        raise RuntimeError("odd-dimensional input is not metric")
    odd_path = _write(path("odd.json"), ff.algebra_to_json(odd, form=gram_m))
    d_out = path("odd.D.json")
    requests.append(Request("decompose T*(H3)+line", ["decompose", odd_path, "--out", d_out], out=d_out,
                            check=_decompose_check(odd_path)))

    # a T*-algebra with one structure constant scaled: verify must FAIL with a witness
    sp = theta_spaces(h3)
    t_th = tstar_extend(h3, Cochain(sp["model"], 0, _combination(rng, sp["closed_cyclic"])))
    obj = ff.algebra_to_json(t_th.algebra, form=t_th.form.gram)
    item = rng.choice(obj["bracket"])
    k = rng.choice(sorted(item["value"]))
    item["value"][k] = ff.format_scalar(2 * _q(item["value"][k]))
    bad_path = _write(path("perturbed.json"), obj)
    requests.append(Request("verify --metric perturbed T*(H3)", ["verify", bad_path, "--metric"], expect_code=1,
                            check=_verify_fails_with_witness))
    return Suite(requests, cross)


# ---------------------------------------------------------------------------
# ext_tstar checks


def _load_out(res: Result):
    return json.loads(res.out_text)


def _stdout_has(line):
    def check(res: Result):
        return [] if line in res.stdout.splitlines() else [f"stdout lacks {line!r}: {res.stdout.strip()!r}"]

    return check


def _extension_check(dim):
    def check(res: Result):
        obj = _load_out(res)
        problems = []
        if obj["dim"] != dim:
            problems.append(f"extension has dim {obj['dim']}, want dim a + dim b = {dim}")
        report = verify_algebra(ff.load(obj).algebra)
        if not report.ok:
            problems.append(f"extension fails verify: {[c.name for c in report.failed_checks()]}")
        return problems

    return check


def _tstar_check(g):
    d = g.dim
    parity = tuple(g.parity)

    def check(res: Result):
        problems = []
        if "metric: PASS" not in res.stdout.splitlines():
            problems.append(f"stdout lacks 'metric: PASS': {res.stdout.strip()[-80:]!r}")
        alg = checks.algebra_from_json(_load_out(res))
        if alg.dim != 2 * d:
            return problems + [f"T* has dim {alg.dim}, want 2 * {d}"]
        want = checks.tstar_gram(parity)
        if alg.form != want:
            problems.append(f"gram {alg.form} differs from the closed-form pairing {want}")
            return problems
        if checks.rref_rank(alg.form, 2 * d) != 2 * d:
            problems.append("gram is degenerate")
        if any(alg.form[i][j] != 0 for i in range(d, 2 * d) for j in range(d, 2 * d)):
            problems.append("g* is not isotropic")
        bad = checks.invariance_violation(alg, alg.form)
        if bad is not None:
            problems.append(f"form is not invariant at {bad}")
        return problems

    return check


def _series_lengths(stdout):
    # "nilpotent k=3, solvable k=2"
    parts = dict(p.strip().split(" k=") for p in stdout.strip().split(","))
    return parts["nilpotent"], parts["solvable"]


def _series_check(res: Result):
    try:
        nil, sol = _series_lengths(res.stdout)
    except (KeyError, ValueError):
        return [f"unparsable series output {res.stdout!r}"]
    if nil == "inf":
        return ["T*-extension of a nilpotent algebra reported not nilpotent"]
    if sol != "inf" and int(sol) > int(nil):
        return [f"solvable length {sol} exceeds nilpotent length {nil}"]
    return []


def _series_matches_decompose(series_idx, decompose_idx):
    def cross(results):
        try:
            nil, _ = _series_lengths(results[series_idx].stdout)
            k0 = json.loads(results[decompose_idx].out_text)["checks"]["nilpotent_length"]
        except (KeyError, ValueError, TypeError):
            return []  # the requests' own checks report unparsable output
        if int(nil) != k0:
            return [(series_idx, "series-vs-decompose", f"series says {nil}, decompose says {k0}")]
        return []

    return cross


def _decompose_check(input_path):
    def check(res: Result):
        with open(input_path) as fh:
            source = checks.algebra_from_json(json.load(fh))
        payload = _load_out(res)
        problems = []
        g1 = checks.algebra_from_json(payload["g1"])
        phi = [[checks.parse_q(x) for x in row] for row in payload["phi"]]
        adjoined = payload["adjoined_line"]
        if adjoined != (source.dim % 2 == 1):
            problems.append(f"adjoined_line = {adjoined} for an input of dim {source.dim}")
        gram_in = checks.block_diag(source.form, 1) if adjoined else source.form
        why = checks.isometry_problem(phi, checks.tstar_gram(g1.parity), gram_in)
        if why is not None:
            problems.append(f"phi is not an isometry onto T*(g1): {why}")
        k0 = payload["checks"]["nilpotent_length"]
        k1 = payload["checks"]["quotient_length"]
        if k1 is None or k1 > -(-k0 // 2):
            problems.append(f"quotient_length {k1} > ceil(nilpotent_length {k0} / 2)")
        return problems

    return check


def _equiv_check(kind):
    def check(res: Result):
        got = _load_out(res)["kind"]
        return [] if got == kind else [f"equiv answered {got!r}, want {kind!r}"]

    return check


def _verify_fails_with_witness(res: Result):
    lines = res.stdout.splitlines()
    if "result: FAIL" not in lines:
        return [f"verify did not answer FAIL: {res.stdout.strip()!r}"]
    if not any(": FAIL  witness=" in line for line in lines):
        return ["verify answered FAIL without a witness"]
    return []


BUILDERS = {
    "cohom_sparse": build_cohom_sparse,
    "cohom_dense": build_cohom_dense,
    "ext_tstar": build_ext_tstar,
}
