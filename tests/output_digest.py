"""One digest per benchmark request, so that two checkouts can be compared
byte for byte with `diff`.

Run from the root of a checkout:

    python3 tests/output_digest.py --seeds 1 2 > digest.txt

For every workload of perfbench at each seed, this generates the workload's
inputs into a scratch directory and prints a digest of each generated file;
then it answers every request once, in-process as perfbench does, and prints
a digest of its exit code, stdout, stderr and written file.  Each cohomology
request is answered a second time with `--dump`, and the dump gets a digest
of its own.  The scratch directory's path is replaced by `<out>` before
hashing, so digests do not depend on where it lies.  Stdlib only; perfbench
is imported, never changed.

No benchmark request prints a representation report, so the digest goes on
with one line per `to_dict()` of `verify_representation` (ad, ad* and a
seeded random rho) and of `verify_prop_2_2`, on the catalog,
`samples.no_coadjoint()` and the raw tensors of seeds 0-99, and one line
for `cohomology --rep coadjoint` on `no_coadjoint`, which exits 2 with the
witness on stderr.

No benchmark request prints a failing fundamental identity, invariance or
multiplicativity witness beyond one perturbed T*(H3), so the digest goes on
with one line per `to_dict()` of `verify_algebra` and of `verify_metric`
(with a seeded supersymmetric form) on the raw tensors of seeds 0-99, and
per T*-extension that ext_tstar writes at each seed, with each nonzero
structure constant doubled in turn.

No benchmark request applies the extension maps, so the digest has one
line per `find_section`, `extract_cocycle` (on the section found) and
`verify_exact_sequence` (0 -> a -> g -> b -> 0) on the extension g built
from each closed datum file of ext_tstar at each seed, and from the split
extension of each catalog algebra by its adjoint module; and one line per
`twist_by_endomorphism` of a catalog algebra by seeded random twists and
by one shear that need not be a morphism.  A refusal is digested as its
error type and message.

No workload decomposes a T*-extension deep enough to need many levels of
the maximal isotropic enlargement, or one with an odd part, so the digest
goes on with `tstar` and `decompose` of T*(N4 (+) K^2), T*(N4 (+) K^4) and
T*(SH(1|2) (+) K^{1|1}).

No benchmark request is refused for its theta or for an alternation of
its cocycle, so the digest goes on with `tstar` on H3, SH(1|2) and N4
given a theta that is not super-alternating, one that is alternating and
cyclic but not closed, and one that is closed but not cyclic (where such a
theta exists), and with `extend` of each by its adjoint module given a
cocycle that is not super-alternating; each exits with its error code and
message.

No workload asks for the cohomology of an algebra whose odd slots pass
odd vectors in every term of delta, or of one that breaks a law, so the
digest goes on with `cohomology` of the 3-ary algebras A ([f1, f1, e1] =
z), B ([f1, f2, e1] = z) and AB (both) on (e1, f1, f2, z), under ad and
ad*, at m = 0-2 and each parity, each also with `--dump`; and with
`cohomology --m 1` of an even 3-ary algebra that breaks the fundamental
identity, refused with its exit code and message.

It ends with the parser's own output, at a fixed terminal width (COLUMNS):
`nambu --help`, each subcommand's `--help`, no subcommand, an unknown
subcommand and `cohomology` without its required `--m`, each with its exit
code, stdout and stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import os
import pathlib
import random
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(PERFBENCH))  # run.py imports workloads and checks by name

import workloads  # noqa: E402
from nambu import cli, samples  # noqa: E402
from nambu import fileformat as ff  # noqa: E402
from nambu.core import (  # noqa: E402
    BilinearForm,
    GradedSpace,
    HomSuperAlgebra,
    StructureTensor,
    direct_sum,
    twist_by_endomorphism,
    verify_algebra,
    verify_metric,
)
from nambu.cohomology import (  # noqa: E402
    Cochain,
    CochainModel,
    adjoint_rep,
    alternating_subspace,
    satisfies_compat,
    verify_prop_2_2,
    verify_representation,
)
from nambu.errors import AlgebraError  # noqa: E402
from nambu.extensions import (  # noqa: E402
    ExtensionDatum,
    build_extension,
    canonical_injection,
    canonical_projection,
    extract_cocycle,
    find_section,
    parse_datum_file,
    verify_exact_sequence,
)
from nambu.linalg import Matrix, Subspace  # noqa: E402
from nambu.tstar import coadjoint_rep, theta_spaces  # noqa: E402
from seeded_inputs import random_form, random_representation, raw_algebra  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def digest(outdir, *parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        text = "<none>" if part is None else str(part).replace(outdir, "<out>")
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()[:20]


def answer(req, outdir):
    _, res, crash = run.run_request(cli, req)
    if crash is not None:
        return "crash", digest(outdir, crash.strip().splitlines()[-1])
    return res.code, digest(outdir, res.code, res.stdout, res.stderr, res.out_text)


def digest_workload(name, seed, outdir, emit):
    """Emit the digest lines of one workload at one seed; returns the number
    of requests that crashed."""
    suite = workloads.BUILDERS[name](random.Random(seed), outdir)
    for path in sorted(pathlib.Path(outdir).iterdir()):
        emit(f"{name} seed={seed} input {path.name} {digest(outdir, path.read_text())}")
    crashes = 0
    for i, req in enumerate(suite.requests):
        code, value = answer(req, outdir)
        crashes += code == "crash"
        emit(f"{name} seed={seed} {i:03d} exit={code} {value} {req.label}")
        if req.argv[0] == "cohomology":
            dump = os.path.join(outdir, "dump.json")
            dumped = workloads.Request(req.label, list(req.argv) + ["--dump", dump], out=dump)
            code, value = answer(dumped, outdir)
            crashes += code == "crash"
            emit(f"{name} seed={seed} {i:03d} dump exit={code} {value} {req.label}")
    return crashes


def refused(fn, *args):
    """fn(*args), or the error type and message of a refusal."""
    try:
        return fn(*args)
    except AlgebraError as exc:
        return f"{type(exc).__name__}: {exc}"


def digest_extension(label, datum, outdir, emit):
    """Emit the digest lines of find_section, extract_cocycle on the section
    found and verify_exact_sequence on the extension built from datum."""
    b, da = datum.base, datum.fiber.dim
    g = build_extension(datum)
    fiber = Subspace.from_sparse(g.dim, [{i: 1} for i in range(da)])
    pi = canonical_projection(da, b.dim)
    section = refused(find_section, g, fiber, b, pi)
    if isinstance(section, str):
        found = extracted = section
    else:
        found = section.tau
        extracted = refused(extract_cocycle, g, fiber, b, pi, section)
        if not isinstance(extracted, str):
            cocycle, module = extracted
            extracted = ([ff.format_scalar(c) for c in cocycle.coeffs], module.target, module.rho, module.nu)
    fiber_algebra = HomSuperAlgebra(datum.fiber, StructureTensor(b.arity, datum.fiber, {}), datum.fiber_twist)
    report = verify_exact_sequence([fiber_algebra, g, b], [canonical_injection(da, b.dim), pi])
    for name, value in (("find_section", found), ("extract_cocycle", extracted), ("exact", report.to_dict())):
        emit(f"extension {label} {name} {digest(outdir, value)}")


def digest_raw_axioms(outdir, emit):
    """Emit the digest lines of verify_algebra and verify_metric on the raw
    tensors of seeds 0-99, each with a seeded form."""
    for seed in range(100):
        rng = random.Random(seed)
        a = raw_algebra(rng)
        emit(f"axioms raw{seed} algebra {digest(outdir, verify_algebra(a).to_dict())}")
        emit(f"axioms raw{seed} metric {digest(outdir, verify_metric(a, random_form(a, rng)).to_dict())}")


def digest_doubled(label, path, outdir, emit):
    """Emit the digest lines of verify_algebra and verify_metric on the
    T*-extension at path with each nonzero structure constant doubled in
    turn."""
    loaded = ff.load(path)
    a, form = loaded.algebra, BilinearForm(loaded.form)
    for key, vec in sorted(a.bracket.items()):
        for k, c in enumerate(vec):
            if c == 0:
                continue
            entries = {t: list(v) for t, v in a.bracket.items()}
            entries[key][k] = 2 * c
            b = HomSuperAlgebra(a.space, StructureTensor(a.arity, a.space, entries), a.alpha)
            tag = f"{label} {[i + 1 for i in key]} e{k + 1}"
            emit(f"doubled {tag} algebra {digest(outdir, verify_algebra(b).to_dict())}")
            emit(f"doubled {tag} metric {digest(outdir, verify_metric(b, form).to_dict())}")


def digest_catalog_maps(outdir, emit):
    """Emit the digest lines of the extension maps on the split extension of
    each catalog algebra by its adjoint module, and of twist_by_endomorphism
    of each by seeded random twists and one shear."""
    for i, a in enumerate(samples.catalog()):
        ad = adjoint_rep(a)
        zero = Cochain.zero(CochainModel(a, ad, 1), 0)
        digest_extension(f"catalog{i}:{a.name} adjoint", ExtensionDatum(a, a.space, a.alpha, ad, zero), outdir, emit)
        d = a.dim
        twists = [samples.random_twist(a, random.Random(seed)) or Matrix.identity(d) for seed in range(4)]
        # the identity plus e_1 -> e_1 + e_d, a morphism or not
        twists.append(Matrix(d, d, [1 if r == c or (r, c) == (0, d - 1) else 0 for r in range(d) for c in range(d)]))
        for k, rho in enumerate(twists):
            twisted = refused(twist_by_endomorphism, a, rho)
            text = twisted if isinstance(twisted, str) else ff.to_json_str(ff.algebra_to_json(twisted))
            emit(f"twist catalog{i}:{a.name} {k} {digest(outdir, rho, text)}")


def digest_representations(outdir, emit):
    """Emit the digest lines of the representation reports and of the
    coadjoint refusal; returns the number of requests that crashed."""
    algebras = [(f"catalog{i}:{a.name}", a) for i, a in enumerate(samples.catalog())]
    algebras.append(("no_coadjoint", samples.no_coadjoint()))
    algebras += [(f"raw{seed}", raw_algebra(random.Random(seed))) for seed in range(100)]
    for k, (label, a) in enumerate(algebras):
        reps = [
            ("ad", adjoint_rep(a)),
            ("ad*", coadjoint_rep(a).rep),
            ("random", random_representation(a, random.Random(k))),
        ]
        for name, r in reps:
            emit(f"representation {label} {name} {digest(outdir, verify_representation(r, a).to_dict())}")
        emit(f"prop-2.2 {label} {digest(outdir, verify_prop_2_2(a).to_dict())}")
    path = os.path.join(outdir, "no_coadjoint.json")
    with open(path, "w") as fh:
        fh.write(ff.to_json_str(ff.algebra_to_json(samples.no_coadjoint())))
    req = workloads.Request("no_coadjoint --rep coadjoint", ["cohomology", path, "--m", "1", "--rep", "coadjoint"])
    code, value = answer(req, outdir)
    emit(f"cohomology exit={code} {value} {req.label}")
    return code == "crash"


def digest_decompositions(outdir, emit):
    """Emit the digest lines of tstar and decompose on three direct sums;
    returns the number of requests that crashed."""
    bases = [
        direct_sum(samples.n4(), samples.abelian(2, n=3)),
        direct_sum(samples.n4(), samples.abelian(4, n=3)),
        direct_sum(samples.sh12(), samples.abelian(1, 1)),
    ]
    crashes = 0
    for k, g in enumerate(bases):
        g_path, t_path, d_path = (os.path.join(outdir, f"{stem}{k}.json") for stem in ("g", "t", "d"))
        with open(g_path, "w") as fh:
            fh.write(ff.to_json_str(ff.algebra_to_json(g)))
        for req in (
            workloads.Request(f"tstar {g.name}", ["tstar", g_path, "--out", t_path], out=t_path),
            workloads.Request(f"decompose T*({g.name})", ["decompose", t_path, "--out", d_path], out=d_path),
        ):
            code, value = answer(req, outdir)
            crashes += code == "crash"
            emit(f"decomposition exit={code} {value} {req.label}")
    return crashes


def _first_unit(model, keep):
    """The unit even 1-cochain at the first coordinate where keep holds."""
    for k in range(model.raw_dim):
        if model.parities[k] == 0:
            coeffs = [0] * model.raw_dim
            coeffs[k] = 1
            f = Cochain(model, 0, coeffs)
            if keep(f):
                return f
    raise RuntimeError("no such unit cochain")


def _first_outside(model, space, other):
    """The first basis cochain of space that is not in other."""
    return Cochain(model, 0, next(v for v in space.basis_vectors() if not other.contains_vector(v)))


def digest_rejections(outdir, emit):
    """Emit the digest lines of tstar with a theta that is not alternating,
    not closed or not cyclic, and of extend with a cocycle that is not
    alternating, each refused with its exit code and message; returns the
    number of requests that crashed."""
    crashes = 0
    for g in (samples.h3(), samples.sh12(), samples.n4()):
        g_path = os.path.join(outdir, f"{g.name}.json")
        with open(g_path, "w") as fh:
            fh.write(ff.to_json_str(ff.algebra_to_json(g)))
        sp = theta_spaces(g)
        model, rep = sp["model"], sp["rep"]
        alt = alternating_subspace(g, rep)
        thetas = [("non-alternating", _first_unit(
            model, lambda f: satisfies_compat(g, rep, f) and not alt.contains_vector(f.coeffs)))]
        if sp["cyclic"].dim > sp["closed_cyclic"].dim:
            thetas.append(("non-closed", _first_outside(model, sp["cyclic"], sp["closed"])))
        if sp["closed"].dim > sp["closed_cyclic"].dim:
            thetas.append(("non-cyclic", _first_outside(model, sp["closed"], sp["cyclic"])))
        requests = []
        for tag, theta in thetas:
            th_path = os.path.join(outdir, f"{g.name}.{tag}.theta.json")
            with open(th_path, "w") as fh:
                fh.write(ff.to_json_str({"theta": ff.cochain_to_json(theta)}))
            requests.append(workloads.Request(f"tstar {g.name} {tag} theta", ["tstar", g_path, "--theta", th_path]))
        ad = adjoint_rep(g)
        ad_alt = alternating_subspace(g, ad)
        cocycle = _first_unit(CochainModel(g, ad, 1), lambda f: satisfies_compat(g, ad, f) and not ad_alt.contains_vector(f.coeffs))
        datum_path = os.path.join(outdir, f"{g.name}.non-alternating.datum.json")
        with open(datum_path, "w") as fh:
            fh.write(ff.to_json_str(workloads._datum(g, g.space, ad, True, cocycle)))
        requests.append(workloads.Request(f"extend {g.name} non-alternating cocycle", ["extend", datum_path]))
        for req in requests:
            code, value = answer(req, outdir)
            crashes += code == "crash"
            emit(f"rejection exit={code} {value} {req.label}")
    return crashes


def digest_odd_ternary(outdir, emit):
    """Emit the digest lines of cohomology on the odd 3-ary algebras A, B
    and AB and on an algebra that breaks the fundamental identity; returns
    the number of requests that crashed."""
    odd = GradedSpace(4, (0, 1, 1, 0))
    brackets = {"A": {(0, 1, 1): [0, 0, 0, 1]}, "B": {(0, 1, 2): [0, 0, 0, 1]}}
    brackets["AB"] = {**brackets["A"], **brackets["B"]}
    algebras = [HomSuperAlgebra(odd, StructureTensor(3, odd, e), Matrix.identity(4), name=f"odd3{k}") for k, e in brackets.items()]
    even = GradedSpace(4, (0, 0, 0, 0))
    broken = {(0, 1, 2): [1, 0, 0, 0], (0, 1, 3): [0, 1, 0, 0]}
    algebras.append(HomSuperAlgebra(even, StructureTensor(3, even, broken), Matrix.identity(4), name="not-FI"))
    dump = os.path.join(outdir, "dump.json")
    crashes = 0
    for a in algebras:
        path = os.path.join(outdir, f"{a.name}.json")
        with open(path, "w") as fh:
            fh.write(ff.to_json_str(ff.algebra_to_json(a)))
        cases = [("adjoint", 1, "both")] if a.name == "not-FI" else [
            (rep, m, parity) for rep in ("adjoint", "coadjoint") for m in (0, 1, 2) for parity in ("both", "even", "odd")
        ]
        for rep, m, parity in cases:
            argv = ["cohomology", path, "--m", str(m), "--rep", rep, "--parity", parity]
            label = f"cohomology {a.name} --rep {rep} --parity {parity} --m {m}"
            for tag, extra, out in (("", [], None), (" dump", ["--dump", dump], dump)):
                code, value = answer(workloads.Request(label, argv + extra, out=out), outdir)
                crashes += code == "crash"
                emit(f"odd-ternary{tag} exit={code} {value} {label}")
    return crashes


SUBCOMMANDS = ("verify", "cohomology", "series", "twist", "extend", "tstar", "equiv", "decompose", "fuzz")
PARSER_COLUMNS = "100"


def digest_parser(outdir, emit):
    """Emit the digest lines of the parser's help and usage errors; returns
    the number of requests that crashed."""
    os.environ["COLUMNS"] = PARSER_COLUMNS  # argparse wraps help to the terminal width
    argvs = [["--help"]] + [[name, "--help"] for name in SUBCOMMANDS]
    argvs += [[], ["frobnicate"], ["cohomology", "algebra.json"]]
    crashes = 0
    for argv in argvs:
        req = workloads.Request(" ".join(argv) or "<no arguments>", argv)
        code, value = answer(req, outdir)
        crashes += code == "crash"
        emit(f"parser exit={code} {value} {req.label}")
    return crashes


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--workloads", nargs="+", choices=run.WORKLOADS, default=list(run.WORKLOADS))
    args = p.parse_args(argv)
    crashes = 0
    with tempfile.TemporaryDirectory(prefix="nambu-digest-") as tmp:
        for name in args.workloads:
            for seed in args.seeds:
                outdir = os.path.join(tmp, f"{name}-seed{seed}")
                os.makedirs(outdir)
                crashes += digest_workload(name, seed, outdir, print)
                for path in sorted(pathlib.Path(outdir).glob("*.datum.json")) if name == "ext_tstar" else ():
                    digest_extension(f"seed={seed} {path.name}", parse_datum_file(str(path)), outdir, print)
                for path in sorted(pathlib.Path(outdir).glob("*.T*.json")) if name == "ext_tstar" else ():
                    digest_doubled(f"seed={seed} {path.name}", str(path), outdir, print)
        outdir = os.path.join(tmp, "representations")
        os.makedirs(outdir)
        crashes += digest_representations(outdir, print)
        digest_raw_axioms(outdir, print)
        digest_catalog_maps(outdir, print)
        crashes += digest_decompositions(outdir, print)
        crashes += digest_rejections(outdir, print)
        crashes += digest_odd_ternary(outdir, print)
        crashes += digest_parser(outdir, print)
    if crashes:
        print(f"output_digest: {crashes} requests crashed", file=sys.stderr)
    return 1 if crashes else 0


if __name__ == "__main__":
    sys.exit(main())
