"""Command-line surface: verify, cohomology, series, twist, extend, tstar,
equiv, decompose, fuzz.

Exit codes: 0 all checks pass, 1 a verification failed, 2 precondition
violated, 3 a field extension of Q would be needed, 4 parse error, 5 an
internal error (a failed postcondition or any unexpected exception).
Outputs are deterministic byte-for-byte for identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from . import fileformat as ff
from .cohomology import (
    adjoint_rep,
    cohomology_dims,
    delta_square_is_zero,
    verify_prop_2_2,
    verify_representation,
)
from .core import BilinearForm, series, verify_algebra, verify_metric
from .errors import AlgebraError, CoadjointMissing, InternalError, ParseError
from .extensions import build_extension, parse_datum_file
from .tstar import (
    MetricAlgebra,
    coadjoint_rep,
    decompose,
    equivalence,
    tstar_extend,
)


def _print_report(title, report, out=None):
    out = out if out is not None else sys.stdout
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        line = f"{title}.{check.name}: {status}"
        if not check.passed and check.witness is not None:
            line += f"  witness={json.dumps(check.witness, sort_keys=True)}"
        print(line, file=out)


def cmd_verify(args, out=None):
    out = out if out is not None else sys.stdout
    loaded = ff.load(args.file)
    reports = {"algebra": verify_algebra(loaded.algebra)}
    if args.metric and loaded.form is None:
        raise AlgebraError("--metric requires a 'form' block in the file")
    if loaded.form is not None:
        reports["metric"] = verify_metric(loaded.algebra, BilinearForm(loaded.form))
    if args.rep:
        if loaded.representation is None:
            raise AlgebraError("--rep requires a 'representation' block in the file")
        reports["representation"] = verify_representation(
            loaded.representation, loaded.algebra
        )
    ok = all(r.ok for r in reports.values())
    for title, report in reports.items():
        _print_report(title, report, out)
    print("result: " + ("PASS" if ok else "FAIL"), file=out)
    if args.json:
        payload = {title: rep.to_dict() for title, rep in reports.items()}
        with open(args.json, "w") as fh:
            fh.write(ff.to_json_str(payload))
    return 0 if ok else 1


def _pick_representation(loaded, which):
    a = loaded.algebra
    if which == "adjoint":
        return adjoint_rep(a)
    if which == "coadjoint":
        coad = coadjoint_rep(a)
        if not coad.exists:
            raise CoadjointMissing(
                f"coadjoint representation does not exist: {json.dumps(coad.witness, sort_keys=True)}"
            )
        return coad.rep
    if which == "file":
        if loaded.representation is None:
            raise AlgebraError("--rep file needs a 'representation' block")
        return loaded.representation
    raise AlgebraError(f"unknown representation {which!r}")


def cmd_cohomology(args, out=None):
    out = out if out is not None else sys.stdout
    loaded = ff.load(args.file)
    rep = _pick_representation(loaded, args.rep)
    parity = args.parity
    dims = cohomology_dims(loaded.algebra, rep, args.m, parity)
    z, b, h = dims
    c_dim = dims.basis.dim
    b_text = "B=0 (no δ^{-1})" if args.m == 0 else f"B={b}"
    print(f"C={c_dim} Z={z} {b_text} H={h}", file=out)
    if args.dump:
        payload = {
            "m": args.m,
            "parity": parity,
            "C": c_dim,
            "Z": z,
            "B": b,
            "H": h,
            "basis": [
                [ff.format_scalar(vec.get(k, 0)) for k in range(dims.basis.model.raw_dim)]
                for vec in dims.basis.vectors()
            ],
        }
        with open(args.dump, "w") as fh:
            fh.write(ff.to_json_str(payload))
    return 0


def cmd_series(args, out=None):
    out = out if out is not None else sys.stdout
    loaded = ff.load(args.file)
    parts = []
    for kind, label in (("lower_central", "nilpotent"), ("derived", "solvable")):
        s = series(loaded.algebra, kind)
        parts.append(f"{label} k={s.length if s.length is not None else 'inf'}")
    print(", ".join(parts), file=out)
    return 0


def _load_matrix_file(path, rows, cols, context):
    try:
        with open(path) as fh:
            obj = json.load(fh, parse_float=ff._reject_float)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{context}: invalid JSON: {exc}") from None
    if isinstance(obj, dict) and "matrix" in obj:
        obj = obj["matrix"]
    return ff._parse_matrix(obj, rows, cols, context)


def cmd_twist(args, out=None):
    out = out if out is not None else sys.stdout
    loaded = ff.load(args.file)
    a = loaded.algebra
    rho = _load_matrix_file(args.endo, a.dim, a.dim, "endomorphism")
    from .core import twist_by_endomorphism

    twisted = twist_by_endomorphism(a, rho)
    text = ff.to_json_str(ff.algebra_to_json(twisted))
    _emit(text, args.out, out)
    return 0


def cmd_extend(args, out=None):
    out = out if out is not None else sys.stdout
    datum = parse_datum_file(args.file)
    g = build_extension(datum)
    text = ff.to_json_str(ff.algebra_to_json(g))
    _emit(text, args.out, out)
    return 0


def cmd_tstar(args, out=None):
    out = out if out is not None else sys.stdout
    loaded = ff.load(args.file)
    g = loaded.algebra
    coad = coadjoint_rep(g)
    if not coad.exists:
        raise CoadjointMissing("coadjoint representation does not exist")
    if args.theta == "zero":
        theta = None
    else:
        theta_loaded = _load_theta(args.theta, loaded)
        theta = theta_loaded
    ext = tstar_extend(g, theta)  # validated: raises InternalError unless metric
    obj = ff.algebra_to_json(ext.algebra, form=ext.form.gram)
    _emit(ff.to_json_str(obj), args.out, out)
    print("metric: PASS", file=out)
    return 0


def _load_theta(path, loaded):
    coad = coadjoint_rep(loaded.algebra)
    try:
        with open(path) as fh:
            obj = json.load(fh, parse_float=ff._reject_float)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"theta: invalid JSON: {exc}") from None
    if isinstance(obj, dict):
        obj = obj.get("theta", [])
    entries = ff.parse_cochain_entries(
        obj, loaded.algebra.space, loaded.algebra.arity, loaded.algebra.dim, "theta"
    )
    return ff.cochain_of_entries(loaded.algebra, coad.rep, entries)


def cmd_equiv(args, out=None):
    out = out if out is not None else sys.stdout
    loaded = ff.load(args.file)
    theta1 = _load_theta(args.theta1, loaded)
    theta2 = _load_theta(args.theta2, loaded)
    result = equivalence(loaded.algebra, theta1, theta2)
    payload = {"kind": result.kind}
    if result.theta_prime is not None:
        payload["theta_prime"] = ff.matrix_to_json(result.theta_prime)
    _emit(ff.to_json_str(payload), args.out, out)
    return 0


def cmd_decompose(args, out=None):
    out = out if out is not None else sys.stdout
    loaded = ff.load(args.file)
    if loaded.form is None:
        raise AlgebraError("decompose requires a 'form' block in the file")
    m = MetricAlgebra(loaded.algebra, BilinearForm(loaded.form))
    cert = decompose(m)
    payload = {
        "g1": ff.algebra_to_json(cert.g1),
        "theta": ff.cochain_to_json(cert.theta),
        "phi": ff.matrix_to_json(cert.phi),
        "adjoined_line": cert.adjoined,
        "checks": cert.checks,
    }
    _emit(ff.to_json_str(payload), args.out, out)
    return 0


def cmd_fuzz(args, out=None):
    out = out if out is not None else sys.stdout
    from . import samples

    rng = random.Random(args.seed)
    count = 0
    while count < args.count:
        a = samples.random_twisted_algebra(rng, max_dim=3)
        if not verify_algebra(a).ok:
            print(f"FAIL verify_algebra on {a.name}", file=out)
            return 1
        if not verify_prop_2_2(a).ok:
            print(f"FAIL prop-2.2 on {a.name}", file=out)
            return 1
        rep = adjoint_rep(a)
        if not verify_representation(rep, a).ok:
            print(f"FAIL adjoint representation on {a.name}", file=out)
            return 1
        if not delta_square_is_zero(a, rep, 0):
            print(f"FAIL delta^2 on {a.name}", file=out)
            return 1
        count += 1
    print(f"fuzz ok: {count} twisted algebras, seed={args.seed}", file=out)
    return 0


def _emit(text, out_path, out=None):
    out = out if out is not None else sys.stdout
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        out.write(text)


@functools.cache
def build_parser():
    """The argument parser, built once per process.  It binds no handler:
    main looks up cmd_<command> by name on every call."""
    parser = argparse.ArgumentParser(
        prog="nambu",
        description="Exact computer algebra for n-ary multiplicative Hom-Nambu-Lie superalgebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the axioms (and metric/representation blocks)")
    p.add_argument("file")
    p.add_argument("--metric", action="store_true", help="require and check the form block")
    p.add_argument("--rep", action="store_true", help="check the representation block")
    p.add_argument("--json", help="write the full report as JSON")

    p = sub.add_parser("cohomology", help="dimensions of Z^m, B^m, H^m")
    p.add_argument("file")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--rep", choices=["adjoint", "coadjoint", "file"], default="adjoint")
    p.add_argument("--parity", choices=["even", "odd", "both"], default="both")
    p.add_argument("--dump", help="write the cocycle basis as JSON")

    p = sub.add_parser("series", help="derived and lower central series lengths")
    p.add_argument("file")

    p = sub.add_parser("twist", help="twist an untwisted algebra by an endomorphism")
    p.add_argument("file")
    p.add_argument("--endo", required=True, help="JSON file with the endomorphism matrix")
    p.add_argument("--out")

    p = sub.add_parser("extend", help="build the extension of a datum file")
    p.add_argument("file")
    p.add_argument("--out")

    p = sub.add_parser("tstar", help="build the T*-extension")
    p.add_argument("file")
    p.add_argument("--theta", default="zero", help="'zero' or a theta JSON file")
    p.add_argument("--out")

    p = sub.add_parser("equiv", help="classify two T*-extensions of one algebra")
    p.add_argument("file")
    p.add_argument("theta1")
    p.add_argument("theta2")
    p.add_argument("--out")

    p = sub.add_parser("decompose", help="nilpotent metric decomposition certificate")
    p.add_argument("file")
    p.add_argument("--out")

    p = sub.add_parser("fuzz", help="randomized invariant sweep over twisted algebras")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=10)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 4
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # a bug: exit 5, apart from "verification failed" (1)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return InternalError.exit_code


if __name__ == "__main__":
    sys.exit(main())
