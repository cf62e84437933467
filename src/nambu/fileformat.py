"""JSON on-disk format: exact rationals as "p/q" strings, 1-based indices.

The loader is the only place that translates between the file's 1-based
math-style indices and the 0-based internal ones, and it validates
canonicality, parity and homogeneity up front with field context in
every error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .cohomology import Cochain, CochainModel, Representation, WedgeBasis
from .core import GradedSpace, HomSuperAlgebra, StructureTensor, _dense, _nonzero, straighten
from .errors import AlgebraError, ParseError
from .linalg import Matrix, format_scalar, parse_scalar


@dataclass
class LoadedFile:
    name: str
    algebra: HomSuperAlgebra
    form: Matrix | None = None
    representation: Representation | None = None
    raw: dict = field(default_factory=dict)


def _require(obj, key, context):
    if key not in obj:
        raise ParseError(f"{context}: missing field {key!r}")
    return obj[key]


def _parse_matrix(obj, rows, cols, context):
    if not isinstance(obj, list) or len(obj) != rows:
        raise ParseError(f"{context}: expected {rows} rows")
    data = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"{context}: row {i+1} must have {cols} entries")
        for j, x in enumerate(row):
            try:
                data.append(parse_scalar(x))
            except ParseError as exc:
                raise ParseError(f"{context}[{i+1}][{j+1}]: {exc}") from None
    return Matrix(rows, cols, data)


def _parse_args(obj, length, dim, context):
    if not isinstance(obj, list) or len(obj) != length:
        raise ParseError(f"{context}: args must be a list of {length} indices")
    out = []
    for k in obj:
        if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= dim:
            raise ParseError(f"{context}: bad index {k!r} (1..{dim})")
        out.append(k - 1)
    return tuple(out)


def _parse_value_map(obj, dim, context):
    """A value {"k": scalar}, k one-based, as a sparse vector {k - 1: scalar}
    with zeros dropped."""
    if not isinstance(obj, dict):
        raise ParseError(f"{context}: value must be an object")
    vec = {}
    for key, val in obj.items():
        try:
            idx = int(key)
        except (TypeError, ValueError):
            raise ParseError(f"{context}: bad output index {key!r}") from None
        if not 1 <= idx <= dim:
            raise ParseError(f"{context}: output index {idx} out of range")
        vec[idx - 1] = parse_scalar(val)
    return _nonzero(vec)


def _parse_graded_space(obj, context):
    dim = _require(obj, "dim", context)
    parity = _require(obj, "parity", context)
    if not isinstance(dim, int) or dim < 0:
        raise ParseError(f"{context}: dim must be a nonnegative integer")
    if not isinstance(parity, list) or len(parity) != dim or any(p not in (0, 1) for p in parity):
        raise ParseError(f"{context}: parity must be a list of 0/1 of length dim")
    return GradedSpace(dim, tuple(parity))


def parse_algebra(obj, context="algebra") -> LoadedFile:
    if not isinstance(obj, dict):
        raise ParseError(f"{context}: expected a JSON object")
    name = obj.get("name", "")
    n = _require(obj, "n", context)
    if not isinstance(n, int) or n < 2:
        raise ParseError(f"{context}: n must be an integer >= 2")
    space = _parse_graded_space(obj, context)
    alpha = _parse_matrix(_require(obj, "alpha", context), space.dim, space.dim, f"{context}.alpha")

    entries = {}
    bracket = obj.get("bracket", [])
    if not isinstance(bracket, list):
        raise ParseError(f"{context}.bracket: expected a list")
    for pos, item in enumerate(bracket):
        ctx = f"{context}.bracket[{pos}]"
        args = _parse_args(_require(item, "args", ctx), n, space.dim, ctx)
        vec = _dense(_parse_value_map(_require(item, "value", ctx), space.dim, ctx).items(), space.dim)
        sign, canon = straighten(args, space.parity)
        if sign == 0:
            if any(c != 0 for c in vec):
                raise ParseError(f"{ctx}: tuple vanishes in the wedge but has a nonzero value")
            continue
        if sign == -1:
            vec = [-c for c in vec]
        if canon in entries:
            if entries[canon] != vec:
                raise ParseError(f"{ctx}: sign-inconsistent duplicate of {[i + 1 for i in canon]}")
            continue
        entries[canon] = vec
    try:
        tensor = StructureTensor(n, space, entries, strict=True)
    except (ValueError, AlgebraError) as exc:
        raise ParseError(f"{context}.bracket: {exc}") from None
    algebra = HomSuperAlgebra(space, tensor, alpha, name=name)

    form = None
    if "form" in obj and obj["form"] is not None:
        form = _parse_matrix(obj["form"], space.dim, space.dim, f"{context}.form")

    rep = None
    if "representation" in obj and obj["representation"] is not None:
        rep = parse_representation(obj["representation"], algebra, f"{context}.representation")

    if "theta" in obj and obj["theta"] is not None:  # validated; tstar and equiv read theta from --theta
        parse_cochain_entries(obj["theta"], space, n, space.dim, f"{context}.theta")
    return LoadedFile(name, algebra, form, rep, obj)


def parse_representation(obj, algebra: HomSuperAlgebra, context) -> Representation:
    target = _parse_graded_space(obj, context)
    nu = _parse_matrix(_require(obj, "nu", context), target.dim, target.dim, f"{context}.nu")
    wb = WedgeBasis(algebra.space, algebra.arity - 1)
    mats = [None] * len(wb.elements)
    rho = _require(obj, "rho", context)
    if not isinstance(rho, list):
        raise ParseError(f"{context}.rho: expected a list")
    for pos, item in enumerate(rho):
        ctx = f"{context}.rho[{pos}]"
        args = _parse_args(
            _require(item, "wedge", ctx), algebra.arity - 1, algebra.dim, ctx
        )
        sign, canon = straighten(args, algebra.space.parity)
        if sign == 0:
            raise ParseError(f"{ctx}: wedge tuple vanishes")
        mat = _parse_matrix(
            _require(item, "matrix", ctx), target.dim, target.dim, f"{ctx}.matrix"
        )
        if sign == -1:
            mat = mat.scale(-1)
        w = wb.index[canon]
        if mats[w] is not None and mats[w] != mat:
            raise ParseError(f"{ctx}: sign-inconsistent duplicate wedge {[i + 1 for i in canon]}")
        mats[w] = mat
    mats = [m if m is not None else Matrix.zeros(target.dim, target.dim) for m in mats]
    return Representation(target, mats, nu)


def parse_cochain_entries(obj, space: GradedSpace, n, value_dim, context):
    """1-cochain entries [(wedge tuple, z, sparse value vector {v: c})],
    canonicalized."""
    if not isinstance(obj, list):
        raise ParseError(f"{context}: expected a list")
    seen = {}
    for pos, item in enumerate(obj):
        ctx = f"{context}[{pos}]"
        args = _parse_args(_require(item, "args", ctx), n, space.dim, ctx)
        vec = _parse_value_map(_require(item, "value", ctx), value_dim, ctx)
        sign, canon = straighten(args[:-1], space.parity)
        if sign == 0:
            if vec:
                raise ParseError(f"{ctx}: wedge part vanishes but the value is nonzero")
            continue
        if sign == -1:
            vec = {v: -c for v, c in vec.items()}
        key = (canon, args[-1])
        if key in seen:
            if seen[key] != vec:
                raise ParseError(f"{ctx}: sign-inconsistent duplicate entry")
            continue
        seen[key] = vec
    return [(canon, z, vec) for (canon, z), vec in sorted(seen.items())]


def cochain_of_entries(a: HomSuperAlgebra, rep: Representation, entries) -> Cochain:
    """The even 1-cochain of (a, rep) with the entries of parse_cochain_entries."""
    model = CochainModel(a, rep, 1)
    return Cochain.from_entries(model, 0, {((model.wb.index[canon],), z): vec for canon, z, vec in entries})


def load(path_or_obj) -> LoadedFile:
    if isinstance(path_or_obj, dict):
        return parse_algebra(path_or_obj)
    try:
        with open(path_or_obj) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path_or_obj}: {exc}") from None
    return loads(text)


def loads(text: str) -> LoadedFile:
    try:
        obj = json.loads(text, parse_float=_reject_float, parse_constant=_reject_float)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    return parse_algebra(obj)


def _reject_float(value):
    raise ParseError(f"floating-point literal {value!r} is not an exact rational")


# ---------------------------------------------------------------------------
# writers


def matrix_to_json(m: Matrix):
    return [[format_scalar(x) for x in m.row(i)] for i in range(m.rows)]


def algebra_to_json(a: HomSuperAlgebra, name=None, form: Matrix | None = None):
    obj = {
        "name": name if name is not None else a.name,
        "n": a.arity,
        "dim": a.dim,
        "parity": list(a.parity),
        "alpha": matrix_to_json(a.alpha),
        "bracket": [
            {
                "args": [i + 1 for i in key],
                "value": {
                    str(k + 1): format_scalar(c) for k, c in enumerate(vec) if c != 0
                },
            }
            for key, vec in sorted(a.bracket.items())
        ],
    }
    if form is not None:
        obj["form"] = matrix_to_json(form)
    return obj


def cochain_to_json(theta: Cochain):
    """The nonzero V-blocks of theta in ascending raw order, each with its
    wedge and g arguments and its nonzero values, 1-based."""
    elements = theta.model.wb.elements
    return [
        {
            "args": [i + 1 for w in ws for i in elements[w]] + [j + 1],
            "value": {str(v + 1): format_scalar(c) for v, c in block.items()},
        }
        for (ws, j), block in theta.entries().items()
    ]


def to_json_str(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
