"""Tests of the benchmark's own checkers: each on a hand-worked case, and each
shown to reject a deliberately wrong answer.

    python3 -m pytest perfbench/test_checks.py -q
"""

import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from nambu import fileformat as ff  # noqa: E402
from nambu import samples  # noqa: E402
from nambu.tstar import tstar_extend  # noqa: E402


def alg(n, parity, bracket, form=None):
    d = len(parity)
    return checks.Alg(
        n, d, tuple(parity),
        [[Fraction(int(i == j)) for j in range(d)] for i in range(d)],
        {k: [Fraction(x) for x in v] for k, v in bracket.items()},
        [[Fraction(x) for x in row] for row in form] if form else None,
    )


H3 = alg(2, (0, 0, 0), {(0, 1): [0, 0, 1]})
SL2 = alg(2, (0, 0, 0), {(0, 1): [0, 2, 0], (0, 2): [0, 0, -2], (1, 2): [1, 0, 0]})  # h, e, f
SL2_KILLING = [[8, 0, 0], [0, 0, 4], [0, 4, 0]]


def result(stdout="", out=None, code=0):
    return workloads.Result(code, stdout, "", None if out is None else json.dumps(out))


# -- exact elimination and signs ---------------------------------------------


def test_rank_by_hand():
    assert checks.rref_rank([[1, 2], [2, 4]], 2) == 1
    assert checks.rref_rank([[0, 1], [Fraction(1, 2), 0]], 2) == 2


def test_sort_sign():
    assert checks.sort_sign((1, 0), (0, 0)) == (-1, (0, 1))  # even swap: -1
    assert checks.sort_sign((2, 1), (0, 1, 1)) == (1, (1, 2))  # odd-odd swap: +1
    assert checks.sort_sign((0, 0), (0, 1))[0] == 0  # repeated even index vanishes
    assert checks.sort_sign((1, 1), (0, 1))[0] == 1  # repeated odd index survives


# -- Der(g) --------------------------------------------------------------------


def test_derivations_by_hand():
    # Heisenberg: D e1, D e2 free (6 entries) and D e3 = (D11 + D22) e3: 6
    assert checks.derivation_dim(H3) == 6
    # sl2 is semisimple: every derivation is inner, dim 3
    assert checks.derivation_dim(SL2) == 3
    # abelian: every linear map
    assert checks.derivation_dim(alg(3, (0, 0, 0, 0), {})) == 16


def test_der_check_rejects_wrong_z0(tmp_path):
    plan = workloads.CohomologyPlan(str(tmp_path))
    plan.add_algebra("H3", samples.h3())
    plan.ask("H3", "adjoint", (0,))
    assert plan.suite().cross_checks[0]([result("C=9 Z=6 B=0 (no δ^{-1}) H=6")]) == []
    problems = plan.suite().cross_checks[0]([result("C=9 Z=5 B=0 (no δ^{-1}) H=5")])
    assert [p[1] for p in problems] == ["Z0-is-Der"]


# -- abelian closed form -------------------------------------------------------


def test_abelian_closed_form_by_hand():
    # abelian(1|2), n = 3: wedges of degree 2 are (e,f1) (e,f2) (f1,f1) (f1,f2) (f2,f2): W = 5
    one = (1, 1, 1)
    dims = checks.abelian_cochain_dims((0, 1, 1), 3, 1, one, one, (0, 1, 1))
    assert dims["both"] == (45, 45, 0, 45)
    # m = 0: pairs (z, v) of equal parity are even: 1*1 + 2*2 = 5, the rest odd: 4
    dims = checks.abelian_cochain_dims((0, 1, 1), 3, 0, one, one, (0, 1, 1))
    assert dims["even"][0] == 5 and dims["odd"][0] == 4
    # twist diag(2, 1): on m = 0 only (z, v) with alpha_z = nu_v survive: (1,1), (2,2)
    assert checks.abelian_cochain_dims((0, 0), 2, 0, (2, 1), (2, 1), (0, 0))["both"][0] == 2


def test_abelian_check_rejects_wrong_answer(tmp_path):
    plan = workloads.CohomologyPlan(str(tmp_path))
    plan.add_algebra("ab", samples.abelian(1, 2, n=3))
    plan.ask("ab", "adjoint", (1,))
    assert plan.suite().cross_checks[0]([result("C=45 Z=45 B=0 H=45")]) == []
    problems = plan.suite().cross_checks[0]([result("C=45 Z=44 B=0 H=44")])
    assert [p[1] for p in problems] == ["abelian-closed-form"]


def test_rank_nullity_and_parity_reject(tmp_path):
    plan = workloads.CohomologyPlan(str(tmp_path))
    plan.add_algebra("SH12", samples.sh12())
    plan.ask("SH12", "adjoint", (0, 1), parities=("both", "even", "odd"))
    # requests: m0 both/even/odd, m1 both/even/odd
    good = ["C=9 Z=4 B=0 (no δ^{-1}) H=4", "C=5 Z=2 B=0 (no δ^{-1}) H=2", "C=4 Z=2 B=0 (no δ^{-1}) H=2",
            "C=27 Z=8 B=5 H=3", "C=13 Z=4 B=3 H=1", "C=14 Z=4 B=2 H=2"]
    cross = plan.suite().cross_checks[0]
    assert cross([result(s) for s in good]) == []
    bad = list(good)
    bad[3] = "C=27 Z=8 B=6 H=2"
    assert {p[1] for p in cross([result(s) for s in bad])} == {"rank-nullity", "parity-sum"}


# -- T* pairing, invariance, isometry -----------------------------------------


def test_tstar_pairing_by_hand():
    # all even: <e_i, e_k*> = <e_k*, e_i> = [i = k]
    assert checks.tstar_gram((0,)) == [[0, 1], [1, 0]]
    # odd e: <e, e*> = (-1)^{|e||e*|} = -1, <e*, e> = e*(e) = 1
    assert checks.tstar_gram((1,)) == [[0, -1], [1, 0]]


def test_tstar_check_accepts_program_and_rejects_wrong_gram():
    g = samples.sh12()
    ext = tstar_extend(g)
    obj = ff.algebra_to_json(ext.algebra, form=ext.form.gram)
    check = workloads._tstar_check(g)
    assert check(result("metric: PASS\n", obj)) == []
    obj["form"][1][4] = "1"  # <f1, f1*> should be -1
    assert any("closed-form pairing" in p for p in check(result("metric: PASS\n", obj)))


def test_invariance_by_hand():
    assert checks.invariance_violation(SL2, [[Fraction(x) for x in r] for r in SL2_KILLING]) is None
    broken = alg(2, (0, 0, 0), {(0, 1): [0, 3, 0], (0, 2): [0, 0, -2], (1, 2): [1, 0, 0]})
    assert checks.invariance_violation(broken, [[Fraction(x) for x in r] for r in SL2_KILLING]) is not None


def test_tstar_check_rejects_broken_bracket():
    ext = tstar_extend(samples.h3())
    obj = ff.algebra_to_json(ext.algebra, form=ext.form.gram)
    obj["bracket"][0]["value"] = {k: "2" for k in obj["bracket"][0]["value"]}
    problems = workloads._tstar_check(samples.h3())(result("metric: PASS\n", obj))
    assert any("not invariant" in p for p in problems)


def test_isometry_by_hand():
    g = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    ident = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert checks.isometry_problem(ident, g, g) is None
    # x -> 2x, f -> f/2 preserves the hyperbolic pairing
    assert checks.isometry_problem([[2, 0], [0, Fraction(1, 2)]], g, g) is None
    assert "singular" in checks.isometry_problem([[1, 1], [1, 1]], g, g)
    assert "input gram" in checks.isometry_problem([[2, 0], [0, 1]], g, g)


def test_decompose_check_rejects_wrong_phi(tmp_path):
    ext = tstar_extend(samples.h3())
    path = str(tmp_path / "t.json")
    with open(path, "w") as fh:
        fh.write(ff.to_json_str(ff.algebra_to_json(ext.algebra, form=ext.form.gram)))
    from nambu.core import BilinearForm
    from nambu.tstar import MetricAlgebra, decompose

    cert = decompose(MetricAlgebra(ext.algebra, BilinearForm(ext.form.gram)))
    payload = {"g1": ff.algebra_to_json(cert.g1), "phi": ff.matrix_to_json(cert.phi),
               "adjoined_line": cert.adjoined, "checks": cert.checks}
    check = workloads._decompose_check(path)
    assert check(result(out=payload)) == []
    payload["phi"][0] = [str(2 * Fraction(x)) for x in payload["phi"][0]]
    assert any("not an isometry" in p for p in check(result(out=payload)))
    payload = dict(payload, checks=dict(cert.checks, quotient_length=5))
    assert any("quotient_length" in p for p in check(result(out=payload)))


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
