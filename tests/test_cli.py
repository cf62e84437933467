import io
import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from dense_wrappers import bracket_basis
from nambu import fileformat as ff
from nambu import samples
from nambu.cli import main
from nambu.cohomology import adjoint_rep, wedge_basis
from nambu.core import HomSuperAlgebra, StructureTensor, canonical_tuples, twist_by_endomorphism, verify_algebra
from nambu.errors import ParseError
from nambu.linalg import Matrix
from nambu.tstar import theta_spaces
from test_delta_operator import _breaks_the_fundamental_identity, _dense_basis, _inverse


@pytest.fixture
def tmpfiles(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        text = obj if isinstance(obj, str) else ff.to_json_str(obj)
        path.write_text(text)
        return str(path)

    return write


def _adjoint_json(a):
    """a as a file with its adjoint representation written out, one rho
    item per canonical wedge, in order."""
    ad = adjoint_rep(a)
    obj = ff.algebra_to_json(a)
    obj["representation"] = {
        "dim": a.dim,
        "parity": list(a.parity),
        "nu": ff.matrix_to_json(ad.nu),
        "rho": [
            {"wedge": [i + 1 for i in t], "matrix": ff.matrix_to_json(m)}
            for t, m in zip(wedge_basis(a.space, a.arity - 1).elements, ad.rho)
        ],
    }
    return obj


def run(argv):
    out = io.StringIO()
    code = main_with_stdout(argv, out)
    return code, out.getvalue()


def main_with_stdout(argv, out):
    import contextlib

    with contextlib.redirect_stdout(out):
        return main(argv)


class TestLoadDump:
    def test_round_trip_byte_stable(self, tmpfiles):
        for make in (samples.h3, samples.sh12, samples.n4, samples.odd_square):
            a = make()
            text = ff.to_json_str(ff.algebra_to_json(a))
            loaded = ff.loads(text)
            assert ff.to_json_str(ff.algebra_to_json(loaded.algebra, name=loaded.name)) == text
            assert loaded.algebra.bracket == a.bracket
            assert loaded.algebra.alpha == a.alpha

    def test_non_canonical_input_is_canonicalized(self):
        obj = ff.algebra_to_json(samples.h3())
        obj["bracket"] = [{"args": [2, 1], "value": {"3": "-1"}}]
        loaded = ff.parse_algebra(obj)
        assert bracket_basis(loaded.algebra, (0, 1)) == [0, 0, 1]

    def test_sign_inconsistent_duplicate_rejected(self):
        obj = ff.algebra_to_json(samples.h3())
        obj["bracket"] = [
            {"args": [1, 2], "value": {"3": "1"}},
            {"args": [2, 1], "value": {"3": "1"}},
        ]
        with pytest.raises(ParseError):
            ff.parse_algebra(obj)

    def test_duplicate_errors_name_the_tuple_one_based(self):
        # the file format is 1-based, and so is every tuple an error names
        obj = ff.algebra_to_json(samples.h3())
        obj["bracket"] = [
            {"args": [1, 2], "value": {"3": "1"}},
            {"args": [2, 1], "value": {"3": "1"}},
        ]
        with pytest.raises(ParseError) as exc:
            ff.parse_algebra(obj)
        assert str(exc.value) == "algebra.bracket[1]: sign-inconsistent duplicate of [1, 2]"
        obj = _adjoint_json(samples.n4())
        rho = obj["representation"]["rho"]
        rho.append({"wedge": rho[0]["wedge"][::-1], "matrix": rho[0]["matrix"]})
        with pytest.raises(ParseError) as exc:
            ff.parse_algebra(obj)
        assert str(exc.value) == "algebra.representation.rho[6]: sign-inconsistent duplicate wedge [1, 2]"

    def test_representation_wedges_out_of_order_carry_their_sign(self):
        # ad(N4) with every wedge reversed and its matrix negated is ad(N4)
        n4 = samples.n4()
        ad = adjoint_rep(n4)
        obj = _adjoint_json(n4)
        for item in obj["representation"]["rho"]:
            item["wedge"] = item["wedge"][::-1]
            item["matrix"] = [[ff.format_scalar(-ff.parse_scalar(x)) for x in row] for row in item["matrix"]]
        assert ff.parse_algebra(obj).representation == ad
        # a duplicate written both ways round with consistent signs is accepted
        twice = _adjoint_json(n4)
        rho = twice["representation"]["rho"]
        k = next(w for w, cols in enumerate(ad.columns) if any(cols))
        rho.append(obj["representation"]["rho"][k])
        assert ff.parse_algebra(twice).representation == ad
        # and refused when the reversed copy keeps its sign
        rho[-1] = {"wedge": rho[-1]["wedge"], "matrix": rho[k]["matrix"]}
        with pytest.raises(ParseError, match="sign-inconsistent duplicate wedge"):
            ff.parse_algebra(twice)

    def test_theta_block_of_an_algebra_file_is_validated(self):
        # nothing reads the block (tstar and equiv take --theta), but a
        # malformed one is still refused at load
        obj = ff.algebra_to_json(samples.h3())
        obj["theta"] = [{"args": [1, 1], "value": {"1": "1"}}, {"args": [2, 1], "value": {"3": "1/2"}}]
        assert ff.parse_algebra(obj).algebra.bracket == samples.h3().bracket
        for theta, message in (
            ({"args": [1, 2]}, "algebra.theta: expected a list"),
            ([{"args": [1, 2, 4], "value": {"1": "1"}}], "algebra.theta[0]: args must be a list of 2 indices"),
            ([{"args": [1, 2], "value": {"1": "x"}}], "bad rational 'x': expected 'p' or 'p/q'"),
        ):
            obj["theta"] = theta
            with pytest.raises(ParseError) as exc:
                ff.parse_algebra(obj)
            assert str(exc.value) == message

    def test_homogeneity_validated_at_load(self):
        obj = {
            "name": "bad",
            "n": 2,
            "dim": 3,
            "parity": [0, 1, 1],
            "alpha": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            "bracket": [{"args": [2, 3], "value": {"2": "1"}}],
        }
        with pytest.raises(ParseError):
            ff.parse_algebra(obj)

    def test_floats_rejected(self):
        with pytest.raises(ParseError):
            ff.loads('{"name": "x", "n": 2, "dim": 1, "parity": [0], "alpha": [[1.5]], "bracket": []}')

    def test_integral_files_load_as_ints_and_round_trip(self, tmpfiles, tmp_path):
        # the scalar contract at the parse boundary: every integral entry is a
        # plain int after loading, and writing it back gives the same bytes
        def entries(loaded):
            a = loaded.algebra
            out = [c for vec in a.bracket.entries.values() for c in vec] + a.alpha.data
            return out + (loaded.form.data if loaded.form is not None else [])

        files = [tmpfiles(f"cat{i}.json", ff.algebra_to_json(a)) for i, a in enumerate(samples.catalog())]
        tstar_path = str(tmp_path / "tn4.json")
        code, _ = run(["tstar", tmpfiles("n4.json", ff.algebra_to_json(samples.n4())), "--out", tstar_path])
        assert code == 0
        for path in files + [tstar_path]:
            loaded = ff.load(path)
            assert all(type(x) is int for x in entries(loaded)), path
            text = ff.to_json_str(ff.algebra_to_json(loaded.algebra, name=loaded.name, form=loaded.form))
            assert text == pathlib.Path(path).read_text(), path
        assert ff.load(tstar_path).form is not None

    def test_rational_file_round_trips(self, tmpfiles):
        # fil4 in the basis of a lower triangular matrix with diagonal
        # (1, 1, 2, 2) and 1/2 below it: rational entries stay Fractions,
        # integral ones ints
        a = samples.filiform4()
        d = a.dim
        diagonal = (1, 1, 2, 2)
        basis = Matrix(d, d, [diagonal[i] if i == j else Fraction(1, 2) if i > j else 0 for i in range(d) for j in range(d)])
        inv = _inverse(basis)
        cols = [basis.col(j) for j in range(d)]
        entries = {key: inv.apply(a.bracket_eval([cols[i] for i in key])) for key in canonical_tuples(a.space, 2)}
        tensor = StructureTensor(2, a.space, {k: v for k, v in entries.items() if any(v)})
        dense = HomSuperAlgebra(a.space, tensor, inv * a.alpha * basis, name="fil4@half")
        path = tmpfiles("dense.json", ff.algebra_to_json(dense))
        text = pathlib.Path(path).read_text()
        assert '"1/2"' in text
        loaded = ff.load(path)
        values = [c for vec in loaded.algebra.bracket.entries.values() for c in vec] + loaded.algebra.alpha.data
        assert {type(x) for x in values} == {int, Fraction}
        assert all(type(x) is int for x in values if x.denominator == 1)
        assert ff.to_json_str(ff.algebra_to_json(loaded.algebra, name=loaded.name)) == text

    def test_zero_denominator_rejected(self):
        obj = ff.algebra_to_json(samples.h3())
        obj["bracket"] = [{"args": [1, 2], "value": {"3": "1/0"}}]
        with pytest.raises(ParseError):
            ff.parse_algebra(obj)


class TestVerifyCommand:
    def test_h3_passes_exit_0(self, tmpfiles):
        path = tmpfiles("h3.json", ff.algebra_to_json(samples.h3()))
        code, out = run(["verify", path])
        assert code == 0
        assert "result: PASS" in out

    def test_metric_failure_exit_1_with_witness(self, tmpfiles):
        obj = ff.algebra_to_json(samples.h3(), form=Matrix.identity(3))
        path = tmpfiles("h3m.json", obj)
        code, out = run(["verify", path, "--metric"])
        assert code == 1
        assert "metric.invariant: FAIL" in out
        assert "witness" in out

    def test_parse_error_exit_4(self, tmpfiles):
        obj = ff.algebra_to_json(samples.h3())
        obj["bracket"] = [{"args": [1, 2], "value": {"3": "1/0"}}]
        path = tmpfiles("bad.json", obj)
        code, _ = run(["verify", path])
        assert code == 4

    def test_unexpected_exception_exit_5_one_line(self, tmpfiles, monkeypatch, capsys):
        from nambu import cli

        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_verify", broken)
        path = tmpfiles("h3.json", ff.algebra_to_json(samples.h3()))
        assert main(["verify", path]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: RuntimeError: boom\n"

    def test_json_report(self, tmpfiles, tmp_path):
        path = tmpfiles("h3.json", ff.algebra_to_json(samples.h3()))
        report_path = str(tmp_path / "report.json")
        code, _ = run(["verify", path, "--json", report_path])
        assert code == 0
        payload = json.loads(open(report_path).read())
        assert payload["algebra"]["ok"] is True


class TestCohomologyCommand:
    def test_abelian_example_line(self, tmpfiles):
        path = tmpfiles("ab2.json", ff.algebra_to_json(samples.abelian(2)))
        code, out = run(["cohomology", path, "--m", "1", "--parity", "even"])
        assert code == 0
        assert out.strip() == "C=8 Z=8 B=0 H=8"

    def test_m0_convention_line(self, tmpfiles):
        path = tmpfiles("ab2.json", ff.algebra_to_json(samples.abelian(2)))
        code, out = run(["cohomology", path, "--m", "0"])
        assert code == 0
        assert "B=0 (no δ^{-1})" in out

    def test_h3_adjoint_m1_regression(self, tmpfiles):
        path = tmpfiles("h3.json", ff.algebra_to_json(samples.h3()))
        code, out = run(["cohomology", path, "--m", "1"])
        assert code == 0
        assert out.strip() == "C=27 Z=11 B=3 H=8"

    def test_coadjoint_missing_exit_2(self, tmpfiles):
        path = tmpfiles("noco.json", ff.algebra_to_json(samples.no_coadjoint()))
        code, _ = run(["cohomology", path, "--m", "0", "--rep", "coadjoint"])
        assert code == 2

    def test_an_algebra_that_breaks_the_fundamental_identity_exit_2_with_the_law(self, tmpfiles, capsys):
        # delta^2 != 0 at m = 1 is the input's fault, named with the broken
        # law and its witness
        path = tmpfiles("not-fi.json", ff.algebra_to_json(_breaks_the_fundamental_identity()))
        code, out = run(["cohomology", path, "--m", "1"])
        err = capsys.readouterr().err
        assert (code, out) == (2, "")
        assert err.startswith("error: delta^2 != 0: basis cochain 1 of C^0, coordinate x=")
        assert "; the algebra fails fundamental-identity: {" in err and "internal error" not in err

    def test_rep_file_block(self, tmpfiles):
        a = samples.h3()
        from nambu.cohomology import adjoint_rep, wedge_basis

        rep = adjoint_rep(a)
        wb = wedge_basis(a.space, 1)
        obj = ff.algebra_to_json(a)
        obj["representation"] = {
            "dim": 3,
            "parity": [0, 0, 0],
            "nu": ff.matrix_to_json(rep.nu),
            "rho": [
                {"wedge": [i + 1 for i in t], "matrix": ff.matrix_to_json(rep.rho[w])}
                for w, t in enumerate(wb.elements)
            ],
        }
        path = tmpfiles("h3rep.json", obj)
        code, out = run(["verify", path, "--rep"])
        assert code == 0
        code, out = run(["cohomology", path, "--m", "1", "--rep", "file"])
        assert code == 0
        assert out.strip() == "C=27 Z=11 B=3 H=8"

    def test_n4_adjoint_m2_line(self, tmpfiles):
        path = tmpfiles("n4.json", ff.algebra_to_json(samples.n4()))
        code, out = run(["cohomology", path, "--m", "2"])
        assert code == 0
        assert out.strip() == "C=576 Z=164 B=69 H=95"

    def test_same_bytes_under_python_O(self, tmpfiles):
        # -O strips assert statements: the answer must not depend on them;
        # the sheared H3 in a dense basis takes the non-diagonal path, where
        # every delta image is held to the equations of the next cochain space
        shear = twist_by_endomorphism(samples.h3(), Matrix(3, 3, [1, 0, 0, 1, 1, 0, 0, 0, 1]))
        sheared = _dense_basis(shear, random.Random(0))
        assert not sheared.alpha.is_diagonal()
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        for name, a, expected in (
            ("h3.json", samples.h3(), "C=27 Z=11 B=3 H=8\n"),
            ("h3-sheared-dense.json", sheared, "C=13 Z=5 B=2 H=3\n"),
        ):
            path = tmpfiles(name, ff.algebra_to_json(a))
            outputs = []
            for flags in ([], ["-O"]):
                proc = subprocess.run(
                    [sys.executable, *flags, "-m", "nambu.cli", "cohomology", path, "--m", "1"],
                    capture_output=True,
                    env=env,
                    check=True,
                )
                outputs.append(proc.stdout)
            assert outputs[0] == outputs[1] == expected.encode(), name

    def test_dump_writes_basis(self, tmpfiles, tmp_path):
        path = tmpfiles("ab2.json", ff.algebra_to_json(samples.abelian(2)))
        dump = str(tmp_path / "basis.json")
        code, _ = run(["cohomology", path, "--m", "1", "--dump", dump])
        assert code == 0
        payload = json.loads(open(dump).read())
        assert payload["C"] == len(payload["basis"]) == 8


class TestSeriesCommand:
    def test_h3_line(self, tmpfiles):
        path = tmpfiles("h3.json", ff.algebra_to_json(samples.h3()))
        code, out = run(["series", path])
        assert code == 0
        assert out.strip() == "nilpotent k=2, solvable k=2"

    def test_infinite_flag(self, tmpfiles):
        obj = {
            "name": "affine2",
            "n": 2,
            "dim": 2,
            "parity": [0, 0],
            "alpha": [["1", "0"], ["0", "1"]],
            "bracket": [{"args": [1, 2], "value": {"2": "1"}}],
        }
        path = tmpfiles("affine.json", obj)
        code, out = run(["series", path])
        assert code == 0
        assert out.strip() == "nilpotent k=inf, solvable k=2"


class TestTwistExtendCommands:
    def test_twist_roundtrip(self, tmpfiles, tmp_path):
        path = tmpfiles("h3.json", ff.algebra_to_json(samples.h3()))
        endo = tmpfiles("endo.json", {"matrix": [["3", "0", "0"], ["0", "1", "0"], ["0", "0", "3"]]})
        out_path = str(tmp_path / "twisted.json")
        code, _ = run(["twist", path, "--endo", endo, "--out", out_path])
        assert code == 0
        twisted = ff.load(out_path)
        assert bracket_basis(twisted.algebra, (0, 1)) == [0, 0, 3]
        assert verify_algebra(twisted.algebra).ok

    def test_twist_rejects_non_morphism(self, tmpfiles):
        path = tmpfiles("h3.json", ff.algebra_to_json(samples.h3()))
        endo = tmpfiles("endo.json", {"matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "5"]]})
        code, _ = run(["twist", path, "--endo", endo])
        assert code == 2

    def test_extend_command(self, tmpfiles, tmp_path):
        b = samples.abelian(0, 1)
        datum = {
            "base": ff.algebra_to_json(b),
            "fiber": {"dim": 1, "parity": [0], "alpha": [["1"]]},
            "module": {"dim": 1, "parity": [0], "nu": [["1"]], "rho": []},
            "cocycle": [{"args": [1, 1], "value": {"1": "1"}}],
        }
        path = tmpfiles("datum.json", datum)
        out_path = str(tmp_path / "ext.json")
        code, _ = run(["extend", path, "--out", out_path])
        assert code == 0
        ext = ff.load(out_path)
        assert ext.algebra.dim == 2
        assert bracket_basis(ext.algebra, (1, 1)) == [1, 0]


    def test_extend_rejects_an_even_cocycle_with_odd_coordinates(self, tmpfiles, capsys):
        # f(e1, f1) is odd on the even fiber: the datum must be refused up
        # front, not crash while building the bracket
        datum = {
            "base": {"dim": 2, "n": 2, "parity": [0, 1], "alpha": [["1", "0"], ["0", "1"]], "bracket": []},
            "fiber": {"dim": 1, "parity": [0], "alpha": [["1"]]},
            "module": {"dim": 1, "parity": [0], "nu": [["1"]], "rho": []},
            "cocycle": [{"args": [1, 2], "value": {"1": "1"}}, {"args": [2, 1], "value": {"1": "-1"}}],
        }
        assert main(["extend", tmpfiles("datum.json", datum)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1


class TestTStarCommands:
    def test_tstar_zero_h3(self, tmpfiles, tmp_path):
        path = tmpfiles("h3.json", ff.algebra_to_json(samples.h3()))
        out_path = str(tmp_path / "t.json")
        code, out = run(["tstar", path, "--out", out_path])
        assert code == 0
        assert "metric: PASS" in out
        t = ff.load(out_path)
        assert t.algebra.dim == 6
        assert t.form is not None

    def test_tstar_verifies_the_metric_once(self, tmpfiles, tmp_path, monkeypatch):
        from nambu import core

        real = core.verify_metric
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        for name, mod in list(sys.modules.items()):
            if name.startswith("nambu."):
                for key, value in list(vars(mod).items()):
                    if value is real:
                        monkeypatch.setattr(mod, key, counting)
        path = tmpfiles("n4.json", ff.algebra_to_json(samples.n4()))
        code, out = run(["tstar", path, "--out", str(tmp_path / "t.json")])
        assert (code, out) == (0, "metric: PASS\n")
        assert len(calls) == 1

    def test_tstar_with_theta_file(self, tmpfiles, tmp_path):
        g = samples.abelian(1, 1)
        sp = theta_spaces(g)
        vec = sp["closed_cyclic"].basis_vectors()[0]
        from nambu.cohomology import Cochain

        theta = Cochain(sp["model"], 0, list(vec))
        path = tmpfiles("ab11.json", ff.algebra_to_json(g))
        theta_path = tmpfiles("theta.json", {"theta": ff.cochain_to_json(theta)})
        out_path = str(tmp_path / "t.json")
        code, out = run(["tstar", path, "--theta", theta_path, "--out", out_path])
        assert code == 0
        assert "metric: PASS" in out

    def test_tstar_rejects_a_theta_with_odd_coordinates(self, tmpfiles, capsys):
        # theta(f1, f1) lands in the odd dual direction: an odd 1-cochain
        odd = {"dim": 1, "n": 2, "parity": [1], "alpha": [["1"]], "bracket": []}
        theta = {"theta": [{"args": [1, 1], "value": {"1": "1"}}]}
        assert main(["tstar", tmpfiles("odd1.json", odd), "--theta", tmpfiles("t.json", theta)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1

    def test_equiv_command(self, tmpfiles, tmp_path):
        g = samples.abelian(1, 1)
        sp = theta_spaces(g)
        vec = sp["closed_cyclic"].basis_vectors()[0]
        from nambu.cohomology import Cochain

        theta = Cochain(sp["model"], 0, list(vec))
        path = tmpfiles("ab11.json", ff.algebra_to_json(g))
        t1 = tmpfiles("t1.json", {"theta": ff.cochain_to_json(theta)})
        t0 = tmpfiles("t0.json", {"theta": []})
        out_file = str(tmp_path / "equiv.json")
        code, _ = run(["equiv", path, t1, t0, "--out", out_file])
        assert code == 0
        payload = json.loads(open(out_file).read())
        assert payload["kind"] == "inequivalent"
        code, _ = run(["equiv", path, t1, t1, "--out", out_file])
        payload = json.loads(open(out_file).read())
        assert payload["kind"] == "isometrically_equivalent"

    def test_decompose_command_and_byte_stability(self, tmpfiles, tmp_path):
        base = tmpfiles("h3.json", ff.algebra_to_json(samples.h3()))
        t_path = str(tmp_path / "t.json")
        run(["tstar", base, "--out", t_path])
        c1 = str(tmp_path / "c1.json")
        c2 = str(tmp_path / "c2.json")
        assert run(["decompose", t_path, "--out", c1])[0] == 0
        assert run(["decompose", t_path, "--out", c2])[0] == 0
        assert open(c1).read() == open(c2).read()
        payload = json.loads(open(c1).read())
        assert payload["checks"]["length_bound"] is True

    def test_decompose_needs_field_extension_exit_3(self, tmpfiles):
        obj = ff.algebra_to_json(samples.abelian(1), form=Matrix.from_rows([[1]]))
        path = tmpfiles("ab1.json", obj)
        code, _ = run(["decompose", path])
        assert code == 3

    def test_decompose_non_metric_exit_2(self, tmpfiles):
        obj = ff.algebra_to_json(samples.h3(), form=Matrix.identity(3))
        path = tmpfiles("h3m.json", obj)
        code, _ = run(["decompose", path])
        assert code == 2


class TestFuzzCommand:
    def test_fuzz_deterministic(self):
        code1, out1 = run(["fuzz", "--seed", "3", "--count", "4"])
        code2, out2 = run(["fuzz", "--seed", "3", "--count", "4"])
        assert code1 == code2 == 0
        assert out1 == out2


class TestParserOncePerProcess:
    def test_parser_is_built_once_across_calls(self, tmpfiles, monkeypatch, capsys):
        import argparse

        from nambu import cli

        built = []
        real_init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        path = tmpfiles("h3.json", ff.algebra_to_json(samples.h3()))
        assert main(["cohomology", path, "--m", "1"]) == 0
        first = capsys.readouterr()
        assert first.out == "C=27 Z=11 B=3 H=8\n"
        parsers = len(built)
        assert parsers > 0
        # a usage error between two good requests leaves the parser usable
        with pytest.raises(SystemExit) as raised:
            main(["cohomology", path])
        assert raised.value.code == 2
        assert "the following arguments are required: --m" in capsys.readouterr().err
        assert main(["cohomology", path, "--m", "1"]) == 0
        assert capsys.readouterr() == first
        # handlers are looked up per call, so a replaced one is the one run
        monkeypatch.setattr(cli, "cmd_series", lambda args: print("replaced") or 0)
        assert main(["series", path]) == 0
        assert capsys.readouterr().out == "replaced\n"
        assert len(built) == parsers
