"""Tests for the command-line front end."""

import dataclasses
import json
import os
import subprocess
import sys
import tempfile

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from jacobisobolev import cli, electrostatics, jacobi, ladder, numkernel, sobolev
from jacobisobolev.cli import (
    ConfigError,
    cmd_polys,
    load_config,
    main,
)
from jacobisobolev.numkernel import Poly, tol
from jacobisobolev.sobolev import build_family

INTRO_CONFIG = {
    "alpha": "0",
    "beta": "0",
    "points": [
        {"c": "-2", "terms": [{"k": 1, "lambda": "1"}]},
        {"c": "2", "terms": [{"k": 1, "lambda": "1"}]},
    ],
    "n": 3,
    "precision_bits": 256,
}

LEGENDRE_CONFIG = {"alpha": "0", "beta": "0", "points": [], "n": 5}

SADDLE_CONFIG = {
    "alpha": "0",
    "beta": "0",
    "points": [{"c": "2", "terms": [{"k": 1, "lambda": "1"}]}],
    "n": 12,
}


CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
SHIPPED_CONFIGS = sorted(name[: -len(".json")] for name in os.listdir(CONFIG_DIR) if name.endswith(".json"))


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestConfig:
    @pytest.mark.parametrize("config", SHIPPED_CONFIGS)
    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_report_is_a_config(self, tmp_path, command, config):
        # A JSON report carries the whole configuration: fed back as
        # --config, it gives the same report, byte for byte.
        first, second = str(tmp_path / "first.json"), str(tmp_path / "second.json")
        path = os.path.join(CONFIG_DIR, f"{config}.json")
        assert main([command, "--config", path, "--n", "6", "--out", first]) == 0
        assert main([command, "--config", first, "--out", second]) == 0
        with open(first, "rb") as f1, open(second, "rb") as f2:
            assert f1.read() == f2.read()

    def test_decimal_strings_required(self, tmp_path):
        bad = dict(INTRO_CONFIG, alpha=0.25)
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, bad))

    def test_decimal_strings_not_through_double(self, tmp_path):
        doc = dict(LEGENDRE_CONFIG, alpha="0.1", beta="0.2")
        cfg = load_config(write_config(tmp_path, doc))
        alpha = cfg["product"].jacobi.alpha
        assert abs(alpha - mpf(1) / 10) < mpf(10) ** -70

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["alpha", "beta", "c", "lambda"])
    def test_non_finite_values_rejected(self, tmp_path, capsys, field, value):
        doc = json.loads(json.dumps(SADDLE_CONFIG))
        if field in ("alpha", "beta"):
            doc[field] = value
            where = f"config.{field}"
        elif field == "c":
            doc["points"][0]["c"] = value
            where = "config.points[0].c"
        else:
            doc["points"][0]["terms"][0]["lambda"] = value
            where = "config.points[0].terms[0].lambda"
        assert main(["polys", "--config", write_config(tmp_path, doc), "--n", "4"]) == 2
        assert where in capsys.readouterr().err

    def test_missing_field_diagnostic(self, tmp_path):
        doc = {"alpha": "0", "points": [], "n": 3}
        with pytest.raises(ConfigError, match="beta"):
            load_config(write_config(tmp_path, doc))

    def test_bad_point_diagnostic(self, tmp_path):
        # A derivative order is a JSON integer >= 0: not a string, not a
        # boolean, not negative.
        for k in ("one", True, -1):
            doc = dict(
                LEGENDRE_CONFIG, points=[{"c": "2", "terms": [{"k": k, "lambda": "1"}]}]
            )
            with pytest.raises(ConfigError, match=r"points\[0\]\.terms\[0\]"):
                load_config(write_config(tmp_path, doc))


class TestCommands:
    def test_polys_intro_cubic(self, tmp_path):
        cfg = load_config(write_config(tmp_path, INTRO_CONFIG))
        report = cmd_polys(cfg)
        coeffs = [mpf(c) for c in report["coefficients"]]
        assert abs(coeffs[1] + mpf("9.15")) < mpf("1e-30")
        assert coeffs[3] == 1
        assert report["schema"] == 1

    def test_zeros_legendre_symmetric(self, tmp_path, capsys):
        rc = main(["zeros", "--config", write_config(tmp_path, LEGENDRE_CONFIG)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        roots = [mpf(r["re"]) for r in report["roots"]]
        assert len(roots) == 5
        assert all(abs(mpf(r["im"])) == 0 for r in report["roots"])
        assert all(-1 < r < 1 for r in roots)
        for r in roots:
            assert any(abs(r + s) < mpf("1e-40") for s in roots)  # symmetry

    def test_zeros_csv(self, tmp_path, capsys):
        rc = main(
            [
                "zeros",
                "--config",
                write_config(tmp_path, LEGENDRE_CONFIG),
                "--format",
                "csv",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "index,re,im"
        assert len(lines) == 6

    def test_electro_saddle(self, tmp_path, capsys):
        rc = main(["electro", "--config", write_config(tmp_path, SADDLE_CONFIG)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["classification"] == "SaddlePoint"
        assert len(report["hessian_eigenvalues"]) == 12
        assert report["negative_index_set"] == [11]
        assert report["truncated_hessian_pd"] is True

    def test_ode_report(self, tmp_path, capsys):
        doc = dict(SADDLE_CONFIG, n=5)
        rc = main(["ode", "--config", write_config(tmp_path, doc)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        # Taken in the guard at 2p = 512 bits, where the ODE is stored.
        assert mpf(report["ode_residual"]) <= mpmath.ldexp(1, -256)
        assert len(report["q0"]) == 2 * 2 + 3  # degree 2d+2 => 2d+3 coefficients

    def test_verify_passes(self, tmp_path, capsys):
        doc = dict(SADDLE_CONFIG, n=6)
        rc = main(["verify", "--config", write_config(tmp_path, doc)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_passed"] is True
        assert all(c["passed"] for c in report["checks"])

    @pytest.mark.parametrize("shift,passed", [(8, False), (-8, True)])
    def test_verify_judges_identities_by_the_rule(self, capsys, monkeypatch, shift, passed):
        # An identity suite passes when its residual holds 2^-p
        # (SobolevFamily.holds): 2^8 above it fails, 2^8 below it passes.
        monkeypatch.setattr(cli, "ode_residual", lambda ld, family: mpmath.ldexp(1, shift - family.prec))
        path = os.path.join(CONFIG_DIR, "legendre_saddle.json")
        assert main(["verify", "--config", path, "--n", "3", "--precision", "128"]) == (0 if passed else 3)
        checks = {c["name"]: c["passed"] for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks.pop("second_order_ode") is passed
        assert all(checks.values())

    @pytest.mark.parametrize("field", ["q2", "q4"])
    @pytest.mark.parametrize("shift,passed", [(8, False), (-8, True)])
    def test_verify_ladder_catches_a_moved_q(self, capsys, monkeypatch, field, shift, passed):
        # The largest coefficient of q2 (lowering) or q4 (raising), moved by a
        # relative 2^(8-p) in the guard, fails the ladder identity at every m;
        # moved by 2^(-8-p), it holds.
        real, held = ladder.ladder_residual, []

        def moved(ld, family):
            q = getattr(ld, field)
            with family.guard():
                coeffs = list(q.coeffs)
                top = max(range(len(coeffs)), key=lambda i: abs(coeffs[i]))
                coeffs[top] *= 1 + mpmath.ldexp(1, shift - family.prec)
                residual = real(dataclasses.replace(ld, **{field: Poly(coeffs)}), family)
            held.append(family.holds(residual, 1))
            return residual

        monkeypatch.setattr(cli, "ladder_residual", moved)
        path = os.path.join(CONFIG_DIR, "two_points_mixed_orders.json")
        assert main(["verify", "--config", path, "--n", "8", "--precision", "128"]) == (0 if passed else 3)
        assert held == [passed] * 7
        checks = {c["name"]: c["passed"] for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks.pop("ladder_operators") is passed
        assert all(checks.values())

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("config", ["legendre_saddle", "no_masses"])
    def test_verify_suites_run_by_degree(self, tmp_path, capsys, config, n):
        # The ladder and ODE suites need n >= 2, the recurrence n >= 3 and
        # the electrostatic suite n >= 2 and a mass point; the others always
        # run, the ordering probe last.
        if config == "no_masses":
            path = write_config(tmp_path, {"alpha": "0.5", "beta": "1.5", "points": [], "n": n, "precision_bits": 128})
        else:
            path = os.path.join(CONFIG_DIR, f"{config}.json")
        assert main(["verify", "--config", path, "--n", str(n)]) == 0
        want = ["classical_jacobi_ode", "sobolev_orthogonality"]
        if n >= 2:
            want += ["ladder_operators", "second_order_ode"]
        if n >= 3:
            want += ["rational_recurrence"]
        if n >= 2 and config != "no_masses":
            want += ["electrostatic_critical_point"]
        want += ["sequential_ordering_probe"]
        assert [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]] == want

    def test_n_override(self, tmp_path, capsys):
        rc = main(
            ["zeros", "--config", write_config(tmp_path, LEGENDRE_CONFIG), "--n", "3"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n"] == 3
        assert len(report["roots"]) == 3


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        shipped = os.path.join(CONFIG_DIR, "two_points_mixed_orders.json")
        runs = [
            ["--config", write_config(tmp_path, SADDLE_CONFIG)],
            ["--config", shipped, "--n", "8"],
        ]
        for args in runs:
            out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
            assert main(["electro", *args, "--out", out1]) == 0
            assert main(["electro", *args, "--out", out2]) == 0
            with open(out1, "rb") as f1, open(out2, "rb") as f2:
                assert f1.read() == f2.read()

    def test_complex_delta_zeros_in_one_order(self, tmp_path):
        # delta has one conjugate pair here.  Its two members share their
        # real part and are listed +i first, so the warnings come in the
        # same order at every precision, not in the order of the last bits.
        shipped = os.path.join(CONFIG_DIR, "two_points_mixed_orders.json")
        signs = []
        for bits in (128, 256):
            out = str(tmp_path / f"electro-{bits}.json")
            assert main(["electro", "--config", shipped, "--n", "12", "--precision", str(bits), "--out", out]) == 0
            with open(out, encoding="utf-8") as fh:
                warnings = [w for w in json.load(fh)["warnings"] if w.startswith("delta zero off the real axis")]
            assert len(warnings) == 2
            (re1, im1), (re2, im2) = (w.rsplit(": ", 1)[1].rstrip("i").split(" + ") for w in warnings)
            assert re1 == re2 and im1 == im2.lstrip("-") and not im1.startswith("-")
            signs.append([w.endswith(im1 + "i") for w in warnings])
        assert signs[0] == signs[1]

    def test_verify_same_with_and_without_ladder_memo(self, tmp_path, monkeypatch):
        shipped = os.path.join(CONFIG_DIR, "two_points_mixed_orders.json")
        runs = [
            ["--config", write_config(tmp_path, SADDLE_CONFIG), "--n", "6"],
            ["--config", shipped, "--n", "6"],
        ]
        memo = []
        for args in runs:
            out = str(tmp_path / f"memo{len(memo)}.json")
            assert main(["verify", *args, "--out", out]) == 0
            memo.append(out)
        # build_ladder without its memo, at every name it is called by.
        monkeypatch.setattr(cli, "build_ladder", ladder._build_ladder)
        monkeypatch.setattr(ladder, "build_ladder", ladder._build_ladder)
        monkeypatch.setattr(electrostatics, "build_ladder", ladder._build_ladder)
        for args, memo_out in zip(runs, memo):
            out = str(tmp_path / "plain.json")
            assert main(["verify", *args, "--out", out]) == 0
            with open(memo_out, "rb") as f1, open(out, "rb") as f2:
                assert f1.read() == f2.read()

    def test_electro_roots_s_n_once_by_aberth(self, tmp_path, monkeypatch):
        # critical_point reads the zeros of S_n once, for the field and the
        # gradient: one two-stage Aberth solve gives them.  delta and phi1
        # take the same path, and nothing reaches mpmath.polyroots.
        aberth_calls = []
        real_aberth = numkernel.aberth_roots

        def no_polyroots(*args, **kwargs):
            raise AssertionError("mpmath.polyroots called")

        def counting_aberth(evaluate, seeds):
            aberth_calls.append((mp.prec, len(seeds)))
            return real_aberth(evaluate, seeds)

        monkeypatch.setattr(mpmath, "polyroots", no_polyroots)
        monkeypatch.setattr(numkernel, "aberth_roots", counting_aberth)
        assert main(["electro", "--config", write_config(tmp_path, SADDLE_CONFIG)]) == 0
        n = SADDLE_CONFIG["n"]
        # the double-precision seeds, then the zeros
        assert [call for call in aberth_calls if call[1] == n] == [(53, n), (256, n)]
        assert len(aberth_calls) > 2

    def test_connection_numerators_on_demand(self, tmp_path, monkeypatch):
        # polys and zeros never read (A2, B2); electro reads them at n - 1
        # and n; verify builds each level 1..n once.
        levels = []
        real = ladder._connection_level

        def counting(family, m):
            levels.append(m)
            return real(family, m)

        monkeypatch.setattr(ladder, "_connection_level", counting)
        path = write_config(tmp_path, SADDLE_CONFIG)
        for command in ("polys", "zeros", "electro"):
            assert main([command, "--config", path, "--out", str(tmp_path / f"{command}.json")]) == 0
        assert sorted(levels) == [SADDLE_CONFIG["n"] - 1, SADDLE_CONFIG["n"]]
        levels.clear()
        assert main(["verify", "--config", path, "--n", "6", "--out", str(tmp_path / "verify.json")]) == 0
        assert sorted(levels) == [1, 2, 3, 4, 5, 6]

    def test_degrees_solved_on_demand(self, tmp_path, monkeypatch):
        # Building the family solves nothing: polys and zeros solve S_n,
        # ode and electro S_{n-1} and S_n, verify every S_m with m <= n,
        # each once.
        solved = []
        real = sobolev.SobolevFamily.kernel

        def recording(family, m):
            solved.append(m)
            return real(family, m)

        monkeypatch.setattr(sobolev.SobolevFamily, "kernel", recording)
        path = write_config(tmp_path, SADDLE_CONFIG)
        n = SADDLE_CONFIG["n"]
        for command, want in (("polys", [n]), ("zeros", [n]), ("ode", [n - 1, n]), ("electro", [n - 1, n])):
            solved.clear()
            assert main([command, "--config", path, "--out", str(tmp_path / f"{command}.json")]) == 0
            assert sorted(solved) == want, command
        solved.clear()
        assert main(["verify", "--config", path, "--n", "6", "--out", str(tmp_path / "verify.json")]) == 0
        assert sorted(solved) == list(range(7))

    def test_monomial_forms_on_demand(self, tmp_path, monkeypatch):
        # zeros reads S_n through its Jacobi coefficients only; polys sums
        # one monomial S_m, at n.
        shipped = os.path.join(CONFIG_DIR, "two_symmetric_masses.json")
        families = []

        def capturing(product, n):
            families.append(build_family(product, n))
            return families[-1]

        monkeypatch.setattr(cli, "build_family", capturing)
        assert main(["polys", "--config", shipped, "--n", "10", "--out", str(tmp_path / "polys.json")]) == 0
        assert list(families[0].sob_polys) == [10]

        def no_monomials(self, k):
            raise AssertionError("monomial P_k built")

        monkeypatch.setattr(jacobi.JacobiCache, "poly", no_monomials)
        assert main(["zeros", "--config", shipped, "--n", "10", "--out", str(tmp_path / "zeros.json")]) == 0
        assert families[1].sob_polys == {}

    @pytest.mark.parametrize("command", ["ode", "electro"])
    def test_reports_never_format_polys(self, tmp_path, monkeypatch, command):
        # mpf * Poly must reach Poly.__rmul__ without mpmath formatting the
        # polynomial into an error message first.
        shipped = os.path.join(CONFIG_DIR, "two_symmetric_masses.json")
        args = [command, "--config", shipped, "--n", "10"]
        plain = str(tmp_path / "plain.json")
        assert main([*args, "--out", plain]) == 0

        def no_repr(self):
            raise AssertionError("Poly.__repr__ called")

        monkeypatch.setattr(Poly, "__repr__", no_repr)
        patched = str(tmp_path / "patched.json")
        assert main([*args, "--out", patched]) == 0
        with open(plain, "rb") as f1, open(patched, "rb") as f2:
            assert f1.read() == f2.read()

    def test_caller_precision_restored(self, tmp_path):
        before = mp.prec
        path = write_config(tmp_path, LEGENDRE_CONFIG)
        assert main(["zeros", "--config", path, "--precision", "128", "--out", str(tmp_path / "z.json")]) == 0
        assert main(["zeros", "--config", str(tmp_path / "nope.json"), "--precision", "128"]) == 2
        assert mp.prec == before

    def test_precisions_in_turn_match_separate_processes(self, tmp_path, capsys):
        # 128, 256 and 128 bits in one process give the bytes of three fresh
        # processes: nothing computed at one precision leaks into the next.
        path = os.path.join(CONFIG_DIR, "legendre_saddle.json")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))))
        for bits in (128, 256, 128):
            args = ["electro", "--config", path, "--n", "12", "--precision", str(bits)]
            assert main(args) == 0
            fresh = subprocess.run([sys.executable, "-m", "jacobisobolev.cli", *args], env=env,
                                   capture_output=True, text=True, check=True)
            assert capsys.readouterr().out == fresh.stdout, bits


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        # Each bad input is named: a boolean is not an integer, --precision 0
        # is not a missing override, and no derivative order is negative.
        negative_k = dict(SADDLE_CONFIG, points=[{"c": "2", "terms": [{"k": -1, "lambda": "1"}]}])
        cases = [
            ("polys", "{not json", [], "not valid JSON"),
            ("polys", json.dumps(dict(SADDLE_CONFIG, n=True)), [], "n:"),
            ("polys", json.dumps(SADDLE_CONFIG), ["--precision", "0"], "precision_bits"),
        ] + [(command, json.dumps(negative_k), [], "config.points[0].terms[0]") for command in sorted(cli.COMMANDS)]
        path = tmp_path / "bad.json"
        for command, text, extra, field in cases:
            path.write_text(text, encoding="utf-8")
            assert main([command, "--config", str(path)] + extra) == 2, (command, text, extra)
            err = capsys.readouterr().err
            assert "config error" in err and field in err, err

    def test_invalid_product_is_2(self, tmp_path, capsys):
        doc = dict(LEGENDRE_CONFIG, points=[{"c": "0.5", "terms": [{"k": 0, "lambda": "1"}]}])
        assert main(["polys", "--config", write_config(tmp_path, doc)]) == 2

    def test_structure_failure_is_3(self, tmp_path, capsys):
        # A huge order-0 mass at the endpoint pins a zero of S_n onto the
        # mass point; the field decomposition detects that its charge model
        # cannot represent this near-degenerate configuration.
        doc = {
            "alpha": "0",
            "beta": "0",
            "points": [{"c": "1", "terms": [{"k": 0, "lambda": "1e8"}]}],
            "n": 8,
        }
        rc = main(["electro", "--config", write_config(tmp_path, doc)])
        assert rc == 3
        assert "AssumptionViolated" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "k, lam, cause",
        [
            # A multiple zero of psi2 at the mass point, which the grouping
            # counts once: the simple-pole slope psi2'(2) is exactly 0.
            (12, "1", "AssumptionViolated: pole order at 2.0 exceeds its structural multiplicity"),
            # A zero of S_n rounds to exactly the pole at 2.
            (0, "1e300", "SingularConfiguration: charge coincides with pole 2.0"),
        ],
        ids=["slope-zero", "zero-on-pole"],
    )
    def test_singular_field_is_3(self, tmp_path, capsys, k, lam, cause):
        doc = {"alpha": "0", "beta": "0", "points": [{"c": "2", "terms": [{"k": k, "lambda": lam}]}], "n": 6}
        path = write_config(tmp_path, doc)
        out = str(tmp_path / "verify.json")
        for bits in ("128", "256"):
            assert main(["electro", "--config", path, "--precision", bits]) == 3
            assert cause in capsys.readouterr().err
            assert main(["verify", "--config", path, "--precision", bits, "--out", out]) == 3
            with open(out, encoding="utf-8") as fh:
                checks = {c["name"]: c for c in json.load(fh)["checks"]}
            assert checks["electrostatic_critical_point"]["detail"] == cause

    def test_nonreal_zeros_are_no_critical_point(self, tmp_path, capsys):
        # S_6 has the pair -2.99958 +- 0.05365i: verify reads ZerosNotSimple
        # before it takes a gradient, as electro does, and not the gradient
        # at the real zeros alone.
        doc = {"alpha": "-0.5", "beta": "14", "n": 6, "precision_bits": 256,
               "points": [{"c": "-3", "terms": [{"k": 0, "lambda": "0.5"}, {"k": 1, "lambda": "0.5"}]},
                          {"c": "-2", "terms": [{"k": 1, "lambda": "0.5"}, {"k": 2, "lambda": "0.01"}]}]}
        path = write_config(tmp_path, doc)
        out = str(tmp_path / "verify.json")
        cause = "ZerosNotSimple: S_n has nonreal zeros"
        assert main(["electro", "--config", path]) == 3
        assert cause in capsys.readouterr().err
        assert main(["verify", "--config", path, "--out", out]) == 3
        with open(out, encoding="utf-8") as fh:
            checks = {c["name"]: c for c in json.load(fh)["checks"]}
        assert checks.pop("electrostatic_critical_point")["detail"] == cause
        assert all(c["passed"] for c in checks.values())

    # The zeros of S_12 are real and simple here, but the gradient of the
    # energy there is about 5e17 at 64 and 128 bits.
    NOT_CRITICAL = {"alpha": "0", "beta": "27", "n": 12,
                    "points": [{"c": "10", "terms": [{"k": 0, "lambda": "0.01"}, {"k": 2, "lambda": "2"}]},
                               {"c": "1.25", "terms": [{"k": 0, "lambda": "0.5"}, {"k": 2, "lambda": "100"}]},
                               {"c": "-1.5", "terms": [{"k": 0, "lambda": "0.01"}, {"k": 2, "lambda": "0.5"}]}]}

    def test_electro_refuses_zeros_that_are_no_critical_point(self, tmp_path, capsys):
        # electro names the cause by which verify's electrostatic_critical_point
        # fails, in the same line, and prints no classification.
        path = write_config(tmp_path, self.NOT_CRITICAL)
        out = str(tmp_path / "verify.json")
        for bits in ("64", "128"):
            assert main(["electro", "--config", path, "--precision", bits]) == 3
            err = capsys.readouterr().err
            assert err.startswith("NotCritical: gradient at zeros "), err
            assert main(["verify", "--config", path, "--precision", bits, "--out", out]) == 3
            capsys.readouterr()
            with open(out, encoding="utf-8") as fh:
                checks = {c["name"]: c for c in json.load(fh)["checks"]}
            assert checks["electrostatic_critical_point"]["detail"] == err.rstrip("\n")

    def test_no_critical_point_is_refused_before_the_hessian(self, tmp_path, capsys, monkeypatch):
        # critical_point refuses the zeros before classify builds the Hessian
        # and runs the eigensolver.
        def no_eigensolver(H):
            raise AssertionError("sym_eigen called")

        monkeypatch.setattr(electrostatics, "sym_eigen", no_eigensolver)
        path = write_config(tmp_path, self.NOT_CRITICAL)
        assert main(["electro", "--config", path, "--precision", "128"]) == 3
        assert capsys.readouterr().err.startswith("NotCritical: gradient at zeros ")

    def test_vanishing_raising_operator_is_named(self, tmp_path, capsys):
        # At n = 1 with alpha + beta = -1 level 0 gives C3 = 0, so q3 and q4
        # vanish identically while the ODE still holds: ode and electro name
        # that cause by the one rule at every precision, where a degree read
        # off the rounding noise named another at each.
        doc = {"alpha": "-0.5", "beta": "-0.5", "points": [{"c": "2", "terms": [{"k": 1, "lambda": "1"}]}], "n": 1}
        path = write_config(tmp_path, doc)
        cause = "StructureError: q3: leading coefficient 0.0 of degree 5 holds to 0\n"
        for bits in ("128", "256", "1024"):
            for command in ("ode", "electro"):
                assert main([command, "--config", path, "--precision", bits]) == 3
                assert capsys.readouterr().err == cause, (command, bits)

    def test_missing_config_is_2(self, tmp_path):
        assert main(["polys", "--config", str(tmp_path / "nope.json")]) == 2

    def test_config_not_utf8_is_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["polys", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "not UTF-8" in err, err

    def test_deeply_nested_config_is_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        assert main(["polys", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "nests too deeply" in err, err

    def test_unwritable_out_is_2(self, tmp_path, capsys):
        out = tmp_path / "nonexistent" / "r.json"
        assert main(["polys", "--config", write_config(tmp_path, LEGENDRE_CONFIG), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "--out" in err and str(out) in err, err

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_degree_zero_is_named(self, command, tmp_path, capsys):
        # zeros, ode and electro need n >= 1 and say so; polys and verify
        # run at n = 0, and verify passes.
        path = os.path.join(CONFIG_DIR, "two_symmetric_masses.json")
        out = str(tmp_path / "out.json")
        rc = main([command, "--config", path, "--n", "0", "--out", out])
        assert rc in (0, 2)
        if rc == 2:
            assert command in capsys.readouterr().err
        if command == "verify":
            assert rc == 0
            with open(out, encoding="utf-8") as fh:
                assert json.load(fh)["all_passed"]

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_chebyshev_first_kind_runs(self, command, tmp_path):
        # alpha + beta = -1 makes h_0 by log-Gamma and gamma2_1 0/0.  n = 2 and
        # 3, the lowest degrees the ladder commands run at here, read gamma2_1
        # through connection level 1.
        out = str(tmp_path / "out.json")
        for n in (2, 3, 8):
            doc = dict(SADDLE_CONFIG, alpha="-0.5", beta="-0.5", n=n)
            assert main([command, "--config", write_config(tmp_path, doc), "--out", out]) == 0, n
            if command == "verify":
                with open(out, encoding="utf-8") as fh:
                    assert json.load(fh)["all_passed"], n

    @pytest.mark.parametrize("command", ["zeros", "ode", "verify"])
    def test_far_mixed_orders_at_128_bits(self, command, tmp_path):
        # A pivot floor scaled to the largest entry of I + K L refused these.
        path = os.path.join(CONFIG_DIR, "two_points_mixed_orders.json")
        out = str(tmp_path / "out.json")
        assert main([command, "--config", path, "--n", "24", "--precision", "128", "--out", out]) == 0

    @pytest.mark.parametrize(
        "command,config,bits",
        [("electro", "two_points_mixed_orders", 256)],
    )
    def test_root_finder_failure_is_3(self, command, config, bits, capsys, monkeypatch):
        # One Aberth sweep cannot converge: the root finder's failure is named.
        monkeypatch.setattr(numkernel, "ABERTH_MAX_SWEEPS", 1)
        path = os.path.join(CONFIG_DIR, f"{config}.json")
        assert main([command, "--config", path, "--precision", str(bits)]) == 3
        assert "RootFailure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,config,bits",
        [
            ("zeros", "large_beta_single_mass", 64),
            ("electro", "large_beta_single_mass", 64),
            ("zeros", "two_points_mixed_orders", 64),
            ("zeros", "large_beta_single_mass", 53),
            ("electro", "two_points_mixed_orders", 128),
        ],
    )
    def test_low_precision_zeros_agree(self, command, config, bits, tmp_path):
        # mpmath.polyroots failed on these (on S_n, or on phi1 for the last);
        # the Aberth zeros agree with a 512-bit run to the digits the low
        # precision claims.
        path = os.path.join(CONFIG_DIR, f"{config}.json")
        out = str(tmp_path / "low.json")
        assert main([command, "--config", path, "--precision", str(bits), "--out", out]) == 0
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        with mpmath.workprec(512):
            cfg = load_config(path, precision_override=512)
            want = build_family(cfg["product"], cfg["n"]).zeros(cfg["n"])
            if command == "zeros":
                got = [(mpf(r["re"]), mpf(r["im"])) for r in report["roots"]]
            else:
                got = [(mpf(z), mpf(0)) for z in report["zeros"]]
                want = [(re, im) for re, im in want if im == 0]
        with mpmath.workprec(bits):
            limit = tol(2)
        assert len(got) == len(want)
        for (re, im), (wre, wim) in zip(got, want):
            assert abs(mpmath.mpc(re, im) - mpmath.mpc(wre, wim)) <= limit * max(1, abs(wre))


# A product-stream draw (alpha = 0, beta = 88, orders 1 and 2 at c = -4, -2
# and 1.5) whose 128-bit ode report held 23.3 of its 38 printed digits while
# the ladder computed at the working precision.
STREAM_ODE_CONFIG = {
    "alpha": "0",
    "beta": "88",
    "points": [
        {"c": "-4", "terms": [{"k": 1, "lambda": "0.5"}, {"k": 2, "lambda": "1"}]},
        {"c": "-2", "terms": [{"k": 1, "lambda": "2"}, {"k": 2, "lambda": "1"}]},
        {"c": "1.5", "terms": [{"k": 1, "lambda": "1"}, {"k": 2, "lambda": "2"}]},
    ],
    "n": 22,
    "precision_bits": 128,
}
ODE_COEFFICIENTS = ("q0", "q1", "q2", "q3", "q4", "ode_p0", "ode_p1", "ode_p2")


class TestOdeDigits:
    def _report(self, tmp_path, path, n, bits):
        out = str(tmp_path / f"ode-{bits}.json")
        assert main(["ode", "--config", path, "--n", str(n), "--precision", str(bits), "--out", out]) == 0
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)

    @pytest.mark.parametrize("config,n", [(None, 22), ("legendre_saddle", 24)])
    def test_every_printed_coefficient_holds(self, tmp_path, config, n):
        # Every coefficient of q0..q4 and of the ODE that a 128-bit report
        # prints (38 digits) agrees with a 1,024-bit run to 36 digits,
        # relative to max(1, |reference|).
        if config is None:
            path = write_config(tmp_path, STREAM_ODE_CONFIG)
        else:
            path = os.path.join(CONFIG_DIR, f"{config}.json")
        got = self._report(tmp_path, path, n, 128)
        ref = self._report(tmp_path, path, n, 1024)
        with mpmath.workprec(1024):
            for key in ODE_COEFFICIENTS:
                assert len(got[key]) == len(ref[key]), key
                for i, (a, b) in enumerate(zip(got[key], ref[key])):
                    a, b = mpf(a), mpf(b)
                    assert abs(a - b) <= mpf("1e-36") * max(1, abs(b)), (key, i, a, b)


@st.composite
def small_configs(draw):
    """Small random products: beta in [0, 120], |c| in [1, 4], k <= 2."""
    locations = draw(st.lists(st.integers(100, 400), min_size=1, max_size=2, unique=True))
    points = []
    for hundredths in locations:
        sign = draw(st.sampled_from(["", "-"]))
        orders = draw(st.lists(st.integers(0, 2), min_size=1, max_size=2, unique=True))
        terms = [{"k": k, "lambda": draw(st.sampled_from(["0.5", "1", "3"]))} for k in orders]
        points.append({"c": f"{sign}{hundredths / 100}", "terms": terms})
    return {
        "alpha": draw(st.sampled_from(["0", "0.5", "2"])),
        "beta": str(draw(st.integers(0, 120))),
        "points": points,
        "n": draw(st.integers(1, 8)),
        "precision_bits": draw(st.sampled_from([64, 128, 256])),
    }


@given(small_configs())
@settings(max_examples=10, deadline=None, derandomize=True)
def test_every_command_ends_in_0_2_or_3(doc):
    # A traceback is a bug: every input ends in a report or a named failure.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for command in sorted(cli.COMMANDS):
            assert main([command, "--config", path, "--out", os.path.join(tmp, "out")]) in (0, 2, 3), command
