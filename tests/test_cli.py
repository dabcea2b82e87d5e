"""Tests for the command-line front end."""

import json
import os
import tempfile

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from jacobisobolev import cli, ladder, numkernel, sobolev
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

    def test_missing_field_diagnostic(self, tmp_path):
        doc = {"alpha": "0", "points": [], "n": 3}
        with pytest.raises(ConfigError, match="beta"):
            load_config(write_config(tmp_path, doc))

    def test_bad_point_diagnostic(self, tmp_path):
        doc = dict(
            LEGENDRE_CONFIG, points=[{"c": "2", "terms": [{"k": "one", "lambda": "1"}]}]
        )
        with pytest.raises(ConfigError, match=r"points\[0\]"):
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
        assert mpf(report["ode_residual"]) < mpf("1e-19")
        assert len(report["q0"]) == 2 * 2 + 3  # degree 2d+2 => 2d+3 coefficients

    def test_verify_passes(self, tmp_path, capsys):
        doc = dict(SADDLE_CONFIG, n=6)
        rc = main(["verify", "--config", write_config(tmp_path, doc)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_passed"] is True
        assert all(c["passed"] for c in report["checks"])

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
        for args, memo_out in zip(runs, memo):
            out = str(tmp_path / "plain.json")
            assert main(["verify", *args, "--out", out]) == 0
            with open(memo_out, "rb") as f1, open(out, "rb") as f2:
                assert f1.read() == f2.read()

    def test_electro_roots_s_n_once_by_aberth(self, tmp_path, monkeypatch):
        # decompose_field and classify both need the zeros of S_n: one
        # two-stage Aberth solve gives them.  delta and phi1 take the same
        # path, and nothing reaches mpmath.polyroots.
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
        # polys and zeros never read (A2, B2); electro reads them at n - 1 and n.
        levels = []
        real = sobolev.SobolevFamily._connection_numerators

        def counting(family, m):
            levels.append(m)
            return real(family, m)

        monkeypatch.setattr(sobolev.SobolevFamily, "_connection_numerators", counting)
        path = write_config(tmp_path, SADDLE_CONFIG)
        for command in ("polys", "zeros", "electro"):
            assert main([command, "--config", path, "--out", str(tmp_path / f"{command}.json")]) == 0
        assert sorted(levels) == [SADDLE_CONFIG["n"] - 1, SADDLE_CONFIG["n"]]

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


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["polys", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

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

    def test_missing_config_is_2(self, tmp_path):
        assert main(["polys", "--config", str(tmp_path / "nope.json")]) == 2

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
