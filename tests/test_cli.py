"""Command line tests: verbs, output formats, @file loading, determinism,
and the exit code contract (0 ok, 1 usage, 2 hypothesis, 3 non-convergence)."""

import csv
import io
import json
import math

import numpy as np
import pytest

from rlab.cli import main

BALL = '{"kind": "egg", "p": 2}'
EGG4 = '{"kind": "egg", "p": 4}'
VARYING = '{"kind": "expr", "p_check": "2+1/log(10/s)"}'
HARDY = json.dumps({"side": "hardy",
                    "entries": [{"m1": 1, "m2": 1, "re": 2.0}]})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------

def test_no_verb_is_usage_error(capsys):
    code, _out, err = run(capsys)
    assert code == 1
    assert "usage" in err


def test_unknown_verb(capsys):
    code, _out, _err = run(capsys, "frobnicate", "--domain", BALL)
    assert code == 1


def test_missing_domain(capsys):
    code, _out, _err = run(capsys, "describe")
    assert code == 1


def test_invalid_domain_json(capsys):
    code, _out, err = run(capsys, "describe", "--domain", "{bad json")
    assert code == 1
    assert "error" in err


def test_bad_exponent_is_usage_error(capsys):
    code, _out, _err = run(capsys, "describe", "--domain",
                           '{"kind": "egg", "p": 0.5}')
    assert code == 1


def test_missing_at_file(capsys):
    code, _out, _err = run(capsys, "describe", "--domain", "@/no/such/file")
    assert code == 1


def _one_line_error(err):
    return (err.startswith("error:") and len(err.strip().splitlines()) == 1
            and "Traceback" not in err)


@pytest.mark.parametrize("domain", [
    '{"kind": "egg", "p": "3"}',
    '{"kind": "egg", "p": "nan"}',
    '{"kind": "table", "s": {}, "p": [2, 3]}',
])
def test_non_numeric_domain_field(capsys, domain):
    code, _out, err = run(capsys, "describe", "--domain", domain)
    assert code == 1
    assert _one_line_error(err)


@pytest.mark.parametrize("coeffs", [
    "{bad",
    "[1,2]",
    '{"side": "hardy", "entries": [{"m1": "x", "m2": 0}]}',
    '{"side": "bergman", "entries": [{"m1": 1, "m2": 1, "re": NaN}]}',
    '{"side": "hardy", "entries": [{"m1": 1, "m2": 1, "re": NaN}]}',
    '{"side": "hardy", "entries": [{"m1": 1, "m2": 1, "im": Infinity}]}',
    '{"side": "bergman", "entries": [{"m1": 1, "m2": 1, "re": 1e400}]}',
])
def test_malformed_coefficients(capsys, coeffs):
    code, _out, err = run(capsys, "norms", "--domain", BALL,
                          "--coeffs", coeffs)
    assert code == 1
    assert _one_line_error(err)
    # unparseable JSON names its source, as a bad --domain does
    assert err.startswith("error: invalid coefficient JSON: ") == (
        coeffs == "{bad")


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def test_describe_json(capsys):
    code, out, _err = run(capsys, "describe", "--domain", EGG4,
                          "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "egg"
    assert obj["classification"]["axis0"]["class"] == "finite_type(4)"


def test_describe_csv_header(capsys):
    code, out, _err = run(capsys, "describe", "--domain", BALL)
    assert code == 0
    assert out.splitlines()[0] == "field,value"


@pytest.mark.parametrize("verb", ["describe", "dual"])
def test_describe_csv_is_valid_csv(capsys, verb):
    # the nested dict fields carry commas, so they are quoted (RFC 4180)
    code, out, _err = run(capsys, verb, "--domain", VARYING)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 8
    assert all(len(row) == 2 for row in rows)
    info = dict(rows)
    assert info["classification"].startswith("{'axis0': {")
    assert info["p_limits"].count(",") == 1


def test_dual_conjugates_exponent(capsys):
    code, out, _err = run(capsys, "dual", "--domain", EGG4,
                          "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["classification"]["axis0"]["limit"] == pytest.approx(4.0 / 3.0)


def test_curvature_grid(capsys):
    code, out, _err = run(capsys, "curvature", "--domain", BALL,
                          "--samples", "9")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s,kappa1,kappa2,kappa3,p_recovered"
    assert len(lines) == 10
    row = lines[5].split(",")
    assert float(row[1]) == pytest.approx(1.0, rel=1e-10)


def test_leray_grid_ball(capsys):
    code, out, _err = run(capsys, "leray-grid", "--domain", BALL,
                          "--max", "4", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["entries"]) == 25
    assert all(abs(e["log_norm_sq"]) < 1e-10 for e in obj["entries"])


def test_leray_rays_verdict(capsys):
    code, out, _err = run(capsys, "leray-rays", "--domain", VARYING,
                          "--max", "32", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "bounded-consistent"


@pytest.mark.parametrize("rays", ["inf", "nan", "-1", "0.5,inf"])
def test_leray_rays_rejects_bad_rays(capsys, rays):
    code, _out, err = run(capsys, "leray-rays", "--domain", BALL,
                          "--max", "16", "--rays", rays)
    assert code == 1
    assert _one_line_error(err)


def test_laplace_and_norms(capsys, tmp_path):
    coeffs = json.dumps({"side": "hardy",
                         "entries": [{"m1": 1, "m2": 1, "re": 2.0}]})
    code, out, _err = run(capsys, "laplace", "--domain", BALL,
                          "--coeffs", coeffs, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["side"] == "laplace"
    assert obj["entries"][0]["re"] == pytest.approx(2.0 / 24.0)

    code, out, _err = run(capsys, "norms", "--domain", BALL,
                          "--coeffs", coeffs, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["hardy_norm_sq"]["value"] == pytest.approx(4.0 / 24.0,
                                                          rel=1e-10)
    assert "laplace_image_nu_norm_sq" in obj


def test_laplace_image_nu_norm_keeps_its_log_past_underflow(capsys):
    # on egg 3 the image's log nu norm at delta(m, m) is -44.28, -62.97 and
    # -81.59 for m = 40, 60, 80; at m = 100 its coefficient underflows a
    # double, and the log value continues the trend
    coeffs = json.dumps({"side": "hardy",
                         "entries": [{"m1": 100, "m2": 100, "re": 1.0}]})
    code, out, _err = run(capsys, "norms", "--domain",
                          '{"kind": "egg", "p": 3}', "--coeffs", coeffs,
                          "--format", "json")
    assert code == 0
    log_value = json.loads(out)["laplace_image_nu_norm_sq"]["log_value"]
    assert math.isfinite(log_value) and -101.0 < log_value < -99.0


def test_norms_bergman_side(capsys):
    coeffs = json.dumps({"side": "bergman",
                         "entries": [{"m1": 0, "m2": 0, "re": 1.0}]})
    code, out, _err = run(capsys, "norms", "--domain", BALL,
                          "--coeffs", coeffs, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"nu_norm_sq", "omega_norm_sq"}
    assert obj["omega_norm_sq"]["value"] > obj["nu_norm_sq"]["value"]


def test_norms_omega_error_estimate(capsys):
    coeffs = json.dumps({"side": "bergman",
                         "entries": [{"m1": 1, "m2": 1, "re": 1.0}]})
    code, out, _err = run(capsys, "norms", "--domain",
                          '{"kind": "egg", "p": 3}', "--coeffs", coeffs,
                          "--format", "json")
    assert code == 0
    omega = json.loads(out)["omega_norm_sq"]
    assert 0.0 < omega["err_est"] < 1e-6 * omega["value"]


def test_norms_csv_keeps_log_value_past_overflow(capsys):
    # at delta(60, 60) on egg 3 both norms overflow a double; the CSV rows
    # still carry the finite log values that the JSON reports
    argv = ["norms", "--domain", '{"kind": "egg", "p": 3}', "--coeffs",
            json.dumps({"side": "bergman",
                        "entries": [{"m1": 60, "m2": 60, "re": 1.0}]})]
    code, out, _err = run(capsys, *argv)
    assert code == 0
    header, *rows = list(csv.reader(io.StringIO(out)))
    assert header == ["norm", "value", "err_est", "convention", "log_value",
                      "rel_err"]
    code, out, _err = run(capsys, *argv, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert [row[0] for row in rows] == list(obj)
    for name, value, _e, _c, log_value, rel_err in rows:
        assert value == "inf"
        assert math.isfinite(float(log_value))
        assert float(log_value) == obj[name]["log_value"]
        assert float(rel_err) == obj[name]["rel_err"]


@pytest.mark.parametrize("side, amp", [("hardy", 1e300), ("bergman", 1e200)])
def test_norms_of_huge_coefficients(capsys, side, amp):
    # |amp|^2 overflows a double; the sums stay in log space, so log_value
    # is the unit-coefficient value shifted by 2 log amp and value reads inf
    def norms(re):
        coeffs = json.dumps({"side": side,
                             "entries": [{"m1": 1, "m2": 1, "re": re}]})
        code, out, err = run(capsys, "norms", "--domain", BALL,
                             "--coeffs", coeffs, "--format", "json")
        assert code == 0 and err == ""
        return json.loads(out)

    big, unit = norms(amp), norms(1.0)
    assert set(big) == set(unit)
    for name, rep in big.items():
        assert rep["log_value"] == pytest.approx(
            unit[name]["log_value"] + 2.0 * math.log(amp), rel=1e-14)
        assert rep["value"] == math.inf
        assert not math.isnan(rep["err_est"])
        # err_est may overflow with value; the relative error does not
        assert math.isfinite(rep["rel_err"])
        assert rep["rel_err"] == pytest.approx(unit[name]["rel_err"],
                                               rel=1e-12, abs=0.0)


def test_compare_lemma_pass(capsys):
    code, out, _err = run(capsys, "compare-lemma", "--domain", EGG4,
                          "--samples", "5000", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["pass"] is True
    assert obj["violations"] == 0


def test_compare_lemma_hypothesis_exit(capsys):
    code, _out, err = run(capsys, "compare-lemma", "--domain",
                          '{"kind": "expr", "p_check": "2 + 1/((1.0001-s)^8)"}',
                          "--samples", "1000")
    assert code == 2
    assert "hypothesis" in err


def test_compare_lemma_range_shows_the_exponent(capsys):
    # an exponent just above 1 reads above 1 in the message
    code, _out, err = run(capsys, "compare-lemma", "--domain",
                          '{"kind": "egg", "p": 1.0000001}',
                          "--samples", "100")
    assert code == 2
    assert "exponent range [1.0000001, 1.0000001]" in err


@pytest.mark.parametrize("argv", [["dual"], ["leray-grid", "--max", "2"]],
                         ids=lambda argv: argv[0])
def test_dual_exponent_rounding_to_one(capsys, argv):
    # p/(p - 1) is 1.0 in doubles for p = 1e16; the message names the dual's
    # exponent, not p(s) of the domain given
    code, _out, err = run(capsys, *argv, "--domain",
                          '{"kind": "egg", "p": 1e16}')
    assert code == 1
    assert _one_line_error(err)
    assert "p/(p - 1)" in err


def test_weight_equiv(capsys):
    code, out, _err = run(capsys, "weight-equiv", "--domain", BALL,
                          "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["pass"] is True
    assert obj["ratio"] < 1.5


def test_weight_equiv_failure_exit(capsys):
    # the egg p = 8 varies its weight by a factor ~2, over the allowed 1.5
    code, out, _err = run(capsys, "weight-equiv", "--domain",
                          '{"kind": "egg", "p": 8}')
    assert code == 2
    assert "pass,false" in out.splitlines()


def test_counterexample(capsys):
    code, out, _err = run(capsys, "counterexample", "--kmax", "200",
                          "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["K_max"] == 200
    assert obj["tail_law_estimates"]["omega_G"] == pytest.approx(-1.5,
                                                                 abs=0.05)


# ---------------------------------------------------------------------------
# files, formats, determinism
# ---------------------------------------------------------------------------

def test_at_file_domain(capsys, tmp_path):
    path = tmp_path / "domain.json"
    path.write_text(EGG4, encoding="utf-8")
    code, out, _err = run(capsys, "describe", "--domain", f"@{path}",
                          "--format", "json")
    assert code == 0
    assert json.loads(out)["kind"] == "egg"


def test_out_file(capsys, tmp_path):
    path = tmp_path / "grid.csv"
    code, out, _err = run(capsys, "leray-grid", "--domain", BALL,
                          "--max", "2", "--out", str(path))
    assert code == 0
    assert out == ""
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "m1,m2,log_norm_sq,err_est"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    ["describe", "--domain", BALL],
    ["dual", "--domain", EGG4],
    ["curvature", "--domain", BALL, "--samples", "3"],
    ["leray-grid", "--domain", VARYING, "--max", "2"],
    ["leray-rays", "--domain", BALL, "--max", "16"],
    ["laplace", "--domain", BALL, "--coeffs", HARDY],
    ["norms", "--domain", BALL, "--coeffs", HARDY],
    ["compare-lemma", "--domain", EGG4, "--samples", "100"],
    ["weight-equiv", "--domain", '{"kind": "egg", "p": 8}'],
    ["counterexample", "--kmax", "20"],
], ids=lambda argv: argv[0])
def test_out_file_equals_stdout(capsys, tmp_path, argv, fmt):
    # every verb's output goes through one write: --out FILE gets the bytes
    # stdout would, and the exit code does not depend on where they go
    code, out, err = run(capsys, *argv, "--format", fmt)
    path = tmp_path / "out"
    assert run(capsys, *argv, "--format", fmt, "--out", str(path)) == (
        code, "", err)
    assert out and path.read_text(encoding="utf-8") == out


def test_byte_identical_reruns(capsys):
    argv = ["compare-lemma", "--domain", EGG4, "--samples", "2000",
            "--seed", "5", "--format", "json"]
    _code, out1, _err = run(capsys, *argv)
    _code, out2, _err = run(capsys, *argv)
    assert out1 == out2


def test_csv_floats_are_full_precision(capsys):
    code, out, _err = run(capsys, "describe", "--domain",
                          '{"kind": "egg", "p": 3, "a1": 7.0}')
    assert code == 0
    # b1 = 7^{-1/3} printed with 17 significant digits
    assert "%.17g" % (7.0 ** (-1.0 / 3.0)) in out
