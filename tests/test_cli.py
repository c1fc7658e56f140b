"""Command line tests: verbs, output formats, @file loading, determinism,
and the exit code contract (0 ok, 1 usage, 2 hypothesis, 3 non-convergence)."""

import contextlib
import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlab import cli
from rlab.cli import main
from rlab.diagnostics import l1ball_counterexample
from rlab.reporting import emit_json

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


def test_deeply_nested_expression_is_a_usage_error(capsys):
    nested = "(" * 5000 + "2" + ")" * 5000
    code, _out, err = run(capsys, "describe", "--domain", json.dumps(
        {"kind": "expr", "p_check": nested}))
    assert code == 1
    assert err.startswith("error: expression nested too deeply\n")
    assert "Traceback" not in err


def test_long_operator_chain_is_a_usage_error(capsys):
    # 3,000 terms would evaluate as closures 3,000 deep: refused when
    # parsed, with the caret under the 500th '+'
    source = "2+0*(" + "+".join(["s"] * 3000) + ")"
    code, _out, err = run(capsys, "describe", "--domain", json.dumps(
        {"kind": "expr", "p_check": source}))
    assert code == 1
    head, src_line, caret_line = err.splitlines()
    assert head == "error: expression nested too deeply"
    assert src_line == "  " + source
    assert caret_line == " " * (2 + 5 + 999) + "^"


@pytest.mark.parametrize("s, p", [
    ("[0, NaN, 1]", "[2, 2, 2]"),
    ("[0, 0.5, Infinity]", "[2, 2, 2]"),
    ("[-Infinity, 0.5, 1]", "[2, 2, 2]"),
    ("[0, 0.5, 1]", "[2, NaN, 2]"),
    ("[0, 0.5, 1]", "[2, -Infinity, 2]"),
    ("[0, 0.5, 1]", "[2, 3, Infinity]"),
])
def test_non_finite_table_samples(capsys, s, p):
    code, out, err = run(capsys, "describe", "--domain",
                         f'{{"kind": "table", "s": {s}, "p": {p}}}')
    assert (code, out) == (1, "")
    assert err == "error: tabulated samples must be finite\n"


@pytest.mark.parametrize("coeffs", [
    "{bad",
    "[1,2]",
    '{"side": "hardy", "entries": [{"m1": "x", "m2": 0}]}',
    '{"side": "bergman", "entries": [{"m1": 1, "m2": 1, "re": NaN}]}',
    '{"side": "hardy", "entries": [{"m1": 1, "m2": 1, "re": NaN}]}',
    '{"side": "hardy", "entries": [{"m1": 1, "m2": 1, "im": Infinity}]}',
    '{"side": "bergman", "entries": [{"m1": 1, "m2": 1, "re": 1e400}]}',
    '{"side": "hardy", "entries": [{"m1": 1.9, "m2": 1}]}',
    '{"side": "hardy", "entries": [{"m1": 1, "m2": true}]}',
    '{"side": "hardy", "entries": [{"m1": "1", "m2": 1}]}',
    '{"side": "hardy", "entries": [{"m1": 1, "m2": 1}, {"m1": 1.0, "m2": 1}]}',
    '{"side": "bergman", "entries": [{"m1": 1e30, "m2": 1, "re": 1}]}',
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


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_curvature_rejects_no_samples(capsys, samples):
    # no points would print only the header and exit 0
    code, out, err = run(capsys, "curvature", "--domain", BALL,
                         "--samples", samples)
    assert code == 1 and out == ""
    assert _one_line_error(err)


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


@pytest.mark.parametrize("rays", ["inf", "nan", "-1", "0.5,inf", ","])
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
    assert obj["entries"][0]["log_abs"] == pytest.approx(math.log(2.0 / 24.0))

    code, out, _err = run(capsys, "norms", "--domain", BALL,
                          "--coeffs", coeffs, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["hardy_norm_sq"]["value"] == pytest.approx(4.0 / 24.0,
                                                          rel=1e-10)
    assert "laplace_image_nu_norm_sq" in obj


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_laplace_log_abs_past_underflow(capsys, fmt):
    # on egg 3 the image of a unit delta(m, m) is I / (4 m!^2): e^-624.78 at
    # m = 80, and e^-823.51 at m = 100, which underflows a double to 0
    entries = [{"m1": m, "m2": m, "re": 1.0} for m in (80, 100)]
    code, out, _err = run(capsys, "laplace", "--domain",
                          '{"kind": "egg", "p": 3}', "--coeffs",
                          json.dumps({"side": "hardy", "entries": entries}),
                          "--format", fmt)
    assert code == 0
    rows = (list(csv.DictReader(io.StringIO(out))) if fmt == "csv"
            else json.loads(out)["entries"])
    at80, at100 = ({k: float(v) for k, v in r.items()} for r in rows)
    assert at80["log_abs"] == pytest.approx(-624.784, abs=1e-3)
    assert at80["re"] == pytest.approx(math.exp(at80["log_abs"]), rel=1e-12)
    assert at100["re"] == 0.0
    assert at100["log_abs"] == pytest.approx(-823.511, abs=1e-3)


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


# a 4-knot table whose moment (40, 33) does not converge (level gap 1.8e-7)
STEEP = '{"kind":"table","s":[0,0.1,0.5,1],"p":[1.05,4,1.5,2]}'


@pytest.mark.parametrize("verb", ["laplace", "norms"])
@pytest.mark.parametrize("domain, key, want", [
    (STEEP, (40, 33), 3), (STEEP, (1, 1), 0),
    ('{"kind": "egg", "p": 3}', (40, 33), 0)])
def test_hardy_side_verbs_exit_3_on_unconverged_moments(capsys, verb, domain,
                                                        key, want):
    coeffs = json.dumps({"side": "hardy", "entries": [
        {"m1": 0, "m2": 0, "re": 1.0},
        {"m1": key[0], "m2": key[1], "re": 1.0}]})
    code, out, err = run(capsys, verb, "--domain", domain, "--coeffs", coeffs,
                         "--format", "json")
    assert code == want
    # exit 3 names the first unconverged entry and its level gap
    assert err == ("not converged: entry (40, 33), level gap 1.8e-07\n"
                   if want == 3 else "")
    # the output is written either way
    assert len(json.loads(out)["entries" if verb == "laplace" else
                                "hardy_norm_sq"]) > 0


def test_leray_grid_exit_3_names_the_first_unconverged_entry(capsys):
    code, out, err = run(capsys, "leray-grid", "--domain", STEEP,
                         "--max", "40")
    assert code == 3
    assert err == "not converged: entry (15, 22), level gap 1.8e-07\n"
    assert len(out.splitlines()) == 1 + 41 * 41  # the grid is written


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
    # strict JSON writes the inf value as null; the CSV still spells it out
    def norms(re, fmt="json"):
        coeffs = json.dumps({"side": side,
                             "entries": [{"m1": 1, "m2": 1, "re": re}]})
        code, out, err = run(capsys, "norms", "--domain", BALL,
                             "--coeffs", coeffs, "--format", fmt)
        assert code == 0 and err == ""
        return json.loads(out) if fmt == "json" else list(
            csv.DictReader(io.StringIO(out)))

    big, unit = norms(amp), norms(1.0)
    assert set(big) == set(unit)
    for row in norms(amp, "csv"):
        assert row["value"] == "inf" and row["err_est"] != "nan"
    for name, rep in big.items():
        assert rep["log_value"] == pytest.approx(
            unit[name]["log_value"] + 2.0 * math.log(amp), rel=1e-14)
        assert rep["value"] is None
        # err_est may overflow with value; the relative error does not
        assert math.isfinite(rep["rel_err"])
        assert rep["rel_err"] == pytest.approx(unit[name]["rel_err"],
                                               rel=1e-12, abs=0.0)


def _strict_json(text):
    # json.loads accepts NaN, Infinity and -Infinity unless told not to
    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")
    return json.loads(text, parse_constant=refuse)


def test_emit_json_writes_non_finite_floats_as_null():
    text = emit_json({"a": [1.5, math.nan], "b": {"c": (-math.inf, 2)}})
    assert _strict_json(text) == {"a": [1.5, None], "b": {"c": [None, 2]}}


@pytest.mark.parametrize("argv, path", [
    (["norms", "--domain", '{"kind": "egg", "p": 3}', "--coeffs",
      '{"side": "bergman", "entries": [{"m1": 60, "m2": 60, "re": 1}]}'],
     ("omega_norm_sq", "value")),
    (["laplace", "--domain", BALL, "--coeffs",
      '{"side": "hardy", "entries": [{"m1": 1, "m2": 1, "re": 0}]}'],
     ("entries", 0, "log_abs"))], ids=["overflow", "zero"])
def test_json_output_is_strict(capsys, argv, path):
    # the value at delta(60, 60) overflows to inf, and the log modulus of a
    # zero amplitude is -inf: each is written as null
    code, out, _err = run(capsys, *argv, "--format", "json")
    assert code == 0
    obj = _strict_json(out)
    for key in path[:-1]:
        obj = obj[key]
    assert obj[path[-1]] is None


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


@pytest.mark.parametrize("verb", ["compare-lemma", "weight-equiv"])
@pytest.mark.parametrize("samples", ["0", "-3", "-5"])
def test_sampling_verbs_reject_no_samples(capsys, verb, samples):
    # compare-lemma drew no point at 0 and passed on its corner grid alone;
    # a negative count gave numpy's message, which named neither the flag
    # nor the value given
    code, out, err = run(capsys, verb, "--domain", BALL, "--samples", samples)
    assert (code, out, err) == (1, "", "error: --samples must be at least 1\n")


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
    assert obj["k"][-1] == 200
    # k times the Hardy term tends to pi/2; at k = 100 it reads 1.5712946
    assert obj["hardy_k_times_term"][99] == pytest.approx(1.5712946, abs=1e-7)


def test_counterexample_last_row_is_k_max(capsys):
    # thin 2: the rows are k = 2, 4, ..., 2000, and the last one carries
    # the final partial sums
    code, out, _err = run(capsys, "counterexample", "--kmax", "2000")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 1 + 1000
    assert rows[1][0] == "2"
    rep = l1ball_counterexample(2000)
    assert [float(v) for v in rows[-1]] == [
        2000.0, rep.hardy_partial_sums[-1], rep.bergman_nu_F_partial_sums[-1],
        rep.bergman_nu_G_partial_sums[-1],
        rep.bergman_omega_G_partial_sums[-1]]


@pytest.mark.parametrize("argv, message", [
    (["compare-lemma", "--seed", "-1"], "--seed must be non-negative"),
    (["leray-rays", "--rays", "a,1"],
     "--rays must be comma-separated numbers, not 'a,1'"),
], ids=["seed", "rays"])
def test_bad_flag_value_names_the_flag(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--domain", BALL)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["describe", "--domain", '{"kind": "expr", "p_check": "3", '
      '"b1": Infinity}'], "axis intercepts b1, b2 must be positive and finite"),
    (["describe", "--domain", '{"kind": "egg", "p": 1.0001, "a1": 1e-310}'],
     "egg weights too small: an intercept overflows"),
    (["curvature", "--domain", json.dumps(
        {"kind": "expr", "p_check": "2+1/log(10/s)", "b1": 1e-300})],
     "curvatures overflow double precision on this domain"),
    (["laplace", "--domain", '{"kind": "egg", "p": 3, "a1": 1e-300}',
      "--coeffs", '{"entries": [{"m1": 3, "m2": 2, "re": 1.0}]}'],
     "a Laplace coefficient overflows a double"),
], ids=["infinite-intercept", "egg-intercept", "curvature", "laplace"])
def test_extreme_intercepts_are_one_line_errors(capsys, argv, message):
    # an infinite intercept was accepted; an egg intercept past the doubles
    # and an overflowing Laplace coefficient gave OverflowError tracebacks,
    # and curvatures whose r^2 leaves the doubles RuntimeWarnings
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


_BIG_BOX = ('{"side": "hardy", "entries": [{"m1": 5000, "m2": 2000, '
            '"re": 1}]}')
_R_LIMIT_LINE = ("exponential norms are summed for r <= 1000 only (omega "
                 "norms up to total degree about 790), not r = 2e+200")
_DEGREE_LINE = "degrees must be at most 1e+300: the norms' sums overflow past it"


@pytest.mark.parametrize("degree, message", [
    ("1e308", _DEGREE_LINE), ("1e307", _DEGREE_LINE),
    ("1e200", _R_LIMIT_LINE)])
def test_huge_bergman_degrees_are_one_line_errors(capsys, degree, message):
    # at 1e308 nine RuntimeWarnings came first, then "cannot convert float
    # NaN to integer"; 1e200 still reaches the omega norm's r limit
    coeffs = ('{"side": "bergman", "entries": [{"m1": %s, "m2": %s, "re": 1}]}'
              % (degree, degree))
    code, out, err = run(capsys, "norms", "--domain", '{"kind":"egg","p":3}',
                         "--coeffs", coeffs)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["leray-grid", "--max", "20000"], ["leray-rays", "--max", "20000"],
    ["laplace", "--coeffs", _BIG_BOX], ["norms", "--coeffs", _BIG_BOX]],
    ids=lambda argv: argv[0])
def test_oversized_degree_boxes_are_one_line_errors(capsys, argv):
    # leray-grid --max 20000 was killed for memory; every verb that builds
    # a degree box refuses one of more than 10^7 entries first
    code, out, err = run(capsys, argv[0], "--domain", BALL, *argv[1:])
    box = "0..5000 x 0..2000" if "--coeffs" in argv else "0..20000 x 0..20000"
    assert (code, out, err) == (1, "", f"error: the degree box {box} has "
                                f"more than 10,000,000 entries\n")


def test_out_of_memory_is_a_one_line_error(capsys, monkeypatch):
    # leray-grid --max 100000000 and counterexample --kmax 100000000000
    # raised numpy's MemoryError; no test allocates for real
    def too_big(args, geom):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setitem(cli._VERBS, "counterexample", too_big)
    code, out, err = run(capsys, "counterexample")
    assert (code, out, err) == (
        1, "", "error: Unable to allocate 745. GiB for an array\n")


@pytest.mark.parametrize("argv", [
    ["weight-equiv", "--domain", '{"kind": "egg", "p": 0.5}'],
    ["leray-rays", "--domain", BALL, "--max", "8"],
    ["counterexample", "--kmax", "5"],
], ids=lambda argv: argv[0])
def test_experiment_bad_input_is_a_one_line_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert _one_line_error(err)


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


# ---------------------------------------------------------------------------
# fuzz: every input ends in a documented exit code, never a traceback
# ---------------------------------------------------------------------------

_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                  st.lists(st.integers(0, 3), max_size=2))
_REALS = st.one_of(st.integers(-3, 50), st.floats(-10.0, 60.0),
                   st.sampled_from([0.0, 1.0, 1e-300, 1e30, 1e308, math.inf,
                                    -math.inf, math.nan]))


def _table_samples(n):
    return st.tuples(
        st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n,
                 unique=True).map(sorted),
        st.lists(st.floats(1.0, 10.0), min_size=n, max_size=n))


_DOMAINS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("egg"),
                           "p": st.one_of(_REALS, _JUNK)},
                          optional={"a1": _REALS, "a2": _REALS}),
    st.fixed_dictionaries({"kind": st.just("expr"), "p_check": st.one_of(
        st.sampled_from(["2+1/log(10/s)", "3", "40+10*s", "2+s*log(s)",
                         "1+s", "2+1/((1.0001-s)^8)", "s^", "2+foo(s)"]),
        _JUNK)}, optional={"b1": _REALS, "b2": _REALS}),
    st.integers(2, 5).flatmap(_table_samples).map(
        lambda sp: {"kind": "table", "s": sp[0], "p": sp[1]}),
    st.fixed_dictionaries({"kind": st.just("table"),
                           "s": st.one_of(st.lists(_REALS, max_size=4), _JUNK),
                           "p": st.one_of(st.lists(_REALS, max_size=4), _JUNK)}),
    st.sampled_from([{}, {"kind": "ball"}, [], "x"]))


def _coefficients(side):
    # hardy-side degrees stay at most 40; fractional, negative, boolean,
    # text and repeated degrees on both sides, 1e30 to 1e308 on the bergman
    # side
    degrees = st.one_of(st.integers(-1, 40), st.sampled_from([1.0, 1.9]),
                        st.booleans(), st.just("1"))
    if side == "bergman":
        degrees = st.one_of(degrees, st.sampled_from([1e30, 1e200, 1e307,
                                                      1e308]))
    entry = st.fixed_dictionaries({"m1": degrees, "m2": degrees},
                                  optional={"re": _REALS, "im": _REALS})
    entries = st.lists(entry, max_size=3).flatmap(
        lambda es: st.sampled_from([es, es + es[:1]]))
    return st.fixed_dictionaries({"side": st.just(side), "entries": entries})


_COEFFS = st.one_of(*(_coefficients(side) for side in
                      ("hardy", "bergman", "laplace")), _JUNK)
_INT_TEXT = st.integers(-3, 3).map(str)
_FLAGS = {
    "describe": {}, "dual": {},
    "curvature": {"--samples": st.integers(-2, 200).map(str)},
    "leray-grid": {"--max": st.integers(-2, 40).map(str)},
    "leray-rays": {"--max": st.integers(-2, 40).map(str),
                   "--rays": st.text("0123456789.,-einfa", max_size=8)},
    "laplace": {"--coeffs": _COEFFS}, "norms": {"--coeffs": _COEFFS},
    "compare-lemma": {"--samples": st.integers(-2, 2000).map(str),
                      "--seed": st.one_of(_INT_TEXT, st.just("x"))},
    "weight-equiv": {"--samples": st.integers(-2, 10).map(str)},
    "counterexample": {"--kmax": st.one_of(st.integers(-2, 2000).map(str),
                                           st.just("1e3"))},
}


@st.composite
def _argv(draw):
    verb = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [verb, "--format", draw(st.sampled_from(["csv", "json"]))]
    if verb != "counterexample":
        argv += ["--domain", json.dumps(draw(_DOMAINS))]
    for flag, values in _FLAGS[verb].items():
        if draw(st.booleans()):
            value = draw(values)
            argv += [flag, value if isinstance(value, str)
                     else json.dumps(value)]
    return argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_argv())
def test_cli_fuzz_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
