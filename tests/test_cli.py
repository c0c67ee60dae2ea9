import json

import pytest

from cobcalc import cli
from cobcalc import operations as ops
from cobcalc.series import SeriesError


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_fgl_structure_constant_examples(capsys):
    rc, out = run(capsys, "fgl", "--what", "a_ij", "--i", "1", "--j", "1")
    assert rc == 0
    assert out.strip() == "2*b1"
    rc, out = run(capsys, "fgl", "--what", "a_ij", "--i", "2", "--j", "1")
    assert out.strip() == "3*b2 - 2*b1^2"


def test_fgl_inverse_matches_nseries(capsys):
    rc, a = run(capsys, "fgl", "--what", "inverse", "--deg", "5")
    rc, b = run(capsys, "fgl", "--what", "[n]", "--n", "-1", "--deg", "5")
    assert a == b


def test_fgl_json_roundtrips(capsys):
    rc, out = run(capsys, "fgl", "--what", "F", "--deg", "4", "--format",
                  "json")
    doc = json.loads(out)
    assert doc["command"] == "fgl"
    assert doc["result"]["terms"]


def test_class_pn_flags(capsys):
    rc, out = run(capsys, "class", "Pn", "--n", "2", "--format", "json")
    doc = json.loads(out)
    assert rc == 0
    assert doc["dimension"] == 2
    assert doc["flags"]["in_I3"] is True
    assert doc["flags"]["in_I2"] is False
    assert doc["flags"]["nu_1_at_3"] is True
    assert doc["char_numbers"]["b1^2"] == "6"
    assert doc["s_number"] == "3"


def test_class_h22_equals_p1(capsys):
    rc, a = run(capsys, "class", "hypersurface", "--n", "2", "--d", "2",
                "--format", "json")
    rc, b = run(capsys, "class", "Pn", "--n", "1", "--format", "json")
    assert (json.loads(a)["result"]["terms"]
            == json.loads(b)["result"]["terms"])


def test_class_hypersurface_needs_d(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["class", "hypersurface", "--n", "3"])
    assert exc.value.code == 2


def test_op_phi_oracle(capsys):
    rc, out = run(capsys, "op", "phi", "--input", "P1", "--p", "2")
    assert rc == 0
    assert out.strip() == "t^-2 + 2*t^-1*b1"


def test_op_slice_oracle(capsys):
    rc, out = run(capsys, "op", "slice", "--input", "P1", "--q", "t^2")
    assert out.strip() == "1"


def test_op_sq_contains_square(capsys):
    rc, out = run(capsys, "op", "sq", "--input", "z", "--p", "2",
                  "--format", "json")
    doc = json.loads(out)
    assert doc["certificate"]["integral"] is True
    table = {tuple(t["exp"]): t["num"] for t in doc["result"]["terms"]}
    names = [v["name"] for v in doc["result"]["vars"]]
    z2 = tuple(2 if n == "z1" else 0 for n in names)
    assert table[z2] == "1"


def test_op_ln_total(capsys):
    rc, out = run(capsys, "op", "ln", "--input", "z", "--bweight", "3")
    assert out.strip() == "z1 + z1^2*bp1 + z1^3*bp2 + z1^4*bp3"


def test_op_st_deterministic_json(capsys):
    rc, a = run(capsys, "op", "st", "--input", "P1*z", "--p", "2",
                "--format", "json")
    rc, b = run(capsys, "op", "st", "--input", "P1*z", "--p", "2",
                "--format", "json")
    assert a == b


def test_element_grammar(capsys):
    ctx = ops.make_context(2, 6, 6)
    e = cli.parse_element(ctx, "2*P1*z - z^2 + 1")
    p1 = ops._ambient_class(ctx, 1, 0)
    z = ctx.var("z1")
    assert e == p1.scale(2) * z - z * z + ctx.one()
    assert cli.parse_element(ctx, "H(3,3)") == ops._ambient_class(ctx, 3, 3)
    assert cli.parse_element(ctx, "-3*z") == z.scale(-3)
    with pytest.raises(SeriesError):
        cli.parse_element(ctx, "q^2")
    with pytest.raises(SeriesError):
        cli.parse_element(ctx, "")


def test_eta_subcommand(capsys):
    rc, out = run(capsys, "eta", "--U", "P1", "--p", "2")
    assert rc == 0
    assert out.strip() == "eta_2(P1) = 1"
    rc, out = run(capsys, "eta", "--U", "H(2,2)", "--p", "2", "--format",
                  "json")
    assert json.loads(out)["eta"] == "1"


def test_bad_args_exit_two(capsys):
    for argv in (["op", "st", "--input", "garbage!"],
                 ["op", "phi", "--input", "P1", "--reps", "2"],
                 ["verify", "sop", "--p", "7"],
                 ["eta", "--U", "X9", "--p", "2"],
                 # a non-prime p is a bad argument, not a falsification
                 ["op", "st", "--input", "P1", "--p", "9"],
                 ["op", "phi", "--input", "P1", "--p", "4"],
                 ["op", "phi", "--input", "P1", "--p", "0"],
                 ["eta", "--U", "P2", "--p", "4"],
                 # queries past --deg/--bweight, which truncation would zero
                 ["class", "Pn", "--n", "9"],
                 ["fgl", "--what", "a_ij", "--i", "20", "--j", "1"],
                 ["op", "phi", "--input", "P3", "--p", "2", "--bweight", "2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_falsification_exit_three(capsys):
    rc = cli.main(["op", "phi", "--input", "t^-1", "--p", "3"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "falsified" in err


def test_verify_pass_and_fail_paths(capsys, monkeypatch):
    rc, out = run(capsys, "verify", "il3")
    assert rc == 0
    assert "il3" in out and "fail=0" in out

    def broken(**kw):
        return {"prop": "broken", "p": 2, "reps": "n/a",
                "cases": [{"input": "x", "verdict": "fail", "witness": "w"}],
                "summary": {"pass": 0, "fail": 1}}

    monkeypatch.setitem(ops.VERIFIERS, "broken", broken)
    rc, out = run(capsys, "verify", "broken")
    assert rc == 1
    assert "FAIL" in out


def test_verify_json_reports(capsys):
    rc, out = run(capsys, "verify", "fglaxioms", "--format", "json")
    doc = json.loads(out)
    assert doc["reports"][0]["prop"] == "fglaxioms"
    assert doc["reports"][0]["summary"]["fail"] == 0


def test_env_degree_default(capsys, monkeypatch):
    monkeypatch.setenv("COBCALC_DEG", "4")
    rc, out = run(capsys, "fgl", "--what", "omega", "--format", "json")
    assert json.loads(out)["deg"] == 4
    monkeypatch.setenv("COBCALC_DEG", "zzz")
    with pytest.raises(SystemExit):
        cli.main(["fgl", "--what", "omega"])
    capsys.readouterr()


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    rc, out = run(capsys, "eta", "--U", "P1", "--p", "2", "--format", "json",
                  "--out", str(target))
    assert rc == 0
    assert out == ""
    assert json.loads(target.read_text())["eta"] == "1"


def test_tfloor_flag(capsys):
    rc, out = run(capsys, "op", "phi", "--input", "P1", "--tfloor", "-30")
    assert out.strip() == "t^-2 + 2*t^-1*b1"
