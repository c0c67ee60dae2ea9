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
                 ["op", "phi", "--input", "P3", "--p", "2", "--bweight", "2"],
                 # an atom past the z-degree cap; St(P2) at p = 5 past bweight
                 ["op", "st", "--input", "z^9", "--p", "2"],
                 ["op", "sq", "--input", "P2", "--p", "5"],
                 # an unwritable --out, a bweight below a_21's, a negative
                 # index, and a degree-0 "hypersurface"
                 ["fgl", "--what", "F", "--out", "/nonexistent/dir/x.json"],
                 ["verify", "fglaxioms", "--bweight", "1"],
                 ["fgl", "--what", "a_ij", "--i", "-1", "--j", "1"],
                 ["op", "st", "--input", "H(3,0)"],
                 ["eta", "--U", "H(3,0)", "--p", "2"],
                 # options the named verifier does not read
                 ["verify", "il3", "--p", "5"],
                 ["verify", "fglaxioms", "--p", "7", "--seed", "3"],
                 ["verify", "minors", "--deg", "4"],
                 # a prime some suite of verify all does not run
                 ["verify", "all", "--p", "5"],
                 # options the kind of op does not read
                 ["op", "sq", "--input", "P1", "--p", "3", "--reps", "1,-1"],
                 ["op", "ln", "--input", "P1", "--p", "2"],
                 ["op", "ln", "--input", "P1", "--reps", "1"],
                 ["op", "st", "--input", "P1", "--q", "t"],
                 ["op", "sq", "--input", "P1", "--q", "t"],
                 ["op", "phi", "--input", "P1", "--q", "t"],
                 ["op", "ln", "--input", "P1", "--q", "t"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "error:" in err


def test_bad_args_name_the_problem(capsys):
    for argv, named in (
            (["fgl", "--what", "F", "--out", "/nonexistent/dir/x.json"],
             "cannot write --out /nonexistent/dir/x.json"),
            (["verify", "fglaxioms", "--bweight", "1"], "past bweight 1"),
            (["fgl", "--what", "a_ij", "--i", "-1", "--j", "1"],
             "needs i, j >= 0"),
            (["verify", "il3", "--p", "5"], "verify il3 does not read --p"),
            (["verify", "fglaxioms", "--p", "7", "--seed", "3"],
             "verify fglaxioms does not read --p, --seed"),
            (["op", "ln", "--input", "P1", "--p", "2", "--reps", "1"],
             "op ln does not read --p, --reps"),
            (["op", "sq", "--input", "P1", "--reps", "1"],
             "op sq does not read --reps")):
        with pytest.raises(SystemExit):
            cli.main(argv)
        assert named in capsys.readouterr().err


def test_verify_all_refuses_a_prime_before_any_suite_runs(capsys,
                                                          monkeypatch):
    def run_verifier(name, **kw):
        raise AssertionError("verify %s ran" % name)

    monkeypatch.setattr(ops, "run_verifier", run_verifier)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "all", "--p", "5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "prime 5 is not run by verify diagram, grad, multphi" in err


def test_options_a_subcommand_ignores_are_not_accepted(capsys):
    for argv in (["eta", "--U", "P1", "--p", "2", "--deg", "4"],
                 ["eta", "--U", "P1", "--p", "2", "--tfloor", "-9"],
                 ["fgl", "--what", "F", "--seed", "1"],
                 ["class", "Pn", "--n", "2", "--p", "3"],
                 ["op", "phi", "--input", "P1", "--seed", "1"],
                 ["verify", "il3", "--reps", "1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_op_inputs_past_the_bounds_name_the_bound(capsys):
    for argv, bound in ((["op", "st", "--input", "z^9", "--p", "2"], "deg 8"),
                        (["op", "sq", "--input", "P2", "--p", "5"],
                         "bweight 8"),
                        (["op", "phi", "--input", "z^4", "--p", "3"],
                         "past deg 8")):
        with pytest.raises(SystemExit):
            cli.main(argv)
        assert bound in capsys.readouterr().err
    # at the bounds themselves the operation still runs
    rc, out = run(capsys, "op", "st", "--input", "z^4", "--p", "2")
    assert rc == 0 and out.strip() != "0"


def test_falsification_exit_three(capsys):
    rc = cli.main(["op", "phi", "--input", "t^-1", "--p", "3"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "falsified" in err


def test_verify_pass_and_fail_paths(capsys, monkeypatch):
    rc, out = run(capsys, "verify", "il3")
    assert rc == 0
    assert "il3" in out and "fail=0" in out

    monkeypatch.setattr(ops, "VERIFIERS", dict(ops.VERIFIERS))

    @ops._suite("broken", reads="", primes="n/a", reps="n/a")
    def broken():
        return [{"input": "x", "verdict": "fail", "witness": "w"}]

    rc, out = run(capsys, "verify", "broken")
    assert rc == 1
    assert "FAIL" in out


def test_verify_json_reports(capsys):
    rc, out = run(capsys, "verify", "fglaxioms", "--format", "json")
    doc = json.loads(out)
    assert doc["reports"][0]["prop"] == "fglaxioms"
    assert doc["reports"][0]["summary"]["fail"] == 0


def test_verify_passes_each_suite_the_options_it_reads(capsys, monkeypatch):
    calls = {}

    def record(name, **kw):
        calls[name] = kw
        return {"prop": name, "p": None, "reps": "n/a", "cases": [],
                "summary": {"pass": 0, "fail": 0}}

    monkeypatch.setattr(ops, "run_verifier", record)
    rc, out = run(capsys, "verify", "all", "--p", "2", "--seed", "5",
                  "--format", "json")
    assert rc == 0 and sorted(calls) == sorted(ops.VERIFIERS)
    assert calls["il3"] == calls["minors"] == {}
    assert calls["fglaxioms"] == calls["soold"] == {"deg": 6, "bweight": 6}
    assert calls["il1"] == {"p": 2, "seed": 5}
    assert calls["sop"] == {"p": 2, "deg": 6, "bweight": 6, "seed": 5}
    assert json.loads(out)["seed"] == 5
    # a seed left out is still printed as the default it runs with
    rc, out = run(capsys, "verify", "il1", "--format", "json")
    assert calls["il1"] == {"p": None, "seed": 20260814}
    assert json.loads(out)["seed"] == 20260814


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
