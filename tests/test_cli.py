import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cobcalc import cli
from cobcalc import operations as ops
from cobcalc import verify
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


def test_class_below_bweight_degree(capsys):
    # a class of dimension d involves b_1..b_d only, so its s-number needs
    # m_1..m_d and not a --deg as high as --bweight
    for argv, s_number in ((["class", "Pn", "--n", "3"], "4"),
                           (["class", "hypersurface", "--n", "4", "--d", "3"],
                            "-66")):
        for deg in ([], ["--deg", "4"]):
            rc, out = run(capsys, *argv, *deg, "--format", "json")
            assert rc == 0 and json.loads(out)["s_number"] == s_number


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


@pytest.mark.parametrize("u, p", [("P1", 23), ("P2", 19), ("P4", 17)])
def test_eta_at_large_primes(capsys, u, p):
    # the model's t floor follows p: chern_che reaches t^(-p*dim)
    rc, out = run(capsys, "eta", "--U", u, "--p", str(p), "--format", "json")
    assert rc == 0
    assert json.loads(out)["p"] == p


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
                 ["op", "ln", "--input", "P1", "--q", "t"],
                 # only op reads --tfloor
                 ["fgl", "--what", "F", "--tfloor", "-7"],
                 ["class", "Pn", "--n", "2", "--tfloor", "-7"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "error:" in err


def test_bad_args_name_the_problem(capsys, monkeypatch):
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
             "op sq does not read --reps"),
            (["fgl", "--what", "F", "--deg", "-1"], "--deg must be >= 0"),
            (["class", "Pn", "--n", "2", "--deg", "-1"], "--deg must be >= 0"),
            (["op", "st", "--input", "P1", "--p", "2", "--deg", "-2"],
             "--deg must be >= 0"),
            (["fgl", "--what", "F", "--bweight", "-1"],
             "--bweight must be >= 0"),
            (["verify", "sop", "--p", "2", "--bweight", "-1"],
             "--bweight must be >= 0"),
            (["op", "phi", "--input", "P1", "--p", "2", "--deg", "2",
              "--bweight", "2", "--tfloor", "-1"],
             "--tfloor -1 is too shallow"),
            (["op", "phi", "--input", "P1", "--p", "2", "--deg", "2",
              "--bweight", "2", "--tfloor", "0"],
             "--tfloor 0 is too shallow"),
            (["op", "slice", "--input", "P1", "--p", "2", "--q", "t^-60"],
             "t^-60 in 't^-60' is below the t floor -48"),
            # each atom is above the floor, their product is not
            (["op", "st", "--input", "t^-30*t^-30", "--p", "2"],
             "t^-30*t^-30 in 't^-30*t^-30' is below the t floor -48"),
            # the largest b-weight and z-degree of a term, times p
            (["op", "st", "--input", "z^3+P2", "--p", "5"],
             "input 'z^3+P2' has b-weight 2; p * 2 = 10 is past bweight 8"),
            (["op", "st", "--input", "z+P1*z^5", "--p", "5"],
             "input 'z+P1*z^5' has z-degree 5; p * 5 = 25 is past deg 8")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert named in capsys.readouterr().err
    monkeypatch.setenv("COBCALC_DEG", "-3")
    with pytest.raises(SystemExit) as exc:
        cli.main(["fgl", "--what", "F"])
    assert exc.value.code == 2
    assert "COBCALC_DEG must be >= 0" in capsys.readouterr().err


def test_verify_all_refuses_a_prime_before_any_suite_runs(capsys,
                                                          monkeypatch):
    def run_verifier(name, **kw):
        raise AssertionError("verify %s ran" % name)

    monkeypatch.setattr(verify, "run_verifier", run_verifier)
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

    monkeypatch.setattr(verify, "VERIFIERS", dict(verify.VERIFIERS))

    @verify._suite("broken", primes="n/a", reps="n/a")
    def broken():
        return [{"input": "x", "verdict": "fail", "witness": "w"}]

    rc, out = run(capsys, "verify", "broken")
    assert rc == 1
    assert "FAIL" in out


def test_verify_multphi_below_the_default_bweight_exits_zero(capsys):
    """The pairs whose product truncation cuts are counted outside, and
    neither pass nor fail."""
    rc, out = run(capsys, "verify", "multphi", "--p", "2", "--deg", "4",
                  "--bweight", "4")
    assert rc == 0
    assert out.strip() == "multphi    pass=99 fail=0 outside=9"


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

    monkeypatch.setattr(verify, "run_verifier", record)
    rc, out = run(capsys, "verify", "all", "--p", "2", "--seed", "5",
                  "--format", "json")
    assert rc == 0 and sorted(calls) == sorted(verify.VERIFIERS)
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


# sha256 of `op KIND --input E --format json` per query, recorded before
# St, Phi and Sq went through one substitution; p = 5 runs at --bweight 10,
# where P2 (b-weight 2) is still inside p * bweight(e) <= bweight
_OP_DIGESTS = {
    "st p=2 P1": ("f7946b2040ffb4a799653eacb6772ba9"
                  "e1117ac85a8197cd6c2923eb1b55b903"),
    "st p=2 P2": ("d1c05d2b7ed75eda8737e711e91a7301"
                  "88420f48cdc2d30841d98b9f8761260e"),
    "st p=2 z": ("96bff4eb59e9bf8c6f2c5218ba0e9a13"
                 "4f7eea7f46933688b75ac9f9643b5e27"),
    "st p=2 P1*z": ("03afee84c5ca4e5e7d085c8ea06be522"
                    "16bf735b2fa9e8e67d3c38af64e4b599"),
    "st p=3 P1": ("132ecdb2a82a957546477b16b2c48d88"
                  "2c0d32a2665be613dc4ec820c6531c47"),
    "st p=3 P2": ("324765521879132f5373c637a9368333"
                  "4060282faf5fdffadaa36f444ecd59ea"),
    "st p=3 z": ("54620542457f2d9b1d0a51d01e4d600f"
                 "c95bcc3f6eb81292dbfe80ceea982a52"),
    "st p=3 P1*z": ("e1e045074d21d35863caebc6a0f0c8f8"
                    "2f90dfa9b9c7ba8477f565a205bea87e"),
    "st p=5 P1": ("f9150ecf66980c2f70d17cc55692d915"
                  "8d9efa05024a1ca74c96b4c3fc69e84e"),
    "st p=5 P2": ("6f65586de6656b2d1cbcf12096ba7e6a"
                  "4848b86b9ff308f69cc8c96764e9cff1"),
    "st p=5 z": ("1e0af6e6ba68f727e48e53ec58fc9886"
                 "62ab2fa48bff9260e6db6faca2de032e"),
    "st p=5 P1*z": ("26bdf50a2974d645217ef78ba7472d33"
                    "d58698713a8376b8c910f0e74fce741c"),
    "phi p=2 P1": ("cfc34f0f147beaf6d026e98e8c203cbf"
                   "95d1292cde80d1c2627660ae287b3fac"),
    "phi p=2 P2": ("92010cdea02f26baca7be7fd103e036f"
                   "24c7bf8bba2a513c04a11e75d464e45d"),
    "phi p=2 z": ("5fe0fd786100ca707bc8f68bc001899b"
                  "6f0ffee28f06e2b6a0e1385409e78b46"),
    "phi p=2 P1*z": ("10e11385a2d35addfd508ddf7a08a436"
                     "e83240a6cdb0ddb801b374c501fe0447"),
    "phi p=3 P1": ("926ae91cbf4d17d0a1937fe70bc7fc84"
                   "802eac10eee7d7557b4dc5ff19e356c7"),
    "phi p=3 P2": ("d35f30fd785d6c2360dd6b2ea61dcbac"
                   "41259813f993481d5120a7a36a4b0bc4"),
    "phi p=3 z": ("c541afa9f2759bf3f038efba343d6604"
                  "dc0684b6dea79c6fe27a82cbcda9c180"),
    "phi p=3 P1*z": ("f5cf8b635f3eace405382e18311f6d34"
                     "431ba60a6b83e1f2b41bb79bb38b23e0"),
    "phi p=5 P1": ("665389602edd5ffc9019d4aac07d8ddb"
                   "fcaf9a1f818f7f871321e0d28367c705"),
    "phi p=5 P2": ("7f4a0aff2b41ea514a2dce1dbf97c492"
                   "00c789cc4469fc9d51358a8822a1120e"),
    "phi p=5 z": ("21288c5de6dc33145c04518eb4f3691e"
                  "48a1944fde1e438d3f2e1d6ed455ca73"),
    "phi p=5 P1*z": ("776e91ccdc473a03370daea611801d66"
                     "c33ef9ee7ecc9ae4c052527de8b5075b"),
    "sq p=2 P1": ("3bd2f9acb8f58f5867f6d7997fb2a37c"
                  "5445804f4582a4667f2aab4dd6177090"),
    "sq p=2 P2": ("01d99c43f2463c6766dff51b14449891"
                  "8cb05e43b9cdf5f606c0d0422336f2f4"),
    "sq p=2 z": ("829c9ba9199229d0d0df312e8493dc11"
                 "2c8d76f35aa6c65912767971cd4d9c7b"),
    "sq p=2 P1*z": ("232bb76a593472e35bf6522177a95baa"
                    "f09d8cdd285c92ff400ff0b8e06d91e5"),
    "sq p=3 P1": ("a9dbb7384e74747e620fd25f25cab45c"
                  "f46e3ffb3271029bf0c494192ca55905"),
    "sq p=3 P2": ("07fff77ac1b994c5968e287d7243f0a0"
                  "ef6ed2fbe572d353960ab1d8771c5535"),
    "sq p=3 z": ("922f2b94b7cb2b6b483c17f1c69f63fc"
                 "8e622c0df5520af6761fe460cf0978d2"),
    "sq p=3 P1*z": ("9adedfd57fb97f3ffebee6b25b8995fd"
                    "c2db5d00c16a1969a1076d345a867335"),
    "sq p=5 P1": ("04091a617758aa302a60586ffd043650"
                  "e315502569e1e2ac0672d627c8227c87"),
    "sq p=5 P2": ("c53411cb4a711a5e2f6ca6c6b04b9648"
                  "7b8fabae77094f756bdc16d117069b8f"),
    "sq p=5 z": ("9cea6ac287d9be39582162954a38d4d0"
                 "14ffc2e7906659c9bf2be2be52c2bd84"),
    "sq p=5 P1*z": ("67219f8987f1336f82fdb331c741381b"
                    "08856bc4a540e15e21aa9fee87874c66"),
    "ln P1": ("fdfb34152c102bc2bfc1ce9ee0350127"
              "5a0db35bcb96850a6837e1aa7726a5f4"),
    "ln P2": ("9bcc157d26392e89f485cf4a7b18c3d2"
              "a0093cdee777adc374d8471d0dc89e8d"),
    "ln z": ("10e8a56782555db8e2b80cf28e73b14f"
             "b1a43d5aa7198c383ad245a97d3d95e3"),
    "ln P1*z": ("9b3b4dfb7e095fb9715385eb4f9cdcec"
                "fc797c0d777fce952a582a9a919915f6"),
}


def test_op_json_output_is_pinned(capsys):
    for key, want in _OP_DIGESTS.items():
        kind, *prime, element = key.split()
        argv = ["op", kind, "--input", element, "--format", "json"]
        if prime:
            p = prime[0][2:]
            argv += ["--p", p] + (["--bweight", "10"] if p == "5" else [])
        rc, out = run(capsys, *argv)
        assert rc == 0, key
        assert hashlib.sha256(out.encode()).hexdigest() == want, key


def test_verify_all_json_is_pinned():
    # every case, label and witness of every suite at the defaults, through
    # the command line as a user runs it
    import cobcalc
    src = str(Path(cobcalc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-m", "cobcalc.cli", "verify", "all",
                          "--format", "json"], env=env, check=True,
                         capture_output=True).stdout
    assert hashlib.sha256(out).hexdigest() == (
        "5810e3ea504b2d0eb6e806ca7bbd0a01"
        "93c8a94daf0536da90b06d2dc8d9973b")
