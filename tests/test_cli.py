import json

import pytest

from robust_orlicz.cli import main

DELTA_MODEL = {"atoms": ["w1", "w2"],
               "priors": [{"label": "P1", "masses": [1.0, 0.0]},
                          {"label": "P2", "masses": [0.0, 1.0]}]}
UNIFORM_MODEL = {"atoms": ["w1", "w2"],
                 "priors": [{"label": "P1", "masses": [0.5, 0.5]}]}
POWER1 = {"uniform": {"kind": "power", "p": 1}}
POWER2 = {"uniform": {"kind": "power", "p": 2}}


@pytest.fixture
def paths(tmp_path):
    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)
    return {
        "delta": write("delta.json", DELTA_MODEL),
        "uniform": write("uniform.json", UNIFORM_MODEL),
        "p1": write("p1.json", POWER1),
        "p2": write("p2.json", POWER2),
        "tmp": tmp_path,
    }


class TestExitCodes:
    def test_norm_ok(self, paths, capsys):
        rc = main(["norm", "--model", paths["delta"], "--family", paths["p1"],
                   "--x", "1,3", "--format", "text"])
        assert rc == 0
        assert float(capsys.readouterr().out) == pytest.approx(3.0, rel=1e-9)

    def test_bad_model_is_validation_error(self, paths, capsys):
        bad = paths["tmp"] / "bad.json"
        bad.write_text(json.dumps({"atoms": ["a"],
                                   "priors": [{"masses": [0.4]}]}))
        rc = main(["norm", "--model", str(bad), "--family", paths["p1"],
                   "--x", "1"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_is_validation_error(self, paths):
        rc = main(["norm", "--model", "/nonexistent.json",
                   "--family", paths["p1"], "--x", "1,3"])
        assert rc == 2

    def test_bad_vector_is_validation_error(self, paths):
        rc = main(["norm", "--model", paths["delta"], "--family", paths["p1"],
                   "--x", "1,oops"])
        assert rc == 2

    def test_nonpositive_tol_rejected(self, paths):
        rc = main(["norm", "--model", paths["delta"], "--family", paths["p1"],
                   "--x", "1,3", "--tol", "0"])
        assert rc == 2

    @pytest.mark.parametrize("lam", ["nan", "0", "-1"])
    def test_modular_scale_that_is_not_positive_rejected(self, paths, capsys, lam):
        rc = main(["modular", "--model", paths["uniform"], "--family", paths["p1"],
                   "--x", "1,2", "--lam", lam])
        assert rc == 2
        assert capsys.readouterr().out == ""


class TestCommands:
    def test_validate_pass_lines(self, paths, capsys):
        rc = main(["validate", "--model", paths["delta"],
                   "--family", paths["p1"]])
        assert rc == 0
        out = capsys.readouterr().out
        assert "model-schema: pass" in out
        assert "orlicz-axioms[P1]: pass" in out

    def test_validate_fails_on_bad_family(self, paths, capsys):
        bad = paths["tmp"] / "badfam.json"
        bad.write_text(json.dumps({"uniform": {"kind": "power", "p": 0.5}}))
        rc = main(["validate", "--model", paths["delta"],
                   "--family", str(bad)])
        assert rc == 2
        assert "fail" in capsys.readouterr().out

    def test_risk(self, paths, capsys):
        rc = main(["risk", "--model", paths["delta"], "--x", "0,4",
                   "--gamma", "P1=0,P2=1", "--format", "text"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_dominate_json(self, paths, capsys):
        rc = main(["dominate", "--model", paths["delta"],
                   "--family", paths["p1"]])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pstar"] == [0.666666666667, 0.333333333333]

    def test_modular(self, paths, capsys):
        rc = main(["modular", "--model", paths["uniform"],
                   "--family", paths["p1"], "--x", "1,1", "--lam", "2",
                   "--format", "text"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "0.5"

    def test_dual_norm(self, paths, capsys):
        rc = main(["dual-norm", "--model", paths["uniform"],
                   "--family", paths["p2"], "--mu", "0.5,0.5",
                   "--format", "text"])
        assert rc == 0
        assert float(capsys.readouterr().out) == pytest.approx(1.0, rel=1e-6)

    def test_ui_profile_csv(self, paths, capsys):
        rc = main(["ui-profile", "--model", paths["delta"],
                   "--family", paths["p1"], "--c-grid", "0,2",
                   "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "c,value"
        assert lines[1] == "0.0,1.0"
        assert lines[2] == "2.0,1.0"

    def test_membership_gaussian(self, paths, capsys):
        rc = main(["membership", "--gaussian-ladder", "12", "--T", "6",
                   "--h", "0.05", "--format", "text"])
        assert rc == 0
        assert capsys.readouterr().out.strip() in ("in_frakL_only", "in_LPhi")

    def test_vector_from_file(self, paths, capsys):
        xfile = paths["tmp"] / "x.json"
        xfile.write_text(json.dumps([1.0, 3.0]))
        rc = main(["norm", "--model", paths["delta"], "--family", paths["p1"],
                   "--x", f"@{xfile}", "--format", "text"])
        assert rc == 0
        assert float(capsys.readouterr().out) == pytest.approx(3.0, rel=1e-9)

    def test_project_residual(self, paths, capsys):
        rc = main(["project", "--model", paths["uniform"],
                   "--family", paths["p2"], "--x", "0,1", "--y", "5,7",
                   "--format", "text"])
        assert rc == 0
        assert float(capsys.readouterr().out) <= 1e-8

    def test_aggregate(self, paths, capsys):
        agents = paths["tmp"] / "agents.json"
        agents.write_text(json.dumps(
            {"agents": [{"utility": {"kind": "cara", "beta": 1.0},
                         "priors": ["P1"], "penalty": {"P1": 0.0}}]}))
        rc = main(["aggregate", "--model", paths["uniform"],
                   "--agents", str(agents), "--samples", "10"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["extension_bound"]["violations"] == 0


class TestDeterminism:
    def _run_twice(self, argv, tmp_path):
        outs = []
        for i in range(2):
            out = tmp_path / f"run{i}.json"
            rc = main(argv + ["--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        return outs

    def test_verify_l1_same_seed_identical(self, paths):
        a, b = self._run_twice(
            ["verify-l1", "--model", paths["delta"], "--family", paths["p1"],
             "--samples", "25", "--seed", "7"], paths["tmp"])
        assert a == b

    def test_span_same_seed_identical(self, paths):
        a, b = self._run_twice(
            ["span", "--model", paths["delta"], "--family", paths["p2"],
             "--x", "1,2", "--seed", "3"], paths["tmp"])
        assert a == b

    def test_dominate_identical(self, paths):
        a, b = self._run_twice(
            ["dominate", "--model", paths["delta"], "--family", paths["p1"],
             "--seed", "11"], paths["tmp"])
        assert a == b
