import json

import pytest

from hilb4n.cli import MAX_GOTZMANN, MAX_UPTO, main
from hilb4n.parser import MAX_EXPONENT


@pytest.fixture
def b3_file(tmp_path):
    path = tmp_path / "b3.ideal"
    path.write_text("x^2; x*y; y^3\n")
    return str(path)


@pytest.fixture
def ci_file(tmp_path):
    path = tmp_path / "ci.ideal"
    path.write_text("x^2 + y*t; x*y - z^2\n")
    return str(path)


def test_hf_output(b3_file, capsys):
    assert main(["hf", "--ideal", b3_file, "--upto", "7"]) == 0
    assert capsys.readouterr().out.strip() == "0 0 2 8 19 36 60 92"


def test_hp_quotient(b3_file, capsys):
    assert main(["hp", "--ideal", b3_file, "--quotient"]) == 0
    assert capsys.readouterr().out.strip() == "4*n"


def test_reg(b3_file, capsys):
    assert main(["reg", "--ideal", b3_file]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_classify_json(ci_file, capsys):
    assert main(["classify", "--ideal", ci_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["regularity"] == 3
    assert payload["stratum"] == "V"
    assert payload["components"] == ["H_VA"]
    for key in ("ci", "hilbert_values", "components_unknown"):
        assert key in payload


def test_gin_and_gb(ci_file, capsys):
    assert main(["gb", "--ideal", ci_file, "--order", "lex"]) == 0
    capsys.readouterr()
    assert main(["gin", "--ideal", ci_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload["gin"]) == sorted(["x^2", "x*y", "y^3"])


def test_sat(tmp_path, capsys):
    path = tmp_path / "cone.ideal"
    path.write_text("x^2; x*y; x*z; x*t^4\n")
    assert main(["sat", "--ideal", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "x"
    assert main(["sat", "--ideal", str(path), "--by", "t"]) == 0


def test_sat_prints_minimal_generators(tmp_path, capsys):
    path = tmp_path / "pencil.ideal"
    path.write_text("x*t - y*z; x^2*z + 2*x*y*z + y^2*z\n")
    assert main(["sat", "--ideal", str(path), "--by", "x^2+2*x*y+y^2"]) == 0
    assert capsys.readouterr().out == "z;\nx*t\n"
    assert main(["sat", "--ideal", str(path), "--by", "x^2+2*x*y+y^2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"generators": ["z", "x*t"]}


def test_tangent(b3_file, capsys):
    assert main(["tangent", "--ideal", b3_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dimension"] == 16


def test_tangent_unsaturated(tmp_path, capsys):
    path = tmp_path / "embedded.ideal"
    path.write_text("x; y; z^2; z*t\n")
    assert main(["tangent", "--ideal", str(path)]) == 1
    assert "saturated" in capsys.readouterr().err


def test_borel_enum(capsys):
    assert main(["borel-enum", "--hp", "4*n", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 4
    assert [item["name"] for item in payload["ideals"]] == ["B3", "B4", "B5", "B6"]


def test_lex_point(capsys):
    assert main(["lex-point", "--hp", "4*n"]) == 0
    out = capsys.readouterr().out
    assert "x" in out and "y^5" in out


def test_sample_deterministic(capsys):
    assert main(["sample", "--stratum", "R4", "--seed", "11"]) == 0
    first = capsys.readouterr().out
    assert main(["sample", "--stratum", "R4", "--seed", "11"]) == 0
    assert capsys.readouterr().out == first


def test_limit_command(tmp_path, capsys):
    path = tmp_path / "family.ideal"
    path.write_text("x*y + a*y^2; x*z - a*t^2\n")
    assert main(["limit", "--family", str(path), "--at", "0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert any("y*t^2" in g or "y^2*z" in g for g in payload["generators"])


def test_dims_json(capsys):
    assert main(["dims", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["R4"]["dimension"] == 23
    assert payload["Z"]["dimension"] == 23


def test_usage_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ideal"
    bad.write_text("x + w")
    assert main(["hf", "--ideal", str(bad)]) == 2
    missing = tmp_path / "missing.ideal"
    assert main(["hf", "--ideal", str(missing)]) == 2


def test_math_error_exit_code(tmp_path, capsys):
    path = tmp_path / "line.ideal"
    path.write_text("x; y")
    assert main(["classify", "--ideal", str(path)]) == 1


def test_verify_subset_json_deterministic(capsys):
    assert main(["verify-paper", "--only", "tables,dims", "--json", "--seed", "5"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["verify-paper", "--only", "tables,dims", "--json", "--seed", "5"]) == 0
    second = json.loads(capsys.readouterr().out)
    first.pop("timings"), second.pop("timings")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    assert all(item["status"] == "pass" for item in first["items"])
    for item in first["items"]:
        assert set(item) == {"id", "description", "paper_anchor", "expected", "computed", "status"}


def test_verify_unknown_criterion(capsys):
    assert main(["verify-paper", "--only", "nonsense"]) == 2


def test_order_only_on_gb(b3_file, capsys):
    assert main(["gb", "--ideal", b3_file, "--order", "lex", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == "lex"
    for command in (["hp", "--ideal", b3_file], ["reg", "--ideal", b3_file], ["dims"]):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--order", "lex"])
        assert exc.value.code == 2


def test_seed_only_where_drawn(b3_file, tmp_path, capsys):
    family = tmp_path / "family.ideal"
    family.write_text("x*y + a*y^2; x*z - a*t^2\n")
    assert main(["gin", "--ideal", b3_file, "--seed", "3"]) == 0
    for command in (["hf", "--ideal", b3_file], ["limit", "--family", str(family)]):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--seed", "3"])
        assert exc.value.code == 2


def test_negative_upto_is_usage_error(b3_file, capsys):
    assert main(["hf", "--ideal", b3_file, "--upto", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--upto" in captured.err


def test_saturate_by_bad_form_is_usage_error(b3_file, capsys):
    assert main(["sat", "--ideal", b3_file, "--by", "0"]) == 2
    assert "--by" in capsys.readouterr().err
    assert main(["sat", "--ideal", b3_file, "--by", "x + y^2"]) == 2


@pytest.mark.parametrize("command", ["borel-enum", "lex-point"])
@pytest.mark.parametrize("hp", ["-n", "n^2-5"])
def test_hp_without_gotzmann_decomposition_is_usage_error(command, hp, capsys):
    assert main([command, f"--hp={hp}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Gotzmann decomposition" in captured.err


@pytest.mark.parametrize("command", ["borel-enum", "lex-point"])
def test_hp_past_the_gotzmann_cap_is_usage_error(command, capsys):
    # the constant c has Gotzmann number c; 100*n has 4950
    assert main([command, "--hp", str(MAX_GOTZMANN + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"Gotzmann number at most {MAX_GOTZMANN}, got {MAX_GOTZMANN + 1}" in captured.err
    assert main([command, "--hp", "100*n"]) == 2
    assert "got 4950" in capsys.readouterr().err
    assert main([command, "--hp", str(MAX_GOTZMANN)]) == 0


def test_huge_upto_is_usage_error(b3_file, capsys):
    assert main(["hf", "--ideal", b3_file, "--upto", str(10**12)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--upto must lie in 0..{MAX_UPTO}" in captured.err
    assert main(["hf", "--ideal", b3_file, "--upto", str(MAX_UPTO)]) == 0


@pytest.mark.parametrize("text", ["x^100000", "x^40*y*x^40", "x*y; y^65"])
def test_huge_exponent_is_usage_error(tmp_path, capsys, text):
    path = tmp_path / "huge.ideal"
    path.write_text(text)
    assert main(["hf", "--ideal", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"exceeds the cap {MAX_EXPONENT}" in captured.err
    path.write_text(f"x^{MAX_EXPONENT}")
    assert main(["hf", "--ideal", str(path), "--upto", "2"]) == 0
