"""Tests for the command-line interface and its exit-code contract."""

import json

import numpy as np
import pytest

from torus_embed import is_simplex, load_certificate
from torus_embed.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, obj):
    path.write_text(json.dumps(obj))


def test_gen_embed_verify_inspect_happy_path(tmp_path, capsys):
    inp = tmp_path / "in.json"
    out = tmp_path / "cert.json"
    assert main(["gen", "regular", "4", "-o", str(inp)]) == 0
    code, stdout, _ = run(capsys, "embed", str(inp), str(out))
    assert code == 0
    assert "wrote certificate" in stdout
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 0
    assert "PASS" in stdout
    code, stdout, _ = run(capsys, "inspect", str(out))
    assert code == 0
    assert "torus factors" in stdout


def test_gen_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["gen", "random", "5", "--seed", "7", "-o", str(a)]) == 0
    assert main(["gen", "random", "5", "--seed", "7", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != b""


def test_gen_perturbed_is_simplex(tmp_path):
    out = tmp_path / "p.json"
    assert main(["gen", "perturbed", "4", "--noise", "0.01", "-o", str(out)]) == 0
    pts = np.asarray(json.loads(out.read_text())["points"])
    assert is_simplex(pts)


def test_gen_to_stdout(capsys):
    code, stdout, _ = run(capsys, "gen", "regular", "3")
    assert code == 0
    assert len(json.loads(stdout)["points"]) == 3


def test_embed_collinear_exits_2(tmp_path, capsys):
    inp = tmp_path / "in.json"
    write_json(inp, {"points": [[0.0], [1.0], [2.0]]})
    code, _, stderr = run(capsys, "embed", str(inp), str(tmp_path / "c.json"))
    assert code == 2
    assert "not a simplex" in stderr


def test_embed_unreadable_path_exits_1(tmp_path, capsys):
    code, _, stderr = run(capsys, "embed", str(tmp_path / "missing.json"), str(tmp_path / "c.json"))
    assert code == 1
    assert stderr


def test_embed_malformed_json_exits_1(tmp_path, capsys):
    inp = tmp_path / "in.json"
    inp.write_text("{not json")
    code, _, _ = run(capsys, "embed", str(inp), str(tmp_path / "c.json"))
    assert code == 1


def test_embed_missing_keys_exits_1(tmp_path, capsys):
    inp = tmp_path / "in.json"
    write_json(inp, {"coords": [[0.0]]})
    code, _, stderr = run(capsys, "embed", str(inp), str(tmp_path / "c.json"))
    assert code == 1
    assert "points" in stderr


def test_embed_accepts_squared_distances(tmp_path, capsys):
    inp = tmp_path / "in.json"
    out = tmp_path / "c.json"
    write_json(inp, {"squared_distances": [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]})
    code, _, _ = run(capsys, "embed", str(inp), str(out))
    assert code == 0
    cert = load_certificate(out)
    np.testing.assert_allclose(cert.input_sq, np.ones((3, 3)) - np.eye(3), atol=1e-12)


def test_embed_non_euclidean_squared_distances_exits_2(tmp_path, capsys):
    mat = (np.ones((4, 4)) - np.eye(4)).tolist()
    mat[0][1] = mat[1][0] = 9.0
    inp = tmp_path / "in.json"
    write_json(inp, {"squared_distances": mat})
    code, _, stderr = run(capsys, "embed", str(inp), str(tmp_path / "c.json"))
    assert code == 2
    assert "not a simplex" in stderr


def test_embed_quiet_suppresses_output(tmp_path, capsys):
    inp = tmp_path / "in.json"
    write_json(inp, {"points": [[0.0], [1.0]]})
    code, stdout, _ = run(capsys, "embed", str(inp), str(tmp_path / "c.json"), "--quiet")
    assert code == 0
    assert stdout == ""


def test_embed_uniform_m_flag(tmp_path, capsys):
    inp = tmp_path / "in.json"
    write_json(inp, {"points": [[0.0], [1.0]]})
    out = tmp_path / "c.json"
    assert run(capsys, "embed", str(inp), str(out), "--uniform-m", "--quiet")[0] == 0
    cert = load_certificate(out)
    assert len({f.m for f in cert.torus.factors}) == 1


def test_embed_alpha_fraction_out_of_range_exits_1(tmp_path, capsys):
    inp = tmp_path / "in.json"
    write_json(inp, {"points": [[0.0], [1.0]]})
    code, _, _ = run(capsys, "embed", str(inp), str(tmp_path / "c.json"), "--alpha-fraction", "2.5")
    assert code == 1


def test_verify_tampered_certificate_exits_3(tmp_path, capsys):
    inp = tmp_path / "in.json"
    out = tmp_path / "c.json"
    write_json(inp, {"points": [[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]]})
    assert run(capsys, "embed", str(inp), str(out), "--quiet")[0] == 0
    obj = json.loads(out.read_text())
    # the correction factors come last, one per recorded cut; bump point 1's
    # index in the slot of the singleton cut {0}, where point 0 carries a 1,
    # so pair (0, 1) loses that whole chord contribution
    cuts = obj["parameters"]["correction_cuts"]
    slot = len(obj["torus"]["factors"]) - len(cuts) + cuts.index([0])
    m = int(obj["torus"]["factors"][slot]["m"])
    obj["assignment"][1][slot] = str((int(obj["assignment"][1][slot]) + 1) % m)
    out.write_text(json.dumps(obj))
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 3
    assert "FAIL" in stdout
    assert "worst pair" in stdout


def test_verify_truncated_certificate_exits_1(tmp_path, capsys):
    out = tmp_path / "c.json"
    out.write_text('{"input": {')
    code, _, _ = run(capsys, "verify", str(out))
    assert code == 1


def test_verify_missing_file_exits_1(tmp_path, capsys):
    assert run(capsys, "verify", str(tmp_path / "nope.json"))[0] == 1


def test_verify_env_tolerance_override(tmp_path, capsys, monkeypatch):
    inp = tmp_path / "in.json"
    out = tmp_path / "c.json"
    write_json(inp, {"points": [[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]]})
    assert run(capsys, "embed", str(inp), str(out), "--quiet")[0] == 0
    report = json.loads(out.read_text())["errors"]
    assert report["max_rel"] > 0  # the override below must therefore bite
    monkeypatch.setenv("TORUS_EMBED_TOL", "1e-30")
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 3  # float rounding exceeds an absurdly tight tolerance
    monkeypatch.setenv("TORUS_EMBED_TOL", "1e-8")
    assert run(capsys, "verify", str(out))[0] == 0
    # explicit flag beats the environment
    monkeypatch.setenv("TORUS_EMBED_TOL", "1e-30")
    assert run(capsys, "verify", str(out), "--tolerance", "1e-8")[0] == 0


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
def test_bad_tolerance_exits_1(tmp_path, capsys, monkeypatch, value, source):
    inp = tmp_path / "in.json"
    out = tmp_path / "c.json"
    write_json(inp, {"points": [[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]]})
    assert run(capsys, "embed", str(inp), str(out), "--quiet")[0] == 0
    extra = []
    if source == "flag":
        extra = ["--tolerance", value]
    else:
        monkeypatch.setenv("TORUS_EMBED_TOL", value)
    code, stdout, stderr = run(capsys, "verify", str(out), *extra)
    assert code == 1
    assert stderr.startswith("torus-embed: ") and "tolerance" in stderr
    assert "PASS" not in stdout and "FAIL" not in stdout
    other = tmp_path / "other.json"
    code, _, stderr = run(capsys, "embed", str(inp), str(other), "--quiet", *extra)
    assert code == 1
    assert stderr.startswith("torus-embed: ") and "tolerance" in stderr
    assert not other.exists()


@pytest.mark.parametrize(
    "field, value, shown",
    [("parameters", {"alpha": "x"}, "alpha:             x"),
     ("errors", {"max_abs": 1.0}, "max_rel None")],
    ids=["string-alpha", "missing-max-rel"],
)
def test_inspect_shows_untrusted_provenance_as_given(tmp_path, capsys, field, value, shown):
    inp = tmp_path / "in.json"
    out = tmp_path / "c.json"
    write_json(inp, {"points": [[0.0], [1.0]]})
    assert run(capsys, "embed", str(inp), str(out), "--quiet")[0] == 0
    obj = json.loads(out.read_text())
    obj[field] = value
    out.write_text(json.dumps(obj))
    code, stdout, _ = run(capsys, "inspect", str(out))
    assert code == 0
    assert shown in stdout


def test_inspect_json_output(tmp_path, capsys):
    inp = tmp_path / "in.json"
    out = tmp_path / "c.json"
    write_json(inp, {"points": [[0.0], [1.0]]})
    assert run(capsys, "embed", str(inp), str(out), "--quiet")[0] == 0
    code, stdout, _ = run(capsys, "inspect", str(out), "--json")
    assert code == 0
    summary = json.loads(stdout)
    assert summary["points"] == 2
    assert summary["ambient_dim"] == 2 * summary["factor_count"]
    assert all("bits" in entry for entry in summary["polygon_orders"])


def test_inspect_missing_file_exits_1(tmp_path, capsys):
    assert run(capsys, "inspect", str(tmp_path / "nope.json"))[0] == 1


def test_certificate_file_roundtrip_bytes(tmp_path, capsys):
    inp = tmp_path / "in.json"
    out = tmp_path / "c.json"
    write_json(inp, {"points": [[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]]})
    assert run(capsys, "embed", str(inp), str(out), "--quiet")[0] == 0
    from torus_embed import dumps_certificate

    text = out.read_text()
    assert text.endswith("\n")
    assert dumps_certificate(load_certificate(out)) == text.rstrip("\n")


@pytest.mark.parametrize(
    "entry, value", [((1, 0), 0.5), ((0, 0), 0.25)], ids=["asymmetric", "nonzero-diagonal"]
)
def test_verify_invalid_input_matrix_exits_1(tmp_path, capsys, entry, value):
    inp = tmp_path / "in.json"
    out = tmp_path / "c.json"
    write_json(inp, {"points": [[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]]})
    assert run(capsys, "embed", str(inp), str(out), "--quiet")[0] == 0
    obj = json.loads(out.read_text())
    row, col = entry
    obj["input"]["squared_distances"][row][col] = value
    out.write_text(json.dumps(obj))
    code, stdout, stderr = run(capsys, "verify", str(out))
    assert code == 1
    assert "input.squared_distances" in stderr
    assert "PASS" not in stdout
