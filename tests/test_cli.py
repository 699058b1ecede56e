"""Tests for the command-line interface and its exit-code contract."""

import contextlib
import io
import json
import sys
import warnings

import numpy as np
import pytest

from torus_embed import (
    InputError,
    cli,
    generate_points,
    is_simplex,
    load_certificate,
    squared_distances,
)
from torus_embed.certificate import dumps_canonical
from torus_embed.cli import build_parser, main


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


@pytest.mark.parametrize(
    "data",
    [{"points": [[0.5, 1.0]]}, {"points": [[]]}, {"squared_distances": [[0.0]]}],
    ids=["point", "zero-dim-point", "one-by-one-matrix"],
)
def test_embed_one_point_exits_2(tmp_path, capsys, data):
    # one point is affinely independent, so it is a simplex, but too small to
    # embed; {"points": [[]]} is what `gen regular 1` wrote before it refused n < 2
    inp = tmp_path / "in.json"
    write_json(inp, data)
    code, stdout, stderr = run(capsys, "embed", str(inp), str(tmp_path / "c.json"))
    assert code == 2
    assert stderr == "torus-embed: input has fewer than two points\n"
    assert stdout == ""
    assert not (tmp_path / "c.json").exists()


def embeds_and_verifies(capsys, tmp_path, data):
    """Embed `data` through the CLI, verify what it wrote, and return the
    certificate."""
    inp = tmp_path / "in.json"
    out = tmp_path / "c.json"
    write_json(inp, data)
    code, _, stderr = run(capsys, "embed", str(inp), str(out), "--quiet")
    assert code == 0, stderr
    assert run(capsys, "verify", str(out))[0] == 0
    return load_certificate(out)


# The tests below, named for the refusals that inputs at the edges of the
# double range once got, now pin their embedding: squared distances that
# underflow or overflow a double, or an error budget alpha^2 / n^2 that
# would underflow, are built at the power-of-two scale that puts the
# largest squared distance in [1, 4), recorded as the certificate's scale.


@pytest.mark.parametrize("scale", [1e-158, 1e-162, 1e-170])
def test_embed_underflowing_squared_distances_exits_1(tmp_path, capsys, scale):
    points = generate_points("random", 6, seed=1) * scale
    cert = embeds_and_verifies(capsys, tmp_path, {"points": points.tolist()})
    assert cert.scale < 0
    assert 1.0 <= float(cert.input_sq.max()) < 4.0


@pytest.mark.parametrize("n, decades", [(3, 161.5), (6, 160.5), (6, 161.0)])
def test_embed_underflowing_error_budget_exits_1(tmp_path, capsys, n, decades):
    pts = generate_points("random", n, seed=2) * 10.0**-decades
    cert = embeds_and_verifies(capsys, tmp_path, {"points": pts.tolist()})
    assert cert.scale < 0
    assert cert.parameters["delta"] > 1e-6


@pytest.mark.parametrize("n, decades, seed", [(2, 158.0, 1), (2, 161.0, 1), (6, 157.5, 0)])
def test_embed_subnormal_squared_distances_never_exit_3(tmp_path, capsys, n, decades, seed):
    # squared distances below the smallest normal double that keep their
    # rank are built in [1, 4), where the certificate passes its own check
    pts = generate_points("random", n, seed=seed) * 10.0**-decades
    assert embeds_and_verifies(capsys, tmp_path, {"points": pts.tolist()}).scale < 0


def test_embed_subnormal_squared_distances_with_rank_still_embed(tmp_path, capsys):
    points = generate_points("random", 6, seed=1) * 1e-155
    cert = embeds_and_verifies(capsys, tmp_path, {"points": points.tolist()})
    # the real squared distances, the input times 4^scale, are subnormal
    assert float(np.max(np.ldexp(cert.input_sq, 2 * cert.scale))) < np.finfo(float).tiny


# squared-distance matrices with positive subnormal entries, and the exit
# code and message each gets: the first two are simplices, scaled by 4^-e
# and embedded (exit 0); the last two are no metric at any scale (exit 2)
SUBNORMAL_MATRICES = {
    "random-4-points": (
        squared_distances(generate_points("random", 4, seed=1) * 1e-158), 0, "",
    ),
    "two-points": ([[0.0, 5e-324], [5e-324, 0.0]], 0, ""),
    "not-euclidean": (
        [[0.0, 1.0, 5e-324], [1.0, 0.0, 5e-324], [5e-324, 5e-324, 0.0]],
        2, "input is not a simplex (squared distances are not Euclidean)",
    ),
    # the same at 2**-10 times the scale, which is built at 4**5 times it
    "not-euclidean-small": (
        [[0.0, 2.0**-10, 5e-324], [2.0**-10, 0.0, 5e-324], [5e-324, 5e-324, 0.0]],
        2, "input is not a simplex (squared distances are not Euclidean)",
    ),
}


@pytest.mark.parametrize("name", list(SUBNORMAL_MATRICES))
def test_embed_subnormal_matrix_one_verdict(tmp_path, capsys, name):
    matrix, code, message = SUBNORMAL_MATRICES[name]
    data = {"squared_distances": np.asarray(matrix).tolist()}
    if code == 0:
        cert = embeds_and_verifies(capsys, tmp_path, data)
        # the input as given, times the exact power of four 4^-scale
        np.testing.assert_array_equal(cert.input_sq, np.ldexp(matrix, -2 * cert.scale))
        return
    inp = tmp_path / "in.json"
    out = tmp_path / "c.json"
    write_json(inp, data)
    got, _, stderr = run(capsys, "embed", str(inp), str(out))
    assert got == code
    assert stderr.startswith(f"torus-embed: {message}")
    assert not out.exists()


@pytest.mark.parametrize("scale", [9e153, 1e200], ids=["sum-overflows", "entries-overflow"])
def test_embed_overflowing_squared_distances_exits_1(tmp_path, capsys, scale):
    # at 9e153 every squared distance is finite but their sum, which the
    # centered Gram's mean needs, is not; at 1e200 the entries overflow too
    data = {"points": [[scale, 0.0], [0.0, scale], [0.0, 0.0]]}
    cert = embeds_and_verifies(capsys, tmp_path, data)
    assert cert.scale > 0
    assert 1.0 <= float(cert.input_sq.max()) < 4.0


def test_gen_noise_overflowing_squared_distances_exits_1(tmp_path, capsys):
    out = tmp_path / "p.json"
    code, _, stderr = run(capsys, "gen", "perturbed", "3", "--noise", "1e154", "-o", str(out))
    assert code == 1
    assert stderr.startswith("torus-embed: noise must lie in [0, ")
    assert "--noise can overflow the points' squared distances" in stderr
    assert not out.exists()


def test_embed_bad_tolerance_refused_before_simplex_check(tmp_path, capsys):
    # embed self-checks at the package's DEFAULT_ACCEPT_TOL: --tolerance is
    # a usage error (exit 1) before the input, not a simplex, is read
    inp = tmp_path / "in.json"
    write_json(inp, {"points": [[0.0], [1.0], [2.0]]})
    code, _, stderr = run(capsys, "embed", str(inp), str(tmp_path / "c.json"),
                          "--tolerance", "nan")
    assert code == 1
    assert "unrecognized arguments: --tolerance" in stderr
    assert not (tmp_path / "c.json").exists()


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
    np.testing.assert_array_equal(cert.input_sq, np.ones((3, 3)) - np.eye(3))


@pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
@pytest.mark.parametrize("n", [3, 8, 16])
def test_squared_distance_input_certified_as_its_points(tmp_path, capsys, n, scale):
    # the matrix is the certificate's input metric as given, so it builds
    # the very certificate that its points do
    points = generate_points("random", n, seed=n) * scale
    matrix = squared_distances(points)
    certs = []
    for key, value in (("points", points), ("squared_distances", matrix)):
        inp = tmp_path / f"{key}.json"
        out = tmp_path / f"{key}-cert.json"
        write_json(inp, {key: value.tolist()})
        assert run(capsys, "embed", str(inp), str(out), "--quiet")[0] == 0
        certs.append(out.read_bytes())
    assert certs[0] == certs[1]
    assert json.loads(certs[1])["input"]["squared_distances"] == matrix.tolist()


def test_embed_squared_distances_summing_past_a_double_exits_1(tmp_path, capsys):
    # every entry is finite, but symmetrizing the matrix and the centered
    # Gram's mean would overflow: refused by name, with no overflow warning
    inp = tmp_path / "in.json"
    out = tmp_path / "c.json"
    write_json(inp, {"squared_distances": [[0, 1e308, 1e308], [1e308, 0, 1e308], [1e308, 1e308, 0]]})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, stderr = run(capsys, "embed", str(inp), str(out))
    assert code == 1
    assert stderr == (
        "torus-embed: cannot read input: squared-distance matrix has entries "
        "that sum past the largest double\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("scale", [1e-150, 7.7e-42, 1e150])
def test_embed_and_verify_at_extreme_scales(tmp_path, capsys, scale):
    # n = 8 with one flattened axis: refused on a grid measured against 1
    # at every one of these scales, embedded on the grid in units of 2**e
    points = generate_points("random", 8, seed=4)
    points[:, -1] *= 1e-2
    inp = tmp_path / "in.json"
    out = tmp_path / "c.json"
    write_json(inp, {"points": (points * scale).tolist()})
    code, _, stderr = run(capsys, "embed", str(inp), str(out), "--quiet")
    assert code == 0, stderr
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 0
    assert "PASS" in stdout


def test_embed_non_euclidean_squared_distances_exits_2(tmp_path, capsys):
    mat = (np.ones((4, 4)) - np.eye(4)).tolist()
    mat[0][1] = mat[1][0] = 9.0
    inp = tmp_path / "in.json"
    write_json(inp, {"squared_distances": mat})
    code, _, stderr = run(capsys, "embed", str(inp), str(tmp_path / "c.json"))
    assert code == 2
    assert "not a simplex" in stderr


@pytest.mark.parametrize(
    "data",
    [
        {"points": [["0", "0"], [True, "0"], [0, "1.5"]]},
        {"points": [[0, 0], [1, 0], [0, 10**400]]},
        {"points": [[0, 0], [1]]},
        {"points": [0, 1]},
        {"squared_distances": [[0, "1"], ["1", 0]]},
        {"squared_distances": [[0, True], [True, 0]]},
        {"squared_distances": [[0, 1], [1]]},
    ],
    ids=["points-strings", "points-too-large", "points-ragged", "points-flat",
         "matrix-strings", "matrix-bools", "matrix-ragged"],
)
def test_embed_refuses_non_number_input_exits_1(tmp_path, capsys, data):
    inp = tmp_path / "in.json"
    out = tmp_path / "c.json"
    write_json(inp, data)
    code, _, stderr = run(capsys, "embed", str(inp), str(out))
    assert code == 1
    assert stderr.startswith("torus-embed: cannot read input:")
    assert f"'{next(iter(data))}'" in stderr  # the field is named
    assert not out.exists()


def test_embed_quiet_suppresses_output(tmp_path, capsys):
    inp = tmp_path / "in.json"
    write_json(inp, {"points": [[0.0], [1.0]]})
    code, stdout, _ = run(capsys, "embed", str(inp), str(tmp_path / "c.json"), "--quiet")
    assert code == 0
    assert stdout == ""


def test_embed_alpha_fraction_out_of_range_exits_1(tmp_path, capsys):
    # embed takes no options but --quiet: alpha^2 is the smallest Gram
    # eigenvalue, every cut factor is a triangle and the self-check's
    # tolerance is DEFAULT_ACCEPT_TOL, so --alpha-fraction (at any value, 1
    # included), --uniform-m and --tolerance are unknown options
    inp = tmp_path / "in.json"
    write_json(inp, {"points": [[0.0], [1.0]]})
    for flag in (["--alpha-fraction", "1"], ["--alpha-fraction", "2.5"], ["--uniform-m"],
                 ["--tolerance", "1e-30"]):
        code, _, stderr = run(capsys, "embed", str(inp), str(tmp_path / "c.json"), *flag)
        assert code == 1
        assert f"unrecognized arguments: {' '.join(flag)}" in stderr
        assert not (tmp_path / "c.json").exists()


def test_embed_flattened_simplex_near_rank_tolerance(tmp_path, capsys):
    # `gen random 4 --seed 1` with its last coordinate scaled by 3e-4: its
    # Gram spectrum sits just above the rank tolerance, and it embeds tightly;
    # its first points - 1 = 3 factors are the base, at the base's order m,
    # and every later one is a triangle
    inp = tmp_path / "in.json"
    out = tmp_path / "c.json"
    assert main(["gen", "random", "4", "--seed", "1", "-o", str(inp)]) == 0
    pts = json.loads(inp.read_text())["points"]
    write_json(inp, {"points": [row[:-1] + [row[-1] * 3e-4] for row in pts]})
    assert run(capsys, "embed", str(inp), str(out), "--quiet")[0] == 0
    cert = load_certificate(out)
    assert "dropped_coordinates" not in cert.parameters
    orders = [f.m for f in cert.torus.factors]
    assert orders[:3] == [int(cert.parameters["m"])] * 3
    assert set(orders[3:]) == {3}
    assert cert.errors["max_rel"] <= 1e-12
    assert run(capsys, "verify", str(out), "--tolerance", "1e-12")[0] == 0


def test_verify_tampered_certificate_exits_3(tmp_path, capsys):
    inp = tmp_path / "in.json"
    out = tmp_path / "c.json"
    write_json(inp, {"points": [[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]]})
    assert run(capsys, "embed", str(inp), str(out), "--quiet")[0] == 0
    obj = json.loads(out.read_text())
    # the base takes the first points - 1 factors and the pair cut {0, 1}
    # the next, with points 0 and 1 on vertex 1; bump point 2's index there,
    # so pairs (0, 2) and (1, 2) lose that whole chord
    slot = len(obj["assignment"]) - 1
    assert [row[slot] for row in obj["assignment"]] == ["1", "1", "0"]
    m = int(obj["torus"]["factors"][slot]["m"])
    obj["assignment"][2][slot] = str((int(obj["assignment"][2][slot]) + 1) % m)
    out.write_text(json.dumps(obj))
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 3
    assert "FAIL" in stdout
    assert "worst pair" in stdout


def _index_at_order(obj):
    obj["assignment"][0][0] = obj["torus"]["factors"][0]["m"]


def _index_minus_one(obj):
    obj["assignment"][0][0] = "-1"


def _correction_three(obj):
    # the first correction factor is a triangle: 3 is past it, and leaves
    # the pair layout
    obj["assignment"][0][len(obj["assignment"]) - 1] = "3"


def _index_past_int64(obj):
    obj["assignment"][0][0] = "9" * 25


def _two_bad_indices(obj):
    # the first in row-major order is named, not the first by factor
    obj["assignment"][1][0] = obj["torus"]["factors"][0]["m"]
    obj["assignment"][0][3] = "3"


def _short_row(obj):
    obj["assignment"][1] = obj["assignment"][1][:-1]


def _missing_row(obj):
    del obj["assignment"][-1]


def _asymmetric(obj):
    obj["input"]["squared_distances"][1][0] += 0.5


# faults that the reader lets through and only the verifier refuses, and the
# field that names each
VERIFIER_REFUSED = {
    "index-at-order": (_index_at_order, "assignment[0][0]"),
    "index-minus-one": (_index_minus_one, "assignment[0][0]"),
    "correction-index-three": (_correction_three, "assignment[0][2]"),
    "index-past-int64": (_index_past_int64, "assignment[0][0]"),
    "two-bad-indices": (_two_bad_indices, "assignment[0][3]"),
    "row-one-short": (_short_row, "assignment[1]"),
    "row-missing": (_missing_row, "assignment"),
    "input-asymmetric": (_asymmetric, "input.squared_distances"),
}


@pytest.mark.parametrize(
    "edit, field", list(VERIFIER_REFUSED.values()), ids=list(VERIFIER_REFUSED)
)
def test_verify_names_the_field_only_the_verifier_refuses(tmp_path, capsys, edit, field):
    inp = tmp_path / "in.json"
    out = tmp_path / "c.json"
    write_json(inp, {"points": [[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]]})
    assert run(capsys, "embed", str(inp), str(out), "--quiet")[0] == 0
    obj = json.loads(out.read_text())
    edit(obj)
    out.write_text(json.dumps(obj))
    load_certificate(out)  # the reader takes it; only the verifier refuses
    code, stdout, err = run(capsys, "verify", str(out))
    assert code == 1
    assert stdout == ""
    assert err.startswith(f"torus-embed: invalid certificate: {field} ")


def test_verify_truncated_certificate_exits_1(tmp_path, capsys):
    out = tmp_path / "c.json"
    out.write_text('{"input": {')
    code, _, _ = run(capsys, "verify", str(out))
    assert code == 1


def test_verify_missing_file_exits_1(tmp_path, capsys):
    assert run(capsys, "verify", str(tmp_path / "nope.json"))[0] == 1


# 0 where this Python reads ints of any length
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()

UNREADABLE = {
    "not-utf8": b'\xff\xfe{"points": [[0.0], [1.0]]}',
    "nested-too-deep": b"[" * 100_000,
    # json.loads refuses an integer past the digit limit with a ValueError
    "int-past-digit-limit": pytest.param(
        b'{"points": [[' + b"1" * (DIGIT_LIMIT + 1) + b"], [0]]}",
        marks=pytest.mark.skipif(not DIGIT_LIMIT, reason="no int digit limit"),
    ),
}


@pytest.mark.parametrize("command", ["verify", "inspect", "embed"])
@pytest.mark.parametrize("content", list(UNREADABLE.values()), ids=list(UNREADABLE))
def test_unreadable_file_exits_1(tmp_path, capsys, command, content):
    path = tmp_path / "in.json"
    path.write_bytes(content)
    out = tmp_path / "c.json"
    argv = [command, str(path)] + ([str(out), "--quiet"] if command == "embed" else [])
    code, stdout, stderr = run(capsys, *argv)
    assert code == 1
    assert stderr.startswith("torus-embed: ")
    assert "invalid certificate" in stderr or "cannot read input" in stderr
    assert stdout == ""
    assert not out.exists()


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no int digit limit")
@pytest.mark.parametrize("command", ["verify", "inspect"])
@pytest.mark.parametrize(
    "path, field",
    [(["torus", "factors", 0, "m"], "torus.factors[0].m"),
     (["assignment", 0, 0], "assignment[0][0]")],
    ids=["order", "index"],
)
def test_decimal_past_the_digit_limit_is_named_briefly(tmp_path, capsys, command, path, field):
    # a canonical decimal string too long for int() is refused by the digit
    # limit, not as non-canonical, and echoed as a short prefix only
    inp = tmp_path / "in.json"
    out = tmp_path / "c.json"
    write_json(inp, {"points": [[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]]})
    assert run(capsys, "embed", str(inp), str(out), "--quiet")[0] == 0
    obj = json.loads(out.read_text())
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = "1" + "0" * 4999
    out.write_text(json.dumps(obj))
    code, stdout, stderr = run(capsys, command, str(out))
    assert code == 1
    assert stdout == ""
    assert field in stderr
    assert f"limit of {DIGIT_LIMIT}" in stderr and "(5000 characters)" in stderr
    assert "not a canonical" not in stderr
    assert len(stderr.encode()) < 300


@pytest.mark.parametrize(
    "argv",
    [["verify", "c.json", "--tolerance", "abc"], ["embed", "in.json"], ["frob"],
     ["gen", "spiral", "3"], []],
    ids=["bad-float", "missing-argument", "unknown-command", "bad-choice", "no-command"],
)
def test_usage_error_exits_1(capsys, argv):
    code, stdout, stderr = run(capsys, *argv)
    assert code == 1  # argparse's own 2 would read as "not a simplex"
    assert stderr.splitlines()[-1].startswith("torus-embed: ")
    assert stdout == ""


@pytest.mark.parametrize("argv", [["--help"], ["embed", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: torus-embed" in capsys.readouterr().out


def test_parser_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    # main reuses one parser per process, so no option value, default or
    # command of one call may reach the next
    assert build_parser() is build_parser()
    monkeypatch.chdir(tmp_path)
    # a triangle whose certificate misses its input by float rounding
    write_json(tmp_path / "in.json", {"points": [[0.0, 0.0], [1.0, 0.0], [0.3, 0.7]]})
    assert run(capsys, "embed", "in.json", "c.json", "--quiet")[0] == 0
    assert load_certificate("c.json").errors["max_rel"] > 0  # so tolerance 0 must bite
    code, stdout, _ = run(capsys, "verify", "c.json", "--tolerance", "0")
    assert code == 3
    assert "tolerance: 0\n" in stdout
    code, stdout, _ = run(capsys, "verify", "c.json")
    assert code == 0
    assert "tolerance: 1e-08\n" in stdout
    assert run(capsys, "verify")[0] == 1
    assert run(capsys, "verify", "c.json")[0] == 0
    seeded = run(capsys, "gen", "random", "4", "--seed", "3")
    default = run(capsys, "gen", "random", "4")
    assert default == run(capsys, "gen", "random", "4", "--seed", "0")
    assert default[0] == 0
    assert default[1] != seeded[1]
    args = build_parser().parse_args(["gen", "random", "4"])
    assert args is not build_parser().parse_args(["gen", "random", "4"])
    assert not hasattr(args, "cert") and not hasattr(args, "tolerance")


def test_usage_and_help_reach_the_streams_of_each_call(capsys):
    # a parser first used while other streams were installed still prints
    # to sys.stdout and sys.stderr as they are at the later call
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["verify"]) == 1
        with pytest.raises(SystemExit):
            main(["--help"])
    code, stdout, stderr = run(capsys, "verify")
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("usage: torus-embed verify")
    assert stderr.splitlines()[-1].startswith("torus-embed: ")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert "usage: torus-embed" in captured.out
    assert captured.err == ""


def test_boundary_names_are_looked_up_at_each_call(tmp_path, capsys, monkeypatch):
    # the benchmark's traced run patches these cli attributes after the
    # parser exists, so the handlers must not capture them when it is built
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "regular", "3", "-o", "in.json"]) == 0
    ran = []
    names = ["embed_simplex", "save_certificate", "load_certificate", "verify_certificate"]
    for name in names:
        def spy(*args, _real=getattr(cli, name), _name=name, **kwargs):
            ran.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
    assert run(capsys, "embed", "in.json", "c.json", "--quiet")[0] == 0
    assert run(capsys, "verify", "c.json")[0] == 0
    assert ran == names


@pytest.mark.parametrize(
    "argv, named",
    [(["perturbed", "4", "--noise", "nan"], "noise"),
     (["perturbed", "4", "--noise", "inf"], "noise"),
     (["perturbed", "4", "--noise", "-1"], "noise"),
     (["perturbed", "4", "--noise", "1e308"], "noise"),
     (["random", "4", "--seed", "-1"], "seed"),
     (["perturbed", "4", "--seed", "-1"], "seed"),
     (["regular", "4", "--seed", "-3"], "seed"),
     (["random", "4", "--noise", "nan"], "noise"),
     (["regular", "4", "--noise", "-1"], "noise"),
     (["regular", "1"], "point count"),
     (["random", "1"], "point count"),
     (["perturbed", "0"], "point count")],
    ids=["noise-nan", "noise-inf", "noise-negative", "noise-overflows-draw",
         "seed-negative-random", "seed-negative-perturbed", "seed-negative-regular",
         "noise-nan-random", "noise-negative-regular", "one-point-regular",
         "one-point-random", "no-point-perturbed"],
)
def test_gen_bad_option_exits_1(tmp_path, capsys, argv, named):
    out = tmp_path / "p.json"
    code, _, stderr = run(capsys, "gen", *argv, "-o", str(out))
    assert code == 1
    assert stderr.startswith(f"torus-embed: {named} must")
    assert not out.exists()


@pytest.mark.parametrize("seed", [1.5, "1", None])
@pytest.mark.parametrize("kind", ["random", "perturbed", "regular"])
def test_generate_points_refuses_non_integer_seed(kind, seed):
    # the library refuses it by name, as it refuses a non-integer point count
    with pytest.raises(InputError, match="seed must be an integer"):
        generate_points(kind, 4, seed=seed)


def test_verify_env_tolerance_override(tmp_path, capsys, monkeypatch):
    # the tolerance comes from --tolerance alone: TORUS_EMBED_TOL, which once
    # overrode the default, no longer moves any verdict or output
    monkeypatch.chdir(tmp_path)  # embed prints its output path as given
    # a triangle whose certificate misses its input by float rounding (the
    # one at (0.5, 0.8) now verifies with no error at all)
    write_json(tmp_path / "in.json", {"points": [[0.0, 0.0], [1.0, 0.0], [0.3, 0.7]]})
    assert run(capsys, "embed", "in.json", "c.json", "--quiet")[0] == 0
    assert load_certificate("c.json").errors["max_rel"] > 0  # so 1e-30 must bite
    assert run(capsys, "verify", "c.json", "--tolerance", "1e-30")[0] == 3
    assert run(capsys, "verify", "c.json", "--tolerance", "1e-8")[0] == 0

    def outcomes():
        return [run(capsys, "embed", "in.json", "again.json")[:2],
                run(capsys, "verify", "c.json")[:2]]

    monkeypatch.delenv("TORUS_EMBED_TOL", raising=False)
    unset = outcomes()
    assert [code for code, _ in unset] == [0, 0]
    for value in ("1e-30", "abc"):
        monkeypatch.setenv("TORUS_EMBED_TOL", value)
        assert outcomes() == unset


# the tolerance comes from the flag alone, as the ids say
@pytest.mark.parametrize("value", ["nan", "-1", "inf"], ids=lambda v: f"{v}-flag")
def test_bad_tolerance_exits_1(tmp_path, capsys, value):
    inp = tmp_path / "in.json"
    out = tmp_path / "c.json"
    write_json(inp, {"points": [[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]]})
    assert run(capsys, "embed", str(inp), str(out), "--quiet")[0] == 0
    code, stdout, stderr = run(capsys, "verify", str(out), "--tolerance", value)
    assert code == 1
    assert stderr.startswith("torus-embed: ") and "tolerance" in stderr
    assert "PASS" not in stdout and "FAIL" not in stdout


@pytest.mark.parametrize(
    "field, value, code, shown",
    [("parameters", {"alpha": "x"}, 0, "alpha:             x"),
     ("errors", {"max_abs": 1.0}, 0, "max_rel None"),
     # integers past the double range break the provenance rule: exit 1,
     # naming the value
     ("parameters", {"alpha": 10**400}, 1, "parameters.alpha"),
     ("errors", {"max_abs": 10**400, "max_rel": 0.0}, 1, "errors.max_abs")],
    ids=["string-alpha", "missing-max-rel", "huge-int-alpha", "huge-int-max-abs"],
)
def test_inspect_shows_untrusted_provenance_as_given(tmp_path, capsys, field, value, code, shown):
    inp = tmp_path / "in.json"
    out = tmp_path / "c.json"
    write_json(inp, {"points": [[0.0], [1.0]]})
    assert run(capsys, "embed", str(inp), str(out), "--quiet")[0] == 0
    obj = json.loads(out.read_text())
    obj[field] = value
    out.write_text(json.dumps(obj))
    got, stdout, stderr = run(capsys, "inspect", str(out))
    assert got == code
    assert shown in (stderr if code else stdout)


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


def test_inspect_shows_the_scale_exponent(tmp_path, capsys):
    inp = tmp_path / "in.json"
    out = tmp_path / "c.json"
    write_json(inp, {"points": [[0.0], [1e-100]]})
    assert run(capsys, "embed", str(inp), str(out), "--quiet")[0] == 0
    e = json.loads(out.read_text())["parameters"]["scale_exponent"]
    assert isinstance(e, int) and e < -300
    code, stdout, _ = run(capsys, "inspect", str(out), "--json")
    assert code == 0
    assert json.loads(stdout)["scale_exponent"] == e
    code, stdout, _ = run(capsys, "inspect", str(out))
    assert code == 0
    assert f"scale exponent:    {e}\n" in stdout
    obj = json.loads(out.read_text())
    obj["parameters"]["scale_exponent"] = "x"  # provenance: shown as given
    out.write_text(json.dumps(obj))
    code, stdout, _ = run(capsys, "inspect", str(out))
    assert code == 0
    assert "scale exponent:    x\n" in stdout


@pytest.mark.parametrize(
    "field, key, value, named",
    [("parameters", "alpha", float("nan"), "parameters.alpha"),
     ("parameters", "delta", float("inf"), "parameters.delta"),
     ("errors", "max_rel", float("nan"), "errors.max_rel"),
     ("parameters", "alpha", [float("nan")], "parameters.alpha[0]"),
     ("errors", "max_rel", {"x": float("inf"), "y": [-float("inf"), 1.5]}, "errors.max_rel"),
     ("input", "squared_distances", [[0.0, float("nan")], [float("inf"), 0.0]],
      "input.squared_distances")],
    ids=["nan-alpha", "inf-delta", "nan-max-rel", "nan-in-alpha-list", "inf-in-max-rel-object",
         "non-finite-input"],
)
def test_inspect_json_shows_non_finite_provenance(tmp_path, capsys, field, key, value, named):
    # a non-finite number, or an object, breaks the provenance rule, and a
    # non-finite input entry the input's: both modes refuse the certificate
    # with exit 1, naming the value
    inp = tmp_path / "in.json"
    out = tmp_path / "c.json"
    write_json(inp, {"points": [[0.0], [1.0]]})
    assert run(capsys, "embed", str(inp), str(out), "--quiet")[0] == 0
    obj = json.loads(out.read_text())
    obj[field][key] = value
    out.write_text(json.dumps(obj))  # json writes NaN and Infinity
    for mode in (["--json"], []):
        code, stdout, stderr = run(capsys, "inspect", str(out), *mode)
        assert code == 1
        assert stdout == ""
        assert f"invalid certificate: {named} must " in stderr


@pytest.mark.parametrize(
    "depth, leaf", [(600, "1"), (900, "1"), (900, "NaN")], ids=["600", "900", "900-nan"]
)
def test_inspect_json_writes_deeply_nested_provenance(tmp_path, capsys, depth, leaf):
    # provenance arrays nest at most two deep: a deeper one is refused with
    # exit 1, naming its first value past that depth, and never recursed into
    inp = tmp_path / "in.json"
    out = tmp_path / "c.json"
    write_json(inp, {"points": [[0.0], [1.0]]})
    assert run(capsys, "embed", str(inp), str(out), "--quiet")[0] == 0
    text = out.read_text()
    alpha = dumps_canonical(json.loads(text)["parameters"]["alpha"])
    nested = "[" * depth + leaf + "]" * depth
    out.write_text(text.replace(f'"alpha":{alpha}', f'"alpha":{nested}', 1))
    code, stdout, stderr = run(capsys, "inspect", str(out), "--json")
    assert code == 1
    assert stdout == ""
    assert "invalid certificate: parameters.alpha[0][0] must be" in stderr


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


@pytest.mark.parametrize(
    "field, text", [("torus.factors[0].m", "+3"), ("assignment[1][0]", "007")],
    ids=["order", "index"],
)
def test_verify_non_canonical_integer_exits_1(tmp_path, capsys, field, text):
    inp = tmp_path / "in.json"
    out = tmp_path / "c.json"
    write_json(inp, {"points": [[0.0], [1.0]]})
    assert run(capsys, "embed", str(inp), str(out), "--quiet")[0] == 0
    obj = json.loads(out.read_text())
    if field.startswith("torus"):
        obj["torus"]["factors"][0]["m"] = text
    else:
        obj["assignment"][1][0] = text
    out.write_text(json.dumps(obj))
    code, stdout, stderr = run(capsys, "verify", str(out))
    assert code == 1
    assert stderr.startswith("torus-embed: invalid certificate") and field in stderr
    assert "PASS" not in stdout


@pytest.mark.parametrize("field", ["input.squared_distances", "torus.factors[0]"])
def test_verify_refuses_numbers_written_as_strings(tmp_path, capsys, field):
    inp = tmp_path / "in.json"
    out = tmp_path / "c.json"
    write_json(inp, {"points": [[0.0], [1.0]]})
    assert run(capsys, "embed", str(inp), str(out), "--quiet")[0] == 0
    obj = json.loads(out.read_text())
    if field.startswith("input"):
        matrix = obj["input"]["squared_distances"]
        matrix[0][1] = matrix[1][0] = json.dumps(matrix[0][1])
    else:
        obj["torus"]["factors"][0]["r"] = json.dumps(obj["torus"]["factors"][0]["r"])
    out.write_text(json.dumps(obj))
    code, stdout, stderr = run(capsys, "verify", str(out))
    assert code == 1
    assert stderr.startswith("torus-embed: invalid certificate") and field in stderr
    assert "PASS" not in stdout
