"""Command-line entry points, exercised through main(argv)."""

import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from tropcount import enumeration
from tropcount.cli import _json_text, main
from tropcount.enumeration import GeneralPositionViolation, PointConfig, pi_config


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def write_points(path, pts):
    cfg = PointConfig(points=tuple(pts))
    path.write_text(json.dumps(cfg.to_json()))
    return str(path)


def test_nd_table(capsys):
    code, out = run(capsys, ["nd", "--dmax", "4"])
    assert code == 0
    assert out.splitlines() == ["1: 1", "2: 1", "3: 12", "4: 620"]


def test_nd_json(capsys):
    code, out = run(capsys, ["nd", "--dmax", "3", "--json"])
    assert code == 0
    assert json.loads(out) == {"1": 1, "2": 1, "3": 12}


def test_nd_out_file(capsys, tmp_path):
    target = tmp_path / "table.txt"
    code, out = run(capsys, ["nd", "--dmax", "2", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text() == "1: 1\n2: 1\n"


def test_nd_rejects_dmax_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nd", "--dmax", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flags", ([], ["--json"]))
def test_nd_past_the_digit_limit(capsys, tmp_path, flags):
    # N_120 has 654 digits: past a limit of 640, a usage error that names
    # --dmax and the limit, with nothing written
    target = tmp_path / "table.txt"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(SystemExit) as exc:
            main(["nd", "--dmax", "120", "--out", str(target)] + flags)
    finally:
        sys.set_int_max_str_digits(limit)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and not target.exists()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--dmax 120" in err and "640 digits" in err


@pytest.mark.parametrize("flags", ([], ["--json"]))
def test_nd_stops_at_the_first_number_past_the_digit_limit(capsys, tmp_path, flags):
    # the table is not built out to --dmax: it stops at the first N_d
    # past the limit, in the time degree 120 takes
    target = tmp_path / "table.txt"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(SystemExit) as exc:
            main(["nd", "--dmax", "100000", "--out", str(target)] + flags)
    finally:
        sys.set_int_max_str_digits(limit)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and not target.exists()
    assert err == "error: --dmax 100000 gives an N_d of more than 640 digits\n"


def test_count_line(capsys):
    code, out = run(capsys, ["count", "--d", "1", "--seed", "0"])
    assert code == 0
    report = json.loads(out)
    assert report["map"] == "ev"
    assert report["d"] == 1
    assert len(report["points"]) == 2
    assert report["total"] == 1
    sol = report["solutions"][0]
    assert sol["mult"] == 1
    assert sol["codim"] == 0


# strings that need escapes or are not ASCII, and keys that sort apart as
# strings and as numbers
awkward = st.sampled_from(
    ["", '"', "\\", "\n\t\x00\x1f", "\x7f", "é", "\u2603", "\U0001f600", "10", "2"]
)
json_values = st.recursive(
    st.none() | st.integers() | st.integers(-(2**80), 2**80) | st.text() | awkward,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text() | awkward, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_json_writer_matches_json_dumps(value):
    assert _json_text(value) == json.dumps(value, sort_keys=True, indent=2)


def test_json_writer_refuses_what_it_does_not_write():
    for value in (True, 1.5, (1, 2), {1: 2}):
        with pytest.raises(TypeError):
            _json_text(value)


def test_count_report_bytes_are_json_dumps(capsys, tmp_path):
    target = tmp_path / "conic.json"
    code, out = run(capsys, ["count", "--d", "2", "--seed", "3", "--out", str(target)])
    assert code == 0 and out == ""
    text = target.read_bytes()
    report = json.loads(text)
    assert text == (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()


def test_count_output_is_deterministic(capsys):
    _, first = run(capsys, ["count", "--d", "2", "--seed", "3"])
    _, second = run(capsys, ["count", "--d", "2", "--seed", "3"])
    assert first == second


def test_count_seed_changes_points(capsys):
    _, a = run(capsys, ["count", "--d", "1", "--seed", "0"])
    _, b = run(capsys, ["count", "--d", "1", "--seed", "1"])
    assert json.loads(a)["points"] != json.loads(b)["points"]


def test_count_env_seed_default(capsys, monkeypatch):
    monkeypatch.setenv("TROPICAL_SEED", "11")
    _, via_env = run(capsys, ["count", "--d", "1"])
    monkeypatch.delenv("TROPICAL_SEED")
    _, via_flag = run(capsys, ["count", "--d", "1", "--seed", "11"])
    assert via_env == via_flag


def test_env_seed_read_only_when_sampling(capsys, monkeypatch, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["count", "--d", "1", "--seed", "0", "--out", str(a)]) == 0
    assert main(["count", "--d", "1", "--seed", "1", "--out", str(b)]) == 0
    points = write_points(tmp_path / "pts.json", [(0, 0), (5, 3)])
    unseeded = [
        ["nd", "--dmax", "2"],
        ["intersect", str(a), str(b)],
        ["render", str(a)],
        ["count", "--d", "1", "--points", points],
    ]
    capsys.readouterr()
    plain = [run(capsys, argv) for argv in unseeded]
    assert all(code == 0 for code, _ in plain)
    monkeypatch.setenv("TROPICAL_SEED", "abc")
    assert [run(capsys, argv) for argv in unseeded] == plain
    for argv in (["count", "--d", "1"], ["invariance", "--d", "2", "--trials", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "TROPICAL_SEED must be an integer" in capsys.readouterr().err


def test_count_points_file(capsys, tmp_path):
    path = write_points(tmp_path / "pts.json", [(0, 0), (5, 3)])
    code, out = run(capsys, ["count", "--d", "1", "--points", path])
    assert code == 0
    report = json.loads(out)
    assert report["points"] == [["0/1", "0/1"], ["5/1", "3/1"]]
    assert report["total"] == 1


def test_count_points_file_wrong_size(capsys, tmp_path):
    path = write_points(tmp_path / "pts.json", [(0, 0), (5, 3), (1, 7)])
    assert main(["count", "--d", "1", "--points", path]) == 2


def test_count_points_file_coincident_points(capsys, tmp_path):
    path = write_points(tmp_path / "pts.json", [(0, 0), (0, 0)])
    code, out = run(capsys, ["count", "--d", "1", "--points", path])
    assert code == 3
    assert out == ""


def test_count_points_file_missing(capsys, tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["count", "--d", "1", "--points", missing]) == 2


def malformed_input_exit(capsys, path, text, argv):
    # a flag out of range raises SystemExit(2) before the file is read
    path.write_text(text)
    try:
        code = main(argv + [str(path)])
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


COUNT_POINTS = ["count", "--d", "1", "--points"]


def test_count_points_file_short_point(capsys, tmp_path):
    text = '{"points": [["1/1"], ["2/1", "3/1"]]}'
    malformed_input_exit(capsys, tmp_path / "p.json", text, COUNT_POINTS)


def test_count_points_file_not_json(capsys, tmp_path):
    malformed_input_exit(capsys, tmp_path / "p.json", "nope", COUNT_POINTS)


def test_count_points_file_missing_key(capsys, tmp_path):
    malformed_input_exit(capsys, tmp_path / "p.json", '{"pts": []}', COUNT_POINTS)


def test_render_curve_missing_key(capsys, tmp_path):
    text = '{"graph": {"flags": []}}'
    malformed_input_exit(capsys, tmp_path / "c.json", text, ["render"])


# rationals are "p/q" strings or JSON integers; nothing is read through a float
@pytest.mark.parametrize("x", ['"1/0"', "0.1", "true"])
def test_count_points_file_bad_rational(capsys, tmp_path, x):
    text = f'{{"points": [[{x}, "2"], ["3", "4"]]}}'
    malformed_input_exit(capsys, tmp_path / "p.json", text, COUNT_POINTS)


def conic_curve(capsys, tmp_path):
    """The first curve of a degree-2 fiber report, as JSON data."""
    report = tmp_path / "conic.json"
    assert main(["count", "--d", "2", "--seed", "0", "--out", str(report)]) == 0
    capsys.readouterr()
    return json.loads(report.read_text())["solutions"][0]["curve"]


def zero_denominator_root(curve):
    curve["root_pos"][0] = "1/0"


def float_root(curve):
    curve["root_pos"][1] = 0.5


# root_pos is a list of exactly two rationals: not a string, nor one or three
def root_pos_string(curve):
    curve["root_pos"] = "12"


def root_pos_three_entries(curve):
    curve["root_pos"].append("5")


def root_pos_one_entry(curve):
    del curve["root_pos"][1]


ROOT_POS_SPOILS = [root_pos_string, root_pos_three_entries, root_pos_one_entry]


def zero_denominator_length(curve):
    lengths = curve["graph"]["lengths"]
    lengths[next(iter(lengths))] = "1/0"


def fractional_direction(curve):
    # a (1,1) end written as [1.9, 1.2] must not be truncated to (1, 1)
    ends = [r["id"] for r in curve["graph"]["flags"] if r["partner"] is None]
    end = next(f for f in ends if curve["directions"][f] == [1, 1])
    curve["directions"][end] = [1.9, 1.2]


def fractional_root_vertex(curve):
    curve["root"] = 1.9


def boolean_root_vertex(curve):
    curve["root"] = True


def float_flag_id(curve):
    next(r for r in curve["graph"]["flags"] if r["id"] == 0)["id"] = 0.0


def boolean_flag_vertex(curve):
    next(r for r in curve["graph"]["flags"] if r["vertex"] == 1)["vertex"] = True


def boolean_flag_partner(curve):
    next(r for r in curve["graph"]["flags"] if r["partner"] == 1)["partner"] = True


def flag_ids_with_a_gap(curve):
    # ids 0..k-2 and k: not 0..k-1
    curve["graph"]["flags"][-1]["id"] += 1


def root_out_of_range(curve):
    curve["root"] = len(curve["graph"]["vertices"])


def one_direction_short(curve):
    curve["directions"].pop()


@pytest.mark.parametrize(
    "spoil",
    [
        zero_denominator_root,
        float_root,
        zero_denominator_length,
        fractional_direction,
        fractional_root_vertex,
        boolean_root_vertex,
        float_flag_id,
        boolean_flag_vertex,
        boolean_flag_partner,
        flag_ids_with_a_gap,
        root_out_of_range,
        one_direction_short,
        *ROOT_POS_SPOILS,
    ],
)
def test_render_curve_bad_number(capsys, tmp_path, spoil):
    curve = conic_curve(capsys, tmp_path)
    spoil(curve)
    text = json.dumps(curve)
    malformed_input_exit(capsys, tmp_path / "c.json", text, ["render"])


@pytest.mark.parametrize("spoil", ROOT_POS_SPOILS)
def test_intersect_curve_bad_root_pos(capsys, tmp_path, spoil):
    curve = conic_curve(capsys, tmp_path)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(curve))
    spoil(curve)
    text = json.dumps(curve)
    malformed_input_exit(capsys, tmp_path / "c.json", text, ["intersect", str(good)])


def one_mark_line(mark):
    """A tropical line with one vertex; flag 1 is its contracted end."""
    return {
        "graph": {
            "flags": [{"id": f, "vertex": 0, "partner": None} for f in range(4)],
            "lengths": {},
        },
        "marks": [mark],
        "directions": [[-1, 0], [0, 0], [0, -1], [1, 1]],
        "root": 0,
        "root_pos": ["1/2", "-3"],
    }


def test_render_negative_vertex_id(capsys, tmp_path):
    curve = one_mark_line(1)
    curve["graph"]["flags"][0]["vertex"] = -1
    malformed_input_exit(capsys, tmp_path / "c.json", json.dumps(curve), ["render"])


def test_render_one_mark_line(capsys, tmp_path):
    path = tmp_path / "line.json"
    path.write_text(json.dumps(one_mark_line(1)))
    code, out = run(capsys, ["render", str(path)])
    assert code == 0
    assert out.count('class="ray"') == 3
    assert out.count('class="mark"') == 1


def star_pair(partners):
    """Two 3-valent vertices, flags 0-2 at vertex 0 and 3-5 at vertex 1,
    with the given partners and every bounded edge of length 1."""
    flags = [{"id": f, "vertex": f // 3, "partner": partners[f]} for f in range(6)]
    return {
        "graph": {
            "flags": flags,
            "lengths": {str(f): "1" for f, p in enumerate(partners) if p is not None and f < p},
        },
        "marks": [],
        "directions": [[-1, 0], [0, -1], [1, 1]] * 2,
        "root": 0,
        "root_pos": ["0", "0"],
    }


@pytest.mark.parametrize(
    "partners",
    [
        [None] * 6,  # two stars: disconnected
        [3, 4, None, 0, 1, None],  # two bounded edges between them: a cycle
    ],
)
def test_render_curve_of_wrong_shape(capsys, tmp_path, partners):
    text = json.dumps(star_pair(partners))
    malformed_input_exit(capsys, tmp_path / "c.json", text, ["render"])


def test_count_rejects_degree_zero(capsys, tmp_path):
    text = '{"points": []}'
    malformed_input_exit(capsys, tmp_path / "p.json", text, ["count", "--d", "0", "--points"])


def test_invariance_rejects_zero_trials(capsys, tmp_path):
    path = tmp_path / "out.txt"
    malformed_input_exit(capsys, path, "", ["invariance", "--d", "2", "--trials", "0", "--out"])
    assert path.read_text() == ""


@pytest.mark.parametrize("argv", [["render"], ["intersect", "GOOD"]])
def test_fiber_report_with_no_solutions(capsys, tmp_path, argv):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(conic_curve(capsys, tmp_path)))
    report = {"map": "ev", "d": 1, "points": [], "solutions": [], "total": 0}
    argv = [str(good) if a == "GOOD" else a for a in argv]
    malformed_input_exit(capsys, tmp_path / "empty.json", json.dumps(report), argv)


def test_render_boolean_mark(capsys, tmp_path):
    # true is not flag 1
    text = json.dumps(one_mark_line(True))
    malformed_input_exit(capsys, tmp_path / "line.json", text, ["render"])


def test_render_coordinates_beyond_float_range(capsys, tmp_path):
    # an SVG coordinate is printed through float(), which stops short of 10^309
    curve = one_mark_line(1)
    curve["root_pos"][0] = str(10**309)
    malformed_input_exit(capsys, tmp_path / "line.json", json.dumps(curve), ["render"])
    curve["root_pos"][0] = str(10**308)
    path = tmp_path / "line.json"
    path.write_text(json.dumps(curve))
    assert run(capsys, ["render", str(path)])[0] == 0


@pytest.mark.parametrize("argv", [COUNT_POINTS, ["render"], ["intersect", "NESTED"]])
def test_deeply_nested_json_is_malformed(capsys, tmp_path, argv):
    # json.load gives up on deep nesting with a RecursionError
    nested = tmp_path / "nested.json"
    argv = [str(nested) if a == "NESTED" else a for a in argv]
    malformed_input_exit(capsys, nested, "[" * 1000 + "]" * 1000, argv)


# Each number read stays under Python's limit on the digits str() writes
# of an int; a number computed from them, or one written "1e5000", need not.
LONG = [f"{k}/{10**4001 + k}" for k in (7, 9, 13, 19)]  # 4,002-digit denominators


def long_result_exit(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "a number in the result has more than" in err


def test_count_points_with_long_result(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"points": [LONG[:2], LONG[2:]]}))
    long_result_exit(capsys, COUNT_POINTS + [str(path)])


def test_count_points_in_exponent_form(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"points": [["1e5000", "2"], ["3", "4"]]}))
    long_result_exit(capsys, COUNT_POINTS + [str(path)])


def test_intersect_with_long_result(capsys, tmp_path):
    paths = []
    for name, root in (("a", LONG[:2]), ("b", LONG[2:])):
        curve = one_mark_line(1)
        curve["root_pos"] = root
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(curve))
    long_result_exit(capsys, ["intersect"] + [str(p) for p in paths])


def test_count_degenerate_points_exit(capsys, tmp_path):
    # all points on one line: a direction of the ends, or the line y = x
    for d, pts in [
        (1, [(0, 0), (1, 1)]),
        (1, [(0, 0), (0, 1)]),
        (1, [(0, 0), (3, 0)]),
        (2, [(i, 0) for i in range(5)]),
        (2, [(i, i) for i in range(5)]),
    ]:
        path = write_points(tmp_path / "bad.json", pts)
        assert main(["count", "--d", str(d), "--points", path]) == 3


def test_count_without_a_general_position_sample(capsys, monkeypatch):
    def fiber(*args):
        raise GeneralPositionViolation("forced")

    monkeypatch.setattr(enumeration, "fiber", fiber)
    assert main(["count", "--d", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: no general-position sample in 20 attempts: forced\n"


def test_count_large_degree_needs_points(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--d", "9"])
    assert exc.value.code == 2


def test_invariance_output(capsys):
    code, out = run(capsys, ["invariance", "--d", "2", "--trials", "1"])
    assert code == 0
    assert out == "degree = 2, invariant: yes\n"


def test_invariance_violation_exit(capsys, monkeypatch):
    # the first of the six sampled degrees disagrees with the rest
    calls = []

    def sampled_degree(kind, d, seed, ray, scale):
        calls.append(ray)
        return 3 if len(calls) == 1 else 2, pi_config(d, seed, ray, scale)

    monkeypatch.setattr(enumeration, "sampled_degree", sampled_degree)
    assert main(["invariance", "--d", "2", "--trials", "1"]) == 4
    out, err = capsys.readouterr()
    assert len(calls) == 6
    assert out == "invariant: no\n"
    assert err.startswith("error: fiber degree of the combined map varies") and err.count("\n") == 1


def test_invariance_rejects_d1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["invariance", "--d", "1"])
    assert exc.value.code == 2


def test_invariance_refuses_degree_4_before_building_trees(capsys):
    # a degree-4 combined-map fiber would run for hours
    before = enumeration.base_trees.cache_info()
    with pytest.raises(SystemExit) as exc:
        main(["invariance", "--d", "4", "--trials", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert enumeration.base_trees.cache_info() == before


def test_intersect_two_lines(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["count", "--d", "1", "--seed", "0", "--out", str(a)]) == 0
    assert main(["count", "--d", "1", "--seed", "1", "--out", str(b)]) == 0
    capsys.readouterr()
    code, out = run(capsys, ["intersect", str(a), str(b)])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "total = 1"
    assert len(lines) == 2
    x, rest = lines[0].split(", ")
    y, mult = rest.split(": ")
    assert mult == "1"
    assert "/" in x and "/" in y


def test_intersect_same_curve_is_non_transverse(capsys, tmp_path):
    a = tmp_path / "a.json"
    assert main(["count", "--d", "1", "--seed", "0", "--out", str(a)]) == 0
    assert main(["intersect", str(a), str(a)]) == 5


def test_intersect_missing_file(capsys, tmp_path):
    assert main(["intersect", str(tmp_path / "x.json"), str(tmp_path / "y.json")]) == 2


def test_render_svg(capsys, tmp_path):
    a = tmp_path / "a.json"
    assert main(["count", "--d", "1", "--seed", "0", "--out", str(a)]) == 0
    capsys.readouterr()
    code, out = run(capsys, ["render", str(a)])
    assert code == 0
    assert out.startswith("<svg ")
    assert out.count('class="ray"') == 3
    assert out.count('class="mark"') == 2


def test_render_svg_to_file(capsys, tmp_path):
    a = tmp_path / "a.json"
    svg = tmp_path / "curve.svg"
    assert main(["count", "--d", "1", "--seed", "2", "--out", str(a)]) == 0
    code, out = run(capsys, ["render", str(a), "--svg", str(svg)])
    assert code == 0
    assert out == ""
    assert svg.read_text().rstrip().endswith("</svg>")


def test_render_accepts_bare_curve_json(capsys, tmp_path):
    a = tmp_path / "a.json"
    assert main(["count", "--d", "1", "--seed", "0", "--out", str(a)]) == 0
    curve_data = json.loads(a.read_text())["solutions"][0]["curve"]
    bare = tmp_path / "curve.json"
    bare.write_text(json.dumps(curve_data))
    capsys.readouterr()
    code, out = run(capsys, ["render", str(bare)])
    assert code == 0
    assert out.count('class="ray"') == 3


def test_jobs_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--jobs", "2", "nd", "--dmax", "1"])
    assert exc.value.code == 2


def test_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
