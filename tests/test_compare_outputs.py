import importlib.util
import os
import shutil

import pytest

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
TOOL = os.path.join(REPO, "tools", "compare_outputs.py")


@pytest.fixture(scope="module")
def compare_outputs():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(module):
    """Two of the tool's runs: eigs, and index, which reads
    MARGIN_FACTOR."""
    runs = [run for run in module.RUNS
            if run[0] in ("eigs sphere2", "index sphere2 n2")]
    assert len(runs) == 2
    return runs


def test_a_tree_against_itself_is_the_same(compare_outputs, capsys):
    # a tree may be named relative to the working directory of the tool
    assert compare_outputs.main([os.path.relpath(REPO), REPO],
                                _runs(compare_outputs)) == 0
    assert capsys.readouterr().out == \
        "same    eigs sphere2\nsame    index sphere2 n2\n"


def test_a_changed_constant_names_the_run(compare_outputs, tmp_path,
                                           capsys):
    change = _copy_with_margin(tmp_path, 0.04)
    assert compare_outputs.main([REPO, change], _runs(compare_outputs)) == 1
    assert capsys.readouterr().out == (
        "same    eigs sphere2\n"
        "DIFFERS index sphere2 n2: out/index.json\n")


def _copy_with_margin(tmp_path, value):
    """A copy of the source tree with index.MARGIN_FACTOR set to value."""
    shutil.copytree(os.path.join(REPO, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__",
                                                  "*.egg-info"))
    path = tmp_path / "src" / "specx" / "index.py"
    text = path.read_text()
    assert "\nMARGIN_FACTOR = 0.05" in text
    path.write_text(text.replace("\nMARGIN_FACTOR = 0.05",
                                 f"\nMARGIN_FACTOR = {value!r}"))
    return str(tmp_path)


def test_rtol_forgives_a_rounding_change(compare_outputs, tmp_path,
                                         capsys):
    # a margin 1e-14 away moves the index report's floats, not its counts
    runs = [run for run in compare_outputs.RUNS
            if run[0] == "index sphere2 n2"]
    change = _copy_with_margin(tmp_path, 0.05 * (1 + 1e-14))
    assert compare_outputs.main([REPO, change], runs) == 1
    assert capsys.readouterr().out == \
        "DIFFERS index sphere2 n2: out/index.json\n"
    assert compare_outputs.main(["--rtol", "1e-9", REPO, change], runs) == 0
    out = capsys.readouterr().out
    assert out.startswith("close   index sphere2 n2: largest relative "
                          "difference ")
    assert 0.0 < float(out.split()[-1]) <= 1e-9
    assert compare_outputs.main(["--rtol", "1e-17", REPO, change],
                                runs) == 1
    assert capsys.readouterr().out == \
        "DIFFERS index sphere2 n2: out/index.json\n"


def test_rtol_keeps_everything_but_floats_exact(compare_outputs):
    gap = compare_outputs._gap
    assert gap({"a": [1.0, 2.0]}, {"a": [1.0, 2.0 + 4e-15]}) == \
        pytest.approx(2e-15)
    assert gap(1e-20, 2e-20) == pytest.approx(1e-20)  # absolute below 1
    for x, y in [(1, 2), (True, False), (1, 1.0), ("a", "b"), ([1.0], []),
                 ({"a": 1.0}, {"b": 1.0}), (float("inf"), 1e308),
                 (float("nan"), 1.0)]:
        assert gap(x, y) is None
    # CSV cells: integers and strings exact, floats within rtol
    values = compare_outputs._values
    rows = values("t.csv", b"holes,sigma,trend\r\n3,0.5,True\r\n")
    assert rows == [["holes", "sigma", "trend"], [3, 0.5, "True"]]
    assert values("t.csv", b"nan,-inf\n") == [["nan", "-inf"]]
    assert gap(rows, values("t.csv", b"holes,sigma,trend\n3,0.5000001,"
                            b"True\n")) == pytest.approx(1e-7)
    for text in (b"holes,sigma,trend\n4,0.5,True\n",
                 b"holes,sigma,trend\n3,0.5,False\n"):
        assert gap(rows, values("t.csv", text)) is None
    # the exit code, stdout, stderr and other files never get a tolerance
    base = (0, b"", b"", {"out/a.json": {"x": 1.0}, "out/log": b"a"})
    for changed in [(1,) + base[1:], base[:2] + (b"warn",) + base[3:],
                    base[:3] + ({**base[3], "out/log": b"b"},)]:
        assert compare_outputs.differences(base, changed, 1.0)[0]
    found, close = compare_outputs.differences(
        base, base[:3] + ({**base[3], "out/a.json": {"x": 1.1}},), 0.1)
    assert found == [] and close == {"out/a.json": pytest.approx(1 / 11)}
    # without rtol a JSON report matches value for value and type for type
    for doc in ({"x": 1.0000000000000002}, {"x": 1}, {"x": True}):
        changed = base[:3] + ({**base[3], "out/a.json": doc},)
        assert compare_outputs.differences(base, changed)[0] == \
            ["out/a.json"]
    assert compare_outputs.differences(base, base) == ([], {})


def test_json_reports_keep_non_finite_numbers_as_strings(compare_outputs,
                                                         tmp_path):
    path = tmp_path / "r.json"
    path.write_text('{"timestamp": "t", "config": {"out": "o", "k": 1}, '
                    '"x": [NaN, -Infinity, 0.5]}')
    assert compare_outputs._canonical(str(path)) == \
        {"config": {"k": 1}, "x": ["NaN", "-Infinity", 0.5]}


def test_the_off_inputs(compare_outputs):
    # the disk is open, so eigs solves its Steklov problem; the torus file
    # runs like the torus its sidecar names; the lone vertex is refused
    runs = dict(compare_outputs.RUNS)
    code, _, _, files = compare_outputs.outcome(REPO, runs["eigs disk file"])
    assert code == 0 and files["out/eigs.json"]["payload"]["kind"] == \
        "steklov"
    built = compare_outputs.outcome(REPO, ["vc", "--surface", "torus",
                                           "--res", "12", "--tau", "0.3,1.1"])
    read = compare_outputs.outcome(REPO, runs["vc torus12 file"])
    assert built[0] == read[0] == 0
    assert built[3]["out/vc.json"]["payload"] == \
        read[3]["out/vc.json"]["payload"]
    code, _, err, files = compare_outputs.outcome(REPO,
                                                  runs["eigs lone file"])
    assert code == 1 and "out/results.csv" not in files
    assert err == (b"specx: numerical failure: OFF mesh must be one "
                   b"connected surface; it has 2 connected components\n")


def test_the_usage_error_runs(compare_outputs):
    # a negative eps, a negative density value, an empty density file,
    # --holes on an open mesh, and maximize and the sweep on an open mesh
    # each exit 2, write nothing and print one line
    runs = dict(compare_outputs.RUNS)
    for name, message in (
            ("glminmax eps-0.1", b"bad --eps '-0.1'"),
            ("eigs sphere1 negative density",
             b"bad density file negative.txt: density must be nonnegative"),
            ("eigs sphere1 empty density",
             b"bad density file empty.txt: density shape mismatch"),
            ("steklov disk holes2 file", b"bad --holes '2'"),
            ("maximize disk file",
             b"maximize needs a closed mesh; this mesh has a boundary"),
            ("sweep disk file",
             b"sweep needs a closed mesh; this mesh has a boundary")):
        code, _, err, files = compare_outputs.outcome(REPO, runs[name])
        assert code == 2 and err.startswith(b"specx: usage error: " + message)
        assert err.count(b"\n") == 1 and err.endswith(b"\n")
        assert not any(path.startswith("out") for path in files)
