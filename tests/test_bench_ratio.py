import importlib.util
import json
import os

import pytest

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                    "bench_ratio.py")


@pytest.fixture(scope="module")
def bench_ratio():
    spec = importlib.util.spec_from_file_location("bench_ratio", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _save(path, metrics, failed=0):
    summary = {"correct": failed == 0, "attempted": 10, "failed": failed,
               "metrics": {name: {"value": value, "unit": unit}
                           for name, (value, unit) in metrics.items()}}
    # run.py prints tables and detail lines before its JSON summary
    path.write_text("== hole-sweep\nwall_s 1.0 s\n{\"detail\": 1}\n\n"
                    + json.dumps(summary) + "\n\n")
    return str(path)


def test_ratios_of_two_saved_runs(tmp_path, bench_ratio, capsys):
    parent = _save(tmp_path / "parent.txt", {
        "hole-sweep.wall_s": (2.0, "s"),
        "hole-sweep.peak_rss_mb": (100.0, "MB"),
        "hole-sweep.failed_frac": (0.0, "ratio"),
        "gl-minmax.wall_s": (3.0, "s")})
    change = _save(tmp_path / "change.txt", {
        "hole-sweep.wall_s": (1.5, "s"),
        "hole-sweep.peak_rss_mb": (101.0, "MB"),
        "hole-sweep.failed_frac": (0.1, "ratio"),
        "conformal-max.wall_s": (0.7, "s")}, failed=1)
    rows = bench_ratio.ratios(bench_ratio.last_json(parent),
                              bench_ratio.last_json(change))
    assert rows == [
        ("conformal-max.wall_s", "s", None, 0.7, None),
        ("gl-minmax.wall_s", "s", 3.0, None, None),
        ("hole-sweep.failed_frac", "ratio", 0.0, 0.1, None),
        ("hole-sweep.peak_rss_mb", "MB", 100.0, 101.0, 1.01),
        ("hole-sweep.wall_s", "s", 2.0, 1.5, 0.75)]
    assert bench_ratio.main([parent, change]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "parent: correct=True failed=0/10"
    assert out[1] == "change: correct=False failed=1/10"
    assert out[-1].split() == ["hole-sweep.wall_s", "s", "2", "1.5", "0.75"]
    assert out[3].split() == ["conformal-max.wall_s", "s", "-", "0.7", "-"]


def test_usage(bench_ratio, capsys):
    assert bench_ratio.main(["only-one"]) == 2
    assert "usage" in capsys.readouterr().err


def test_paired_runs(tmp_path, bench_ratio, capsys):
    # pair i: wall_s parent 1.00 + i/100, change 0.70 + i/100, except pair
    # 9, which the change loses; rss only moves by noise, and a metric
    # where higher is better falls
    parents, changes = [], []
    for i in range(10):
        parents.append(_save(tmp_path / f"p{i}.txt", {
            "gl-minmax.wall_s": (1.0 + i / 100, "s"),
            "gl-minmax.peak_rss_mb": (75.0 + i % 2, "MB"),
            "gl-minmax.glminmax.descend_converged": (1.0, "ratio")}))
        changes.append(_save(tmp_path / f"c{i}.txt", {
            "gl-minmax.wall_s": (2.0 if i == 9 else 0.7 + i / 100, "s"),
            "gl-minmax.peak_rss_mb": (75.0 + (i + 1) % 2, "MB"),
            "gl-minmax.glminmax.descend_converged": (0.5, "ratio")}))
    better = {"wall_s": "lower", "glminmax.descend_converged": "higher"}
    docs = [bench_ratio.last_json(p) for p in parents + changes]
    rows = {row[0]: row[2:] for row in bench_ratio.paired(
        docs[:10], docs[10:], better)}
    q25, med, q75, c_med, ratio, won, holds = rows["gl-minmax.wall_s"]
    assert (q25, med, q75) == pytest.approx((1.0225, 1.045, 1.0675))
    assert c_med == pytest.approx(0.745)
    assert ratio == pytest.approx(0.745 / 1.045)
    assert (won, holds) == (9, True)
    assert rows["gl-minmax.peak_rss_mb"][5:] == (5, False)
    assert rows["gl-minmax.glminmax.descend_converged"][5:] == (0, False)
    # nine pairs are too few, however they fall
    assert bench_ratio.paired(docs[:9], docs[10:19], better)[2][7:] == (
        9, False)
    assert bench_ratio.main(["--paired"] + parents + changes) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "parent: 10/10 correct, failed 0/100"
    assert out[-1].split() == ["gl-minmax.wall_s", "s", "1.0225", "1.045",
                               "1.0675", "0.745", "0.712919", "9/10", "yes"]
    assert bench_ratio.main(["--paired"] + parents[:3] + changes[:2]) == 2
