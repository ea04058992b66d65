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
    assert compare_outputs.main([REPO, REPO], _runs(compare_outputs)) == 0
    assert capsys.readouterr().out == \
        "same    eigs sphere2\nsame    index sphere2 n2\n"


def test_a_changed_constant_names_the_run(compare_outputs, tmp_path,
                                           capsys):
    shutil.copytree(os.path.join(REPO, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__",
                                                  "*.egg-info"))
    path = tmp_path / "src" / "specx" / "index.py"
    text = path.read_text()
    assert "\nMARGIN_FACTOR = 0.05" in text
    path.write_text(text.replace("\nMARGIN_FACTOR = 0.05",
                                 "\nMARGIN_FACTOR = 0.04"))
    assert compare_outputs.main([REPO, str(tmp_path)],
                                _runs(compare_outputs)) == 1
    assert capsys.readouterr().out == (
        "same    eigs sphere2\n"
        "DIFFERS index sphere2 n2: out/index.json\n")
