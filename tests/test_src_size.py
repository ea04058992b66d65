import importlib.util
import os
import textwrap

import pytest

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                    "src_size.py")

MODULE = '''\
"""Module docstring
spanning two lines."""

import dataclasses

# a comment
RATE = 2


@dataclasses.dataclass
class Box:
    """A box."""

    size: int
    color: str = "red"
    label: str = ""


def scale(x, factor=RATE, *, offset=0.0, clip=None):
    """Scale x."""
    return x * factor + offset


def make(**kwargs):
    return Box(**kwargs)
'''

BENCH = '''\
from specx.mod import Box, scale


def run():
    scale(1, 3)
    box = Box(2)
    box.label = "boxed"
'''

CALLER = '''\
from specx.mod import make, scale


def test_calls():
    make(size=1, color="blue")
    scale(2, clip=1.0)
'''


@pytest.fixture(scope="module")
def src_size():
    spec = importlib.util.spec_from_file_location("src_size", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_and_unset_defaults(tmp_path, src_size, capsys):
    (tmp_path / "src" / "specx").mkdir(parents=True)
    (tmp_path / "specxbench").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "specx" / "mod.py").write_text(MODULE)
    (tmp_path / "specxbench" / "bench_mod.py").write_text(BENCH)
    (tmp_path / "tests" / "test_mod.py").write_text(CALLER)
    # the benchmark sets factor by position and label by an attribute
    # assignment; only the tests set color, through make's **kwargs, and
    # clip; docstrings and the comment are not code
    want = textwrap.dedent("""\
        mod.py: 11 code lines
          Box.color = 'red'  tests-only
          Box.label = ''
          scale.factor = RATE
          scale.offset = 0.0  unset
          scale.clip = None  tests-only
          def make  tests-only
        """) + ("total: 11 code lines, 5 defaulted parameters and fields, "
                "1 unset, 2 tests-only; 1 functions and classes tests-only, "
                "0 unreached\n")
    assert src_size.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == want


REACH = '''\
import sys


class Helper:
    def run(self):
        return leaf()


def leaf():
    return 1


def entry():
    return Helper().run()


def chained():
    return inner()


def inner():
    return 2


def lonely():
    return 3


COMMANDS = {"entry": entry}

if __name__ == "__main__":
    sys.exit(main())
'''

REACH_TEST = '''\
from specx import reach


def test_chain():
    assert reach.chained() == 2
    assert reach.leaf() == 1
'''


def test_functions_only_tests_reach(tmp_path, src_size):
    (tmp_path / "src" / "specx").mkdir(parents=True)
    (tmp_path / "specxbench").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "specx" / "reach.py").write_text(REACH)
    (tmp_path / "tests" / "test_reach.py").write_text(REACH_TEST)
    # the command table reaches entry, and through it Helper and, from a
    # method, leaf, which tests also call; chained and, through it, inner
    # only from tests; lonely from nowhere
    lines = src_size.report(str(tmp_path))
    assert lines == [
        "reach.py: 17 code lines",
        "  def chained  tests-only",
        "  def inner  tests-only",
        "  def lonely  unreached",
        "total: 17 code lines, 0 defaulted parameters and fields, 0 unset, "
        "0 tests-only; 2 functions and classes tests-only, 1 unreached"]


def test_usage(src_size, capsys):
    assert src_size.main(["a", "b"]) == 2
    assert "usage" in capsys.readouterr().err


# Every `tests-only` and `unset` entry of the report on this repository,
# with its mark and the reason it is kept. An option that only tests set
# needs a caller or a constant; one that joins this list needs a reason.
ALLOWED = {
    "glminmax: gl_second_variation.w": (
        "tests-only", "ROADMAP item 3: the bilinear oracle for the sparse GL "
        "Hessian's products"),
    "glminmax: gl_descend.step0": (
        "tests-only", "test_descend_stall_break drives the line-search "
        "stall guard with an oversized first step"),
    "glminmax: FamilySpec.family": (
        "tests-only", "criterion 6: the second family is its subject"),
    "glminmax: balanced_point_second.mu": (
        "tests-only", "ROADMAP item 2: the certificate on a given measure"),
    "glminmax: eigen_lower_from_family.mu": (
        "tests-only", "ROADMAP item 2: the certificate on a given measure"),
    "glminmax: def gl_second_variation": (
        "tests-only", "criterion 3; ROADMAP item 3's oracle"),
    "glminmax: def _measure_weights": (
        "tests-only", "ROADMAP item 2: the balanced points' measure"),
    "glminmax: def _balance": (
        "tests-only", "ROADMAP item 2: the balanced points' Newton solve"),
    "glminmax: def balanced_point": ("tests-only", "ROADMAP item 2"),
    "glminmax: def balanced_point_second": ("tests-only", "ROADMAP item 2"),
    "glminmax: def eigen_lower_from_family": (
        "tests-only", "ROADMAP item 2"),
    "harmonic: def torus_clifford_map": (
        "tests-only", "criterion 5; ROADMAP item 1's b = 1 base map"),
    "harmonic: def power_map": (
        "tests-only", "criteria 7 and 8: the degree-2 map"),
    "harmonic: def energy_density": (
        "tests-only", "ROADMAP items 1 and 8: the induced density that "
        "item 1's maximiser runs start from"),
    "harmonic: def _face_charts": (
        "tests-only", "ROADMAP items 1 and 5, through hopf_differential"),
    "harmonic: def hopf_differential": (
        "tests-only", "ROADMAP items 1 and 5: the conformality check"),
    "mesh: def save_mesh": (
        "tests-only", "writes the OFF files that --mesh-file reads "
        "(ROADMAP item 8)"),
    "mobius: def linear_reflection": ("tests-only", "criterion 6"),
    "spectra: def multiplicity": ("tests-only", "criterion 1"),
}


def test_only_allowed_entries_are_tests_only_or_unset(src_size):
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    found, module = {}, None
    for line in src_size.report(root)[:-1]:  # the last line is the total
        if not line.startswith(" "):
            module = line.split(".py:")[0]
            continue
        entry, _, mark = line.strip().rpartition("  ")
        if mark in ("tests-only", "unset"):
            found[f"{module}: {entry.split(' = ')[0]}"] = mark
    assert found == {key: mark for key, (mark, _) in ALLOWED.items()}
