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

CALLER = '''\
from specx.mod import Box, make, scale


def test_calls():
    scale(1, 3)
    make(size=1, color="blue")
    box = Box(2)
    box.label = "boxed"
'''


@pytest.fixture(scope="module")
def src_size():
    spec = importlib.util.spec_from_file_location("src_size", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_and_unset_defaults(tmp_path, src_size, capsys):
    (tmp_path / "src" / "specx").mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "specx" / "mod.py").write_text(MODULE)
    (tmp_path / "tests" / "test_mod.py").write_text(CALLER)
    # factor is set by position, color through make's **kwargs, label by
    # an attribute assignment; docstrings and the comment are not code
    want = textwrap.dedent("""\
        mod.py: 11 code lines
          Box.color = 'red'
          Box.label = ''
          scale.factor = RATE
          scale.offset = 0.0  unset
          scale.clip = None  unset
        total: 11 code lines, 5 defaulted parameters and fields, 2 unset
        """)
    assert src_size.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == want


def test_usage(src_size, capsys):
    assert src_size.main(["a", "b"]) == 2
    assert "usage" in capsys.readouterr().err
