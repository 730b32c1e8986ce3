"""``tools/src_lines.py``, the line count behind the project's size figures,
run on a small module whose counts are known by hand."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"

# 24 lines. Code: `import os`, `class Thing:`, `x = 1`, `def method`, the
# three lines of the returned string, `def f():`, `pass`: 9 lines. The rest
# is docstrings, comments and blank lines.
SYNTHETIC = "\n".join([
    '"""Module docstring,',
    'on two lines."""',
    "",
    "# a comment-only line",
    "import os",
    "",
    "",
    "class Thing:",
    '    """Class docstring."""',
    "",
    "    x = 1  # a trailing comment leaves the line code",
    "",
    "    def method(self):",
    '        """Method',
    '        docstring."""',
    "        # another comment",
    '        return """a multi-line string',
    "that is not a docstring",
    'is code on every line"""',
    "",
    "",
    "def f():",
    "    '''One-line docstring.'''",
    "    pass",
]) + "\n"


def load_tool():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_of_synthetic_module():
    assert load_tool().code_lines(SYNTHETIC) == 9


def test_main_prints_both_counts(tmp_path, capsys, monkeypatch):
    tool = load_tool()
    (tmp_path / "synthetic.py").write_text(SYNTHETIC)
    (tmp_path / "empty.py").write_text("")
    monkeypatch.setattr(tool, "PACKAGE", tmp_path)
    tool.main()
    assert capsys.readouterr().out.splitlines() == [
        f"{0:6d} {0:6d}  empty.py",
        f"{24:6d} {9:6d}  synthetic.py",
        f"{24:6d} {9:6d}  total (wc -l, code lines)",
    ]
