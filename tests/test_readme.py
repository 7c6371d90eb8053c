"""README's examples do what it shows.

Each ``frobcx ...`` line of README's ``sh`` blocks exits 0, and the ``# ``
lines right under it appear in its stdout in that order; a ``# ...`` line
stands for lines left out.  The Python example's first printed line is the
comment beside its first ``print``.  ``frobcx.__all__`` holds the names that
README and the demos import from ``frobcx``, plus ``Prime``
and ``GuardExceeded``.

Run as a script, ``python tests/test_readme.py`` makes the same checks of
the examples through the installed ``frobcx`` command and interpreter.
"""

import ast
import contextlib
import io
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.M | re.S)


def commands():
    """(arguments after ``frobcx``, the ``# `` lines under it) for each command."""
    found, current = [], None
    for block in blocks("sh"):
        for line in block.splitlines():
            if line.startswith("frobcx "):
                current = []
                found.append((shlex.split(line, comments=True)[1:], current))
            elif line.startswith("# ") and current is not None:
                current.append(line[2:])
            else:
                current = None
    return found


def check_commands(run):
    """``run(argv)`` gives (exit code, stdout) of ``frobcx`` with ``argv``."""
    found = commands()
    assert len(found) >= 6 and any(expected for _, expected in found)
    for argv, expected in found:
        code, out = run(argv)
        assert code == 0, (argv, code)
        lines = iter(out.splitlines())
        for want in expected:
            # any() takes lines up to the first match, so each match comes later
            assert want == "..." or any(line == want for line in lines), (argv, want)


def check_python_example(run):
    """``run(source)`` gives the stdout of the Python source."""
    (source,) = blocks("python")
    first = next(line for line in source.splitlines() if line.startswith("print("))
    assert run(source).splitlines()[0] == first.split("# ", 1)[1]


def test_readme_commands_print_what_it_shows():
    from frobcx.cli import main

    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        return code, out.getvalue()

    check_commands(run)


def test_readme_python_example():
    def run(source):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(source, {})
        return out.getvalue()

    check_python_example(run)


def test_all_holds_the_names_that_readme_and_the_demos_import():
    import frobcx

    sources = blocks("python") + [demo.read_text() for demo in (ROOT / "demos").glob("*.py")]
    imported = {alias.name for source in sources for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) and node.module == "frobcx"
                for alias in node.names}
    assert all(hasattr(frobcx, name) for name in frobcx.__all__)
    assert set(frobcx.__all__) == imported | {"Prime", "GuardExceeded"}


if __name__ == "__main__":
    def installed(argv):
        proc = subprocess.run(["frobcx", *argv], capture_output=True, text=True)
        return proc.returncode, proc.stdout

    def interpreter(source):
        return subprocess.run([sys.executable, "-c", source], capture_output=True,
                              text=True, check=True).stdout

    check_commands(installed)
    check_python_example(interpreter)
    print(f"README examples: {len(commands())} commands and the Python example ok")
