"""Checks on the package's own source text."""

import ast
import io
import re
import tokenize
from pathlib import Path

import lowrank

# a number followed by a unit of time; measurements belong in CHANGES.md's
# "Timing tables", and the code points there
TIMING = re.compile(r"\d\s*(?:ms|us|µs|ns|s)\b")


def _prose(path: Path) -> list[tuple[int, str]]:
    """(line, text) of every comment and docstring line of `path`."""
    source = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node):
            docstrings.add(node.body[0].lineno)
    out = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            out.append((tok.start[0], tok.string))
        elif tok.type == tokenize.STRING and tok.start[0] in docstrings:
            out += [(tok.start[0] + k, line) for k, line in enumerate(tok.string.splitlines())]
    return out


def _timings(path: Path) -> list[str]:
    """file:line of each timing in `path`'s comments and docstrings; a
    number and its unit may sit on consecutive lines."""
    lines = _prose(path)
    found = []
    for (line, text), (after, following) in zip(lines, lines[1:] + [(0, "")]):
        joined = f"{text} {following.lstrip(' #')}" if after == line + 1 else text
        if any(m.start() < len(text) for m in TIMING.finditer(joined)):
            found.append(f"{path.name}:{line}: {text.strip()}")
    return found


def test_no_timings_in_comments_or_docstrings():
    package = Path(lowrank.__file__).parent
    found = [hit for path in sorted(package.glob("*.py")) for hit in _timings(path)]
    assert not found, "\n".join(found)


def test_the_timing_check_sees_comments_and_docstrings(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('"""Fast: 0.4 ms per call."""\n'
                    'X = 1  # 3 s at n = 100\n'
                    '# a refit took 4.5\n'
                    '# us at r = 5\n'
                    'def f():\n'
                    '    """2 steps and 32 MB; 1e-5 times s."""\n'
                    '    return "12 ms"\n')
    assert [hit.split(":")[1] for hit in _timings(path)] == ["1", "2", "3"]
