"""Checks on the package's own source text.

Run as a script, `python tests/test_sources.py [DIR]` prints the code,
docstring, comment and blank lines of each module of `src/lowrank` (or of
DIR, another checkout's package) and their totals.
"""

import ast
import io
import re
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lowrank"
KINDS = ("code", "docstring", "comment", "blank")

# a number followed by a unit of time; measurements belong in CHANGES.md's
# "Timing tables", and the code points there
TIMING = re.compile(r"\d\s*(?:ms|us|µs|ns|s)\b")


def _docstrings(source: str) -> set[int]:
    """The first line of each module, class and function docstring."""
    return {node.body[0].lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) and ast.get_docstring(node)}


def _prose(path: Path) -> list[tuple[int, str]]:
    """(line, text) of every comment and docstring line of `path`."""
    source = path.read_text(encoding="utf-8")
    docstrings = _docstrings(source)
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


def line_kinds(path: Path) -> list[str]:
    """The kind of each line of `path`, one of `KINDS`: an empty line is
    blank, also inside a string; any other line of a docstring is
    docstring, one holding any other token is code, and one holding only a
    comment is comment."""
    source = path.read_text(encoding="utf-8")
    docstrings = _docstrings(source)
    lines = source.splitlines()
    kinds = [None] * len(lines)
    skip = (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER)
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        first, last = tok.start[0], tok.end[0]
        if tok.type == tokenize.COMMENT:
            kinds[first - 1] = kinds[first - 1] or "comment"
        elif tok.type not in skip:
            kind = "docstring" if (tok.type == tokenize.STRING
                                   and first in docstrings) else "code"
            kinds[first - 1:last] = [kind] * (last - first + 1)
    return [kind if line.strip() else "blank" for kind, line in zip(kinds, lines)]


def line_counts(path: Path) -> dict[str, int]:
    kinds = line_kinds(path)
    return {kind: kinds.count(kind) for kind in KINDS}


def test_line_kinds_partition_each_module():
    for path in sorted(PACKAGE.glob("*.py")):
        counts = line_counts(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert sum(counts.values()) == len(lines), path.name


def test_line_kinds_of_a_sample(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('"""Module.\n\nMore."""\n'
                    '\n'
                    '# a comment\n'
                    'X = """a\n'
                    '\n'
                    'b"""  # trailing\n'
                    'def f():\n'
                    '    """One line."""\n'
                    '    return (1,\n'
                    '            2)\n')
    assert line_kinds(path) == ["docstring", "blank", "docstring", "blank", "comment",
                               "code", "blank", "code", "code", "docstring", "code", "code"]


def test_no_timings_in_comments_or_docstrings():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _timings(path)]
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


if __name__ == "__main__":
    package = Path(sys.argv[1]) if len(sys.argv) > 1 else PACKAGE
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}" + "".join(f"{kind:>10}" for kind in KINDS) + f"{'lines':>10}")
    for path in sorted(package.glob("*.py")):
        counts = line_counts(path)
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{path.name:<16}" + "".join(f"{counts[k]:>10}" for k in KINDS)
              + f"{sum(counts.values()):>10}")
    print(f"{'total':<16}" + "".join(f"{total[k]:>10}" for k in KINDS)
          + f"{sum(total.values()):>10}")
