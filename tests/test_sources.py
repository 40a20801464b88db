"""Checks on the package's own source text.

Run as a script, `python tests/test_sources.py [DIR]` prints the code,
docstring, comment and blank lines of each module of `src/lowrank` (or of
DIR, another checkout's package) and their totals.
`python tests/test_sources.py BEFORE_DIR AFTER_DIR` prints AFTER_DIR's
counts, each with its change from BEFORE_DIR.
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


def report(package: Path, before: Path | None = None) -> list[str]:
    """The table the script prints: the four counts and the total of each
    module of `package` and of all of them; with `before`, each count is
    followed by its change from that package, in which a module that one
    side lacks counts 0."""
    def table(where):
        return {path.name: [*line_counts(path).values()]
                for path in sorted(where.glob("*.py"))} if where else {}

    now, then = table(package), table(before)
    width = 10 if before is None else 16
    lines = [f"{'module':<16}"
             + "".join(f"{kind:>{width}}" for kind in KINDS + ("lines",))]
    zero = [0] * len(KINDS)
    rows = {name: (now.get(name, zero), then.get(name, zero))
            for name in sorted(now.keys() | then.keys())}
    rows["total"] = ([sum(col) for col in zip(zero, *now.values())],
                     [sum(col) for col in zip(zero, *then.values())])
    for name, (counts, old) in rows.items():
        counts, old = counts + [sum(counts)], old + [sum(old)]
        cells = [str(c) if before is None else f"{c} ({c - o:+d})"
                 for c, o in zip(counts, old)]
        lines.append(f"{name:<16}" + "".join(f"{cell:>{width}}" for cell in cells))
    return lines


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


def test_report_gives_each_count_and_its_change(tmp_path):
    before, after = tmp_path / "before", tmp_path / "after"
    before.mkdir(), after.mkdir()
    (before / "a.py").write_text("X = 1\n\n# gone\n")
    (before / "b.py").write_text("Y = 2\n")
    (after / "a.py").write_text('"""Doc."""\nX = 1\n')
    assert [row.split() for row in report(after)] == [
        ["module", *KINDS, "lines"], ["a.py", "1", "1", "0", "0", "2"],
        ["total", "1", "1", "0", "0", "2"]]
    assert [row.split() for row in report(after, before)[1:]] == [
        ["a.py", "1", "(+0)", "1", "(+1)", "0", "(-1)", "0", "(-1)", "2", "(-1)"],
        ["b.py", "0", "(-1)", "0", "(+0)", "0", "(+0)", "0", "(+0)", "0", "(-1)"],
        ["total", "1", "(-1)", "1", "(+1)", "0", "(-1)", "0", "(-1)", "2", "(-2)"]]


if __name__ == "__main__":
    dirs = [Path(arg) for arg in sys.argv[1:]]
    print("\n".join(report(*(dirs[::-1] or [PACKAGE]))))
