"""Count the lines of the ``txndpor`` package, per module and in total.

Prints, for each module of ``src/txndpor``, its physical lines and its code
lines: the lines that hold a token of code once blank lines, comments and
docstrings are skipped, as Python's ``tokenize`` reads them.  A docstring is
a string that makes up a whole statement.  Run from anywhere::

    python3 tools/code_lines.py
"""

from __future__ import annotations

import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "txndpor"

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []  # the code tokens of one statement
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIPPED:
            statement.append(tok)
        elif tok.type == tokenize.NEWLINE or tok.type == tokenize.ENDMARKER:
            if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def main() -> None:
    rows = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        rows.append((path.name, len(text.splitlines()), code_lines(text)))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  physical  code")
    for name, physical, code in rows:
        print(f"{name:<{width}}  {physical:>8,}  {code:>4,}")
    total_physical = sum(r[1] for r in rows)
    total_code = sum(r[2] for r in rows)
    print(f"{'total':<{width}}  {total_physical:>8,}  {total_code:>4,}")


if __name__ == "__main__":
    main()
