"""Counted lines of each ``src/qcohere`` module and their total: the lines
that hold a token other than a comment, so blank and comment-only lines
drop out and docstrings count, as the tokenizer reads them.

    python tests/count_lines.py
"""

import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "qcohere"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def counted_lines(path) -> int:
    """Lines of ``path`` that some token other than a comment touches."""
    lines = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> None:
    counts = {path.name: counted_lines(path) for path in sorted(SOURCE.glob("*.py"))}
    width = max(map(len, counts))
    for name, n in counts.items():
        print(f"{name:<{width}} {n:>5}")
    print(f"{'total':<{width}} {sum(counts.values()):>5}")


if __name__ == "__main__":
    main()
