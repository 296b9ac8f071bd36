"""The README's library quick start runs as written.

Its one ``python`` block is parsed with `ast` and run statement by
statement in one namespace, so a renamed or removed entry point, or an
operation a lattice object stops answering, fails here with the statement
that broke.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert len(blocks) == 1, f"expected one python block in README.md, found {len(blocks)}"
    namespace: dict = {}
    for stmt in ast.parse(blocks[0]).body:
        code = compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec")
        try:
            exec(code, namespace)
        except Exception as exc:
            raise AssertionError(f"README quick start fails at: {ast.unparse(stmt)}") from exc
