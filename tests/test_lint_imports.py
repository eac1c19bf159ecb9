"""Tests for scripts/check_imports.py (the unused-import lint)."""

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "scripts" / "check_imports.py"

spec = importlib.util.spec_from_file_location("check_imports", SCRIPT)
check_imports = importlib.util.module_from_spec(spec)
sys.modules.setdefault("check_imports", check_imports)
spec.loader.exec_module(check_imports)


def lint_source(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.write_text(source)
    return check_imports.check_paths([path])


class TestRepoIsClean:
    def test_default_trees_pass(self, capsys):
        assert check_imports.main([]) == 0
        assert "OK" in capsys.readouterr().out

    def test_main_rejects_missing_path(self, capsys):
        assert check_imports.main(["/no/such/tree"]) == 2


class TestRule:
    def test_unused_import_reported_by_name(self, tmp_path):
        problems = lint_source(
            tmp_path,
            "import os\n"
            "from typing import List, Sequence\n"
            "import numpy.linalg as la\n"
            "def f(xs: Sequence[int]) -> int:\n"
            "    return len(xs)\n",
        )
        assert [p.split(": ", 1)[1] for p in problems] == [
            "'os' imported but unused",
            "'List' imported but unused",
            "'la' imported but unused",
        ]
        assert problems[0].startswith(f"{tmp_path / 'mod.py'}:1:")

    def test_used_at_any_scope_passes(self, tmp_path):
        assert lint_source(
            tmp_path,
            "from __future__ import annotations\n"
            "import os.path\n"
            "from typing import *\n"
            "def f():\n"
            "    import json\n"
            "    return json.dumps(os.path.sep)\n",
        ) == []

    def test_string_annotation_counts_as_use(self, tmp_path):
        assert lint_source(
            tmp_path,
            "from typing import List\n"
            "from repro.analysis import Table\n"
            "def f(tables: 'List[Table]') -> List['Table']:\n"
            "    return tables\n",
        ) == []

    def test_init_reexports_exempt(self, tmp_path):
        assert lint_source(tmp_path, "from .mod import Thing\n", "__init__.py") == []
