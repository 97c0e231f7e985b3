"""The README's code examples must keep working — users copy them."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


class TestReadme:
    def test_readme_exists_with_structure(self):
        text = README.read_text()
        for heading in ("## Install", "## Quickstart", "## Tests and benchmarks",
                        "## Architecture"):
            assert heading in text

    def test_quickstart_snippet_executes(self, capsys):
        blocks = python_blocks(README.read_text())
        assert blocks, "README lost its quickstart snippet"
        exec(compile(blocks[0], "<README quickstart>", "exec"), {})
        out = capsys.readouterr().out
        assert "fps" in out

    def test_headline_table_matches_experiments_doc(self):
        """README's headline table and EXPERIMENTS.md E2 must agree."""
        readme = README.read_text()
        experiments = (README.parent / "EXPERIMENTS.md").read_text()
        for row in ("| 20 | 11.00 |", "| 60 | 11.03 |"):
            assert row in readme
            assert row in experiments


class TestApiDocs:
    def test_api_reference_is_current(self):
        """docs/API.md is exactly what tools/gen_api_docs.py renders from
        the live ``__all__`` exports — regenerate it after changing a
        package's public surface."""
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "gen_api_docs", README.parent / "tools" / "gen_api_docs.py")
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        assert tool.render() == (README.parent / "docs" / "API.md").read_text()
