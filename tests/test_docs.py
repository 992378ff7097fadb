"""Documentation integrity: doctests, README claims, API.md executability,
DESIGN inventory."""

from __future__ import annotations

import doctest
import re
from pathlib import Path

import repro

ROOT = Path(__file__).parent.parent


class TestDoctests:
    def test_package_docstring_examples_run(self):
        results = doctest.testmod(repro, verbose=False)
        assert results.failed == 0
        assert results.attempted >= 1


class TestReadme:
    README = (ROOT / "README.md").read_text()

    def test_mentions_every_top_level_package(self):
        import pkgutil

        for module in pkgutil.iter_modules(repro.__path__):
            if module.ispkg:
                assert module.name in self.README, (
                    f"README does not mention package {module.name!r}"
                )

    def test_quickstart_snippet_is_valid(self):
        # Extract and exec the first python code block.
        blocks = re.findall(r"```python\n(.*?)```", self.README, re.DOTALL)
        assert blocks, "README needs at least one python example"
        namespace: dict = {}
        for block in blocks:
            exec(block, namespace)  # noqa: S102 - our own documentation

    def test_examples_table_matches_directory(self):
        examples = {p.name for p in (ROOT / "examples").glob("*.py")}
        documented = set(re.findall(r"`(\w+\.py)`", self.README))
        assert documented <= examples
        assert "quickstart.py" in documented

    def test_documentation_map_links_api_reference(self):
        assert "API.md" in self.README, "README must link the API reference"


class TestApiReference:
    """API.md is executable documentation: names import, snippets run."""

    API = (ROOT / "API.md").read_text()

    def test_every_code_block_executes(self):
        blocks = re.findall(r"```python\n(.*?)```", self.API, re.DOTALL)
        assert len(blocks) >= 10, "API.md should document the full surface"
        for block in blocks:
            namespace: dict = {}
            exec(block, namespace)  # noqa: S102 - our own documentation

    def test_every_dotted_name_resolves(self):
        import importlib

        for match in sorted(set(re.findall(r"`(repro(?:\.\w+)+)`", self.API))):
            parts = match.split(".")
            resolved = None
            for split in range(len(parts), 0, -1):
                try:
                    resolved = importlib.import_module(".".join(parts[:split]))
                except ModuleNotFoundError:
                    continue
                for attr in parts[split:]:
                    resolved = getattr(resolved, attr, None)
                    if resolved is None:
                        break
                break
            assert resolved is not None, f"API.md references missing {match}"

    def test_every_imported_name_exists(self):
        # Every `from repro... import a, b` line in a snippet must name
        # real, importable attributes — executed blocks prove the imports
        # they use; this additionally catches names in unused positions.
        import importlib

        for module_name, names in re.findall(
            r"^from (repro[\w.]*) import (.+)$", self.API, re.MULTILINE
        ):
            module = importlib.import_module(module_name)
            for name in names.split(","):
                assert hasattr(module, name.strip()), (
                    f"API.md imports {name.strip()!r} from {module_name}, "
                    "which does not exist"
                )


class TestDesignDoc:
    DESIGN = (ROOT / "DESIGN.md").read_text()

    def test_every_figure_has_an_experiment_row(self):
        for fig in ("FIG1", "FIG2A", "FIG2B", "FIG2C", "FIG2D",
                    "FIG3A", "FIG3B", "FIG4", "FIG5A", "FIG5B"):
            assert fig in self.DESIGN

    def test_every_ablation_is_indexed(self):
        for abl in ("ABL1", "ABL2", "ABL3", "ABL4", "ABL5"):
            assert abl in self.DESIGN

    def test_referenced_modules_exist(self):
        import importlib

        for match in set(re.findall(r"`(repro\.[a-z_.]+)`", self.DESIGN)):
            module = match.rstrip(".")
            # Strip a trailing `.*` wildcard.
            module = module[:-2] if module.endswith(".*") else module
            try:
                importlib.import_module(module)
            except ModuleNotFoundError as exc:
                raise AssertionError(
                    f"DESIGN.md references missing module {module}"
                ) from exc


class TestExperimentsDoc:
    EXPERIMENTS = (ROOT / "EXPERIMENTS.md").read_text()

    def test_every_benchmark_file_is_referenced(self):
        for path in (ROOT / "benchmarks").glob("bench_*.py"):
            assert path.name in self.EXPERIMENTS, (
                f"EXPERIMENTS.md does not reference {path.name}"
            )

    def test_paper_vs_measured_columns(self):
        assert "| Paper claim | Measured |" in self.EXPERIMENTS


class TestNamedBenchmarkFilesExist:
    """The reverse of the inventory check: every benchmark file or
    trajectory the docs, the CI workflow or the sources name exists."""

    NAMED = re.compile(r"benchmarks/\w+\.py|\bbench_\w+\.py|\bBENCH_\w+\.json")
    DOCS = (
        "README.md",
        "DESIGN.md",
        "API.md",
        "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md",
        ".github/workflows/ci.yml",
    )

    @staticmethod
    def _path(name: str) -> Path:
        return ROOT / ("benchmarks" if name.startswith("bench_") else "") / name

    def _missing(self, text: str) -> set[str]:
        return {n for n in self.NAMED.findall(text) if not self._path(n).exists()}

    def test_docs_name_only_existing_files(self):
        for doc in self.DOCS:
            missing = self._missing((ROOT / doc).read_text())
            assert not missing, f"{doc} names missing files {sorted(missing)}"

    def test_sources_name_only_existing_files(self):
        for source in (ROOT / "src").rglob("*.py"):
            missing = self._missing(source.read_text())
            name = source.relative_to(ROOT)
            assert not missing, f"{name} names missing files {sorted(missing)}"
