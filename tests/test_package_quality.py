"""Package-quality meta-tests: exports, docstrings, doc/bench consistency.

These guard the deliverables themselves: every ``__all__`` name must
resolve, every public item must be documented, and the README/DESIGN tables
must reference benchmarks that actually exist (and vice versa).
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import pkgutil

import pytest

import repro

REPO_ROOT = pathlib.Path(repro.__file__).resolve().parent.parent.parent
PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.baselines",
    "repro.core",
    "repro.detection",
    "repro.hashing",
    "repro.kernels",
    "repro.memmodel",
    "repro.pipeline",
    "repro.service",
    "repro.simulate",
    "repro.state",
    "repro.traffic",
]


def _all_modules():
    names = []
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        names.append(package_name)
        if hasattr(package, "__path__"):
            for info in pkgutil.iter_modules(package.__path__):
                names.append(f"{package_name}.{info.name}")
    names.append("repro.cli")
    names.append("repro.errors")
    return sorted(set(names))


class TestExports:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_names_resolve(self, package_name):
        package = importlib.import_module(package_name)
        exported = getattr(package, "__all__", [])
        assert exported, f"{package_name} should declare __all__"
        for name in exported:
            assert hasattr(package, name), f"{package_name}.{name} missing"

    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_is_sorted_unique(self, package_name):
        exported = importlib.import_module(package_name).__all__
        assert len(exported) == len(set(exported))


class TestDocstrings:
    @pytest.mark.parametrize("module_name", _all_modules())
    def test_module_has_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and module.__doc__.strip()

    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_public_items_documented(self, package_name):
        package = importlib.import_module(package_name)
        undocumented = []
        for name in getattr(package, "__all__", []):
            item = getattr(package, name)
            if inspect.isclass(item) or inspect.isfunction(item):
                if not (item.__doc__ and item.__doc__.strip()):
                    undocumented.append(name)
        assert not undocumented, f"{package_name}: {undocumented}"

    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_public_class_methods_documented(self, package_name):
        package = importlib.import_module(package_name)
        undocumented = []
        for name in getattr(package, "__all__", []):
            item = getattr(package, name)
            if not inspect.isclass(item):
                continue
            for method_name, method in inspect.getmembers(item, inspect.isfunction):
                if method_name.startswith("_"):
                    continue
                if method.__qualname__.split(".")[0] != item.__name__:
                    continue  # inherited
                if not (method.__doc__ and method.__doc__.strip()):
                    undocumented.append(f"{name}.{method_name}")
        assert not undocumented, f"{package_name}: {undocumented}"


class TestDocConsistency:
    def test_readme_benches_exist(self):
        readme = (REPO_ROOT / "README.md").read_text()
        bench_dir = REPO_ROOT / "benchmarks"
        for line in readme.splitlines():
            if "| `bench_" not in line:
                continue
            name = line.split("`")[1]
            for candidate in name.split("/"):
                stem = candidate if candidate.startswith("bench_") else None
                if stem is None:
                    continue
            # The table cell may abbreviate several benches with slashes.
            first = name.split("/")[0]
            matches = list(bench_dir.glob(f"{first}*.py"))
            assert matches, f"README references missing bench {first}"

    def test_every_bench_file_is_documented(self):
        documented = (REPO_ROOT / "README.md").read_text() + (
            REPO_ROOT / "DESIGN.md"
        ).read_text()
        for bench in (REPO_ROOT / "benchmarks").glob("bench_*.py"):
            stem = bench.stem
            # Abbreviated table rows (bench_ablation_layers/wsaf/fill) cover
            # their variants; check for the family prefix.
            family = "_".join(stem.split("_")[:2])
            assert family in documented, f"{stem} not mentioned in docs"

    def test_experiments_covers_every_figure(self):
        experiments = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        for figure in ("Fig 1", "Fig 6", "Fig 7", "Fig 8", "Fig 9(a)",
                       "Fig 9(b)", "Fig 10", "Fig 11", "Fig 12", "Fig 13",
                       "Fig 14", "CSM"):
            assert figure in experiments, f"EXPERIMENTS.md missing {figure}"

    def test_examples_listed_in_readme(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for example in (REPO_ROOT / "examples").glob("*.py"):
            assert example.name in readme, f"{example.name} not in README"

    def test_version_consistent(self):
        pyproject = (REPO_ROOT / "pyproject.toml").read_text()
        assert f'version = "{repro.__version__}"' in pyproject


class TestReadmeCode:
    def _python_blocks(self):
        readme = (REPO_ROOT / "README.md").read_text()
        blocks = []
        inside = False
        current: "list[str]" = []
        for line in readme.splitlines():
            if line.strip() == "```python":
                inside = True
                current = []
                continue
            if inside and line.strip() == "```":
                inside = False
                blocks.append("\n".join(current))
                continue
            if inside:
                current.append(line)
        return blocks

    def test_readme_has_python_examples(self):
        assert len(self._python_blocks()) >= 2

    def test_readme_python_blocks_execute(self):
        """The quickstart snippets in the README must actually run.

        Heavyweight constants are shrunk so the doc check stays fast; the
        code paths exercised are identical.
        """
        namespace: "dict[str, object]" = {}
        for block in self._python_blocks():
            code = block.replace("20_000", "2_000")
            exec(compile(code, "<README>", "exec"), namespace)  # noqa: S102
        assert "engine" in namespace  # the quickstart built an engine
