"""Repository hygiene: docs reference real artifacts; API is documented.

These meta-tests keep DESIGN.md / EXPERIMENTS.md honest as the repository
evolves — every bench and example they cite must exist — and enforce the
documentation bar (docstrings on every public module/class/function of
the library).
"""

import inspect
import os
import pathlib
import pkgutil
import re
import importlib
import subprocess
import sys

import pytest

import repro

REPO_ROOT = pathlib.Path(repro.__file__).resolve().parents[2]


def referenced_paths(doc_name, pattern):
    text = (REPO_ROOT / doc_name).read_text()
    return sorted(set(re.findall(pattern, text)))


class TestDocsReferenceRealFiles:
    def test_design_md_benchmarks_exist(self):
        for rel in referenced_paths("DESIGN.md", r"benchmarks/\w+\.py"):
            assert (REPO_ROOT / rel).exists(), f"DESIGN.md references missing {rel}"

    def test_design_md_examples_exist(self):
        for rel in referenced_paths("DESIGN.md", r"examples/\w+\.py"):
            assert (REPO_ROOT / rel).exists(), f"DESIGN.md references missing {rel}"

    def test_design_md_tests_exist(self):
        for rel in referenced_paths("DESIGN.md", r"tests/[\w/]+\.py"):
            assert (REPO_ROOT / rel).exists(), f"DESIGN.md references missing {rel}"

    def test_experiments_md_benchmarks_exist(self):
        for rel in referenced_paths("EXPERIMENTS.md", r"bench_\w+\.py"):
            assert (REPO_ROOT / "benchmarks" / rel).exists(), (
                f"EXPERIMENTS.md references missing benchmarks/{rel}"
            )

    def test_readme_examples_exist(self):
        for rel in referenced_paths("README.md", r"`(\w+\.py)`"):
            assert (REPO_ROOT / "examples" / rel).exists(), (
                f"README.md references missing examples/{rel}"
            )

    def test_every_benchmark_indexed_in_design_md(self):
        """The experiment index stays complete: every bench file on disk
        is referenced by DESIGN.md."""
        text = (REPO_ROOT / "DESIGN.md").read_text()
        for bench in sorted((REPO_ROOT / "benchmarks").glob("bench_*.py")):
            assert bench.name in text, (
                f"benchmarks/{bench.name} missing from DESIGN.md's index"
            )

    def test_every_example_indexed_in_readme(self):
        text = (REPO_ROOT / "README.md").read_text()
        for example in sorted((REPO_ROOT / "examples").glob("*.py")):
            assert example.name in text, (
                f"examples/{example.name} missing from README.md's table"
            )

    def test_design_md_modules_importable(self):
        for dotted in referenced_paths("DESIGN.md", r"repro\.[\w.]+\w"):
            root = dotted.split(".")
            module = ".".join(root[:2])
            if root[-1] == "*" or dotted.endswith("."):
                continue
            try:
                importlib.import_module(module)
            except ImportError as exc:  # pragma: no cover - failure message
                pytest.fail(f"DESIGN.md references unimportable {module}: {exc}")


def _loaded_by_import(module: str) -> bool:
    """Whether importing the package, its CLI, the sweep layer and the
    control plane in a fresh interpreter loads *module*."""
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, repro, repro.cli, repro.exp, repro.control; "
        f"print({module!r} in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.strip() == "True"


class TestImportCost:
    def test_import_does_not_load_scipy(self):
        """Only BvN synthesis needs scipy."""
        assert not _loaded_by_import("scipy")

    def test_import_does_not_load_networkx(self):
        """Only the expander schedule, Opera routing and
        ``LogicalTopology`` need networkx."""
        assert not _loaded_by_import("networkx")


def iter_public_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if any(part.startswith("_") for part in info.name.split(".")):
            continue
        yield importlib.import_module(info.name)


class TestDocstringCoverage:
    def test_every_module_documented(self):
        for module in iter_public_modules():
            assert module.__doc__, f"{module.__name__} lacks a module docstring"

    def test_every_public_callable_documented(self):
        missing = []
        for module in iter_public_modules():
            exported = getattr(module, "__all__", None)
            if exported is None:
                continue
            for name in exported:
                obj = getattr(module, name, None)
                if obj is None or not callable(obj):
                    continue
                if not inspect.getdoc(obj):
                    missing.append(f"{module.__name__}.{name}")
        assert not missing, f"undocumented public API: {missing}"

    def test_public_classes_document_their_methods(self):
        missing = []
        for module in iter_public_modules():
            exported = getattr(module, "__all__", None) or []
            for name in exported:
                obj = getattr(module, name, None)
                if not inspect.isclass(obj):
                    continue
                for attr_name, attr in vars(obj).items():
                    if attr_name.startswith("_"):
                        continue
                    if callable(attr) and not inspect.getdoc(attr):
                        missing.append(f"{module.__name__}.{name}.{attr_name}")
        assert not missing, f"undocumented public methods: {missing}"
