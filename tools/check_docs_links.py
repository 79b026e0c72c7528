#!/usr/bin/env python3
"""Dependency-free link checker for the repo's Markdown documentation.

Used by the CI docs job.  Walks ``README.md`` and every ``docs/*.md`` file,
extracts Markdown link targets, and fails (exit code 1) when

* a *relative* link points at a file that does not exist,
* a link's ``#fragment`` — intra-document or into another Markdown file —
  names a heading anchor that does not exist in the target (GitHub
  slugification rules), or
* a ``repro.*`` dotted reference in backticked inline code names a module
  that cannot be found under ``src/``, or
* a ``--flag`` cited anywhere in that documentation is not defined as a
  string literal by any Python file under ``src/``, ``benchmarks/``,
  ``tools/`` or ``perfbench/`` (the places that parse command lines), or
* a Python file under ``src/``, ``benchmarks/``, ``tools/``, ``tests/``,
  ``examples/`` or ``perfbench/`` cites a Markdown file (a path ending in
  ``.md``) that resolves neither from the repository root nor from the
  citing file's own directory.

External (``http(s)://``) links are not fetched — CI must not depend on the
network — but their syntax is still validated.
"""

from __future__ import annotations

import ast
import re
import sys
from functools import lru_cache
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
MODULE_PATTERN = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)`")
HEADING_PATTERN = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$")
MARKDOWN_REFERENCE_PATTERN = re.compile(r"(?<![\w./-])((?:[\w-]+/)*\w[\w.-]*\.md)(?![\w-])")
CITING_DIRECTORIES = ("src", "benchmarks", "tools", "tests", "examples", "perfbench")
FLAG_PATTERN = re.compile(r"(?<![\w-])--[A-Za-z][A-Za-z0-9-]*")
FLAG_DEFINING_DIRECTORIES = ("src", "benchmarks", "tools", "perfbench")


def _slugify(heading: str) -> str:
    """GitHub-style anchor slug of one heading line."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)  # inline code keeps its text
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links keep their text
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


@lru_cache(maxsize=None)
def _anchors_of(path: Path) -> frozenset[str]:
    """Every heading anchor a Markdown file exposes (duplicates numbered)."""
    anchors: list[str] = []
    counts: dict[str, int] = {}
    in_code_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("```"):
            in_code_fence = not in_code_fence
            continue
        if in_code_fence:
            continue
        match = HEADING_PATTERN.match(line)
        if not match:
            continue
        slug = _slugify(match.group(1))
        seen = counts.get(slug, 0)
        counts[slug] = seen + 1
        anchors.append(slug if seen == 0 else f"{slug}-{seen}")
    return frozenset(anchors)


def _doc_files() -> list[Path]:
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [path for path in files if path.exists()]


def _check_links(path: Path) -> list[str]:
    errors = []
    text = path.read_text(encoding="utf-8")
    for match in LINK_PATTERN.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        relative, _, fragment = target.partition("#")
        if relative:
            resolved = (path.parent / relative).resolve()
            if not resolved.exists():
                errors.append(f"{path.relative_to(REPO_ROOT)}: broken link -> {target}")
                continue
        else:
            resolved = path  # intra-document anchor
        if fragment and resolved.suffix == ".md":
            if fragment.lower() not in _anchors_of(resolved):
                errors.append(
                    f"{path.relative_to(REPO_ROOT)}: broken anchor -> {target} "
                    f"(no heading '#{fragment}' in {resolved.relative_to(REPO_ROOT)})"
                )
    return errors


def _check_module_references(path: Path) -> list[str]:
    errors = []
    text = path.read_text(encoding="utf-8")
    for match in MODULE_PATTERN.finditer(text):
        dotted = match.group(1)
        parts = dotted.split(".")
        # Accept any prefix of the dotted path that is a real module; the
        # tail may be a class / function / attribute.
        found = False
        for depth in range(len(parts), 0, -1):
            candidate = REPO_ROOT / "src" / Path(*parts[:depth])
            if candidate.with_suffix(".py").exists() or (candidate / "__init__.py").exists():
                found = True
                break
        if not found:
            errors.append(f"{path.relative_to(REPO_ROOT)}: unknown module reference `{dotted}`")
    return errors


def _defined_flags() -> frozenset[str]:
    """Every ``--flag`` string literal in the Python files that parse command lines."""
    flags: set[str] = set()
    for directory in FLAG_DEFINING_DIRECTORIES:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and FLAG_PATTERN.fullmatch(node.value)
                ):
                    flags.add(node.value)
    return frozenset(flags)


def _check_cited_flags(path: Path, defined: frozenset[str]) -> list[str]:
    """``--flags`` a documentation file cites that no command line defines."""
    errors = []
    text = path.read_text(encoding="utf-8")
    for match in FLAG_PATTERN.finditer(text):
        if match.group(0) not in defined:
            line = text.count("\n", 0, match.start()) + 1
            errors.append(
                f"{path.relative_to(REPO_ROOT)}:{line}: cites undefined flag {match.group(0)}"
            )
    return errors


def _python_files() -> list[Path]:
    files: list[Path] = []
    for directory in CITING_DIRECTORIES:
        files.extend(sorted((REPO_ROOT / directory).rglob("*.py")))
    return files


def _check_markdown_citations(path: Path) -> list[str]:
    """Markdown files a Python file cites that exist neither at the root nor beside it."""
    errors = []
    text = path.read_text(encoding="utf-8")
    for match in MARKDOWN_REFERENCE_PATTERN.finditer(text):
        cited = match.group(1)
        if not ((REPO_ROOT / cited).exists() or (path.parent / cited).exists()):
            line = text.count("\n", 0, match.start()) + 1
            errors.append(f"{path.relative_to(REPO_ROOT)}:{line}: dangling reference to {cited}")
    return errors


def main() -> int:
    """Check every documentation file; print problems and return an exit code."""
    errors: list[str] = []
    files = _doc_files()
    if len(files) < 2:
        errors.append("expected README.md plus at least one docs/*.md file")
    defined_flags = _defined_flags()
    for path in files:
        errors.extend(_check_links(path))
        errors.extend(_check_module_references(path))
        errors.extend(_check_cited_flags(path, defined_flags))
    sources = _python_files()
    for path in sources:
        errors.extend(_check_markdown_citations(path))
    for error in errors:
        print(f"FAIL: {error}")
    if not errors:
        print(
            f"OK: {len(files)} documentation files, all links, module references and "
            f"cited flags resolve; {len(sources)} Python files cite no missing Markdown file"
        )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
