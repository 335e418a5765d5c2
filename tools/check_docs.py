#!/usr/bin/env python3
"""Check markdown docs for broken relative links and anchors.

Scans every ``*.md`` under the repo root and ``docs/`` and verifies:

* relative links ``[text](path)`` point at files that exist;
* fragment links ``[text](path#anchor)`` (and in-page ``[t](#anchor)``)
  resolve to a heading in the target file, using GitHub's slug rules
  (lowercase, spaces to dashes, punctuation stripped, ``-1`` suffixes
  for duplicates);
* reference-style definitions ``[label]: path`` resolve the same way;
* every public module under ``src/repro/`` is mentioned in at least
  one ``docs/*.md`` file — by dotted path (``repro.cluster.placement``)
  or by source path (``cluster/placement.py``) — so new subsystems
  cannot land undocumented.  ``_private.py`` modules, ``__init__.py``
  re-export shims, and the ``MODULE_ALLOWLIST`` below are exempt;
* every ``repro.*`` dotted name and every ``*.py`` path in an inline
  code span, in the pages that describe the tree as it is (``docs/``
  and ``TREE_DOCS``), names something that exists: a package, a module
  or a top-level name bound in one, and a file whose path ends with the
  one given.  CHANGES.md (history), ROADMAP.md (plans) and the paper
  notes are exempt: they name files that are gone or not yet written;
* in the same pages, a code span that is exactly an ALL_CAPS name with
  an underscore (``CONFIG_CACHE_SIZE``, optionally ``= value``) names a
  module-level binding somewhere in ``src/repro``.  ``REPRO_*``
  environment variables are exempt.

External links (``http(s)://``, ``mailto:``) are not fetched.  Exits
non-zero listing every error — this is the CI docs gate
(``.github/workflows/ci.yml``).

Usage: python tools/check_docs.py [root]
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, List, Set

# [text](target) — skip images' leading "!" separately; images use the
# same path rules so they are checked too.
_INLINE_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_REF_DEF = re.compile(r"^\[[^\]]+\]:\s+(\S+)", re.MULTILINE)
_HEADING = re.compile(r"^(#{1,6})\s+(.*)$", re.MULTILINE)
_CODE_FENCE = re.compile(r"```.*?```", re.DOTALL)
_SKIP_SCHEMES = ("http://", "https://", "mailto:", "ftp://")
_DOTTED_NAME = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
_CODE_SPAN = re.compile(r"`([^`\n]+)`")
_PY_PATH = re.compile(r"[\w./-]*\w\.py\b")
# A whole code span `NAME` or `NAME = value`, NAME in capitals.
_CONSTANT_SPAN = re.compile(r"(_?[A-Z][A-Z0-9]*(?:_[A-Z0-9]+)*)(?: = .+)?")

#: Root pages that describe the tree as it is, checked with ``docs/``
#: for names of modules and files that do not exist.
TREE_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")


def github_slug(heading: str, seen: Dict[str, int]) -> str:
    """GitHub's anchor slug for a heading text."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)          # strip code spans
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links -> text
    slug = text.strip().lower()
    slug = re.sub(r"[^\w\- ]", "", slug, flags=re.UNICODE)
    slug = slug.replace(" ", "-")
    count = seen.get(slug, 0)
    seen[slug] = count + 1
    return slug if count == 0 else f"{slug}-{count}"


def anchors_of(path: Path, cache: Dict[Path, Set[str]]) -> Set[str]:
    cached = cache.get(path)
    if cached is not None:
        return cached
    text = _CODE_FENCE.sub("", path.read_text(encoding="utf-8"))
    seen: Dict[str, int] = {}
    slugs = {github_slug(m.group(2), seen) for m in _HEADING.finditer(text)}
    cache[path] = slugs
    return slugs


def markdown_files(root: Path) -> List[Path]:
    files = sorted(root.glob("*.md")) + sorted((root / "docs").glob("*.md"))
    return [f for f in files if f.is_file()]


#: Public modules that need no docs mention: experiment drivers are
#: catalogued per figure/table in EXPERIMENTS.md rather than per file,
#: and conftest-style plumbing has no API surface.
MODULE_ALLOWLIST = (
    "repro.experiments.",  # prefix: per-figure drivers (EXPERIMENTS.md)
)


def public_modules(root: Path) -> List[str]:
    """Dotted names of every public module under ``src/repro/``."""
    src = root / "src" / "repro"
    modules = []
    for path in sorted(src.rglob("*.py")):
        if path.name.startswith("_"):
            continue  # __init__, __main__, _private helpers
        dotted = "repro." + ".".join(
            path.relative_to(src).with_suffix("").parts
        )
        if any(
            dotted == entry or (entry.endswith(".") and dotted.startswith(entry))
            for entry in MODULE_ALLOWLIST
        ):
            continue
        modules.append(dotted)
    return modules


def check_module_coverage(root: Path) -> List[str]:
    """Every public ``src/repro`` module must appear in some docs page."""
    docs = sorted((root / "docs").glob("*.md"))
    if not docs:
        return []
    corpus = "\n".join(d.read_text(encoding="utf-8") for d in docs)
    errors = []
    for dotted in public_modules(root):
        # repro.cluster.placement matches either the dotted path or the
        # cluster/placement.py source-path spelling.
        tail = dotted.split(".", 1)[1]
        as_path = tail.replace(".", "/") + ".py"
        if dotted not in corpus and as_path not in corpus:
            errors.append(
                f"docs/: public module {dotted} ({as_path}) is not "
                f"mentioned in any docs/*.md page"
            )
    return errors


def _top_level_names(module: Path) -> Set[str]:
    """Names bound at the top level of ``module`` (empty if missing)."""
    if not module.is_file():
        return set()
    names: Set[str] = set()
    for node in ast.parse(module.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def dotted_name_exists(root: Path, dotted: str) -> bool:
    """Whether ``repro.a.b...`` is a package, a module, or a top-level
    name of one (``repro.core.runtime.BlessRuntime``)."""
    path = root / "src" / "repro"
    parts = dotted.split(".")[1:]
    for index, part in enumerate(parts):
        if (path / part).is_dir():
            path = path / part
        elif (path / f"{part}.py").is_file():
            path = path / f"{part}.py"
            rest = parts[index + 1:]
            break
        else:
            path, rest = path / "__init__.py", parts[index:]
            break
    else:
        return True
    return not rest or rest[0] in _top_level_names(path)


def tree_py_files(root: Path) -> List[str]:
    """Every ``*.py`` path in the tree, relative to ``root``."""
    files = []
    for path in root.rglob("*.py"):
        parts = path.relative_to(root).parts
        if not any(p.startswith(".") or p == "__pycache__" for p in parts):
            files.append("/".join(parts))
    return files


def module_constants(root: Path) -> Set[str]:
    """Every name bound at the top level of some ``src/repro`` module."""
    names: Set[str] = set()
    for module in (root / "src" / "repro").rglob("*.py"):
        names |= _top_level_names(module)
    return names


def check_named_files(root: Path) -> List[str]:
    """Docs of the tree name only modules, files and constants that
    exist."""
    pages = [root / name for name in TREE_DOCS if (root / name).is_file()]
    pages += sorted((root / "docs").glob("*.md"))
    py_files = tree_py_files(root)
    constants = module_constants(root)
    errors = []
    for md in pages:
        text = md.read_text(encoding="utf-8")
        where = md.relative_to(root)
        for dotted in sorted(set(_DOTTED_NAME.findall(text))):
            if not dotted_name_exists(root, dotted):
                errors.append(f"{where}: names missing module {dotted}")
        spans = _CODE_SPAN.findall(_CODE_FENCE.sub("", text))
        paths = {p for span in spans for p in _PY_PATH.findall(span)}
        for name in sorted(paths):
            tail = name.lstrip("./")
            if not any(f == tail or f.endswith("/" + tail) for f in py_files):
                errors.append(f"{where}: names missing file {name}")
        for name in sorted(_constant_names(spans)):
            if name not in constants:
                errors.append(f"{where}: names missing constant {name}")
    return errors


def _constant_names(spans: List[str]) -> Set[str]:
    """The ALL_CAPS names with an underscore that whole code spans
    consist of, ``REPRO_*`` environment variables aside."""
    names = set()
    for span in spans:
        match = _CONSTANT_SPAN.fullmatch(span)
        if match and "_" in match.group(1) and not span.startswith("REPRO_"):
            names.add(match.group(1))
    return names


def check(root: Path) -> List[str]:
    errors: List[str] = []
    anchor_cache: Dict[Path, Set[str]] = {}
    for md in markdown_files(root):
        text = _CODE_FENCE.sub("", md.read_text(encoding="utf-8"))
        targets = [m.group(1) for m in _INLINE_LINK.finditer(text)]
        targets += [m.group(1) for m in _REF_DEF.finditer(text)]
        for target in targets:
            if target.startswith(_SKIP_SCHEMES) or target.startswith("<"):
                continue
            path_part, _, fragment = target.partition("#")
            if path_part:
                resolved = (md.parent / path_part).resolve()
                if not resolved.exists():
                    errors.append(f"{md.relative_to(root)}: broken link -> {target}")
                    continue
            else:
                resolved = md.resolve()
            if fragment:
                if resolved.suffix != ".md" or not resolved.is_file():
                    continue  # anchors into non-markdown are not checked
                if fragment.lower() not in anchors_of(resolved, anchor_cache):
                    errors.append(
                        f"{md.relative_to(root)}: broken anchor -> {target}"
                    )
    errors.extend(check_module_coverage(root))
    errors.extend(check_named_files(root))
    return errors


def main(argv: List[str]) -> int:
    root = Path(argv[1]).resolve() if len(argv) > 1 else Path(__file__).resolve().parents[1]
    errors = check(root)
    checked = len(markdown_files(root))
    if errors:
        for error in errors:
            print(error, file=sys.stderr)
        print(f"\n{len(errors)} error(s) across {checked} files", file=sys.stderr)
        return 1
    print(f"docs OK: {checked} markdown files, all relative links and anchors "
          "resolve and every named module, file and constant exists")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
