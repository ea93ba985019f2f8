#!/usr/bin/env python3
"""Markdown lint for this repo's docs: dead relative links and stale file
references.

Checks every tracked *.md file for:

1. **Dead relative links** — `[text](path)` targets that are neither
   absolute URLs nor anchors must exist on disk (relative to the file).
2. **Stale file references** — inline-code mentions of repo paths
   (`src/...`, `tests/...`, `bench/...`, `examples/...`, `tools/...`,
   `ci.sh`, `CMakeLists.txt`, `*.md`) must name files or directories that
   actually exist, so README/DESIGN/ROADMAP cannot drift from the tree.
3. **Environment gates** — every `getenv("WILLUMP_...")` under `src/` has
   a row in README's "Process-wide environment gates" table, and every row
   of that table names a variable some file under `src/`, `tests/` or
   `bench/` reads, so a deleted gate cannot linger in the docs.

Exits non-zero listing every violation; CI (and the `docs` ctest entry)
fails the build on breakage. Stdlib only — no pip dependencies.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Markdown files under version control (skip build trees and externals).
SKIP_DIRS = {"build", "build-tsan", "build-asan", ".git", ".claude"}
# Externally supplied context (task text, scraped paper/related-work dumps):
# not maintained by this repo's doc passes, so not linted.
SKIP_FILES = {"ISSUE.md", "PAPER.md", "PAPERS.md", "SNIPPETS.md"}

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_SPAN_RE = re.compile(r"`([^`]+)`")
# A repo path inside a code span: starts with a known top-level dir or is a
# known top-level file. Trailing punctuation and glob-ish tails excluded.
PATH_RE = re.compile(
    r"^(?:src|tests|bench|examples|tools|\.github)/[\w./\-]+$|"
    r"^(?:ci\.sh|CMakeLists\.txt|[A-Z][A-Z_]+\.md|DESIGN\.md|README\.md)$"
)
# Pseudo-paths documentation legitimately uses: placeholders, build outputs,
# artifact names, and expansion patterns that are not tracked files.
IGNORE_SUBSTRINGS = (
    "*",
    "<",
    "...",
    ".wlmp",
    "fixture-cache",
    "$",
)


def md_files() -> list[Path]:
    out = []
    for p in sorted(REPO.rglob("*.md")):
        if any(part in SKIP_DIRS for part in p.relative_to(REPO).parts):
            continue
        if p.name in SKIP_FILES:
            continue
        out.append(p)
    return out


def check_file(path: Path) -> list[str]:
    errors: list[str] = []
    text = path.read_text(encoding="utf-8")
    rel = path.relative_to(REPO)

    # Strip fenced code blocks: their contents are example code, not claims
    # about the tree (inline `code spans` ARE checked — that is where docs
    # reference real files).
    stripped_lines = []
    in_fence = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence:
            stripped_lines.append(line)
    prose = "\n".join(stripped_lines)

    for m in LINK_RE.finditer(prose):
        target = m.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        target_path = (path.parent / target.split("#")[0]).resolve()
        if not target_path.exists():
            errors.append(f"{rel}: dead relative link -> {target}")

    for m in CODE_SPAN_RE.finditer(prose):
        span = m.group(1).strip().rstrip(".,;:")
        if any(s in span for s in IGNORE_SUBSTRINGS):
            continue
        # `a.{hpp,cpp}` shorthand expands to both members.
        candidates = []
        brace = re.match(r"^(.*)\{([\w,]+)\}(.*)$", span)
        if brace:
            for alt in brace.group(2).split(","):
                candidates.append(brace.group(1) + alt + brace.group(3))
        else:
            candidates.append(span)
        for cand in candidates:
            if not PATH_RE.match(cand):
                continue
            if not (REPO / cand).exists():
                errors.append(f"{rel}: stale file reference -> {cand}")
    return errors


GATES_HEADING = "Process-wide environment gates"
GATE_ROW_RE = re.compile(r"^\|\s*`(WILLUMP_\w+)`\s*\|")
GETENV_RE = re.compile(r'getenv\(\s*"(WILLUMP_\w+)"\s*\)')
SOURCE_SUFFIXES = {".cpp", ".hpp", ".h", ".cc"}


def gate_rows() -> list[str]:
    """Variables in the first column of README's environment-gate table."""
    rows: list[str] = []
    in_section = False
    for line in (REPO / "README.md").read_text(encoding="utf-8").splitlines():
        if GATES_HEADING in line:
            in_section = True
            continue
        if not in_section:
            continue
        m = GATE_ROW_RE.match(line)
        if m:
            rows.append(m.group(1))
        elif rows and not line.startswith("|"):
            break  # the table ended
    return rows


def env_reads(dirs: tuple[str, ...]) -> dict[str, str]:
    """WILLUMP_* variables read via getenv under `dirs`, each mapped to the
    first file that reads it."""
    reads: dict[str, str] = {}
    for d in dirs:
        for p in sorted((REPO / d).rglob("*")):
            if p.suffix not in SOURCE_SUFFIXES or not p.is_file():
                continue
            for var in GETENV_RE.findall(p.read_text(encoding="utf-8")):
                reads.setdefault(var, str(p.relative_to(REPO)))
    return reads


def check_env_gates() -> list[str]:
    rows = gate_rows()
    if not rows:
        return [f"README.md: no '{GATES_HEADING}' table found"]
    errors = [
        f"{path}: getenv(\"{var}\") has no row in README's environment-gate table"
        for var, path in sorted(env_reads(("src",)).items())
        if var not in rows
    ]
    read_anywhere = env_reads(("src", "tests", "bench"))
    errors.extend(
        f"README.md: environment-gate row {var} is read by no file under "
        "src/, tests/ or bench/"
        for var in rows
        if var not in read_anywhere
    )
    return errors


def main() -> int:
    all_errors: list[str] = []
    files = md_files()
    for f in files:
        all_errors.extend(check_file(f))
    all_errors.extend(check_env_gates())
    if all_errors:
        print(f"docs lint: {len(all_errors)} problem(s) in {len(files)} files")
        for e in all_errors:
            print(f"  {e}")
        return 1
    print(f"docs lint: {len(files)} markdown files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
