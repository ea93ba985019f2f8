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
4. **Config knobs** — every backticked knob in the first column of
   README's `ServerConfig` / `ModelConfig` / `RouterConfig` tables names
   data members declared under `src/serving/` (each dotted component), and
   every top-level member of `ServerConfig` and `ModelConfig` has a row,
   so a deleted knob cannot linger and a new one cannot go undocumented.

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
GATE_CELL_RE = re.compile(r"^`(WILLUMP_\w+)`$")
GETENV_RE = re.compile(r'getenv\(\s*"(WILLUMP_\w+)"\s*\)')
SOURCE_SUFFIXES = {".cpp", ".hpp", ".h", ".cc"}


def table_first_column(heading: str) -> list[str] | None:
    """First-column cells of the README table that follows the first line
    containing `heading`; None when no such line exists."""
    rows: list[str] = []
    in_section = False
    for line in (REPO / "README.md").read_text(encoding="utf-8").splitlines():
        if not in_section:
            in_section = heading in line
            continue
        if line.startswith("|"):
            cell = line.split("|")[1].strip()
            if cell != "knob" and not set(cell) <= set("-: "):
                rows.append(cell)
        elif rows:
            break  # the table ended
    return rows if in_section else None


def gate_rows() -> list[str]:
    """Variables in the first column of README's environment-gate table."""
    rows = table_first_column(GATES_HEADING) or []
    return [m.group(1) for cell in rows if (m := GATE_CELL_RE.match(cell))]


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


KNOB_TABLES = ("serving::ServerConfig", "serving::ModelConfig",
               "serving::RouterConfig")
# Structs whose every top-level member must have a README row.
COVERED_STRUCTS = ("ServerConfig", "ModelConfig")
# A data-member declaration: a type, a name, an optional default, a `;`.
# Function declarations (a `(` after the name) never match.
MEMBER_RE = re.compile(
    r"^\s*(?!return\b|using\b|typedef\b)[\w:<>,\s*&]+?[\s*&>](\w+)"
    r"\s*(?:=[^;]*|\{[^;]*\})?;"
)


def declared_members(text: str) -> set[str]:
    return {m.group(1) for line in text.splitlines() if (m := MEMBER_RE.match(line))}


def struct_body(text: str, name: str) -> str | None:
    """Text of `struct <name> { ... };` with nested braces kept, or None."""
    m = re.search(r"\bstruct\s+" + name + r"\s*\{", text)
    if not m:
        return None
    depth, i = 1, m.end()
    while depth and i < len(text):
        depth += {"{": 1, "}": -1}.get(text[i], 0)
        i += 1
    return text[m.end():i - 1]


def top_level(body: str) -> str:
    """`body` with nested brace blocks (inline member functions) removed."""
    out, depth = [], 0
    for ch in body:
        if ch == "}":
            depth -= 1
        if depth == 0:
            out.append(ch)
        if ch == "{":
            depth += 1
    return "".join(out)


def cell_knobs(cell: str) -> list[str]:
    """Knobs of one first-column cell. A bare name after a dotted one is
    shorthand for a sibling: `aimd.min_batch` / `max_batch` names
    aimd.max_batch."""
    spans = CODE_SPAN_RE.findall(cell)
    prefix = spans[0].rpartition(".")[0] if spans else ""
    return [s if "." in s or not prefix else f"{prefix}.{s}" for s in spans]


def check_config_knobs() -> list[str]:
    sources = {p: p.read_text(encoding="utf-8")
               for p in sorted((REPO / "src" / "serving").glob("*.hpp"))}
    members = set().union(*(declared_members(t) for t in sources.values()))
    errors: list[str] = []
    tables: dict[str, list[str]] = {}
    for heading in KNOB_TABLES:
        rows = table_first_column(f"`{heading}`")
        if not rows:
            errors.append(f"README.md: no `{heading}` knob table found")
            continue
        tables[heading] = [k for cell in rows for k in cell_knobs(cell)]
        for knob in tables[heading]:
            missing = [c for c in knob.split(".") if c not in members]
            if missing:
                errors.append(
                    f"README.md: `{heading}` knob `{knob}` names no data member "
                    f"declared under src/serving/ ({', '.join(missing)})")
    for struct in COVERED_STRUCTS:
        heading = f"serving::{struct}"
        if heading not in tables:
            continue
        body = next((b for t in sources.values()
                     if (b := struct_body(t, struct)) is not None), None)
        if body is None:
            errors.append(f"src/serving/: struct {struct} not found")
            continue
        documented = {k.split(".")[0] for k in tables[heading]}
        errors.extend(
            f"src/serving/: {struct}::{member} has no row in README's "
            f"`{heading}` knob table"
            for member in sorted(declared_members(top_level(body)) - documented))
    return errors


def main() -> int:
    all_errors: list[str] = []
    files = md_files()
    for f in files:
        all_errors.extend(check_file(f))
    all_errors.extend(check_env_gates())
    all_errors.extend(check_config_knobs())
    if all_errors:
        print(f"docs lint: {len(all_errors)} problem(s) in {len(files)} files")
        for e in all_errors:
            print(f"  {e}")
        return 1
    print(f"docs lint: {len(files)} markdown files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
