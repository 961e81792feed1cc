#!/usr/bin/env python3
"""Documentation consistency checks, run by the docs CI job.

1. Every relative markdown link in README.md, DESIGN.md, EXPERIMENTS.md,
   PAPER.md, ROADMAP.md, and docs/*.md must resolve to an existing file
   (external http(s)/mailto links and pure #anchors are skipped).
2. Every src/<subsystem>/ directory must appear in the module map of
   docs/ARCHITECTURE.md, so the architecture doc cannot silently rot as
   subsystems are added.
3. Every LG_* environment knob read by src/, bench/, or tests/ code (an
   exact "LG_..." string literal — the getenv / *_from_env call-site
   idiom) must have a row in docs/OPERATORS.md's knob table, and every
   documented knob must still exist in the code, so the operator doc can
   neither lag nor accumulate stale rows. Each row's "Read by" cell must
   name readers that exist: a backticked `a::b` name must be declared in
   src/ as a function, class or struct (matched by its last component),
   and any other backticked name must be a bench (bench/<name>.cc), a test
   (tests/<name>.cc) or a class or struct defined in src/ or bench/.
4. Every backticked repo path in README.md, DESIGN.md, EXPERIMENTS.md and
   docs/*.md must name an existing file or directory: `src/...`,
   `bench/...`, `tests/...`, `scripts/...` and `examples/...` paths, and
   `<module>/<file>.h` or `.cc` for a src/ module. A brace form such as
   `fleet/service_plane.{h,cc}` names each file it expands to, a
   `:<line>` suffix is dropped, and a path without an extension may name
   the program built from `<path>.cc` or `<path>.cpp`. ROADMAP.md is
   exempt: it names files still to be written.

Exit status 0 = clean, 1 = problems (each printed on its own line).
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "PAPER.md",
             "ROADMAP.md"]
ARCHITECTURE = REPO / "docs" / "ARCHITECTURE.md"

# [text](target) — excluding images' leading ! is unnecessary: image targets
# must exist too. Nested brackets in link text are out of scope.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def check_links(path: Path) -> list:
    problems = []
    text = path.read_text(encoding="utf-8")
    in_code = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_code = not in_code
            continue
        if in_code:
            continue
        for match in LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target = target.split("#", 1)[0]  # strip in-file anchors
            if not target:
                continue
            resolved = (path.parent / target).resolve()
            if not resolved.exists():
                problems.append(
                    f"{path.relative_to(REPO)}:{lineno}: broken link -> "
                    f"{match.group(1)}")
    return problems


def check_module_map() -> list:
    if not ARCHITECTURE.exists():
        return ["docs/ARCHITECTURE.md is missing"]
    text = ARCHITECTURE.read_text(encoding="utf-8")
    problems = []
    for sub in sorted(p.name for p in (REPO / "src").iterdir() if p.is_dir()):
        if f"`src/{sub}/`" not in text:
            problems.append(
                f"docs/ARCHITECTURE.md: module map has no `src/{sub}/` entry")
    return problems


OPERATORS = REPO / "docs" / "OPERATORS.md"
# Exact quoted knob names only: prose like "replay with LG_CHECK_SEED=..."
# inside longer literals is not a read site.
KNOB_READ_RE = re.compile(r'"(LG_[A-Z0-9_]+)"')
# First two table columns, the knob and "Read by": | `LG_FOO` | ... | ...
KNOB_ROW_RE = re.compile(r"^\|\s*`(LG_[A-Z0-9_]+)`\s*\|([^|\n]*)\|",
                         re.MULTILINE)


def sources(top: str) -> list:
    """(path, text) of every .cc and .h file under top/."""
    return [(path, path.read_text(encoding="utf-8"))
            for path in sorted((REPO / top).rglob("*"))
            if path.suffix in (".cc", ".h")]


def defines_class(name: str, text: str) -> bool:
    # A definition, not a forward declaration: the body's brace follows.
    return re.search(rf"\b(?:class|struct)\s+{re.escape(name)}\b[^;{{]*\{{",
                     text) is not None


def declares_function(name: str, text: str) -> bool:
    # A line that opens with a return type (and any qualifiers) and then
    # names the function: `static ServiceConfig from_env();`.
    return re.search(rf"^[ \t]*(?!return\b)(?:[\w:<>,]+[ \t*&]+)+"
                     rf"{re.escape(name)}[ \t]*\(", text,
                     re.MULTILINE) is not None


def check_readers(rows: list, src: str, src_and_bench: str) -> list:
    problems = []
    for knob, cell in rows:
        for name in CODE_SPAN_RE.findall(cell):
            if "::" in name:
                last = name.rsplit("::", 1)[1]
                if defines_class(last, src) or declares_function(last, src):
                    continue
                what = "a function, class or struct declared in src/"
            else:
                if ((REPO / "bench" / f"{name}.cc").exists() or
                        (REPO / "tests" / f"{name}.cc").exists() or
                        defines_class(name, src_and_bench)):
                    continue
                what = "a bench, a test, or a class in src/ or bench/"
            problems.append(
                f"docs/OPERATORS.md: `{knob}` row's reader `{name}` is not "
                f"{what}")
    return problems


def check_knob_table() -> list:
    if not OPERATORS.exists():
        return ["docs/OPERATORS.md is missing"]
    rows = KNOB_ROW_RE.findall(OPERATORS.read_text(encoding="utf-8"))
    documented = {knob for knob, _ in rows}
    code = {top: sources(top) for top in ("src", "bench", "tests")}
    read_sites = {}
    for files in code.values():
        for path, text in files:
            for knob in KNOB_READ_RE.findall(text):
                read_sites.setdefault(knob, path.relative_to(REPO))
    problems = []
    for knob in sorted(set(read_sites) - documented):
        problems.append(
            f"docs/OPERATORS.md: knob table has no `{knob}` row "
            f"(read in {read_sites[knob]})")
    for knob in sorted(documented - set(read_sites)):
        problems.append(
            f"docs/OPERATORS.md: stale knob row `{knob}` "
            f"(no read site in src/, bench/, or tests/)")
    src = "\n".join(text for _, text in code["src"])
    bench = "\n".join(text for _, text in code["bench"])
    return problems + check_readers(rows, src, src + "\n" + bench)


PATH_DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
TOP_DIRS = ("src/", "bench/", "tests/", "scripts/", "examples/")
BRACES_RE = re.compile(r"\{([^{}]*)\}")


def expand_braces(token: str) -> list:
    match = BRACES_RE.search(token)
    if not match:
        return [token]
    out = []
    for alt in match.group(1).split(","):
        out += expand_braces(token[:match.start()] + alt +
                             token[match.end():])
    return out


def repo_path(token: str, modules: set):
    """The repo-relative path a code-span token names, or None."""
    token = re.sub(r":\d+$", "", token)
    if any(c in token for c in "<>*$"):
        return None
    if token.startswith(TOP_DIRS):
        return token
    module, _, rest = token.partition("/")
    if module in modules and re.fullmatch(r"[\w./]+\.(h|cc)", rest):
        return f"src/{token}"
    return None


def check_paths(path: Path, modules: set) -> list:
    problems = []
    text = path.read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        for span in CODE_SPAN_RE.findall(line):
            for word in span.split():
                for token in expand_braces(word):
                    rel = repo_path(token, modules)
                    if rel is None:
                        continue
                    target = REPO / rel
                    if target.exists() or (
                            not target.suffix and
                            any(target.with_suffix(ext).exists()
                                for ext in (".cc", ".cpp"))):
                        continue
                    problems.append(
                        f"{path.relative_to(REPO)}:{lineno}: no such file "
                        f"-> {token}")
    return problems


def main() -> int:
    problems = []
    targets = [REPO / name for name in DOC_FILES]
    targets += sorted((REPO / "docs").glob("*.md"))
    for path in targets:
        if path.exists():
            problems.extend(check_links(path))
        else:
            problems.append(f"expected documentation file missing: "
                            f"{path.relative_to(REPO)}")
    problems.extend(check_module_map())
    problems.extend(check_knob_table())
    modules = {p.name for p in (REPO / "src").iterdir() if p.is_dir()}
    path_docs = [REPO / name for name in PATH_DOCS]
    path_docs += sorted((REPO / "docs").glob("*.md"))
    for path in path_docs:
        if path.exists():
            problems.extend(check_paths(path, modules))

    for p in problems:
        print(p)
    if not problems:
        print(f"docs OK: {len(targets)} files link-checked, "
              f"module map covers all of src/, knob table covers every "
              f"LG_* read site with readers that exist, every backticked "
              f"repo path exists")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
