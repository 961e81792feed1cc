#!/usr/bin/env python3
"""Config-field census, run by the docs CI job.

Lists the fields of every *Config / *Params / *Options struct declared in
src/*/*.h and prints the totals. A field counts as set when some C++ file in
src/, bench/, examples/, perfbench/ or tests/ other than its own header
writes it: `.f =`, `->f =`, `.f{`, a designated initializer, `&Struct::f`,
or a write through it (`.f.x =`, or `.f.*p =` through a pointer to member).
Matching is by name, so a field that shares its name with a written one
reads as set: the census undercounts.

A field no caller sets is a constant, and belongs beside the code that
reads it (ROADMAP aim 3). With --check, exit 1 when a never-set field is
not in ALLOWLIST, or when an ALLOWLIST entry names a field that is gone or
now set.

Usage: python3 scripts/check_config.py [--check]
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCAN_DIRS = ("src", "bench", "examples", "perfbench", "tests")
CXX_SUFFIXES = (".h", ".hpp", ".cc", ".cpp")

# Never-set fields kept on purpose, "Struct::field" -> reason.
FUZZ_SURFACE = ("per-AS configuration BGPFuzz is to fuzz "
                "(ROADMAP item 1)")
ALLOWLIST = {
    "SpeakerConfig::damping_penalty_per_update": FUZZ_SURFACE,
    "SpeakerConfig::damping_suppress_threshold": FUZZ_SURFACE,
    "SpeakerConfig::damping_reuse_threshold": FUZZ_SURFACE,
    "SpeakerConfig::damping_half_life_seconds": FUZZ_SURFACE,
    "SpeakerConfig::mrai_seconds": FUZZ_SURFACE,
    "ScenarioOptions::max_events_per_origin": FUZZ_SURFACE,
}

STRUCT_RE = re.compile(
    r"\bstruct\s+(\w+(?:Config|Params|Options))\s*(?:final\s*)?\{")
ACCESS_RE = re.compile(r"^(?:public|private|protected)\s*:\s*")
IDENT_RE = re.compile(r"([A-Za-z_]\w*)\s*(?:\[[^\]]*\]\s*)?$")


def in_number(text: str, i: int) -> bool:
    """True when the ' at i is a digit separator (1'000, 0x2914'0001): the
    token it ends starts with a digit. A char literal's prefix (u8'a', L'a')
    starts with a letter."""
    j = i
    while j > 0 and (text[j - 1].isalnum() or text[j - 1] in "_.'"):
        j -= 1
    return j < i and text[j].isdigit()


def strip_comments(text: str) -> str:
    """Blank out comments and string/char literals, keeping line breaks."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        elif c == '"' or (c == "'" and not in_number(text, i)):
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            out.append(c + c + "\n" * text.count("\n", i, j))
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def matching_brace(text: str, open_at: int) -> int:
    """Index of the '}' closing the '{' at open_at."""
    depth = 0
    for i in range(open_at, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    raise ValueError("unbalanced braces")


def field_name(stmt: str):
    """The declared name if `stmt` declares a data member, else None."""
    stmt = ACCESS_RE.sub("", " ".join(stmt.split()))
    if not stmt or stmt.split()[0] in (
            "static", "using", "friend", "typedef", "template", "struct",
            "class", "enum", "union"):
        return None
    decl = re.split(r"=|\{", stmt, maxsplit=1)[0]
    if "(" in decl:  # a member function
        return None
    decl = decl.split(":", 1)[0] if re.search(r"[^:]:[^:]", decl) else decl
    match = IDENT_RE.search(decl.strip())
    return match.group(1) if match else None


def struct_fields(body: str) -> list:
    """Data members declared directly in a struct body (nested types and
    member functions skipped)."""
    fields = []
    stmt_start, i = 0, 0
    while i < len(body):
        c = body[i]
        if c == "{":
            close = matching_brace(body, i)
            head = ACCESS_RE.sub("", body[stmt_start:i].strip())
            if "(" in re.split(r"=", head, maxsplit=1)[0] or re.match(
                    r"(struct|class|enum|union)\b", head):
                # Member function body or nested type: skip it whole.
                i = close + 1
                if not re.match(r"(struct|class|enum|union)\b", head):
                    stmt_start = i
                continue
            i = close + 1  # brace initializer: part of the statement
            continue
        if c == ";":
            name = field_name(body[stmt_start:i])
            if name:
                fields.append(name)
            stmt_start = i + 1
        i += 1
    return fields


def census():
    """[(struct, field, header)] for every config struct in src/*/*.h."""
    out = []
    for header in sorted((REPO / "src").glob("*/*.h")):
        text = strip_comments(header.read_text(encoding="utf-8"))
        for match in STRUCT_RE.finditer(text):
            open_at = match.end() - 1
            body = text[open_at + 1:matching_brace(text, open_at)]
            for name in struct_fields(body):
                out.append((match.group(1), name, header))
    return out


def sources():
    for top in SCAN_DIRS:
        for path in sorted((REPO / top).rglob("*")):
            if path.suffix in CXX_SUFFIXES and path.is_file():
                yield path, strip_comments(path.read_text(encoding="utf-8"))


def is_set(struct: str, field: str, header: Path, files) -> bool:
    f = re.escape(field)
    write = re.compile(
        # .f =, ->f =, .f.x =, .f.*p =, .f = in {}
        rf"(?:\.|->){f}(?:\.\w+)*(?:\.\*\w+)?\s*=(?!=)"
        rf"|\.{f}\s*\{{"                     # .f{
        rf"|&(?:\w+::)*{re.escape(struct)}::{f}\b")  # &Struct::f
    return any(path != header and write.search(text) for path, text in files)


def main(argv) -> int:
    check = "--check" in argv
    fields = census()
    files = list(sources())
    structs = sorted({s for s, _, _ in fields})
    never = [(s, f, h) for s, f, h in fields if not is_set(s, f, h, files)]
    never_keys = {f"{s}::{f}" for s, f, _ in never}
    all_keys = {f"{s}::{f}" for s, f, _ in fields}

    problems = []
    for s, f, h in never:
        key = f"{s}::{f}"
        if key not in ALLOWLIST:
            print(f"{h.relative_to(REPO)}: {key}: never set")
            problems.append(f"{key} is never set: make it a named constant "
                            f"beside the code that reads it")
    for key in sorted(ALLOWLIST):
        if key not in all_keys:
            problems.append(f"allowlist entry {key}: no such field")
        elif key not in never_keys:
            problems.append(f"allowlist entry {key}: now set by a caller")

    allowed = sum(1 for s, f, _ in never if f"{s}::{f}" in ALLOWLIST)
    print(f"config census: {len(fields)} fields in {len(structs)} structs, "
          f"{len(fields) - len(never)} set, {len(never)} never set "
          f"({allowed} allowlisted)")
    if check:
        for p in problems:
            print(f"check_config: {p}")
        return 1 if problems else 0
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
