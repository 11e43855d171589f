#!/usr/bin/env python3
"""ecrs-lint: repo-specific C++ rules clang-tidy cannot express.

Registered as the `ecrs_lint` ctest (tests/CMakeLists.txt) and run by
tools/verify.sh in the lint stage. Rules (docs/ANALYSIS.md has the rationale):

  naked-throw      `throw` outside src/common/check.h. Invariant violations
                   must go through ECRS_CHECK / ECRS_CHECK_MSG so they carry
                   file:line context and raise ecrs::check_error uniformly.
  std-rand         std::rand / srand. All randomness flows through
                   ecrs::rng (common/rng.h) so experiments replay from a
                   single 64-bit seed.
  iostream-include #include <iostream> in src/ library code. The library
                   never writes to std streams behind the caller's back;
                   tools/, tests/, bench/, examples/ may.
  header-banner    every src/ header opens with a `//` comment banner
                   followed by #pragma once.
  nodiscard        value-returning public functions declared in
                   src/auction/*.h must be [[nodiscard]]: auction results
                   encode money and feasibility, silently dropping them is
                   always a bug.
  coverage-hot-loop src/auction/ssam.cc must not touch bid::coverage (the
                   per-bid heap-allocated vector). Every mechanism hot loop
                   goes through the compiled CSR view (auction/compiled.h);
                   bid::coverage_size() and coverage_state (which walk it
                   outside ssam.cc) remain fine.
  whitespace       no trailing whitespace, no tab indentation, file ends
                   with exactly one newline. (Also the clang-format
                   fallback baseline for toolchains without clang-format.)

The transitive `hot-alloc` rule over ECRS_HOT functions and the
`des-std-function` file rule live in tools/ecrs_analyze, which is
call-graph aware and so sees violations no per-line regex can.

Suppress a finding with `// ecrs-lint: allow(<rule>)` on the same line or
the line above.

Usage: ecrs_lint.py [--root REPO_ROOT] [--rules r1,r2,...]
Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

LIBRARY_DIR = "src"
# Directories whose files get the whitespace rule only in addition to src/.
EXTRA_WHITESPACE_DIRS = ("tests", "tools", "bench", "examples")
CXX_SUFFIXES = {".h", ".cc", ".cpp", ".hpp"}

ALLOW_RE = re.compile(r"ecrs-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

# Function-declaration head: optional specifiers, a return type, a
# snake_case name, an opening paren — at class-member or namespace-scope
# indentation (continuation lines indent deeper and are skipped).
DECL_RE = re.compile(
    r"^\s{0,4}"
    r"(?:(?:virtual|static|constexpr|inline|friend|explicit)\s+)*"
    r"(?P<type>[A-Za-z_][\w:]*(?:<[^;(){}]*>)?(?:\s*const)?(?:\s*[&*])*)"
    r"\s+(?P<name>[a-z_]\w*)\s*\("
)

DECL_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "case", "else",
    "using", "typedef", "namespace", "template", "static_assert", "delete",
    "new", "throw", "operator", "catch", "co_return", "co_await", "define",
}


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving line structure
    so reported line numbers stay valid. ecrs-lint: allow() markers are
    honoured before stripping (see lint_file)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        elif ch in "\"'":
            quote = ch
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                if i < n and text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def allowed_rules(raw_lines: list[str], index: int) -> set[str]:
    """Rules suppressed for raw_lines[index] (same line or the line above)."""
    allowed: set[str] = set()
    for look in (index, index - 1):
        if 0 <= look < len(raw_lines):
            match = ALLOW_RE.search(raw_lines[look])
            if match:
                allowed.update(r.strip() for r in match.group(1).split(","))
    return allowed


def check_whitespace(path: Path, raw: str, findings: list[Finding]) -> None:
    lines = raw.split("\n")
    for num, line in enumerate(lines, start=1):
        if line != line.rstrip():
            findings.append(Finding(path, num, "whitespace",
                                    "trailing whitespace"))
        indent = line[: len(line) - len(line.lstrip())]
        if "\t" in indent:
            findings.append(Finding(path, num, "whitespace",
                                    "tab indentation (use spaces)"))
    if raw and not raw.endswith("\n"):
        findings.append(Finding(path, len(lines), "whitespace",
                                "missing final newline"))
    elif raw.endswith("\n\n"):
        findings.append(Finding(path, len(lines), "whitespace",
                                "multiple trailing newlines"))


def check_header_banner(path: Path, raw_lines: list[str],
                        findings: list[Finding]) -> None:
    num = 0
    saw_banner = False
    for num, line in enumerate(raw_lines, start=1):
        stripped = line.strip()
        if stripped.startswith("//"):
            saw_banner = True
            continue
        if stripped == "#pragma once":
            if not saw_banner:
                findings.append(Finding(
                    path, num, "header-banner",
                    "#pragma once must be preceded by a // comment banner "
                    "describing the header"))
            return
        if stripped:
            break
    findings.append(Finding(
        path, max(num, 1), "header-banner",
        "header must start with a // comment banner followed by "
        "#pragma once"))


def check_nodiscard(path: Path, raw_lines: list[str],
                    stripped_lines: list[str],
                    findings: list[Finding]) -> None:
    for idx, line in enumerate(stripped_lines):
        match = DECL_RE.match(line)
        if not match:
            continue
        ret, name = match.group("type"), match.group("name")
        if ret in ("void", "explicit", "virtual", "static", "constexpr",
                   "inline", "friend"):
            continue  # void return, or a constructor's specifier
        if name in DECL_KEYWORDS or ret in DECL_KEYWORDS:
            continue
        if "operator" in line or "= delete" in line or "#" in line:
            continue
        context = " ".join(stripped_lines[max(0, idx - 1): idx + 1])
        if "[[nodiscard]]" in context:
            continue
        if "nodiscard" in allowed_rules(raw_lines, idx):
            continue
        findings.append(Finding(
            path, idx + 1, "nodiscard",
            f"public function '{name}' returns {ret} but is not "
            "[[nodiscard]] (auction results carry money/feasibility; add "
            "the attribute or '// ecrs-lint: allow(nodiscard)' for "
            "side-effecting mutators)"))


def lint_file(path: Path, rel: Path, findings: list[Finding]) -> None:
    raw = path.read_text(encoding="utf-8")
    raw_lines = raw.split("\n")

    check_whitespace(path, raw, findings)

    in_library = rel.parts and rel.parts[0] == LIBRARY_DIR
    if not in_library:
        return

    stripped_lines = strip_comments_and_strings(raw).split("\n")
    is_check_header = rel.as_posix() == "src/common/check.h"

    for idx, line in enumerate(stripped_lines):
        allowed = None  # computed lazily; most lines are clean

        def allow(rule: str) -> bool:
            nonlocal allowed
            if allowed is None:
                allowed = allowed_rules(raw_lines, idx)
            return rule in allowed

        if not is_check_header and re.search(r"\bthrow\b", line):
            if not allow("naked-throw"):
                findings.append(Finding(
                    path, idx + 1, "naked-throw",
                    "use ECRS_CHECK / ECRS_CHECK_MSG (common/check.h) "
                    "instead of a naked throw"))
        if re.search(r"\bstd::rand\b|(?<![\w:])s?rand\s*\(", line):
            if not allow("std-rand"):
                findings.append(Finding(
                    path, idx + 1, "std-rand",
                    "use ecrs::rng (common/rng.h): experiments must replay "
                    "from a single seed"))
        if re.search(r'#\s*include\s*<iostream>', line):
            if not allow("iostream-include"):
                findings.append(Finding(
                    path, idx + 1, "iostream-include",
                    "library code must not include <iostream>; return data "
                    "and let tools/ print it"))
        if (rel.as_posix() == "src/auction/ssam.cc"
                and re.search(r"(\.|->)coverage\b", line)):
            if not allow("coverage-hot-loop"):
                findings.append(Finding(
                    path, idx + 1, "coverage-hot-loop",
                    "ssam.cc hot loops must use the compiled CSR view "
                    "(auction/compiled.h), not bid::coverage "
                    "(coverage_size() is fine)"))

    if path.suffix == ".h":
        check_header_banner(path, raw_lines, findings)
        if rel.parts[:2] == (LIBRARY_DIR, "auction"):
            check_nodiscard(path, raw_lines, stripped_lines, findings)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--rules", default="",
                        help="comma-separated subset of rules to report")
    args = parser.parse_args()

    root = Path(args.root).resolve()
    if not (root / LIBRARY_DIR).is_dir():
        print(f"ecrs-lint: {root} has no {LIBRARY_DIR}/ directory",
              file=sys.stderr)
        return 2

    findings: list[Finding] = []
    scan_dirs = (LIBRARY_DIR,) + EXTRA_WHITESPACE_DIRS
    files = 0
    for top in scan_dirs:
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in CXX_SUFFIXES or not path.is_file():
                continue
            files += 1
            lint_file(path, path.relative_to(root), findings)

    if args.rules:
        wanted = {r.strip() for r in args.rules.split(",")}
        findings = [f for f in findings if f.rule in wanted]

    for finding in findings:
        print(finding)
    status = "clean" if not findings else f"{len(findings)} finding(s)"
    print(f"ecrs-lint: {files} files scanned, {status}")
    return 0 if not findings else 1


if __name__ == "__main__":
    sys.exit(main())
