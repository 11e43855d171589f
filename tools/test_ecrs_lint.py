#!/usr/bin/env python3
"""Unit tests for every tools/ecrs_lint.py regex rule.

Each test builds a minimal file tree in a temp dir, runs lint_file on one
file, and asserts on the (rule, line) pairs produced — both that the rule
fires on the bad input and that it stays quiet on the good/suppressed
variant. Registered as the `ecrs_lint_selftest` ctest.
"""

from __future__ import annotations

import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import ecrs_lint  # noqa: E402


def run_lint(rel: str, content: str) -> list[tuple[str, int]]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")
        findings: list[ecrs_lint.Finding] = []
        ecrs_lint.lint_file(path, Path(rel), findings)
        return [(f.rule, f.line) for f in findings]


BANNER = "// Test header.\n#pragma once\n"


class NakedThrowTest(unittest.TestCase):
    def test_fires(self):
        out = run_lint("src/auction/x.cc",
                       'void f() { throw 1; }\n')
        self.assertIn(("naked-throw", 1), out)

    def test_check_header_exempt(self):
        out = run_lint("src/common/check.h",
                       BANNER + 'inline void f() { throw 1; }\n')
        self.assertNotIn("naked-throw", [r for r, _ in out])

    def test_allow_comment(self):
        out = run_lint("src/auction/x.cc",
                       '// ecrs-lint: allow(naked-throw)\n'
                       'void f() { throw 1; }\n')
        self.assertNotIn("naked-throw", [r for r, _ in out])

    def test_comment_is_stripped(self):
        out = run_lint("src/auction/x.cc",
                       'void f() {}  // may throw\n')
        self.assertNotIn("naked-throw", [r for r, _ in out])


class StdRandTest(unittest.TestCase):
    def test_fires(self):
        out = run_lint("src/workload/x.cc",
                       'int f() { return std::rand(); }\n')
        self.assertIn(("std-rand", 1), out)

    def test_bare_rand(self):
        out = run_lint("src/workload/x.cc",
                       'int f() { return rand(); }\n')
        self.assertIn(("std-rand", 1), out)

    def test_random_word_ok(self):
        out = run_lint("src/workload/x.cc",
                       'int strand(int x);\n'
                       'int f() { return strand(2); }\n')
        self.assertNotIn("std-rand", [r for r, _ in out])


class IostreamIncludeTest(unittest.TestCase):
    def test_fires(self):
        out = run_lint("src/harness/x.cc", '#include <iostream>\n')
        self.assertIn(("iostream-include", 1), out)

    def test_other_include_ok(self):
        out = run_lint("src/harness/x.cc", '#include <ostream>\n')
        self.assertNotIn("iostream-include", [r for r, _ in out])

    def test_outside_src_ok(self):
        out = run_lint("tools/x.cc", '#include <iostream>\n')
        self.assertNotIn("iostream-include", [r for r, _ in out])


class HeaderBannerTest(unittest.TestCase):
    def test_missing_banner(self):
        out = run_lint("src/des/x.h", '#pragma once\n')
        self.assertIn("header-banner", [r for r, _ in out])

    def test_banner_ok(self):
        out = run_lint("src/des/x.h", BANNER)
        self.assertNotIn("header-banner", [r for r, _ in out])

    def test_cc_exempt(self):
        out = run_lint("src/des/x.cc", 'int x = 0;\n')
        self.assertNotIn("header-banner", [r for r, _ in out])


class NodiscardTest(unittest.TestCase):
    def test_fires(self):
        out = run_lint("src/auction/x.h",
                       BANNER + 'double payment(int w);\n')
        self.assertIn(("nodiscard", 3), out)

    def test_attribute_ok(self):
        out = run_lint("src/auction/x.h",
                       BANNER + '[[nodiscard]] double payment(int w);\n')
        self.assertNotIn("nodiscard", [r for r, _ in out])

    def test_void_ok(self):
        out = run_lint("src/auction/x.h",
                       BANNER + 'void reset(int w);\n')
        self.assertNotIn("nodiscard", [r for r, _ in out])

    def test_allow_comment(self):
        out = run_lint("src/auction/x.h",
                       BANNER + '// ecrs-lint: allow(nodiscard)\n'
                                'double apply(int w);\n')
        self.assertNotIn("nodiscard", [r for r, _ in out])

    def test_non_auction_header_exempt(self):
        out = run_lint("src/des/x.h",
                       BANNER + 'double payment(int w);\n')
        self.assertNotIn("nodiscard", [r for r, _ in out])


class CoverageHotLoopTest(unittest.TestCase):
    def test_fires(self):
        out = run_lint("src/auction/ssam.cc",
                       'int f(const bid& b) { return b.coverage.size(); }\n')
        self.assertIn(("coverage-hot-loop", 1), out)

    def test_coverage_size_ok(self):
        out = run_lint("src/auction/ssam.cc",
                       'int f(const bid& b) { return b.coverage_size(); }\n')
        self.assertNotIn("coverage-hot-loop", [r for r, _ in out])

    def test_other_file_exempt(self):
        out = run_lint("src/auction/bid.cc",
                       'int f(const bid& b) { return b.coverage.size(); }\n')
        self.assertNotIn("coverage-hot-loop", [r for r, _ in out])


class WhitespaceTest(unittest.TestCase):
    def test_trailing_whitespace(self):
        out = run_lint("src/common/x.cc", 'int x = 0;  \n')
        self.assertIn(("whitespace", 1), out)

    def test_tab_indent(self):
        out = run_lint("src/common/x.cc", '\tint x = 0;\n')
        self.assertIn(("whitespace", 1), out)

    def test_missing_final_newline(self):
        out = run_lint("src/common/x.cc", 'int x = 0;')
        self.assertIn("whitespace", [r for r, _ in out])

    def test_multiple_trailing_newlines(self):
        out = run_lint("src/common/x.cc", 'int x = 0;\n\n')
        self.assertIn("whitespace", [r for r, _ in out])

    def test_clean(self):
        out = run_lint("src/common/x.cc", 'int x = 0;\n')
        self.assertEqual(out, [])

    def test_applies_outside_src(self):
        out = run_lint("tests/x.cc", 'int x = 0;  \n')
        self.assertIn(("whitespace", 1), out)


if __name__ == "__main__":
    unittest.main(verbosity=2)
