#!/usr/bin/env python3
"""Fail when a src/ module exists only to be exercised by its own tests.

A module is a header under src/ (src/<layer>/<name>.hh) plus its
optional .cc. It is an orphan when no file outside the module includes
its header, counting only the code that ships or reproduces the paper:
src/, examples/, bench/ and perfbench/. Includes from tests/ do not
count, and neither do the module's own <name>.cc and <name>.hh.

Every orphan header is listed and the script exits 1; delete the
module (and its tests) or give it a caller. Standard library only; run
from anywhere:

    python3 tools/check_orphan_modules.py [--root REPO_ROOT]

Registered as the `docs`-labeled ctest `docs_orphan_modules`.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

# Only quoted includes name repository headers; the library's include
# root is src/, so "core/cas.hh" means src/core/cas.hh.
_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)
_SOURCE_EXTS = (".cc", ".hh", ".cpp")
_CALLER_DIRS = ("src", "examples", "bench", "perfbench")


def sourceFiles(top: str) -> list[str]:
    found = []
    for dirpath, dirnames, filenames in os.walk(top):
        # Skip build trees and hidden directories (e.g. .bench_build).
        dirnames[:] = sorted(
            d for d in dirnames
            if not d.startswith(("build", "."))
        )
        for name in sorted(filenames):
            if name.endswith(_SOURCE_EXTS):
                found.append(os.path.join(dirpath, name))
    return found


def moduleOf(path: str) -> str:
    """src/core/cas.cc and src/core/cas.hh both map to src/core/cas."""
    return os.path.splitext(path)[0]


def findOrphans(root: str) -> list[str]:
    src = os.path.join(root, "src")
    headers = sorted(
        os.path.relpath(path, src)
        for path in sourceFiles(src) if path.endswith(".hh"))

    included_by: dict[str, set[str]] = {header: set() for header in headers}
    for top in _CALLER_DIRS:
        for path in sourceFiles(os.path.join(root, top)):
            with open(path, encoding="utf-8", errors="replace") as handle:
                text = handle.read()
            includer = moduleOf(os.path.relpath(path, root))
            for target in _INCLUDE_RE.findall(text):
                if target in included_by:
                    included_by[target].add(includer)

    orphans = []
    for header in headers:
        own = moduleOf(os.path.join("src", header))
        if not included_by[header] - {own}:
            orphans.append(header)
    return orphans


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_root = os.path.normpath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    parser.add_argument("--root", default=default_root,
                        help="repository root to scan (default: repo)")
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(args.root, "src")):
        print(f"error: no src/ under {args.root}", file=sys.stderr)
        return 1

    orphans = findOrphans(args.root)
    for header in orphans:
        print(f"src/{header}: included only by its own module and tests/",
              file=sys.stderr)
    print(f"{len(orphans)} orphan module(s) under src/")
    return 1 if orphans else 0


if __name__ == "__main__":
    sys.exit(main())
