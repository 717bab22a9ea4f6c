#!/usr/bin/env python3
"""Lists the src/ headers no program reaches, and checks that list.

Walks the quoted-#include graph from the program roots: every source
under apps/, examples/, bench/ and perfbench/src/, plus the claims table
tests/test_paper_claims.cpp.  An include resolves against the including
file's directory first, then src/; a reached header pulls in its paired
.cpp.  Every src/ header left over is printed.

Such a header may stay only as a test-reference module: named in
TEST_REFERENCE below and reached from some tests/test_*.cpp.  The check
fails on an unreached header missing from the list, and on a listed
module that a program now reaches, that no test reaches, or that is
gone, so the list stays exact.  A module that loses its last caller is
either listed here, on purpose, or deleted.

  src_callers.py [--root=DIR]

tests/CMakeLists.txt registers it as the ctest test src_callers.
"""

import argparse
import pathlib
import re
import sys

# Modules (src/-relative header paths without .hpp) that only tests
# include: reference implementations the suites check the system
# against, and paper quantities measured by their own unit tests.
TEST_REFERENCE = {
    "core/calibration",
    "core/confidence",
    "core/sequential_quorum",
    "graph/algos",
    "sim/local_density",
    "spectral/exact_walk",
    "stats/bootstrap",
    "walk/displacement",
    "walk/random_walk",
    "walk/range",
    "walk/return_time",
}

PROGRAM_DIRS = ["apps", "examples", "bench", "perfbench/src"]
PROGRAM_FILES = ["tests/test_paper_claims.cpp"]
INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)


def reach(roots, src):
    """Every file reachable from `roots` through quoted includes."""
    seen = set()
    stack = list(roots)
    while stack:
        path = stack.pop()
        if path in seen:
            continue
        seen.add(path)
        for name in INCLUDE.findall(path.read_text(encoding="utf-8")):
            for base in (path.parent, src):
                target = (base / name).resolve()
                if target.is_file():
                    stack.append(target)
                    break
        paired = path.with_suffix(".cpp")
        if path.suffix == ".hpp" and paired.is_file():
            stack.append(paired)
    return seen


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent)
    root = parser.parse_args().root.resolve()
    src = root / "src"

    programs = [p.resolve() for d in PROGRAM_DIRS
                for p in sorted((root / d).rglob("*"))
                if p.suffix in (".cpp", ".hpp")]
    programs += [(root / f).resolve() for f in PROGRAM_FILES]
    tests = sorted((root / "tests").glob("test_*.cpp"))

    from_programs = reach(programs, src)
    from_tests = reach([t.resolve() for t in tests], src)

    def module(path):
        return path.relative_to(src).with_suffix("").as_posix()

    headers = {module(h): h.resolve() for h in src.rglob("*.hpp")}
    unreached = sorted(m for m, h in headers.items()
                       if h not in from_programs)

    print(f"{len(headers) - len(unreached)} of {len(headers)} src/ headers "
          f"are reached from programs; {len(unreached)} are not:")
    for m in unreached:
        tag = "test reference" if headers[m] in from_tests else "no includer"
        print(f"  {m}  ({tag})")

    errors = []
    for m in unreached:
        if m not in TEST_REFERENCE:
            errors.append(f"{m}: no program reaches it and it is not a "
                          "listed test-reference module; give it a caller, "
                          "list it or delete it")
    for m in sorted(TEST_REFERENCE):
        if m not in headers:
            errors.append(f"{m}: listed but src/{m}.hpp does not exist")
        elif headers[m] in from_programs:
            errors.append(f"{m}: listed but a program now reaches it; "
                          "drop it from TEST_REFERENCE")
        elif headers[m] not in from_tests:
            errors.append(f"{m}: listed but no test reaches it either")
    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
