#!/usr/bin/env python3
"""lockdep_check — cross-checks runtime lockdep output against the declared
lock order.

The runtime lockdep (src/chk/lockdep.h) observes which lock classes
actually nest and exports the graph as Graphviz DOT (chk::lockdep_dot(),
written by tests such as lock_order_test and by `syncctl chk`).  The
declared order lives once, in src/chk/lock_order.h; lock_order_test
exports it as JSON (chk::lock_order_json()) to lock_order.json in the
build tree, next to the DOT.  This script asserts the two agree:

  1. the declared edge set is acyclic (a cyclic declaration would cover
     any runtime order along the cycle);
  2. every node in the DOT is a declared class (new mutexes must enter
     the manifest before they ship);
  3. every observed edge A -> B lies in the transitive closure of the
     declared edges (holding A while acquiring B was *intended*, not
     folklore).

Nodes/edges whose class starts with an ignore prefix (default "test.",
the fixtures chk_test uses to build deliberate cycles) are skipped.

Usage:
  lockdep_check.py --manifest lock_order.json runtime.dot [more.dot ...]
  lockdep_check.py --self-test [--manifest lock_order.json]

--self-test proves that an inverted edge, an unknown class and a cyclic
declaration are rejected, against a built-in fixture manifest (or the
given one, which must then itself be acyclic).

Exit status: 0 agreement, 1 violations, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

# The self-test's stand-in for an exported manifest: a small layered order
# in the same shape lock_order_json() emits.
FIXTURE_MANIFEST = {
    "classes": ["app.table", "infra.pool", "infra.batch", "obs.leaf"],
    "edges": [["app.table", "obs.leaf"], ["infra.pool", "infra.batch"],
              ["infra.batch", "obs.leaf"]],
    "ignore_prefixes": ["test."],
}

# lockdep_dot() emits nodes as  "class" [label="..."]  and edges as
# "from" -> "to" [label="file:line (Nx)"].
EDGE_RE = re.compile(r'"([^"]+)"\s*->\s*"([^"]+)"')
NODE_RE = re.compile(r'^\s*"([^"]+)"\s*\[')


class Manifest:
    def __init__(self, classes: list[str], edges: list[tuple[str, str]],
                 ignore_prefixes: list[str]):
        self.classes = set(classes)
        self.edges = edges
        self.ignore_prefixes = tuple(ignore_prefixes)
        self.adjacency: dict[str, set[str]] = {}
        for before, after in edges:
            self.adjacency.setdefault(before, set()).add(after)

    @staticmethod
    def load(path: str) -> "Manifest":
        with open(path, encoding="utf-8") as f:
            return Manifest.parse(json.load(f))

    @staticmethod
    def parse(data: dict) -> "Manifest":
        edges = [(before, after) for before, after in data["edges"]]
        return Manifest(data["classes"], edges,
                        data.get("ignore_prefixes", []))

    def ignored(self, cls: str) -> bool:
        return cls.startswith(self.ignore_prefixes) \
            if self.ignore_prefixes else False

    def reachable(self, start: str) -> set[str]:
        seen: set[str] = set()
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nxt in self.adjacency.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    def find_cycle(self) -> list[str] | None:
        """Returns one declared-order cycle as a class list, or None."""
        for cls in sorted(self.adjacency):
            if cls in self.reachable(cls):
                return [cls]
        return None

    def allows(self, before: str, after: str) -> bool:
        if self.ignored(before) or self.ignored(after):
            return True
        return after in self.reachable(before)


def parse_dot(text: str) -> tuple[set[str], set[tuple[str, str]]]:
    nodes: set[str] = set()
    edges: set[tuple[str, str]] = set()
    for line in text.splitlines():
        edge = EDGE_RE.search(line)
        if edge:
            edges.add((edge.group(1), edge.group(2)))
            nodes.update(edge.groups())
            continue
        node = NODE_RE.match(line)
        if node:
            nodes.add(node.group(1))
    return nodes, edges


def check(manifest: Manifest, dot_text: str, source: str) -> list[str]:
    problems: list[str] = []
    cycle = manifest.find_cycle()
    if cycle is not None:
        problems.append(
            f"manifest: declared order is cyclic through '{cycle[0]}' — "
            f"a cyclic declaration covers any runtime order along it"
        )
    nodes, edges = parse_dot(dot_text)
    for node in sorted(nodes):
        if manifest.ignored(node):
            continue
        if node not in manifest.classes:
            problems.append(
                f"{source}: lock class '{node}' observed at runtime but "
                f"absent from the declared order — declare it (and its "
                f"ordering edges) in src/chk/lock_order.h before shipping "
                f"the mutex"
            )
    for before, after in sorted(edges):
        if manifest.ignored(before) or manifest.ignored(after):
            continue
        if not manifest.allows(before, after):
            problems.append(
                f"{source}: observed nesting {before} -> {after} is not "
                f"covered by the declared order — either the code acquires "
                f"out of order (fix the code) or the layering changed "
                f"(update src/chk/lock_order.h)"
            )
    return problems


def self_test(manifest_path: str | None) -> int:
    manifest = (Manifest.load(manifest_path) if manifest_path
                else Manifest.parse(FIXTURE_MANIFEST))
    if manifest.find_cycle() is not None:
        print("self-test: manifest is cyclic", file=sys.stderr)
        return 1
    classes = sorted(manifest.classes)
    if len(classes) < 2 or not manifest.edges:
        print("self-test: manifest too small to exercise", file=sys.stderr)
        return 1

    # A DOT mirroring a declared edge must pass.
    before, after = manifest.edges[0]
    ok_dot = f'digraph lockdep {{\n"{before}" -> "{after}" [label="x:1"];\n}}\n'
    if check(manifest, ok_dot, "ok.dot"):
        print("self-test: declared edge was rejected", file=sys.stderr)
        return 1

    # The inverted edge (order inversion) must fail.
    bad_dot = f'digraph lockdep {{\n"{after}" -> "{before}" [label="x:1"];\n}}\n'
    if not check(manifest, bad_dot, "inverted.dot"):
        print("self-test: inverted edge was NOT rejected", file=sys.stderr)
        return 1

    # An undeclared class must fail.
    unknown_dot = 'digraph lockdep {\n"nosuch.class" [label="n"];\n}\n'
    if not check(manifest, unknown_dot, "unknown.dot"):
        print("self-test: unknown class was NOT rejected", file=sys.stderr)
        return 1

    # Test-prefixed fixtures (even cyclic ones) must be ignored.
    test_dot = ('digraph lockdep {\n"test.a" -> "test.b";\n'
                '"test.b" -> "test.a";\n}\n')
    if check(manifest, test_dot, "test.dot"):
        print("self-test: test.* fixtures were not ignored", file=sys.stderr)
        return 1

    # A cyclic declaration must be rejected even for a DOT it would cover.
    cyclic = Manifest(sorted(manifest.classes),
                      manifest.edges + [(after, before)],
                      list(manifest.ignore_prefixes))
    if not check(cyclic, ok_dot, "cyclic.dot"):
        print("self-test: cyclic manifest was NOT rejected", file=sys.stderr)
        return 1

    print("lockdep_check: self-test ok")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dots", nargs="*", help="runtime lockdep DOT files")
    parser.add_argument("--manifest",
                        help="declared-order manifest: the lock_order.json "
                             "lock_order_test writes into the build tree")
    parser.add_argument("--self-test", action="store_true",
                        help="prove an inverted edge and an unknown class "
                             "are rejected, then exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test(args.manifest)
    if not args.dots:
        parser.error("no DOT files given (or use --self-test)")
    if not args.manifest:
        parser.error("--manifest is required to check DOT files")

    try:
        manifest = Manifest.load(args.manifest)
    except (OSError, ValueError, KeyError) as e:
        print(f"lockdep_check: bad manifest {args.manifest}: {e}",
              file=sys.stderr)
        return 2

    problems: list[str] = []
    for path in args.dots:
        try:
            with open(path, encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            print(f"lockdep_check: {e}", file=sys.stderr)
            return 2
        problems.extend(check(manifest, text, os.path.basename(path)))

    for problem in problems:
        print(problem)
    if problems:
        print(f"lockdep_check: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print(f"lockdep_check: {len(args.dots)} export(s) covered by the "
          f"declared order")
    return 0


if __name__ == "__main__":
    sys.exit(main())
