#!/usr/bin/env python3
"""Knob census: every field of every `struct *Config` under src/, with how
many assignments each caller directory makes to it.

A report, not a gate (like coverage.sh). It answers ROADMAP item 9's knob
question: a config field that no bench, test, example or src/ preset ever
assigns is a knob nobody turns, and a candidate to become a named
constant.

A field is one data member at the struct's top level; a nested config
(`DataNodeConfig data_node;`) counts as one field. An assignment is a
`.field =` (member assignment or designated initializer) anywhere in the
directory, including one through it (`.name_node.read_cpu =` counts for
`name_node`). Fields are matched by name only, so two structs sharing a
field name (`seed`, `label`) share their counts, and positional brace
initialisation (`PlatformConfig{vcpus, function}`) is not counted.

Usage: scripts/knobs.py [ROOT]
  ROOT  the checkout to count (default: this script's repository)

The rows whose counts are all zero are the fields no caller assigns; the
last line totals them.
"""
import argparse
import os
import re
import sys

ROOT = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
CALLERS = ["bench", "examples", "perfbench", "tests", "src"]
SOURCE_EXT = (".h", ".cc", ".cpp")

STRUCT_RE = re.compile(r"\bstruct\s+(\w*Config)\s*\{")
IDENT_RE = re.compile(r"([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*$")


def sources(root, directory):
    for dirpath, _, files in os.walk(os.path.join(root, directory)):
        for name in sorted(files):
            if name.endswith(SOURCE_EXT):
                yield os.path.join(dirpath, name)


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    return re.sub(r"//[^\n]*", " ", text)


def struct_bodies(text):
    """Yield (name, body) for each `struct *Config { ... };` in text."""
    for match in STRUCT_RE.finditer(text):
        depth = 1
        i = match.end()
        while i < len(text) and depth:
            depth += {"{": 1, "}": -1}.get(text[i], 0)
            i += 1
        yield match.group(1), text[match.end():i - 1]


def fields(body):
    """Data members declared at the top level of a struct body."""
    out = []
    stmt = ""
    depth = 0
    for ch in body:
        if ch in "{(":
            depth += 1
        elif ch in "})":
            depth -= 1
        if ch == ";" and depth == 0:
            name = field_name(stmt.strip())
            if name:
                out.append(name)
            stmt = ""
        elif depth == 0 and ch == "}" and is_function_body(stmt):
            stmt = ""  # end of an inline member function body
        else:
            stmt += ch
    return out


def is_function_body(stmt):
    """True when stmt's first '{' opens a function body, i.e. a '(' comes
    before it; a brace initialiser (`T x{...}`, `T x = {...}`) has none."""
    brace = stmt.find("{")
    return "(" in (stmt if brace < 0 else stmt[:brace])


def field_name(stmt):
    if not stmt or stmt.startswith(("using ", "friend ", "static ",
                                    "typedef ", "enum ", "struct ",
                                    "public:", "private:")):
        return None
    # Declarator ends at the first top-level '=' or '{' (initializer).
    head = re.split(r"=|\{", stmt, maxsplit=1)[0]
    if "(" in head:
        return None  # a member function declaration
    match = IDENT_RE.search(head)
    if not match or len(head.split()) < 2:
        return None
    return match.group(1)


def assignment_counts(root, names):
    texts = {d: [strip_comments(open(p, encoding="utf-8").read())
                 for p in sources(root, d)] for d in CALLERS}
    counts = {}
    for name in names:
        pattern = re.compile(r"\.%s(?:\.\w+)*\s*=(?!=)" % re.escape(name))
        counts[name] = {d: sum(len(pattern.findall(t)) for t in texts[d])
                        for d in CALLERS}
    return counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("root", nargs="?", default=ROOT,
                        help="checkout to count (default: this repository)")
    args = parser.parse_args()

    structs = []
    for path in sources(args.root, "src"):
        text = strip_comments(open(path, encoding="utf-8").read())
        for name, body in struct_bodies(text):
            structs.append((name, fields(body)))
    structs.sort()
    counts = assignment_counts(args.root, {f for _, fs in structs for f in fs})

    header = "%-22s %-26s" % ("struct", "field") + "".join(
        "%10s" % d for d in CALLERS)
    print(header)
    total = 0
    unset = 0
    for name, fs in structs:
        for f in fs:
            total += 1
            row = counts[f]
            if sum(row.values()) == 0:
                unset += 1
            print("%-22s %-26s" % (name, f) +
                  "".join("%10d" % row[d] for d in CALLERS))
    print("total: %d fields in %d structs; %d assigned by no caller"
          % (total, len(structs), unset))
    return 0


if __name__ == "__main__":
    sys.exit(main())
