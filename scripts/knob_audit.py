#!/usr/bin/env python3
"""Audit the settable values of the config structs under src/.

Scans every struct whose name ends in Config, Options or Policy under
src/, lists its data members, and counts how often each member is set
anywhere in src/ tests/ bench/ examples/ perfbench/. A setter is a
designated initializer (`.name = v`, `.name{v}`), a member assignment
(`x.name = v`, `x->name = v`, compound assignments included), a write
into the member (`x.name.sub = v`, `x.name[k] = v`) or an insert into it
(`x.name.push_back(v)`).

A setter whose right-hand side is just another audited field
(`x.max_local_restarts = cfg_.agent_max_local_restarts`) is a
pass-through: it makes the target settable only if its source is. A field
is live when it has a direct setter or a pass-through from a live field.

Prints the field count and the never-set fields per struct, then the
totals. Exits 1 when some field is never set: a value no caller changes
belongs in a named constant next to the code that reads it.

Matching is by field name, not by type. A name that only one audited
struct has is credited to that struct. A setter of a name that several
structs share (`enable_failure_detector` in ClusterConfig, ManagerOptions
and ProcessClusterConfig) is credited only to those of them that the
setter's file names, and to just one of them when the file declares the
receiver with that struct's type (`ManagerOptions mopts;` ...
`mopts.enable_failure_detector = cfg_.enable_failure_detector`), so one
struct's setters cannot hide another's never-set twin. A setter whose
receiver the file declares only with types the audit does not cover
(`Shard& s;` ... `s->root = v`) is credited to no struct: it writes a
same-named member of some other type.

Usage: python3 scripts/knob_audit.py [--root DIR] [--verbose]
"""

import argparse
import re
import sys
from pathlib import Path

SCAN_DIRS = ("src", "tests", "bench", "examples", "perfbench")
SUFFIXES = {".h", ".hpp", ".cc", ".cpp"}
STRUCT_RE = re.compile(r"\bstruct\s+(\w+(?:Config|Options|Policy))\s*\{")
# After `.name`: `= v` / `{v}` (captures v), a write into a member or
# element (`.name.sub = v`, `.name[k] = v`), or a container insert.
SET_TAIL = (r"(?:\s*[-+*/|&]?=(?!=)\s*([^,;}\n]*)|\s*\{"
            r"|(?:\.\w+|\[[^\]]*\])+\s*[-+*/|&]?=(?!=)"
            r"|\.(?:push_back|emplace_back|emplace|try_emplace|insert)\()")
# A member access `.name` / `->name`: where a setter of `name` may sit.
ACCESS_RE = re.compile(r"(?:\.|->)\s*(\w+)")
WORD_RE = re.compile(r"\w+")
CAST_RE = re.compile(r"^\w+(?:<[^>]*>)?\(")
NOT_FIELD = ("static ", "using ", "friend ", "enum ", "struct ", "class ",
             "typedef ", "template")
# A type (`Shard`, `const Foo&`, `std::unique_ptr<Bar>`) ending right
# before a declared name, and words that can precede a name without
# declaring its type.
TYPE_BEFORE_RE = re.compile(r"(\w[\w:]*(?:<[\w:<>, *&]*>)?)\s*[&*]*\s*$")
NOT_TYPE = {"auto", "return", "case", "else", "delete", "new", "throw",
            "sizeof", "typename", "goto", "co_return", "co_yield"}


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def struct_bodies(text):
    """Yields (name, body) for each audited struct definition in text."""
    for m in STRUCT_RE.finditer(text):
        depth, i = 1, m.end()
        while depth and i < len(text):
            depth += {"{": 1, "}": -1}.get(text[i], 0)
            i += 1
        yield m.group(1), text[m.end():i - 1]


def top_level_statements(body):
    depth, cur = 0, []
    for ch in body:
        if ch in "{(":
            depth += 1
        elif ch in "})":
            depth -= 1
        if ch == ";" and depth == 0:
            yield " ".join("".join(cur).split())
            cur = []
        else:
            cur.append(ch)


def field_name(stmt):
    if not stmt or stmt.startswith(NOT_FIELD):
        return None
    decl = re.split(r"(?<![=!<>])=(?!=)", stmt, maxsplit=1)[0].strip()
    if decl.endswith("}"):
        decl = decl[:decl.rfind("{")].strip()
    if decl.endswith(")"):
        return None  # member function
    m = re.search(r"(\w+)\s*$", decl)
    return m.group(1) if m else None


def audited_structs(root):
    structs = {}
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in SUFFIXES:
            continue
        text = strip_comments(path.read_text(errors="replace"))
        for name, body in struct_bodies(text):
            fields = [f for f in map(field_name, top_level_statements(body))
                      if f]
            structs[name] = (path.relative_to(root), fields)
    return structs


def setters(root, structs):
    """Returns {(struct, field): [direct setter count, [(struct, field)
    pass-through sources]]}."""
    owners = {}
    for sname, (_, fields) in structs.items():
        for f in fields:
            owners.setdefault(f, []).append(sname)
    out = {(s, f): [0, []] for f, ss in owners.items() for s in ss}
    # A setter of any audited field: receiver (1), field (2), value (3).
    setter_re = re.compile(r"(?:(\w+)\s*)?(?:\.|->)\s*(" +
                           "|".join(sorted(owners, key=len, reverse=True)) +
                           ")" + SET_TAIL)
    for d in SCAN_DIRS:
        for path in sorted((root / d).rglob("*")):
            if path.suffix not in SUFFIXES:
                continue
            text = strip_comments(path.read_text(errors="replace"))
            named = structs.keys() & set(WORD_RE.findall(text))

            decls = {}

            def declared(recv):
                """The types this file declares `recv` with, and the
                audited structs among them."""
                if recv not in decls:
                    types = []
                    for m in re.finditer(r"\b" + recv + r"\s*[;={(,):\[]",
                                         text):
                        t = TYPE_BEFORE_RE.search(
                            text[max(0, m.start() - 200):m.start()])
                        if t and t.group(1) not in NOT_TYPE:
                            types.append(t.group(1))
                    decls[recv] = (types, {s for s in named for t in types
                                           if re.search(r"\b" + s + r"\b", t)})
                return decls[recv]

            def credited(field, recv=None):
                ss = owners[field]
                types, covered = declared(recv) if recv else ([], set())
                if types and not covered:
                    return []
                if len(ss) == 1:
                    return ss
                return ([s for s in ss if s in covered] or
                        [s for s in ss if s in named])

            # One pass over the member accesses. A setter starts at the
            # receiver word before its `.`/`->`, and a field's setters do
            # not overlap: one whose value swallows a later access of the
            # same field (`x.f = y.f = v`) hides it.
            end = {}
            for a in ACCESS_RE.finditer(text):
                name = a.group(1)
                if name not in owners or a.start() < end.get(name, 0):
                    continue
                lo, i = end.get(name, 0), a.start()
                while i > lo and text[i - 1].isspace():
                    i -= 1
                k = i
                while k > lo and (text[k - 1].isalnum() or text[k - 1] == "_"):
                    k -= 1
                m = setter_re.match(text, k if k < i else a.start())
                if not m:
                    continue
                end[name] = m.end()
                rhs = CAST_RE.sub("", (m.group(3) or "").strip()).rstrip(")")
                src = re.fullmatch(r"\w+(?:(?:\.|->)\w+)*(?:\.|->)(\w+)",
                                   rhs)
                for target in credited(name, m.group(1)):
                    if src and src.group(1) in owners:
                        out[(target, name)][1] += [
                            (s, src.group(1)) for s in owners[src.group(1)]]
                    else:
                        out[(target, name)][0] += 1
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", default=Path(__file__).resolve().parent.parent,
                    type=Path)
    ap.add_argument("--verbose", action="store_true",
                    help="print every field with its setter count")
    args = ap.parse_args()

    structs = audited_structs(args.root)
    counts = setters(args.root, structs)

    live = {k for k, (direct, _) in counts.items() if direct}
    changed = True
    while changed:
        changed = False
        for k, (_, through) in counts.items():
            if k not in live and any(s in live for s in through):
                live.add(k)
                changed = True

    total, dead = 0, []
    for sname, (path, fields) in sorted(structs.items()):
        never = [f for f in fields if (sname, f) not in live]
        total += len(fields)
        dead += [f"{sname}::{f}" for f in never]
        print(f"{sname:24} {len(fields):3} fields  ({path})")
        for f in fields if args.verbose else []:
            direct, through = counts[(sname, f)]
            print(f"    {f:32} {direct:3} set  {len(through):2} pass-through")
        for f in never:
            print(f"    never set: {f}")
    print(f"total: {total} settable values in {len(structs)} structs, "
          f"{len(dead)} never set")
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main())
