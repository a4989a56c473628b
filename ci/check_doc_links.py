#!/usr/bin/env python3
"""Dead-link lint for the repo docs: every relative markdown link in
*.md (repo root and docs/) must point at a file or directory that
exists, and every #anchor fragment — intra-document (#section) or
cross-document (file.md#section) — must match a heading in the target
file (GitHub slugification: lowercase, punctuation stripped, spaces to
hyphens, -N suffixes for duplicates). External links (http/https/
mailto) are not checked — this is a filesystem check, not a crawler.

It also catches stale knob docs: in every BUILDING.md table whose header
row starts with `| Knob`, each backticked name in the first column must
be declared as a field in some src/flodb/**/*.h header.

And it catches stale path mentions: in BUILDING.md, DESIGN.md and
docs/*.md, every backticked repo path — one under a top-level repo
directory, ending in a file extension, with an optional :line suffix —
must match a file once globs are expanded.

Usage:
    check_doc_links.py [repo_root]

Stdlib only: CI must not pip install anything.
"""

import glob
import os
import re
import sys

# [text](target) — target captured up to the closing paren; markdown
# images ![alt](target) match the same way via the inner [..](..).
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
# Inline markup stripped before slugification: `code`, [text](url),
# **bold** / *em* markers.
INLINE_CODE_RE = re.compile(r"`([^`]*)`")
INLINE_LINK_RE = re.compile(r"\[([^\]]*)\]\([^)]*\)")


def github_slug(heading):
    text = INLINE_CODE_RE.sub(r"\1", heading)
    text = INLINE_LINK_RE.sub(r"\1", text)
    text = text.replace("*", "").replace("_", "").lower()
    # GitHub keeps word characters, spaces and hyphens; everything else
    # (punctuation like :, ., /, §, parens) is dropped.
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_anchors(text):
    """Anchors of every markdown heading, GitHub-style (-N for dupes)."""
    anchors = set()
    counts = {}
    in_fence = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = HEADING_RE.match(line)
        if not match:
            continue
        slug = github_slug(match.group(2))
        n = counts.get(slug, 0)
        counts[slug] = n + 1
        anchors.add(slug if n == 0 else f"{slug}-{n}")
    return anchors


def stale_knobs(root):
    """Backticked first-column names of BUILDING.md `| Knob` tables that
    no src/flodb/**/*.h header declares as a field."""
    headers = []
    for dirpath, _, names in os.walk(os.path.join(root, "src", "flodb")):
        for name in names:
            if name.endswith(".h"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                    headers.append(f.read())
    headers = "\n".join(headers)

    def declared(name):
        # A type token, the name, an optional initializer, then ';'.
        return re.search(r"[\w>*&]\s+%s\s*(?:=[^;]*)?;" % re.escape(name), headers)

    stale = []
    in_table = False
    with open(os.path.join(root, "BUILDING.md"), encoding="utf-8") as f:
        for line in f:
            # A table runs from its `| Knob` header row to the first non-row.
            in_table = line.startswith("|") and (in_table or line.startswith("| Knob"))
            if in_table:
                stale += [f"BUILDING.md: knob `{name}` is not a field in src/flodb/**/*.h"
                          for name in INLINE_CODE_RE.findall(line.split("|")[1])
                          if not declared(name)]
    return stale


# `top/dir/name.ext`, `top/*.ext` or `top/name.ext:123`; the extension
# keeps extensionless names such as `bench/fig09_write_only` out.
PATH_RE = re.compile(r"`(\.?\w[\w.-]*/[\w*./-]*\.\w+)(?::[\d-]+)?`")


def stale_paths(root):
    """Backticked repo paths in BUILDING.md, DESIGN.md and docs/*.md that
    match no file."""
    stale = []
    docs = ["BUILDING.md", "DESIGN.md"] + sorted(
        os.path.relpath(p, root) for p in glob.glob(os.path.join(root, "docs", "*.md")))
    for rel in docs:
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            text = f.read()
        for path in sorted(set(PATH_RE.findall(text))):
            top = path.split("/")[0]
            if os.path.isdir(os.path.join(root, top)) and not glob.glob(os.path.join(root, path)):
                stale.append(f"{rel}: `{path}` matches no file")
    return stale


def doc_files(root):
    for name in sorted(os.listdir(root)):
        if name.endswith(".md"):
            yield os.path.join(root, name)
    docs = os.path.join(root, "docs")
    if os.path.isdir(docs):
        for dirpath, _, names in os.walk(docs):
            for name in sorted(names):
                if name.endswith(".md"):
                    yield os.path.join(dirpath, name)


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    failures = []
    checked = 0
    anchors_checked = 0
    anchor_cache = {}

    def anchors_of(path):
        if path not in anchor_cache:
            try:
                with open(path, encoding="utf-8") as f:
                    anchor_cache[path] = heading_anchors(f.read())
            except OSError:
                anchor_cache[path] = set()
        return anchor_cache[path]

    for path in doc_files(root):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        for match in LINK_RE.finditer(text):
            raw = match.group(1)
            if raw.startswith(("http://", "https://", "mailto:")):
                continue
            target, _, fragment = raw.partition("#")
            anchor_target = path  # pure #anchor: this document
            if target:
                checked += 1
                resolved = os.path.normpath(os.path.join(os.path.dirname(path), target))
                if not os.path.exists(resolved):
                    failures.append(f"{rel}: dead link -> {raw}")
                    continue
                anchor_target = resolved
            if not fragment:
                continue
            # Fragments are only checkable against markdown headings.
            if not anchor_target.endswith(".md"):
                continue
            anchors_checked += 1
            if fragment.lower() not in anchors_of(anchor_target):
                failures.append(f"{rel}: dead anchor -> {raw}")

    failures.extend(stale_knobs(root))
    failures.extend(stale_paths(root))

    if failures:
        for failure in failures:
            print("FAIL: " + failure)
        return 1
    print(f"PASS: {checked} relative doc links and {anchors_checked} anchors resolve; "
          "every documented knob is a declared field and every named repo path exists")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
