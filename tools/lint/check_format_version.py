#!/usr/bin/env python3
"""Format-version gate: fail when a serialized layout changes without a bump.

The binary archive has no framing — field order IS the format — so any
change to a serialized layout silently invalidates every stored artifact
(snapshots, warm-store entries, specs, campaign journals, worker and wire
messages) unless the matching format version is bumped and old artifacts
are rejected at load time.

Every stored file and byte stream is a frame (src/common/frame.h), and the
frame table there is the list of version domains: each row names its
domain, its magic and its version. This gate compares two git revisions
(typically the PR base and HEAD):

  1. parse every C++ source under src/ at both revisions (tools/lint/cpplite
     structural parser — same engine as mflush_lint);
  2. build a per-domain *layout signature*: for every type with a
     save/load(-like) pair, the ordered list of serialized members plus the
     normalized bodies of its serialization methods; for every type reached
     by raw memcpy (put/put_vec/put_deque/put_map), the full ordered member
     layout including explicit padding; for every function that names a
     frame kind (`frame::kSpec`, ...), its normalized body — the
     container's payload writer and reader; and in every frame domain, the
     codec itself (the functions of src/common/frame.{h,cpp}), since the
     header layout is shared;
  3. map each type to the version domain that owns its bytes (see
     _PATH_DOMAINS below) and compare signatures;
  4. fail if a domain's signature changed but its version did not.

Usage:
    python3 tools/lint/check_format_version.py --base origin/main
    python3 tools/lint/check_format_version.py --base HEAD~1 --head HEAD

With no --head the working tree is used, so the gate runs identically in CI
(fetch-depth 0, base = merge target) and locally before committing.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cpplite  # noqa: E402
import mflush_lint  # noqa: E402

FRAME_TABLE = "src/common/frame.h"
_CODEC_PREFIX = "src/common/frame."

# One row of the frame table:
#   inline constexpr Kind kSpec{"spec", "MFLUSPEC", 3};
_ROW_RE = re.compile(
    r"\binline\s+constexpr\s+Kind\s+(k\w+)\s*\{\s*\"(\w+)\"\s*,\s*"
    r"\"([^\"]*)\"\s*,\s*(\d+)\s*\}"
)

# Layout domains outside the frame table: the MFLT trace file is a
# user-facing import format with its own header, versioned in place.
_OTHER_DOMAINS = {"trace": ("src/trace/trace_io.h", "kTraceVersion")}

# Where each frame domain kept its version before the frame table existed.
# Read only at revisions without src/common/frame.h, so a diff across the
# move still compares versions instead of treating every domain as new.
_PRE_TABLE_VERSIONS = {
    "snapshot": ("src/sim/snapshot.h", "kFormatVersion"),
    "campaign": ("src/sim/campaign.h", "kFormatVersion"),
    "warmstore": ("src/sim/warmstore.h", "kFormatVersion"),
    "worker": ("src/sim/backend.h", "kProtocolVersion"),
    "daemon": ("src/sim/wire.h", "kProtocolVersion"),
    "spec": ("src/sim/experiment_spec.cpp", "kSpecVersion"),
}

# File-path ownership of save/load types. First match wins; default is the
# snapshot stream (chip state save_state/load_state chains all feed
# snapshot::capture).
_PATH_DOMAINS = [
    ("src/sim/warmstore", "warmstore"),
    ("src/sim/campaign", "campaign"),
    ("src/sim/backend", "worker"),
    ("src/sim/remote", "worker"),
    ("src/sim/wire", "daemon"),
    ("src/sim/daemon", "daemon"),
    ("src/trace/trace_io", "trace"),
    # JobSpec and its value types ride the worker wire protocol; its
    # save_content (the content-address key) is special-cased to the
    # campaign domain in _signatures below.
    ("src/sim/experiment_spec", "worker"),
]

_SAVE_METHODS = ("save", "load", "save_state", "load_state", "save_content")


def domain_of(path: str) -> str:
    rel = path.replace("\\", "/")
    for prefix, dom in _PATH_DOMAINS:
        if rel.startswith(prefix):
            return dom
    return "snapshot"


def frame_rows(text: str) -> dict[str, tuple[str, int]]:
    """Frame table rows: kind identifier -> (domain, version)."""
    # Line comments only: the rows' string literals must survive.
    code = re.sub(r"//[^\n]*", "", text)
    return {
        m.group(1): (m.group(2), int(m.group(4)))
        for m in _ROW_RE.finditer(code)
    }


def _norm(text: str) -> str:
    return re.sub(r"\s+", " ", text).strip()


def _git(root: str, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", root, *args],
        check=True,
        capture_output=True,
        text=True,
    ).stdout


def _tree_at(root: str, rev: str | None) -> mflush_lint.TreeModel:
    """Parse all src/ C++ sources at `rev` (None = working tree)."""
    model = mflush_lint.TreeModel()
    if rev is None:
        for path in mflush_lint.collect_sources([os.path.join(root, "src")]):
            rel = os.path.relpath(path, root)
            model.add(cpplite.parse_file(rel, open(path).read()))
        return model
    listing = _git(root, "ls-tree", "-r", "--name-only", rev, "--", "src")
    for rel in sorted(listing.splitlines()):
        if not rel.endswith((".h", ".hpp", ".cpp", ".cc")):
            continue
        text = _git(root, "show", f"{rev}:{rel}")
        model.add(cpplite.parse_file(rel, text))
    return model


class Revision:
    """One revision's parsed sources, frame table and version domains."""

    def __init__(self, model: mflush_lint.TreeModel) -> None:
        self.model = model
        self.texts = {fm.path.replace("\\", "/"): fm.text for fm in model.files}
        table = self.texts.get(FRAME_TABLE)
        self.rows = frame_rows(table) if table is not None else {}
        # Serialization helpers by source stem (x.h + x.cpp): two files may
        # each define their own `put_policy`, and a body calls its own.
        self.local_helpers: dict[str, dict[str, cpplite.Method]] = {}
        for fm in model.files:
            stem = os.path.splitext(fm.path.replace("\\", "/"))[0]
            self.local_helpers.setdefault(stem, {}).update(fm.helpers)

    def expand(self, body: str, path: str) -> str:
        """`body` from `path`, its helper calls expanded, normalized."""
        stem = os.path.splitext(path.replace("\\", "/"))[0]
        helpers = {**self.model.helpers, **self.local_helpers.get(stem, {})}
        return _norm(mflush_lint._expand_helpers(body, helpers))

    def frame_domains(self) -> list[str]:
        """Frame domains in table order (pre-table names without a table)."""
        if not self.rows:
            return list(_PRE_TABLE_VERSIONS)
        out: list[str] = []
        for dom, _version in self.rows.values():
            if dom not in out:
                out.append(dom)
        return out

    def version(self, dom: str) -> str | None:
        """The domain's version ("5"; "5/6" if its rows disagree), or None."""
        if self.rows:
            found = sorted({v for d, v in self.rows.values() if d == dom})
            if found:
                return "/".join(str(v) for v in found)
            if dom not in _OTHER_DOMAINS:
                return None
        where = _OTHER_DOMAINS.get(dom) or _PRE_TABLE_VERSIONS.get(dom)
        if where is None or where[0] not in self.texts:
            return None
        m = re.search(rf"\b{where[1]}\s*=\s*(\d+)", self.texts[where[0]])
        return m.group(1) if m else None

    def constant_of(self, dom: str) -> str:
        """Where a bump of `dom` goes, for messages."""
        idents = [k for k, (d, _v) in self.rows.items() if d == dom]
        if idents:
            kinds = ", ".join(f"frame::{k}" for k in idents)
            return f"the version of {kinds} in {FRAME_TABLE}"
        header, const = _OTHER_DOMAINS.get(dom) or _PRE_TABLE_VERSIONS[dom]
        return f"{header}:{const}"


def _function_blocks(
    fm: cpplite.FileModel,
) -> list[tuple[str, str]]:
    """(name, body) of every function defined in a file, lambdas inside a
    function counted as part of its body."""
    out: list[tuple[str, str]] = []

    def walk(blocks: list[cpplite.Block]) -> None:
        for blk in blocks:
            header = blk.header.strip()
            if re.search(r"\b(namespace|class|struct|union|enum)\b[^()]*$",
                         header) or "(" not in header:
                walk(blk.children)
                continue
            m = re.search(r"([A-Za-z_~][\w:~]*)\s*\(", header)
            if m and m.group(1) not in cpplite._SKIP_KEYWORDS:
                out.append((m.group(1), blk.body(fm.clean)))

    walk(cpplite.parse_blocks(fm.clean))
    return out


def _signatures(rev: Revision, domains: list[str]) -> dict[str, dict[str, str]]:
    """domain -> {qualified type or function name -> layout signature}."""
    model = rev.model
    sigs: dict[str, dict[str, str]] = {d: {} for d in domains}

    def put(dom: str, key: str, sig: str) -> None:
        if dom in sigs:
            sigs[dom][key] = sigs[dom].get(key, "") + sig
    # Types with explicit serialization methods: serialized member list
    # (transient members are not in the stream) + normalized method bodies
    # with delegated helpers expanded.
    for ci in model.classes.values():
        methods = model.methods_of(ci)
        save_ish = {n: m for n, m in methods.items() if n in _SAVE_METHODS}
        if not save_ish:
            continue
        dom = domain_of(ci.file)
        members = ";".join(
            f"{m.name}:{_norm(m.type)}"
            for m in mflush_lint._checked_members(ci)
        )
        for name in sorted(save_ish):
            body = rev.expand(save_ish[name].body, ci.file)
            # The content key deliberately omits wire identity and is
            # consumed by the campaign result cache, not the worker wire.
            mdom = "campaign" if name == "save_content" else dom
            put(mdom, ci.qualified, f"[{name}]{body}")
        put(dom, ci.qualified, f"[members]{members}")
    for pair in model.free_pairs.values():
        ci = model.resolve(pair.target_type)
        dom = domain_of(ci.file) if ci else "snapshot"
        for method in (pair.save, pair.load):
            if method is None:
                continue
            body = rev.expand(method.body, ci.file if ci else "")
            put(dom, f"free:{pair.suffix}", f"[{method.name}]{body}")

    # Raw-memcpy'd types: every byte of the object lands in the stream, so
    # the signature is the full ordered member layout, padding included.
    for qname in mflush_lint.collect_memcpy_types(model):
        ci = model.classes.get(qname)
        if ci is None:
            continue
        layout = ";".join(f"{m.name}:{_norm(m.type)}" for m in ci.members)
        put(domain_of(ci.file), qname, f"[memcpy]{layout}")

    # Containers: a function that names a frame kind writes or reads that
    # kind's payload, so its body (helpers expanded) is part of the kind's
    # layout. The codec's own functions lay out every frame's header.
    frame_doms = {d for d, _v in rev.rows.values()}
    for fm in model.files:
        path = fm.path.replace("\\", "/")
        for name, body in _function_blocks(fm):
            sig = rev.expand(body, path)
            if path.startswith(_CODEC_PREFIX):
                for dom in frame_doms:
                    put(dom, f"codec:{name}", f"[{name}]{sig}")
                continue
            for ident in sorted(set(re.findall(r"\bframe::(k\w+)\b", body))):
                if ident in rev.rows:
                    put(rev.rows[ident][0], f"io:{name}", f"[{ident}]{sig}")
    return sigs


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="base git revision")
    ap.add_argument(
        "--head", default=None, help="head revision (default: working tree)"
    )
    ap.add_argument("--root", default=None, help="repo root (default: cwd)")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root or os.getcwd())

    try:
        base_model = _tree_at(root, args.base)
    except subprocess.CalledProcessError as e:
        print(f"check_format_version: cannot read base {args.base!r}: "
              f"{e.stderr.strip()}", file=sys.stderr)
        return 2
    base = Revision(base_model)
    head = Revision(_tree_at(root, args.head))
    domains = list(
        dict.fromkeys(
            head.frame_domains() + base.frame_domains() + list(_OTHER_DOMAINS)
        )
    )
    base_sigs = _signatures(base, domains)
    head_sigs = _signatures(head, domains)

    failures = 0
    for dom in domains:
        old, new = base_sigs[dom], head_sigs[dom]
        if old == new:
            continue
        v_old = base.version(dom)
        v_new = head.version(dom)
        changed = sorted(
            k for k in old.keys() | new.keys() if old.get(k) != new.get(k)
        )
        if v_old is None:
            continue  # domain born in this change; its version is fresh
        if v_old == v_new:
            print(
                f"check_format_version: serialized layout of domain "
                f"'{dom}' changed but its version is still {v_new}.\n"
                f"  changed: {', '.join(changed)}\n"
                f"  Bump {head.constant_of(dom)} (old artifacts must be "
                f"rejected, not misread) or revert the layout change."
            )
            failures += 1
        else:
            print(
                f"check_format_version: domain '{dom}' layout changed, "
                f"version bumped {v_old} -> {v_new} "
                f"({len(changed)} signature(s)) — ok"
            )
    if failures == 0:
        print("check_format_version: all serialized-layout domains clean")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
