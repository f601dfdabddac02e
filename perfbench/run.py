#!/usr/bin/env python3
"""Builds the benchmark and runs one of its workloads.

Run from the repository root:

    python3 perfbench/run.py --workload profile_cold --seed 1 --seconds 20 --trace 0

The benchmark is a cargo package of its own (perfbench/Cargo.toml, outside
the root workspace). It is built in release mode into $CARGO_TARGET_DIR
(default perfbench/target), then run with the given arguments plus the
provenance it cannot find itself: the commit (when the tree is a git
checkout), a digest of the sources it was built from, and `rustc -V`.
The last line of stdout is the result object; build output goes to stderr.
A failed build exits non-zero without printing a result.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def commit():
    """HEAD's commit id, read from .git without running git; "none" outside
    a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest():
    """Digest of every file the benchmark is built from, so that runs of a
    checkout without git history still name the code they measured."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "crates", "vendor", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x not in ("target", "out"))
            files += [os.path.join(d, n) for n in sorted(names)]
        for name in files:
            if name.endswith((".rs", ".toml", ".py", ".md")):
                h.update(os.path.relpath(name, ROOT).encode())
                with open(name, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def rustc_version():
    try:
        out = subprocess.run(["rustc", "-V"], cwd=ROOT, capture_output=True, text=True)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def main():
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(ROOT, target, "release", "perfbench")
    provenance = [
        "--commit",
        "%s/src-%s" % (commit(), source_digest()),
        "--rustc",
        rustc_version(),
    ]
    return subprocess.run([exe] + sys.argv[1:] + provenance, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
