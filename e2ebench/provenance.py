"""Where a result came from: code, host and toolchain.

Every result carries this stamp, and ``run.py --compare A B`` refuses
to pass silently over results from different hosts.
"""

import hashlib
import os
import platform
import subprocess
import sys


def _git(root, *args):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "--git-dir", os.path.join(root, ".git"),
             "--work-tree", root] + list(args),
            capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def src_hash(root):
    """SHA-256 over every file under ``src/`` (paths and contents)."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for directory, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(root):
    import numpy

    status = _git(root, "status", "--porcelain")
    return {
        "git_sha": _git(root, "rev-parse", "HEAD") or "unknown",
        "dirty": None if status is None else bool(status),
        "src_sha256": src_hash(root),
        "nproc": os.cpu_count(),
        "host": platform.node(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }


def host_key(prov):
    return (prov.get("host"), prov.get("cpu_model"), prov.get("nproc"))


def compare_warning(a, b):
    """A loud line when two stamps come from different hosts, else None."""
    if host_key(a) == host_key(b):
        return None
    return ("WARNING: COMPARING RESULTS FROM DIFFERENT HOSTS: %s vs %s -- "
            "timings are not comparable" % (host_key(a), host_key(b)))
