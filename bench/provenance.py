"""Locate the working tree, import `symlie` from its `src`, and describe the run.

`symlie` is not installed: every process the benchmark starts imports it
from `<root>/src`.  `import_symlie` refuses to go on when the package that
was imported lives anywhere else, so the numbers always belong to the
tree being measured.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "symlie"


class ProvenanceError(RuntimeError):
    pass


def child_env() -> dict:
    """Environment for child interpreters: the working tree's `src` first."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def check_origin(path: str) -> str:
    where = Path(path).resolve().parent
    if where != PACKAGE.resolve():
        raise ProvenanceError(f"symlie was imported from {where}, not from {PACKAGE}")
    return str(where)


def import_symlie():
    """Import the package from the working tree, or raise ProvenanceError."""
    if not (PACKAGE / "__init__.py").is_file():
        raise ProvenanceError(f"no symlie package under {SRC}")
    if str(SRC) not in sys.path[:1]:
        sys.path.insert(0, str(SRC))
    import symlie
    check_origin(symlie.__file__)
    return symlie


def git_rev() -> str:
    """HEAD of the working tree, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def describe(seed: int, symlie_path: str) -> dict:
    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "symlie": symlie_path,
    }
