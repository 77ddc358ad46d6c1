"""README.md names library entry points as `module.name`; each must exist."""

import importlib
import pkgutil
import re
from pathlib import Path

import fftddm

README = Path(__file__).resolve().parents[1] / "README.md"
# `head.name`, optionally with a call's arguments: `bench.build_cross(k_n)`
REFERENCE = re.compile(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)(?:\([^`]*\))?`")
FILE_SUFFIXES = {"csv", "json", "md", "py", "toml", "ini", "txt"}


def test_readme_references_resolve():
    modules = {info.name: importlib.import_module(f"fftddm.{info.name}")
               for info in pkgutil.iter_modules(fftddm.__path__)}
    refs = {m.groups() for m in REFERENCE.finditer(README.read_text())
            if m.group(2) not in FILE_SUFFIXES}
    assert len(refs) >= 10
    stale = []
    for head, name in sorted(refs):
        owners = [modules[head]] if head in modules else [
            getattr(mod, head) for mod in modules.values()
            if hasattr(mod, head)]
        if not any(hasattr(owner, name) for owner in owners):
            stale.append(f"{head}.{name}")
    assert not stale, f"README.md names what fftddm does not define: {stale}"
