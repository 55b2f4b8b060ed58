"""The README runs as written and names what exists: its minimal session
runs against the code in ``src``, and each call its library tour names
resolves."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_minimal_session_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.S | re.M)
    assert len(blocks) == 1
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    # the classical and split squared radii, one per line
    radii = [float(line) for line in proc.stdout.splitlines()]
    assert len(radii) == 2 and all(r > 0.0 for r in radii)


#: Backticked calls in the library tour that are not ``ulrt`` names, such as
#: the ``sqrt(`` of a formula.
_NOT_ULRT = {"sqrt"}


def test_readme_library_tour_names_only_what_exists():
    """Each backticked ``name(`` in a ``ulrt.<module>`` row of the tour
    resolves on that module, so a rename cannot leave a stale call behind."""
    rows = re.findall(r"^\| `ulrt\.(\w+)` \|(.*)$", (ROOT / "README.md").read_text(), re.M)
    assert len(rows) >= 8
    modules = {name: importlib.import_module(f"ulrt.{name}") for name, _ in rows}
    missing = []
    for module_name, text in rows:
        for dotted in re.findall(r"`([A-Za-z_][\w.]*)\(", text):
            target = modules[module_name]
            try:
                for part in dotted.split("."):
                    target = getattr(target, part)
            except AttributeError:
                if dotted not in _NOT_ULRT:
                    missing.append(f"ulrt.{module_name}: {dotted}(")
    assert not missing, missing
    assert not [name for name in _NOT_ULRT for module in modules.values() if hasattr(module, name)]
