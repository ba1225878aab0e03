"""The serving import budget and the lazy top-level package surface.

``python -m repro.serve`` and each shard worker it starts pay for every
module the package imports.  The top level loads its subpackages on
first access, so the service never loads the offline analysis stack
(``repro.analysis`` → ``repro.stats`` → SciPy).  Each check runs in a
fresh interpreter: inside pytest the whole package is already loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

# Loaded only by the batch and analysis layers, never by serving.
OFFLINE_ONLY = ("repro.analysis", "repro.stats", "repro.simulation")


def run_fresh(code: str):
    """Run ``code`` in a new interpreter; return what it prints as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(out.stdout)


def loaded_after(statement: str) -> set[str]:
    return set(run_fresh(
        f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    ))


def test_serving_entry_point_loads_no_scipy_or_offline_layers():
    loaded = loaded_after("import repro.serve.__main__")
    assert "repro.serve.runner" in loaded
    assert sorted(m for m in loaded if m.split(".")[0] == "scipy") == []
    offending = sorted(
        m for m in loaded
        if any(m == name or m.startswith(name + ".") for name in OFFLINE_ONLY)
    )
    assert offending == []


def test_bare_import_loads_no_subpackage():
    loaded = loaded_after("import repro")
    assert sorted(m for m in loaded if m.startswith("repro.")) == []


def test_public_surface():
    surface = run_fresh(
        "import json\n"
        "from repro import net, probing, core\n"
        "import repro\n"
        "star = {}\n"
        "exec('from repro import *', star)\n"
        "print(json.dumps({\n"
        "    'quickstart': [net.make_diurnal.__module__,\n"
        "                   probing.RoundSchedule.__module__,\n"
        "                   core.measure_block.__module__],\n"
        "    'analysis': repro.analysis.__name__,\n"
        "    'star': sorted(k for k in star if k != '__builtins__'),\n"
        "    'all': repro.__all__,\n"
        "    'version': repro.__version__,\n"
        "}))"
    )
    assert [m.split(".")[1] for m in surface["quickstart"]] == [
        "net", "probing", "core"
    ]
    assert surface["analysis"] == "repro.analysis"
    assert surface["star"] == sorted(surface["all"])
    assert surface["version"] == repro.__version__


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_subpackage"):
        repro.no_such_subpackage
