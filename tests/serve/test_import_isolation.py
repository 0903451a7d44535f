"""What importing the daemon's entry point loads.

``repro-serve`` is a long-lived process: every module it imports is
resident for its whole life and counts toward its startup time, so the
one-shot CLI, the report surfaces and the coverage experiments must
stay out of it."""

import json
import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))


def loaded_after(statement):
    """The ``repro`` modules a fresh interpreter has loaded after
    running ``statement``."""
    script = (f"import sys\n{statement}\nimport json\n"
              "print(json.dumps(sorted(name for name in sys.modules "
              "if name.startswith('repro'))))")
    env = dict(os.environ, PYTHONPATH=SRC)
    output = subprocess.run([sys.executable, "-c", script], env=env,
                            check=True, capture_output=True, text=True)
    return json.loads(output.stdout)


def test_serve_cli_loads_no_one_shot_cli_report_or_coverage():
    modules = loaded_after("import repro.serve.cli")
    assert "repro.serve.cli" in modules
    assert [name for name in modules
            if name == "repro.core.cli"
            or name.startswith(("repro.report", "repro.coverage"))] == []


def test_package_import_loads_no_report_surface():
    modules = loaded_after("import repro")
    assert [name for name in modules
            if name.startswith("repro.report")] == []
