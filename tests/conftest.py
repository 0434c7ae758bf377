"""Let the ``python -m zorbit`` subprocesses import the package from ``src``.

``pyproject.toml`` puts ``src`` on the test process's own path; the CLI tests
also start fresh interpreters, which see it only through ``PYTHONPATH``.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
