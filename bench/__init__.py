"""The TeamNet request-path benchmark (see ``bench/README.md``).

One named benchmark: five workloads driven against the real runtime
(``deploy_local_team`` over ``TcpTransport`` on localhost, 4 experts,
``engine="compiled"``), six end-to-end metrics and a traced per-layer
table.  Everything is measured from outside ``src/``: by timing calls
into public functions and through a bench-owned ``Transport``.

``python3 -m bench run`` works from a bare checkout: the package under
``src/`` is put on ``sys.path`` here, so no ``PYTHONPATH`` is needed.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"   #: scratch output, ignored by git
_SRC = ROOT / "src"
if (_SRC / "repro").is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
