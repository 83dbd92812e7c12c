"""Layer spans inside sweep worker processes (traced sweep runs only).

A traced ``sweep`` run puts this directory on ``PYTHONPATH`` and names a
dump directory in ``PERFBENCH_WORKER_OUT`` while its process pool
spawns.  Each worker then installs the same layer wrappers as the
parent and, when it exits, writes its span totals and its store
counters to ``<dump dir>/<pid>.json`` for the parent to merge.  Without
the variable this module does nothing.
"""

import os

_OUT = os.environ.get("PERFBENCH_WORKER_OUT")

if _OUT:
    import atexit
    import json
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from spans import Tracer, install_layers

    _tracer = Tracer()
    install_layers(_tracer)
    _tracer.enabled = True

    def _dump() -> None:
        from repro.engine import active_store

        store = active_store()
        totals = store.stats["totals"] if store is not None else None
        partial = Path(_OUT, f"{os.getpid()}.part")
        try:
            partial.write_text(json.dumps({"totals": _tracer.snapshot(), "store": totals}))
            os.replace(partial, partial.with_suffix(".json"))
        except OSError:
            pass  # a helper process outliving the traced sweep's dump directory

    atexit.register(_dump)
