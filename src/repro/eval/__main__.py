"""``python -m repro.eval`` — regenerate the paper's figures;
``python -m repro.eval serve`` — run the evaluation service daemon."""

import sys

if len(sys.argv) > 1 and sys.argv[1] == "serve":
    from repro.eval.server import main as serve_main

    raise SystemExit(serve_main(sys.argv[2:]))

from repro.eval.runner import run_cli

raise SystemExit(run_cli())
