"""Run ``lopc-repro serve`` with span wrappers installed.

Usage: ``python3 perfbench/serve_host.py SPANS.json [serve options...]``.
The traced run hosts the server through this script; the untraced run
starts ``python3 -m repro.cli serve`` itself, as users deploy it.  On
SIGINT the server shuts down as usual and the spans it recorded are
written to ``SPANS.json``.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench.spans import Recorder, install
    from repro.cli import main

    recorder = Recorder()
    install(recorder, serve=True)
    try:
        code = main(["serve", *sys.argv[2:]])
    finally:
        recorder.dump(sys.argv[1])
    sys.exit(code)
