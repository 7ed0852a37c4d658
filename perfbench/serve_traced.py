"""``repro serve`` with the layer map wrapped, for the traced run.

Usage: ``python3 perfbench/serve_traced.py LAYERS.json OUT.json STORE_DIR [serve options]``

The server runs exactly as ``python3 -m repro.cli serve STORE_DIR ...``
would, in its own process; on shutdown (SIGINT) it writes the
per-layer totals of that process to ``OUT.json``.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv) -> int:
    layers, out_path, *serve_args = argv
    sys.path.insert(0, HERE)
    import spans

    recorder = spans.Recorder()
    installed = spans.install(recorder, spans.load_layers(layers))
    from repro.cli import main as repro_main

    try:
        code = repro_main(["serve", *serve_args])
    finally:
        snapshot = recorder.snapshot()
        installed.restore()
        with open(out_path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle)
        os.replace(out_path + ".tmp", out_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
