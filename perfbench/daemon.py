"""Start the proving service with every layer wrapped, for traced runs.

    python3 perfbench/daemon.py --unix-socket PATH --spans-out FILE

Installs the same wrappers the traced benchmark uses, then runs
``repro serve --unix-socket PATH`` in-process through the command
line's own entry point, so the daemon has its default configuration.
Each ``stats`` request marks how many spans and what counts the
recorder held at that moment, so the benchmark can keep only what
happened between the two ``stats`` calls around its timed section.
When the daemon has drained and stopped, spans, counts and marks are
written to ``FILE`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--unix-socket", required=True)
    parser.add_argument("--spans-out", required=True)
    args = parser.parse_args()

    import layers
    from spans import Patcher, SpanRecorder
    from repro.cli import main as repro_main
    from repro.service.server import ProvingService

    recorder = SpanRecorder()
    patcher = Patcher(recorder)
    layers.install(patcher)
    marks = []

    def mark(*args, **kwargs) -> dict:
        marks.append({"spans": len(recorder.spans),
                      "counts": dict(recorder.counts)})
        return {}

    patcher.counter(ProvingService, "stats", mark)
    rc = repro_main(["serve", "--unix-socket", args.unix_socket])
    with open(args.spans_out, "w") as fh:
        json.dump({"spans": recorder.spans, "marks": marks}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
