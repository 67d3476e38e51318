"""Load every exported graph through both readers, in a fresh process.

    python3 perfbench/readback.py EXPORT_DIR [SPANS_FILE]

With SPANS_FILE the readers are traced and the spans written there.
"""

import sys
from pathlib import Path

from tracer import Tracer, install


def main():
    out_dir = Path(sys.argv[1])
    spans_path = sys.argv[2] if len(sys.argv) > 2 else None
    from mosco_graphs import graphs

    tracer = Tracer()
    if spans_path:
        install(tracer)
    try:
        paths = sorted(out_dir.glob("graph_*.json"))
        for path in paths:
            stem = path.name[: -len(".json")]
            graphs.read_graph_json(path)
            graphs.read_edge_list(out_dir / f"{stem}.edges.txt", out_dir / f"{stem}.vertices.txt")
    finally:
        if spans_path:
            tracer.dump(spans_path)
    return 0 if paths else 1


if __name__ == "__main__":
    sys.exit(main())
