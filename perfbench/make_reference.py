"""Regenerate ``reference_constants.json`` for the constants_d23 workload.

Usage (from the repository root): ``python3 perfbench/make_reference.py``.
The values are seed-free: every geometry and site pair the workload can
generate is evaluated once through ``alloylab constants`` and stored at full
precision, so a later transform implementation must reproduce them.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
import alloylab.cli as cli  # noqa: E402


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for key, geometry in workloads.all_constants_keys():
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps({
                "dimension": geometry["d"],
                "box_radius": geometry["r"],
                "disorder_strength": 2.0,
                "potential": "nn_signed",
                "density": "bump",
                "site_x": geometry["x"],
                "site_y": geometry["y"],
            }))
            out = Path(tmp) / key
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(["constants", "--config", str(config), "--out", str(out)])
            if rc != 0:
                raise SystemExit(f"constants failed for {key} (exit code {rc})")
            (line,) = (out / "results.jsonl").read_text().splitlines()
            record = json.loads(line)
            reference[key] = {
                name: record[name] for name in ("envelope_size",) + workloads.CONSTANTS_FIELDS
            }
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} references to {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
