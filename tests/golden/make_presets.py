"""Write the full-scale preset tables to tests/golden/presets.json.

    PYTHONPATH=src python tests/golden/make_presets.py [--out PATH]

Runs ``run_preset("table1".."table4")`` at default settings (1000
replications, the default master seed) and writes, for every SummaryRow,
its cell key (table, estimator, param, n) and the ``repr`` of its mean,
rmse and failures, one row per line.  ``repr`` round-trips a float
exactly, so a change of one ulp in any mean or rmse changes the file.
The four presets take about 20 s on one core.

The ``full-tables`` CI job regenerates the file to a scratch path and
compares it byte for byte with the committed one.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from levyestim.mc import PRESET_NAMES, run_preset

GOLDEN = Path(__file__).resolve().parent / "presets.json"


def preset_lines() -> list[str]:
    lines = []
    for table_id in PRESET_NAMES:
        for row in run_preset(table_id):
            lines.append(json.dumps([row.table, row.estimator, row.param,
                                     row.n, repr(row.mean), repr(row.rmse),
                                     repr(row.failures)]))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=GOLDEN)
    args = parser.parse_args(argv)
    args.out.write_text("[\n" + ",\n".join(preset_lines()) + "\n]\n",
                        encoding="utf8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
