"""Set-up probe: import bachelier_wings and build the given models.

Run in a fresh interpreter by run.py, which times the whole process:

    python3 perfbench/setup_child.py '[["nig", {"alpha": 2, "beta": 0.5, "delta": 1}]]'
"""

import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    import bachelier_wings as bw

    for family, params in json.loads(sys.argv[1]):
        bw.parse_model_config({"model": family, "params": params})
