"""Write reference.json: the non-uniform spaces of dual-small and the polar
floors of the cases that have no closed-form certificate.

Marcinkiewicz and Lorentz polars on non-uniform spaces have no closed form,
so the benchmark holds them to a one-sided floor: the value kothe returned
when the reference was recorded.  A later value may be higher (with a
feasible witness) but not lower.  Re-recording would move the floors, so run
this only to add cases, and say so where the change is described.

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import kothe  # noqa: E402
from workloads import POOL_SIZES, REFERENCE, SEMINORMS  # noqa: E402

SPACES_PER_SIZE = 8
CASES_PER_SPACE = 8


def main() -> None:
    rng = np.random.default_rng(20200818)
    spaces: dict[str, list[list[float]]] = {}
    floors: dict[str, dict[str, list]] = {"marcinkiewicz": {}, "lorentz": {}}
    for n in POOL_SIZES:
        pool = []
        for _ in range(SPACES_PER_SIZE):
            p = rng.dirichlet(np.full(n, 2.0))
            pool.append((p / p.sum()).tolist())
        spaces[str(n)] = pool
        for fam in floors:
            spec = SEMINORMS[fam](n)
            per_space = []
            for probs in pool:
                space = kothe.FiniteProbSpace(np.array(probs))
                cases = []
                for _ in range(CASES_PER_SPACE):
                    y = rng.standard_normal(n).tolist()
                    value = kothe.polar(space, spec, kothe.Rv(np.array(y))).value
                    cases.append({"y": y, "value": value})
                per_space.append(cases)
            floors[fam][str(n)] = per_space
        print(f"n={n} recorded", file=sys.stderr)
    doc = {
        "about": "dual-small non-uniform spaces and one-sided polar floors, recorded at commit 0f44d18",
        "spaces": spaces,
        "floors": floors,
    }
    REFERENCE.write_text(json.dumps(doc) + "\n")


if __name__ == "__main__":
    main()
