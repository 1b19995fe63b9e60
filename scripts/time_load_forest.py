"""Time forest.load_forest on one fully grown forest.

Fits a 40-tree regressor, with no depth limit, to 1,900 rows of 20 normal
features and integer targets; saves it in the model format of the
vcaqoe on the import path; loads it 30 times; prints one JSON object with
the format version, the node count, the file's size and the best and
median CPU time of one load. The fit depends on nothing but its seed, so
two checkouts time the same trees, each in its own format:

    PYTHONPATH=src python3 scripts/time_load_forest.py
"""

import json
import os
import platform
import statistics
import sys
import tempfile
import time

import numpy as np

from vcaqoe import forest

LOADS = 30


def main():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(1900, 20))
    y = np.round(10 * X[:, 0] + 5 * rng.normal(size=1900))
    model = forest.RandomForestRegressor(n_trees=40, max_depth=1000,
                                         seed=1).fit(X, y)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        forest.save_forest(model, path, [f"f{i}" for i in range(20)])
        times = []
        for _ in range(LOADS):
            t0 = time.process_time()
            back = forest.load_forest(path)
            times.append(time.process_time() - t0)
        size = os.path.getsize(path)
    assert np.array_equal(back.predict(X), model.predict(X))
    print(json.dumps({
        "format_version": forest.MODEL_FORMAT_VERSION,
        "nodes": int(model._sizes.sum()), "file_bytes": size,
        "load_ms_best": round(1000 * min(times), 2),
        "load_ms_median": round(1000 * statistics.median(times), 2),
        "loads": LOADS, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
