"""Pinned outputs of the statistic paths that no golden digest covers.

No preset runs :func:`ulrt.engine.coverage_suite`, fig6 has no Monte
Carlo subsampling cell, and every golden annulus cell fits in one chunk,
so these pin their exact results at small sizes (odd n, so the two parts
differ in size, where the statistic allows it).  Like the golden digests, any
change to an output bit fails here.
"""

import hashlib

import numpy as np
import pytest

from ulrt import engine, power
from ulrt.rng import RngStream

N = 61
ALPHA = 0.1


def test_coverage_suite_rows_pinned():
    rows = engine.coverage_suite((1, 3), N, ALPHA, 600, 7, RngStream(31), workers=2)
    assert [(r.cell["method"], r.cell["d"], r.cell["B"]) for r in rows] == [
        (m, d, 7 if m == "subsampling" else 1)
        for d in (1, 3)
        for m in ("classical", "split", "crossfit", "subsampling")
    ]
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "a6cc659210c8359f12e421a2a27189d70c077c121a48748dd58f27711e97fe23"


#: (kind, B) -> (value, stderr) of 2000 replications at theta below, which
#: take four chunks of 512
MC_POWER_PINS = {
    ("split", 1): (0.181, 0.008609268261588785),
    ("split", 7): (0.181, 0.008609268261588785),
    ("crossfit", 1): (0.212, 0.009139365404665688),
    ("crossfit", 7): (0.212, 0.009139365404665688),
    ("subsampling", 1): (0.181, 0.008609268261588785),
    ("subsampling", 7): (0.2165, 0.00920944488012171),
}


@pytest.mark.parametrize("kind, B", sorted(MC_POWER_PINS))
def test_mc_power_pinned(kind, B):
    theta = np.array([0.25, -0.1, 0.15])
    est = power.mc_power(kind, theta, N, ALPHA, B=B, reps=2000, rng=RngStream(43), workers=2)
    assert (est.value, est.stderr, est.method) == (*MC_POWER_PINS[kind, B], "monte_carlo")


#: experiment -> (theta_norms, SHA-256 of the repr of its rows) at d = 2,
#: n = 200, B = 10 and 1100 replications, which take three chunks of 512,
#: so the pin covers the fold across chunks of every annulus test
ANNULUS_PINS = {
    "doughnut_fig7": (
        (0.3, 1.25), "9b13087546db1c37152482c5248627e220b40b8e5ba3be23ba5e737939dcb3b5"
    ),
    "hybrid_cases_figS4": (
        (1.25,), "135aaa41e43c65edcedd140bf80e2a186504d42686f52037d0109e62e4210913"
    ),
}


@pytest.mark.parametrize("experiment_id", sorted(ANNULUS_PINS))
def test_multi_chunk_annulus_cells_pinned(experiment_id):
    theta_norms, expected = ANNULUS_PINS[experiment_id]
    spec = engine.build_spec(
        experiment_id, 31, ds=(2,), n=200, B=10, reps=1100, theta_norms=theta_norms
    )
    rows = engine.run(spec, workers=2)
    assert all(r.status == "ok" for r in rows)
    powers = [r.estimate for r in rows if r.cell.get("quantity", "power") == "power"]
    assert all(0.0 < p < 1.0 for p in powers)
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == expected
