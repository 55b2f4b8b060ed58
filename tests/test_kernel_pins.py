"""Pinned outputs of the statistic paths that no golden digest covers.

No preset runs :func:`ulrt.engine.coverage_suite`, and fig6 has no Monte
Carlo subsampling cell, so these pin their exact results at small sizes
(odd n, so the two parts differ in size).  Like the golden digests, any
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
