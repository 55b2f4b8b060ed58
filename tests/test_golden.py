"""Golden digests: the SHA-256 of ``rows_to_csv`` for one small spec of each
preset experiment, and of the three CSVs that ``ulrt region`` writes.

Any change to an output byte of any preset fails here.  A change that moves
a digest on purpose updates it in the same commit and says why in
CHANGES.md.  Floating-point outputs are pinned for one platform's libm (see
``ulrt.rng``), so a digest can also move on another platform.
"""

import hashlib

import pytest

from ulrt import engine
from ulrt.cli import main

SEED = 20240601
WORKERS = 2

GOLDEN = {
    "regions_fig1": (
        dict(n=200, B=20, replicates=1, rays=24, tol=1e-4),
        "11a6cf087d8873e20e68360a8517c27505ca48d84a3c3c5c1ef638625c16960b",
    ),
    "approx_fig2": (
        dict(ds=(1, 2), ns=(100,), B=200, grid_points=5),
        "43d285362e2bce306543f6054d88ae31d62eb03526eeddb45aabe9c0048c1683",
    ),
    "split_p0_fig3": (
        dict(ds=(2,), n=100, reps=50, p0s=(0.5, 0.7)),
        "184352335a55dede372844d370d3c15693018e225722bd5063387029382c3c88",
    ),
    "ratio_bounds_fig4": (
        dict(ds=(10,), xs=(0.0, 1.0, 3.0)),
        "3cb4d3e39d461146d9160909355c85452cc29f67f62956f75ec4c022f815e392",
    ),
    # d = 100 at n = 1000 takes two chunks of the 200 replications
    "ratio_prob_fig5": (
        dict(ds=(2, 100), n=1000, reps=200),
        "35a1c77846d2cb135389339180642c450f67f1a5a610512778dd6bd99477c33a",
    ),
    "power_fig6": (
        dict(ds=(2,), n=200, reps=100, B=10, lambdas=(0.0, 8.0)),
        "4e77c03784bd2d30c0dce57c1b4329b758cea6725f3338f34322c94fb38cc023",
    ),
    "doughnut_fig7": (
        dict(ds=(2,), n=200, B=10, reps=40, theta_norms=(0.0, 0.75, 1.1)),
        "bcaecea5594d469c073b8eaedf601a15d5ee099f1ae49870c970641a87c81b83",
    ),
    "crossfit_p0_figS2": (
        dict(n=200, p0s=(0.3, 0.5), rays=24, tol=1e-4),
        "4ea5b4a81c266e6f6bd8860bafb429693222fbc9a6ff86017c00e8c115b42e7a",
    ),
    "intersect_power_figS3": (
        dict(ds=(2,), n=200, reps=100, theta_norms=(0.0, 1.2)),
        "e02bb943df0583978abeb65335f5e3c366875253bd2861eb8bd1472e675e0cb8",
    ),
    "hybrid_cases_figS4": (
        dict(ds=(2,), n=200, B=10, reps=40, theta_norms=(0.0, 0.75, 1.25)),
        "19d41b227421e89e52e1d649718992be3563c5544d8a42071b06740150404685",
    ),
}


def test_every_experiment_is_pinned():
    assert set(GOLDEN) == set(engine.EXPERIMENT_IDS)


@pytest.mark.parametrize("experiment_id", sorted(GOLDEN))
def test_golden_digest(experiment_id, tmp_path):
    overrides, expected = GOLDEN[experiment_id]
    spec = engine.build_spec(experiment_id, SEED, **overrides)
    path = tmp_path / "rows.csv"
    engine.rows_to_csv(engine.run(spec, workers=WORKERS), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == expected


#: ``ulrt region --seed SEED --rays 25`` at the defaults n = 1000, d = 2,
#: B = 100 and tol = 1e-6.
REGION_GOLDEN = {
    "regions.csv": "39026e3c2b408b25484a61acce02efd3541c9b0393e5982bc2a10c14839c6860",
    "boundary_crossfit.csv": "7f8532aec3ea831121d334847a2fc1f883cbc664cd3639940bfb942079251afa",
    "boundary_subsampling.csv": "f12863f5b2d03d4e7429c9cfc38347c6b011b8b57dfe16977c97049798f9ad00",
}


def test_region_command_digests(tmp_path):
    assert main(["region", "--seed", str(SEED), "--rays", "25", "--out", str(tmp_path)]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in REGION_GOLDEN
    }
    assert digests == REGION_GOLDEN
