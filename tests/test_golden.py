"""Golden digests: the SHA-256 of ``rows_to_csv`` for one small spec of each
preset experiment, and of the three CSVs that ``ulrt region`` writes.

Any change to an output byte of any preset fails here.  A change that moves
a digest on purpose updates it in the same commit and says why in
CHANGES.md.  Floating-point outputs are pinned for the ``np.log`` and
``np.exp`` loops that numpy dispatches to on the running CPU (see
``ulrt.rng``): numpy's AVX-512 loops differ from glibc's libm, so a digest
can also move on a CPU without AVX-512 or on another platform.
"""

import hashlib

import pytest

from ulrt import _kernels, engine
from ulrt.cli import main

SEED = 20240601
WORKERS = 2

GOLDEN = {
    "regions_fig1": (
        dict(n=200, B=20, replicates=1, rays=24, tol=1e-4),
        "d19442ffcd3200ff7a516c653776b2cea3a08412e659001201a31f3e9af2bb73",
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
        "809f0ed749c1575772938c0f7622578e5fcfb0b726b118603776acef0e15f754",
    ),
    "doughnut_fig7": (
        dict(ds=(2,), n=200, B=10, reps=40, theta_norms=(0.0, 0.75, 1.1)),
        "a82fe5c507c9a532c92283e7861a9f6196cee4d47b18a727f2ca970013eecc9a",
    ),
    "crossfit_p0_figS2": (
        dict(n=200, p0s=(0.3, 0.5), rays=24, tol=1e-4),
        "7cf668c140d0b13de042505d0d3f200cef0e1b399e25bf15abaf90fd10bd31ef",
    ),
    "intersect_power_figS3": (
        dict(ds=(2,), n=200, reps=100, theta_norms=(0.0, 1.2)),
        "eee7a793a85418ee8db2c2ecbeb092f514eae1538fccbd85b01a0528316f27d9",
    ),
    "hybrid_cases_figS4": (
        dict(ds=(2,), n=200, B=10, reps=40, theta_norms=(0.0, 0.75, 1.25)),
        "19d41b227421e89e52e1d649718992be3563c5544d8a42071b06740150404685",
    ),
}


def test_every_experiment_is_pinned():
    assert set(GOLDEN) == set(engine.EXPERIMENT_IDS)


@pytest.mark.parametrize(
    "experiment_id,numpy_loops",
    [pytest.param(e, False, id=e) for e in sorted(GOLDEN)]
    + [pytest.param(e, True, id=f"{e}-numpy") for e in sorted(GOLDEN)],
)
def test_golden_digest(experiment_id, numpy_loops, tmp_path, monkeypatch):
    """On the compiled loops and, with no library loaded, on their numpy
    twins, which must give the same bytes."""
    if numpy_loops:
        monkeypatch.setattr(_kernels, "_loaded", [None])
    overrides, expected = GOLDEN[experiment_id]
    spec = engine.build_spec(experiment_id, SEED, **overrides)
    path = tmp_path / "rows.csv"
    engine.rows_to_csv(engine.run(spec, workers=WORKERS), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == expected


#: ``ulrt region --seed SEED --rays 25`` at the defaults n = 1000, d = 2,
#: B = 100 and tol = 1e-6.
REGION_GOLDEN = {
    "regions.csv": "7fee18df90b56d8728de5fa1a125d2b2d937e0a952a0b215830499b38619bb55",
    "boundary_crossfit.csv": "7f8532aec3ea831121d334847a2fc1f883cbc664cd3639940bfb942079251afa",
    "boundary_subsampling.csv": "f12863f5b2d03d4e7429c9cfc38347c6b011b8b57dfe16977c97049798f9ad00",
}


def test_region_command_digests(tmp_path):
    assert _region_digests(tmp_path) == REGION_GOLDEN


def test_region_command_digests_on_numpy_loops(tmp_path, monkeypatch):
    """With no library loaded, the numpy twins give the same bytes."""
    monkeypatch.setattr(_kernels, "_loaded", [None])
    assert _region_digests(tmp_path) == REGION_GOLDEN


def _region_digests(out):
    assert main(["region", "--seed", str(SEED), "--rays", "25", "--out", str(out)]) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in REGION_GOLDEN}
