"""The benchmark's workloads: fixed lists of ``ulrt`` command lines.

Each workload is a closed loop of CLI calls, one after another, each waiting
for the previous one.  Figure presets take the workload seed as ``--seed``
and write their CSV under the pass's output directory; ``formula`` calls are
deterministic closed forms and take no seed.  Sizes are reduced from the
desk-scale defaults so that one pass takes a few seconds on 2 cores; the
``tiny`` sizes exist for the smoke test only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# engine axis -> figure flag of the ``ulrt figure`` command
_AXIS_FLAGS = {"reps": "--reps", "replicates": "--reps", "B": "--B"}


@dataclass(frozen=True)
class Preset:
    """One ``ulrt figure`` call: a preset id, its figure alias, and axis
    overrides as ``(full, tiny)`` pairs."""

    experiment_id: str
    figure: str
    axes: dict = field(default_factory=dict)

    def overrides(self, tiny: bool) -> dict:
        return {axis: pair[1 if tiny else 0] for axis, pair in self.axes.items()}


PRESETS = {
    "mc_single_split": (
        Preset("split_p0_fig3", "3", {"reps": (30, 4)}),
        # 656 = 4 chunks of 164 at d = 100, so both workers stay busy
        Preset("ratio_prob_fig5", "5", {"reps": (656, 40)}),
        Preset("power_fig6", "6", {"reps": (100, 6)}),
        Preset("intersect_power_figS3", "S3", {"reps": (100, 6)}),
    ),
    "mc_subsampled": (
        Preset("doughnut_fig7", "7", {"reps": (10, 2)}),
        Preset("hybrid_cases_figS4", "S4", {"reps": (10, 2)}),
        Preset("approx_fig2", "2", {"B": (20000, 500)}),
    ),
    "regions_analytic": (
        Preset("regions_fig1", "1", {"replicates": (12, 1)}),
        Preset("crossfit_p0_figS2", "S2"),
        Preset("ratio_bounds_fig4", "4"),
    ),
}

WORKLOADS = tuple(PRESETS)

#: ``ulrt formula`` calls across the documented range (d up to 1e5, lambda
#: up to 1e5, ln(1/alpha) up to 1e8).  Four of them fail at the seed commit
#: (ROADMAP item 4) and stay in the workload so that the failure shows.
FORMULAS = (
    "p0star --alpha 0.1 --d 1",
    "p0star --alpha 1e-6 --d 100000",
    "split-sq-radius --alpha 0.1 --d 10 --n 1000 --p0 0.6",
    "ratio --alpha 0.1 --d 2",
    "ratio --alpha 0.01 --d 100000",
    "ratio-bounds --log-inv-alpha 1e8 --d 2",
    "ratio-bounds --log-inv-alpha 1e5 --d 1 --json",
    "ratio-bounds --log-inv-alpha 1 --d 100000",
    "prob-leq4-bounds --alpha 0.1 --d 100",
    "prob-leq4-bounds --alpha 0.05 --d 10000",
    "chi2-quantile --alpha 0.1 --d 1",
    "chi2-quantile --alpha 1e-300 --d 1000",
    "chi2-quantile --alpha 0.5 --d 10000",
    "chi2-quantile --alpha 0.01 --d 100000",
    "noncentral-cdf --x 20 --d 10 --noncentrality 5",
    "noncentral-cdf --x 100500 --d 2 --noncentrality 100000",
    "power-classical --theta-sq-norm 0.01 --n 1000 --d 10",
    "power-classical --theta-sq-norm 1 --n 100000 --d 2",
    "power-classical --theta-sq-norm 0.05 --n 1000 --d 100 --method approx",
    "power-subsampling --theta-sq-norm 0.02 --n 1000 --d 2",
    "power-subsampling --theta-sq-norm 0.5 --n 1000 --d 10000 --method approx",
    "intersect-power --theta-norm 1.2 --n 1000 --d 2",
    "intersect-power --theta-norm 0.1 --n 1000 --d 100",
    "limiting-sq-radius --alpha 0.1 --d 100000 --n 1000",
)


@dataclass(frozen=True)
class Call:
    """One CLI invocation; ``preset`` and ``out`` are set for figure calls."""

    argv: tuple
    preset: Preset | None = None
    out: str | None = None

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def calls(workload: str, seed: int, workers: int, out_dir: str, tiny: bool = False) -> list[Call]:
    """The workload's CLI calls, in the order a pass runs them."""
    result = []
    for preset in PRESETS[workload]:
        out = f"{out_dir}/{preset.experiment_id}.csv"
        argv = ["figure", preset.figure, "--seed", str(seed), "--workers", str(workers), "--out", out]
        for axis, value in preset.overrides(tiny).items():
            argv += [_AXIS_FLAGS[axis], str(value)]
        result.append(Call(tuple(argv), preset, out))
    if workload == "regions_analytic":
        rays = "30" if tiny else "180"
        result.append(Call(("region", "--seed", str(seed), "--rays", rays, "--out", f"{out_dir}/region")))
        result += [Call(("formula", *line.split())) for line in FORMULAS]
    return result


def mc_replications(spec) -> int:
    """Monte Carlo replications a preset's spec asks for, counted once per
    cell: one replication is one simulated dataset with its B splits, and
    fig2, which splits one fixed dataset, counts each of its B splits."""
    total = 0
    for cell in spec.grid:
        if spec.experiment_id == "approx_fig2":
            total += cell["B"]
        elif cell.get("method") in ("exact", "approx", "intersection_exact"):
            continue
        elif "reps" in cell:
            total += cell["reps"]
    return total
