"""Correctness checks on the CSVs a pass writes.

Every statistical check allows ``Z`` standard errors.  Proportions use the
Agresti-Coull interval, which stays honest at estimates of 0 or 1 and at a
few dozen replications, where the plain binomial stderr collapses to 0;
fig3's mean squared radius uses its exact chi-squared law (see ``_fig3``).
``Z = 5`` puts the chance that Monte Carlo noise alone fails a check near
one in a million, so a run of about a hundred checks should not fail by
chance.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

Z = 5.0
#: slack for closed-form probabilities compared with alpha
EXACT_TOL = 1e-9


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def read_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def digest(path: Path) -> str:
    """SHA-256 of a file, or of a directory's files in name order."""
    h = hashlib.sha256()
    files = sorted(path.iterdir()) if path.is_dir() else [path]
    for f in files:
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def _agresti_coull(p_hat: float, n: int) -> tuple[float, float]:
    x = round(p_hat * n)
    n_t = n + Z * Z
    p_t = (x + Z * Z / 2.0) / n_t
    half = Z * math.sqrt(p_t * (1.0 - p_t) / n_t)
    return p_t - half, p_t + half


def _label(row: dict, *keys: str) -> str:
    return " ".join(f"{k}={row[k]}" for k in keys)


def _fig1(rows):
    for r in rows:
        area = float(r["estimate"])
        yield Check(
            f"fig1 area {_label(r, 'replicate', 'kind')}",
            math.isfinite(area) and area > 0.0, f"area={area!r}",
        )


def _fig3(rows):
    """The split radius is ``2 L / m0 + ||mean0 - mean1||^2`` with the second
    term ``(1/m0 + 1/m1) chi2_d``, so the replication sum is an exact
    chi-squared with ``d * reps`` degrees of freedom.  Its Wilson-Hilferty
    z-score is standard normal even at a few replications, where the
    sample stderr of a skewed chi2_1 mean is not."""
    for r in rows:
        n, m0, d, reps = int(r["n"]), int(r["m0"]), int(r["d"]), int(r["reps_used"])
        est, ref = float(r["estimate"]), float(r["analytic"])
        scale = 1.0 / m0 + 1.0 / (n - m0)
        offset = 2.0 * math.log(1.0 / float(r["alpha"])) / m0
        dof = d * reps
        chi2 = max(reps * (est - offset) / scale, 0.0)
        z = ((chi2 / dof) ** (1.0 / 3.0) - (1.0 - 2.0 / (9.0 * dof))) / math.sqrt(2.0 / (9.0 * dof))
        yield Check(
            f"fig3 mean sq radius {_label(r, 'd', 'p0')}",
            abs(z) <= Z and math.isclose(ref, offset + scale * d, rel_tol=1e-9),
            f"estimate={est!r} analytic={ref!r} z={z:.2f}",
        )


def _fig5(rows):
    for r in rows:
        if r["condition_ok"] != "true":
            continue
        lo, hi = _agresti_coull(float(r["estimate"]), int(r["reps_used"]))
        lower, upper = float(r["lower"]), float(r["upper"])
        yield Check(
            f"fig5 P(ratio<=4) within bounds {_label(r, 'd')}",
            lo <= upper and hi >= lower,
            f"estimate={r['estimate']} interval=[{lo:.4f}, {hi:.4f}] bounds=[{lower:.4f}, {upper:.4f}]",
        )


def _at_most_alpha(name: str, r: dict) -> Check:
    alpha, est = float(r["alpha"]), float(r["estimate"])
    if int(r["reps_used"]) == 0:  # closed form
        return Check(name, est <= alpha + EXACT_TOL, f"value={est!r} alpha={alpha}")
    lo, _ = _agresti_coull(est, int(r["reps_used"]))
    return Check(name, lo <= alpha, f"estimate={est!r} interval_low={lo:.4f} alpha={alpha}")


def _in_annulus(r: dict) -> bool:
    return 0.5 <= float(r["theta_norm"]) <= 1.0


def _fig6(rows):
    for r in rows:
        if r["method"] == "mc" and float(r["n_theta_sq"]) == 0.0:
            yield _at_most_alpha(f"fig6 null rejection {_label(r, 'test', 'd')}", r)


def _fig7(rows):
    for r in rows:
        if _in_annulus(r):
            yield _at_most_alpha(f"fig7 null rejection {_label(r, 'method', 'd', 'theta_norm')}", r)


def _figS3(rows):
    exact = {(r["d"], r["theta_norm"]): float(r["estimate"]) for r in rows if r["method"] == "exact"}
    for r in rows:
        key = (r["d"], r["theta_norm"])
        if r["method"] != "mc" or key not in exact:
            continue
        lo, hi = _agresti_coull(float(r["estimate"]), int(r["reps_used"]))
        yield Check(
            f"S3 mc matches exact {_label(r, 'd', 'theta_norm')}",
            lo <= exact[key] <= hi,
            f"mc={r['estimate']} interval=[{lo:.4f}, {hi:.4f}] exact={exact[key]!r}",
        )


def _figS4(rows):
    for r in rows:
        if r["quantity"] == "power" and _in_annulus(r):
            yield _at_most_alpha(f"S4 null rejection {_label(r, 'd', 'theta_norm')}", r)


_BY_PRESET = {
    "regions_fig1": _fig1,
    "split_p0_fig3": _fig3,
    "ratio_prob_fig5": _fig5,
    "power_fig6": _fig6,
    "doughnut_fig7": _fig7,
    "intersect_power_figS3": _figS3,
    "hybrid_cases_figS4": _figS4,
}


def statistical(rows_by_preset: dict[str, list[dict]]) -> list[Check]:
    """The preset-specific checks; rows with an error status are skipped
    here and counted by the error rate instead."""
    out = []
    for preset, rows in rows_by_preset.items():
        if preset in _BY_PRESET:
            out += _BY_PRESET[preset]([r for r in rows if r["status"] == "ok"])
    return out


def determinism(digests: list[dict[str, str]], tags: list[str]) -> list[Check]:
    """Each output is byte-identical across passes, whatever their worker
    count and whether they were traced."""
    out = []
    for name in digests[0]:
        seen = {tag: d[name] for tag, d in zip(tags, digests)}
        ok = len(set(seen.values())) == 1
        detail = "identical" if ok else " ".join(f"{t}:{h[:12]}" for t, h in seen.items())
        out.append(Check(f"determinism {name} over {len(tags)} passes", ok, detail))
    return out
