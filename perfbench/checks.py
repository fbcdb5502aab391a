"""Output checks applied to the rounds of a benchmark run.

Every round's ``errors.csv`` and ``fit.csv`` must be well formed and
byte-identical to the run's first timed round. The reference round, run at
a workload's recorded seed, must also reproduce the ``eps`` values recorded
in ``golden.json`` and pass the workload's slope rule.
"""

from __future__ import annotations

import json
import math
import os

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
EPS_RTOL = 1e-12


def parse_errors(data: bytes) -> dict:
    """errors.csv -> {(scheme, p, delta): (eps, stderr, M)}."""
    rows = data.decode().splitlines()
    if not rows or rows[0] != "scheme,p,delta,eps,stderr,M":
        raise ValueError("errors.csv has an unexpected header")
    out = {}
    for row in rows[1:]:
        scheme, p, delta, eps, stderr, m = row.split(",")
        out[(scheme, int(p), float(delta))] = (float(eps), float(stderr), int(m))
    return out


def parse_fit(data: bytes) -> dict:
    """fit.csv -> {(scheme, p): slope}."""
    rows = data.decode().splitlines()
    if not rows or rows[0] != "scheme,p,slope,intercept,r2":
        raise ValueError("fit.csv has an unexpected header")
    return {(r.split(",")[0], int(r.split(",")[1])): float(r.split(",")[2]) for r in rows[1:]}


def check_well_formed(errors: bytes, fit: bytes, samples: int) -> list:
    """Problems with one round's outputs, as messages; empty when sound."""
    points, slopes = parse_errors(errors), parse_fit(fit)
    problems = []
    if not points:
        problems.append("errors.csv has no rows")
    for key, (eps, stderr, m) in points.items():
        if not (math.isfinite(eps) and eps > 0.0 and math.isfinite(stderr)):
            problems.append(f"{key}: eps={eps} stderr={stderr}")
        if m != samples:
            problems.append(f"{key}: M={m}, expected {samples}")
    for scheme, p in {(k[0], k[1]) for k in points}:
        if not math.isfinite(slopes.get((scheme, p), math.nan)):
            problems.append(f"no finite fitted slope for {scheme} p={p}")
    return problems


def _p2_band(slopes: dict) -> list:
    slope = slopes[("jump-adapted", 2)]
    if 0.40 <= slope <= 0.60:
        return []
    return [f"switch-adapted p=2 slope {slope:.4f} outside criterion 1's band [0.40, 0.60]"]


def _adapted_beats_classical(slopes: dict) -> list:
    adapted, classical = slopes[("jump-adapted", 2)], slopes[("classical", 2)]
    if adapted > classical:
        return []
    return [f"switch-adapted p=2 slope {adapted:.4f} not above classical {classical:.4f}"]


SLOPE_RULES = {
    "linear-closed": _p2_band,
    "fastswitch-closed": _adapted_beats_classical,
}


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def check_reference(workload, errors: bytes, fit: bytes, golden: dict) -> list:
    """Compare the reference round with the values recorded in golden.json."""
    entry = golden["workloads"].get(workload.name)
    if entry is None:
        return [f"golden.json has no entry for {workload.name}"]
    if entry["config_sha256"] != workload.sha256:
        return ["workload config differs from the one golden.json was recorded for"]
    if (entry["seed"], entry["samples"]) != (workload.check_seed, workload.check_samples):
        return ["reference round seed or sample count differs from golden.json"]
    points = parse_errors(errors)
    recorded = {(s, p, d): eps for s, p, d, eps in entry["eps"]}
    if set(points) != set(recorded):
        return ["errors.csv rows differ from golden.json"]
    problems = []
    for key, eps in recorded.items():
        got = points[key][0]
        if abs(got - eps) > EPS_RTOL * abs(eps):
            problems.append(f"{key}: eps {got!r} differs from recorded {eps!r} "
                            f"by more than {EPS_RTOL} relative")
    rule = SLOPE_RULES.get(workload.name)
    if rule is not None:
        problems += rule(parse_fit(fit))
    return problems
