"""Independent checks of each job's output.

CD2 is re-scored with ``scipy.stats.qmc.discrepancy(method="CD")``, which
shares no code with unidesign, and compared with the value the CLI printed.
What else is checked depends on the command in the job's argv:

* ``construct``: the design parses, has the requested shape and lies in
  [0, 1]; a ``--algo ta`` design is a balanced embedded U-type design.
* ``evaluate --gradient``: the gradient has the design's shape, is finite and
  matches central differences of the oracle at two coordinates.
* ``bench``: the report parses and every requested basis has a finite RMSE
  in every cell.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import qmc

CD2_RTOL = 1e-8  # the CLI prints 10 significant digits
GRADIENT_RTOL = 1e-3  # of the largest gradient entry; central differences are exact
# between kinks, so this only absorbs the oracle's round-off


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    cd2: float | None = None  # oracle CD2 of the design a construct job wrote
    rmses: list[float] = field(default_factory=list)  # every bench cell


def _opt(argv, flag: str) -> str | None:
    argv = list(argv)
    return argv[argv.index(flag) + 1] if flag in argv else None


def oracle_cd2(x: np.ndarray) -> float:
    return float(qmc.discrepancy(x, method="CD"))


def _load_design(path: str, outcome: Outcome) -> np.ndarray | None:
    try:
        x = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        outcome.problems.append(f"{path}: unreadable design: {exc}")
        return None
    if not np.all(np.isfinite(x)):
        outcome.problems.append(f"{path}: non-finite entries")
        return None
    if x.min() < 0.0 or x.max() > 1.0:
        outcome.problems.append(f"{path}: entries outside [0, 1]")
        return None
    return x


def _compare_cd2(printed: str, x: np.ndarray, outcome: Outcome) -> float:
    value = oracle_cd2(x)
    try:
        shown = float(printed)
    except ValueError:
        outcome.problems.append(f"printed CD2 {printed!r} is not a number")
        return value
    if not abs(shown - value) <= CD2_RTOL * abs(value) + 1e-15:
        outcome.problems.append(f"printed CD2 {shown!r} but the oracle gives {value!r}")
    return value


def _is_embedded_utype(x: np.ndarray, q: int) -> bool:
    levels = np.rint(x * q + 0.5)
    if not np.allclose(x, (levels - 0.5) / q, rtol=0.0, atol=1e-12):
        return False
    if levels.min() < 1 or levels.max() > q or x.shape[0] % q:
        return False
    reps = x.shape[0] // q
    return all(
        np.array_equal(np.bincount(col.astype(int), minlength=q + 1)[1:], np.full(q, reps))
        for col in levels.T
    )


def _check_construct(argv, stdout: str, outcome: Outcome) -> None:
    x = _load_design(_opt(argv, "--out"), outcome)
    if x is None:
        return
    init = _opt(argv, "--init")
    if init is not None:
        expected = np.loadtxt(init, delimiter=",", ndmin=2).shape
    else:
        expected = (int(_opt(argv, "--n")), int(_opt(argv, "--s")))
    if x.shape != expected:
        outcome.problems.append(f"design shape {x.shape}, expected {expected}")
        return
    if _opt(argv, "--algo") == "ta" and not _is_embedded_utype(x, int(_opt(argv, "--q"))):
        outcome.problems.append("TA design is not a balanced embedded U-type design")
    lines = stdout.split()
    outcome.cd2 = _compare_cd2(lines[0] if lines else "", x, outcome)


def _widest_gap(column: np.ndarray) -> tuple[int, float]:
    """Row whose value is farthest from every kink (other values, 1/2, 0, 1)."""
    order = np.argsort(column)
    v = column[order]
    gap = np.minimum(np.diff(v, prepend=-np.inf), np.diff(v, append=np.inf))
    gap = np.minimum(gap, np.minimum(np.abs(v - 0.5), np.minimum(v, 1.0 - v)))
    k = int(np.argmax(gap))
    return int(order[k]), float(gap[k])


def _check_gradient(x: np.ndarray, rows: list[str], outcome: Outcome) -> None:
    try:
        grad = np.array([[float(v) for v in row.split(",")] for row in rows])
    except ValueError:
        outcome.problems.append("gradient rows are not numbers")
        return
    if grad.shape != x.shape or not np.all(np.isfinite(grad)):
        outcome.problems.append(f"gradient shape {grad.shape} or values invalid for a {x.shape} design")
        return
    scale = float(np.max(np.abs(grad)))
    for j in range(min(2, x.shape[1])):
        i, gap = _widest_gap(x[:, j])
        h = gap / 4.0
        hi, lo = x.copy(), x.copy()
        hi[i, j] += h
        lo[i, j] -= h
        central = (oracle_cd2(hi) - oracle_cd2(lo)) / (2.0 * h)
        if not abs(grad[i, j] - central) <= GRADIENT_RTOL * scale:
            outcome.problems.append(
                f"gradient[{i},{j}] = {grad[i, j]!r}, central difference {central!r}"
            )


def _check_evaluate(argv, stdout: str, outcome: Outcome) -> None:
    x = _load_design(_opt(argv, "--design"), outcome)
    if x is None:
        return
    lines = stdout.splitlines()
    _compare_cd2(lines[0] if lines else "", x, outcome)
    if "--gradient" in argv:
        _check_gradient(x, lines[1:], outcome)


def _check_bench(argv, outcome: Outcome) -> None:
    path = _opt(argv, "--out")
    try:
        with open(path) as fh:
            report = json.load(fh)
        bases = report["bases"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        outcome.problems.append(f"{path}: unreadable report: {exc}")
        return
    cells_expected = 1 if _opt(argv, "--design") else int(_opt(argv, "--reps") or 10)
    for basis in (_opt(argv, "--basis") or "poly0").split(","):
        cells = bases.get(basis, {}).get("cells", [])
        rmses = [c.get("rmse") for c in cells]
        if len(rmses) != cells_expected or not all(
            isinstance(r, (int, float)) and math.isfinite(r) for r in rmses
        ):
            outcome.problems.append(f"{path}: basis {basis}: cells {cells!r}")
            continue
        if not math.isfinite(bases[basis].get("rmse", math.nan)):
            outcome.problems.append(f"{path}: basis {basis}: mean RMSE is not finite")
        outcome.rmses.extend(rmses)


def check_job(argv, rc, stdout: str) -> Outcome:
    """Check one job from its argv, exit code and standard output."""
    outcome = Outcome()
    if rc != 0:
        outcome.problems.append(f"exit code {rc}")
        return outcome
    command = argv[0]
    if command == "construct":
        _check_construct(argv, stdout, outcome)
    elif command == "evaluate":
        _check_evaluate(argv, stdout, outcome)
    elif command == "bench":
        _check_bench(argv, outcome)
    else:
        outcome.problems.append(f"no check for command {command!r}")
    return outcome
