"""The benchmark's workloads: one CLI command and one config each.

Three workloads share the ``heis`` model: d = 3, m = 2, cubic monotone
drift, hypoelliptic because [sigma1, sigma2] = e3.  The fourth is the scalar
OU model of ``configs/ou_simulate.cfg``.  The configs are the benchmark's
own copies, so editing ``configs/`` does not move the benchmark.  Every run
uses tamed Euler and ``--workers 1``; the workload seed reaches the program
only as ``--seed``.  ``README.md`` beside this file says why each workload
was chosen and which layers it stresses and bypasses.
"""
from __future__ import annotations

from dataclasses import dataclass

HEIS_MODEL = """\
[model]
d = 3
m = 2
x0 = 1.0, 0.5, 0.0
drift = -x1 - x1^3, -x2 - x2^3, -x3
sigma1 = 1, 0, -0.5*x2
sigma2 = 0, 1, 0.5*x1
"""

OU_MODEL = """\
[model]
d = 1
m = 1
x0 = 1.0
drift = -x1
sigma1 = 1
"""

K_GRID = (1.0, 2.0, 4.0, 8.0, 16.0)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: str
    stem: str  # name of the main JSON output, without ".json"
    paths: int = 0  # 0: no simulation
    n_steps: int = 0
    horizon: float = 0.0
    grid_points: int = 0  # spanning-check points; 0: no grid

    @property
    def path_steps(self) -> int:
        return self.paths * self.n_steps


def _simulation(horizon: float, n_steps: int, paths: int, extra: str = "") -> str:
    return (
        "[simulation]\n"
        f"T = {horizon}\n"
        f"n_steps = {n_steps}\n"
        "scheme = tamed-euler\n"
        f"paths = {paths}\n"
        f"{extra}"
    )


_K = ", ".join(str(int(k)) for k in K_GRID)

WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="ou-simulate",
            command="simulate",
            config=OU_MODEL + _simulation(1.0, 1024, 16384, "dump_paths = 2\n"),
            stem="ensemble",
            paths=16384,
            n_steps=1024,
            horizon=1.0,
        ),
        Workload(
            name="heis-tails",
            command="tails",
            config=HEIS_MODEL
            + _simulation(0.5, 512, 1000)
            + f"[analysis]\nL = 2\nK_grid = {_K}\nt = 0.5\nmatrix = Q\n"
            "fit_envelope = true\n",
            stem="tails",
            paths=1000,
            n_steps=512,
            horizon=0.5,
        ),
        Workload(
            name="heis-remainder",
            command="remainder-tails",
            config=HEIS_MODEL
            + _simulation(0.5, 1024, 384)
            + f"[analysis]\nL = 3\nepsilon = 0.5\nK_grid = {_K}\nfield = sigma1\n",
            stem="remainder_tails",
            paths=384,
            n_steps=1024,
            horizon=0.5,
        ),
        Workload(
            name="heis-hormander",
            command="check-hormander",
            config=HEIS_MODEL
            + "[analysis]\nL = 3\ngrid_min = -2, -2, -2\ngrid_max = 2, 2, 2\n"
            "grid_points = 21, 21, 21\n",
            stem="hormander",
            grid_points=21**3,
        ),
    )
}
