"""The benchmark's workloads: one closed-loop sweep each.

Every workload drives the public API the way a study script does:
``preset`` -> ``ScenarioConfig.replace`` -> ``run_sweep``. One pass of a
workload is one ``run_sweep`` call over its whole grid; the next pass starts
only when the previous one has returned. The workload seed is the
simulator's ``seed``, so the same seed always gives the same drop geometry,
shadowing and fading draws.
"""

from dataclasses import dataclass

import mmwsim

from perfbench.hostinfo import nproc


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    preset: str
    schedulers: tuple
    polarizations: tuple
    velocities: tuple
    parallel: bool = False
    overrides: tuple = ()        # (field, value) pairs replaced on the preset
    reference: str = None        # workload whose stored KPIs this one shares

    @property
    def reference_key(self):
        return self.reference or self.name

    @property
    def n_points(self):
        return (len(self.schedulers) * len(self.polarizations)
                * len(self.velocities))

    def parallelism(self):
        return min(nproc(), self.n_points) if self.parallel else 1

    def base(self, seed):
        return mmwsim.preset(self.preset).replace(**dict(self.overrides),
                                                  seed=seed)

    def axes(self, seed):
        return {"velocities": self.velocities,
                "polarizations": self.polarizations,
                "schedulers": self.schedulers,
                "seeds": (seed,)}

    def expand(self, seed):
        """The sweep points, built exactly as ``run_sweep`` builds them."""
        return mmwsim.expand_sweep(self.base(seed), **self.axes(seed))

    def run(self, seed):
        """One pass: returns ``(ResultsTable, failure list)``.

        ``mmwsim.run_sweep`` is looked up at call time so that a traced run
        sees the tracer's wrapper.
        """
        return mmwsim.run_sweep(self.base(seed),
                                parallelism=self.parallelism(),
                                **self.axes(seed))


_GRID = {"schedulers": ("RR", "PF"), "polarizations": ("LPOL", "XPOL"),
         "velocities": (0.0, 120.0)}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="small_grid",
        why=("small preset {RR,PF}x{LPOL,XPOL}x{0,120} kmph, one seed, "
             "serial run_sweep: per-TTI link layer dominates"),
        preset="small", **_GRID),
    Workload(
        name="paper_point",
        why=("one paper-scale point (PF, XPOL, 120 kmph, 15,390 links) over "
             "3 TTIs: setup, random streams and memory dominate"),
        preset="paper", schedulers=("PF",), polarizations=("XPOL",),
        velocities=(120.0,), overrides=(("n_tti", 3),)),
    Workload(
        name="small_grid_par",
        why=("the small_grid sweep with parallelism=nproc: worker pool, "
             "pickling and BLAS threads competing for the same cores"),
        preset="small", parallel=True, reference="small_grid", **_GRID),
)}
