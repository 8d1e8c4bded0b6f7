"""The benchmark's workloads: one fit configuration per hot layer.

Each workload is built so that one layer does most of the work of the fit
and the others do little or none, so a gain in that layer (or a cost moved
onto another) shows in its own row. Everything not set here is a
SolverConfig default: batch 1000, checkpoint_rows 2048 and select_rows 4096.
Because those three row counts differ, each matcher call can be attributed
to its phase (traced step, checkpoint, restart score) by its row count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from unisca import datagen, solver
from unisca.numerics import substream


@dataclass(frozen=True)
class Workload:
    """A dataset recipe plus the solver settings that differ from defaults.

    `heavy` names the spans (see tracing) expected to take most of the fit's
    time on this workload; the traced run reports their share.
    """

    name: str
    preset: str
    n: int
    heavy: tuple[str, ...]
    homogeneous: bool = False
    private: bool = False
    solver: dict = field(default_factory=dict)

    def dataset(self, seed: int) -> datagen.SyntheticDataset:
        """The workload's inputs, drawn from `seed` the way `unisca gen` does."""
        latent, _ = datagen.preset(self.preset,
                                   substream(seed, "datagen", "preset"))
        template = datagen.MixingTemplate(homogeneous=self.homogeneous)
        mixing = template.realize(latent, substream(seed, "datagen", "mixing"))
        return datagen.generate_dataset(latent, mixing, self.n,
                                        substream(seed, "datagen", "samples"))

    def config(self, seed: int, dataset: datagen.SyntheticDataset
               ) -> solver.SolverConfig:
        extra = {}
        if self.private:
            extra = {"mode": "with_private", "d_p1": dataset.p1.shape[1],
                     "d_p2": dataset.p2.shape[1]}
        elif self.homogeneous:
            extra = {"mode": "homogeneous"}
        return solver.SolverConfig(d_c=dataset.d_c, seed=seed,
                                   **extra, **self.solver)

    def fit(self, dataset: datagen.SyntheticDataset, cfg: solver.SolverConfig
            ) -> solver.FitResult:
        if self.private:
            return solver.fit_with_private(dataset.x1, dataset.x2, cfg)
        return solver.fit(dataset.x1, dataset.x2, cfg)

    def phases(self, cfg: solver.SolverConfig) -> dict[int, str]:
        """Matcher phase by the row count of its inputs.

        Raises when two phases would share a row count, since their calls
        could then not be told apart.
        """
        n = self.n
        rows = {"step": min(cfg.batch, n),
                "checkpoint": min(cfg.checkpoint_rows, n)}
        if cfg.restarts > 1 or cfg.warm_epochs > 0:
            rows["score"] = min(cfg.select_rows, n)
        if len(set(rows.values())) != len(rows):
            raise ValueError(f"workload {self.name}: matcher phases share a "
                             f"row count {rows}")
        return {r: phase for phase, r in rows.items()}


# Why each workload exists, and how it was cut down to fit a 12 s run, is
# recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="warmstart",
        preset="thm1a", n=5000,
        heavy=("distmatch.mmd2_unbiased.score", "solver.quantile_match"),
        solver={"restarts": 2, "warm_epochs": 30, "epochs": 1}),
    Workload(
        name="homogeneous",
        preset="thm1b", n=10000, homogeneous=True,
        heavy=("distmatch.mmd2_unbiased.step",),
        solver={"restarts": 1, "warm_epochs": 0, "epochs": 8}),
    Workload(
        name="private",
        preset="private-appxG", n=5000, private=True,
        heavy=("distmatch.hsic_biased",),
        solver={"restarts": 1, "warm_epochs": 0, "epochs": 4}),
    Workload(
        name="adversarial",
        preset="thm1a", n=2000,
        heavy=("distmatch.discriminator_step",
               "distmatch.gan_value_and_grads.gen"),
        solver={"matcher": "adversarial", "restarts": 1, "warm_epochs": 0,
                "epochs": 3}),
)}
