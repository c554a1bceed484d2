"""Benchmark workloads: seeded synthetic juror populations and audit configs.

Inputs are built with the public API only (SplitSpec, SynthConfig,
synth_generate, write_csv). Every workload plants the paper-shaped caterpillar
accused -> know_def -> fam_accused -> death_hesitation with a know_def
disparity (.85 black vs .20 non-black) and adds pure-noise answers whose
marginals are drawn U(0.1, 0.6) once, from a fixed rng. The benchmark seed
draws POPULATIONS populations; the answer catalog and audit config are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from strikeaudit import AuditConfig, SplitSpec, SynthConfig, synth_generate, write_csv

TREE_MARGINALS = {
    "accused": 0.25,
    "know_def": 0.30,
    "fam_accused": 0.35,
    "death_hesitation": 0.30,
}
# leaf id -> (black, non-black) strike rate
LEAF_RATES = {
    "accused_yes": (0.93, 0.93),
    "knows_def": (0.85, 0.20),
    "fam_accused_yes": (0.56, 0.56),
    "death_hesitant": (1.0, 1.0),
    "remainder": (0.17, 0.17),
}
BLACK_FRACTION = 0.5
# Populations drawn per run. The tree search's work depends on the draw: on
# large-n its routed-split evaluations ranged 68k-112k over ten seeds (IQR
# 0.12 of the median). A run audits its populations in turn and reports the
# median, so one unlucky draw does not set a run's figure.
POPULATIONS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    noise: int
    k_max: int
    max_depth: int
    alpha_grid: tuple[float, ...]

    @property
    def workdir(self) -> str:
        return f".auditbench/{self.name}"

    def input_path(self, population: int) -> str:
        """Fixed path, relative to the checkout root, so report.json (whose
        provenance embeds input_path) has the same bytes in every checkout."""
        return f"{self.workdir}/input-{population}.csv"


# Sizes are chosen so one audit takes a few seconds on a 2-core machine and a
# run holds several. restarts and threads stay at their defaults: both knobs
# are slated for deletion, and a workload that set them would stop running.
WORKLOADS = {
    w.name: w
    for w in (
        # p = 11 with depth-4 trees tuned over 3 alphas (16 fit_tree calls):
        # the tree stage dominates, subset search is small.
        Workload("tree-heavy", n=600, noise=6, k_max=10, max_depth=4,
                 alpha_grid=(0.001, 0.01, 0.1)),
        # p = 13 searched up to k = 12 (about 4.4k Newton fits of ~0.6 ms each,
        # so per-call overhead rules) against one cheap depth-2 tree. p stays
        # at 13: with 16 noise answers the B&B fit count ranged 15k-36k over
        # 8 seeds, with 8 it stays within 4.3k-5.0k.
        Workload("subset-heavy", n=700, noise=8, k_max=12, max_depth=2,
                 alpha_grid=(0.01,)),
        # The same layers, row-bound: fits cost ~3 ms and tree fits grow with n.
        # k_max stays at 3 so that an audit takes 5-7 s and a run holds 4-6.
        Workload("large-n", n=8000, noise=6, k_max=3, max_depth=2,
                 alpha_grid=(0.01,)),
    )
}


def synth_config(w: Workload) -> SynthConfig:
    leaf = lambda name: SplitSpec(leaf_id=name)
    spec = SplitSpec(
        feature="accused",
        right=leaf("accused_yes"),
        left=SplitSpec(
            feature="know_def",
            right=leaf("knows_def"),
            left=SplitSpec(
                feature="fam_accused",
                right=leaf("fam_accused_yes"),
                left=SplitSpec(
                    feature="death_hesitation",
                    right=leaf("death_hesitant"),
                    left=leaf("remainder"),
                ),
            ),
        ),
    )
    rng = np.random.default_rng(0)
    marginals = dict(TREE_MARGINALS)
    for i in range(w.noise):
        marginals[f"noise_{i:02d}"] = float(rng.uniform(0.1, 0.6))
    return SynthConfig(
        n=w.n,
        tree_spec=spec,
        leaf_rates=dict(LEAF_RATES),
        black_fraction=BLACK_FRACTION,
        feature_marginals=marginals,
    )


def write_inputs(w: Workload, seed: int) -> None:
    """Write the populations drawn with ``seed`` to the workload's fixed paths."""
    for i in range(POPULATIONS):
        population = synth_generate(synth_config(w), seed=seed * POPULATIONS + i)
        write_csv(population, w.input_path(i))


def audit_config(w: Workload, population: int) -> AuditConfig:
    return AuditConfig(
        input_path=w.input_path(population),
        catalog=tuple(synth_config(w).feature_marginals),
        k_max=w.k_max,
        max_depth=w.max_depth,
        alpha_grid=w.alpha_grid,
    )
