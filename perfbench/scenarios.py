"""Seeded scenario construction for the benchmark workloads.

A workload fixes the *shape* of its scenario: the ER schema, the
denormalization plan and the data volume, all drawn from a shape seed
that never changes.  The run's ``--seed`` draws everything else: the
tuple values, the corrupted rows and the program texts.  Two seeds
therefore give different inputs of the same size and structure, so the
figures of runs with different seeds are comparable.
"""

from __future__ import annotations

import dataclasses

from repro.programs.corpus import ProgramCorpus
from repro.workloads.corruption import CorruptionInjector, CorruptionReport
from repro.workloads.data_generator import DataConfig, DataGenerator
from repro.workloads.denormalizer import DenormalizationPlan, Denormalizer
from repro.workloads.er_generator import ERGenerator, GeneratorConfig
from repro.workloads.mapping import map_er_to_relational
from repro.workloads.oracle import OracleExpert
from repro.workloads.query_generator import QueryWorkloadGenerator, WorkloadConfig
from repro.workloads.scenario import ScenarioConfig, SyntheticScenario

#: S5 of the bench suite: 7 entities, 6 one-to-many, 2 merges
S5_SHAPE = ScenarioConfig(
    seed=900, n_entities=7, n_one_to_many=6, merges=2, parent_rows=5000,
)

#: the same shape at 40% of the volume, for the out-of-core backend
PAGED_SHAPE = dataclasses.replace(S5_SHAPE, parent_rows=2000)

#: the query-heavy, data-light schema of ``wide-sqlite``
WIDE_SHAPE = ScenarioConfig(
    seed=12, n_entities=60, n_one_to_many=70, n_many_to_many=6, merges=14,
    link_merges=1, subtypes=5, weak_entities=5, parent_rows=4,
    corruption_ind_rate=0.2,
)

#: the distinct mid-size scenarios ``service-mixed`` draws jobs from
SERVICE_SHAPES = (
    ScenarioConfig(seed=31, parent_rows=200),   # ~3.0k rows
    ScenarioConfig(seed=36, parent_rows=300),   # ~7.5k rows
    ScenarioConfig(seed=37, parent_rows=250),   # ~10.3k rows
    ScenarioConfig(seed=41, parent_rows=300),   # ~12.9k rows
)


def build(shape: ScenarioConfig, seed: int) -> SyntheticScenario:
    """The scenario of *shape* whose values are drawn from *seed*.

    Mirrors :func:`repro.workloads.scenario.build_scenario`, except that
    the schema and the merges come from ``shape.seed`` and the data,
    corruption and programs from *seed*.
    """
    er_spec = ERGenerator(
        GeneratorConfig(
            seed=shape.seed,
            n_entities=shape.n_entities,
            n_one_to_many=shape.n_one_to_many,
            n_many_to_many=shape.n_many_to_many,
            n_subtypes=shape.subtypes,
            n_weak_entities=shape.weak_entities,
        )
    ).generate()
    truth = Denormalizer(er_spec, map_er_to_relational(er_spec)).run(
        DenormalizationPlan(
            auto_merges=shape.merges,
            auto_link_merges=shape.link_merges,
            seed=shape.seed + 1,
        )
    )
    database = DataGenerator(
        truth, DataConfig(seed=seed, parent_rows=shape.parent_rows)
    ).generate()
    corruption = CorruptionReport()
    if shape.corruption_ind_rate > 0:
        corruption = CorruptionInjector(
            seed=seed + 1,
            ind_rate=shape.corruption_ind_rate,
            row_rate=shape.corruption_row_rate,
        ).corrupt(database, truth.true_inds)
    corpus: ProgramCorpus = QueryWorkloadGenerator(
        WorkloadConfig(seed=seed + 2, coverage=shape.coverage)
    ).generate(truth.join_edges)
    return SyntheticScenario(
        config=shape,
        truth=truth,
        database=database,
        corpus=corpus,
        expert=OracleExpert(truth),
        corruption=corruption,
    )
