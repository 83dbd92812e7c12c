"""repro — reproduction of "Spatial-temporal Forecasting for Regions
without Observations" (STSM, EDBT 2024).

Quick start::

    from repro.data.synthetic import make_pems_bay
    from repro.data import space_split, WindowSpec
    from repro.core import make_stsm
    from repro.evaluation import evaluate_forecaster

    dataset = make_pems_bay(num_sensors=40, num_days=4)
    split = space_split(dataset.coords, "horizontal")
    model = make_stsm("pems-bay", epochs=10)
    result = evaluate_forecaster(model, dataset, split,
                                 WindowSpec(input_length=12, horizon=12))
    print(result.metrics)

Subpackages: ``autograd`` / ``nn`` / ``optim`` (neural substrate),
``graph`` / ``temporal`` (spatial and temporal utilities), ``data``
(datasets, splits, synthetic presets), ``engine`` (shared trainer,
early stopping, memoisation caches), ``core`` (STSM), ``baselines``
(GE-GAN, IGNNK, INCREASE), ``evaluation`` (metrics + harness),
``serving`` (batched, cached forecast service), ``experiments`` (one
runner per paper table/figure).
"""

from . import (
    autograd,
    baselines,
    core,
    data,
    engine,
    evaluation,
    experiments,
    graph,
    nn,
    optim,
    serving,
    temporal,
    viz,
)
from .interfaces import FitReport, Forecaster

__version__ = "1.2.0"

__all__ = [
    "autograd",
    "nn",
    "optim",
    "graph",
    "temporal",
    "data",
    "engine",
    "core",
    "baselines",
    "evaluation",
    "serving",
    "experiments",
    "viz",
    "Forecaster",
    "FitReport",
    "__version__",
]
