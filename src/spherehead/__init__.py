"""Sphere-embedded features with angular-margin classification heads.

The package splits into a numerical core (ndcore), the stereographic
embedding (stereo), the loss families (heads), dataset plumbing (data),
the training loop and experiment runner (train, results), and a CLI
front end (cli).
"""

from .data import Dataset, SplitSpec, gen_gaussian_blobs, gen_two_spirals, load_cifar_binary, load_delimited, split
from .errors import (
    ConfigError,
    DegenerateInputError,
    DomainError,
    FormatError,
    LabelError,
    LayoutError,
    ParseError,
    PoleSingularityError,
    ShapeError,
    SphereheadError,
    StateError,
    TrainingDiverged,
)
from .heads import (
    FAMILIES,
    EmbeddingQueue,
    HeadWeights,
    MarginConfig,
    broadface_step,
    head_forward,
)
from .ndcore import Tape, Tensor, backward, trace
from .results import default_results_dir, list_runs, load_run, record_digest, save_run
from .stereo import (
    EuclideanPoint,
    SpherePoint,
    hemisphere_map,
    inverse_project,
    project,
    project_batch,
    project_rows,
)
from .train import (
    DataConfig,
    Model,
    ModelConfig,
    OptimConfig,
    RunReport,
    build_datasets,
    build_model,
    default_learning_rate,
    emit_table,
    evaluate,
    experiment_name,
    fit,
    run_experiment,
    sgd_step,
)

__version__ = "0.1.0"
