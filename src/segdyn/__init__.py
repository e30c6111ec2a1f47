"""Segment description of chaotic flows.

Cover a compact absorbing set with finitely many balls, integrate one
finite-time segment from each ball center, and study the induced symbolic
dynamics: transition matrices and tensors, Markov measures, entropies,
observable bounds, and a numerical check that concatenated segments shadow
true orbits within the calibrated tolerance.
"""
from .cover import (
    BoxDomain,
    CellMeasure,
    Cover,
    Partition,
    calibrate_deltas,
    cell_measure,
    collocate,
    diameters,
    metric_entropy,
    minimal_cover,
)
from .errors import (
    ArtifactError,
    BlowupError,
    CalibrationError,
    ConfigError,
    CoverageError,
    DimensionExplosionError,
    EncodingError,
    ManifestError,
    MissingArtifactError,
    NoAdmissibleWordError,
    SamplingError,
    SegdynError,
)
from .flow import (
    FlowModel,
    IntegratorConfig,
    LinearDiagonal,
    Lorenz,
    QuadraticGeneric,
    advance,
    advance_many,
    jacobian_norms,
    model_from_json,
)
from .quantities import (
    QuantityEnvelope,
    QuantitySpec,
    ReachableBounds,
    reachable_bounds,
    segment_envelope,
)
from .segments import SegmentLibrary, build_segments, load_library, max_difference, save_library
from .symbolic import (
    EnumerationResult,
    KSEntropyResult,
    PseudoOrbit,
    SymbolSequence,
    cylinder_measure,
    encode_many,
    encode_orbit,
    enumerate_admissible,
    ks_entropy,
    reachable_symbols,
    reconstruct_pseudo_orbit,
    shadowing_report,
)
from .transitions import (
    ExpansionVerdict,
    TransitionMatrix,
    TransitionTensor,
    ball_admissibility,
    ball_successors,
    expanding_to_depth,
    row_sensitivity,
    sample_itineraries,
    transitions_from_itineraries,
)

__version__ = "0.1.0"
