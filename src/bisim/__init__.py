"""bisim: multistatic ISAC scene simulation and bistatic radar processing."""

__version__ = "0.1.0"

from .channel import (
    PathTable,
    SlowTimeCube,
    WaveformConfig,
    add_noise,
    delay_axis,
    first_order,
    nyquist_check,
    synth_cfr,
)
from .errors import BisimError, ConfigError, GeometryError, NumericalError, UsageError
from .fusion import (
    BistaticObservation,
    StateEstimate,
    estimate_velocity,
    fuse,
    geometry_condition,
    localize,
)
from .geometry import (
    C0,
    NodePose,
    Trajectory,
    bistatic_doppler,
    bistatic_range,
    pose_at,
    vec3,
)
from .illumination import doppler_precompensate, focusing_gain, time_reversal_prefilter
from .processing import (
    DelayDopplerMap,
    Detection,
    Spectrogram,
    delay_doppler_map,
    detect_peaks,
    magnitude_db,
    stft_spectrogram,
    subtract_dominant_paths,
    time_gate,
)
from .scene import SceneConfig, SceneNode, link_paths
from .targets import (
    FrequencyBand,
    LinkBudget,
    RigidTarget,
    ScattererStates,
    cloud,
    equivalent_rcs,
    flyover_scan,
    link_budget,
    reflectivity_scan,
    target_paths,
)
