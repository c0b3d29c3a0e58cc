"""Acquisition presets for the three benchmark geometries."""

# channels / fs / TR / volume extents per dataset; cn-epfl raw volumes are
# 54x108x108 and are DCT down-sampled to the shared 30x64x64 grid
DATASET_PRESETS = {
    "noddi": {
        "dataset": "noddi",
        "channels": 64,
        "fs": 250.0,
        "tr": 2.16,
        "depth": 30,
        "height": 64,
        "width": 64,
    },
    "oddball": {
        "dataset": "oddball",
        "channels": 43,
        "fs": 1000.0,
        "tr": 2.0,
        "depth": 32,
        "height": 64,
        "width": 64,
    },
    "cn-epfl": {
        "dataset": "cn-epfl",
        "channels": 64,
        "fs": 5000.0,
        "tr": 1.28,
        "depth": 30,
        "height": 64,
        "width": 64,
        "volume_target": "30 64 64",
    },
}

CN_EPFL_RAW_VOLUME = (54, 108, 108)


def preset_config(name):
    from .config import Config
    from .errors import ConfigError

    if name not in DATASET_PRESETS:
        raise ConfigError(
            f"unknown dataset preset {name!r}; known: {', '.join(sorted(DATASET_PRESETS))}"
        )
    return Config(DATASET_PRESETS[name])
