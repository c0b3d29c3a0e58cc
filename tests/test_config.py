"""Config domains: each SCHEMA key declares its valid values once, and
config.check enforces them when a value is set, before any command writes."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eeg2vol import cli
from eeg2vol.config import DOMAINS, SCHEMA, Config, check, schema_help
from eeg2vol.dsp import read_manifest
from eeg2vol.errors import ConfigError
from eeg2vol.model import Model, ModelConfig

from test_cli import ARCH_SETS, GEOMETRY_SETS, write_raw_tree

# one out-of-domain value per domain; choice domains use OUT_OF_CHOICES
OUT_OF_DOMAIN = {
    ">= 0": "-1",
    "> 0": "0",
    ">= 1": "0",
    "[0, 1)": "1",
    "odd >= 1": "4",
    "'D H W' or ''": "0 8 8",
    "one line": "x\ny",
}
OUT_OF_CHOICES = {str: "bogus", int: "2"}


def bad_values():
    """(key, raw) pairs: one out-of-domain value per key with a domain, plus
    nan and inf for every float key."""
    cases = []
    for key, (_default, typ, domain, _help) in SCHEMA.items():
        if domain is None:
            continue
        if isinstance(domain, tuple):
            cases.append((key, OUT_OF_CHOICES[typ]))
        else:
            cases.append((key, OUT_OF_DOMAIN[domain]))
        if typ is float:
            cases += [(key, "nan"), (key, "inf")]
    return cases


def test_out_of_domain_table_covers_every_domain():
    assert set(OUT_OF_DOMAIN) == set(DOMAINS)


@pytest.fixture(scope="module")
def micro_data(tmp_path_factory):
    """A two-subject micro dataset for `train` runs."""
    root = tmp_path_factory.mktemp("configdata")
    assert cli.main(["synth-data", "--subjects", "2", "--pairs", "4",
                     "--out", str(root / "data")] + GEOMETRY_SETS) == 0
    return root / "data/manifest.txt"


def micro_train(manifest, out, sets=()):
    """Exit code of a one-epoch micro `train` with extra `--set` values."""
    argv = (["train", "--manifest", str(manifest), "--out", str(out),
             "--set", "epochs=1", "--set", "batch_size=4", "--set", "split_mode=fixed",
             "--set", "k_train=1", "--set", "k_test=1"] + ARCH_SETS)
    for item in sets:
        argv += ["--set", item]
    return cli.main(argv)


def test_plain_micro_train_exits_0(micro_data, tmp_path):
    """The baseline the domain cases perturb trains; an exit 2 there would
    make every case below and the in-domain property pass vacuously."""
    assert micro_train(micro_data, tmp_path / "run") == 0
    assert (tmp_path / "run/last.ckpt/index.txt").exists()


@pytest.mark.parametrize("key, raw", bad_values(), ids=[f"{k}={v}" for k, v in bad_values()])
def test_out_of_domain_value_exit_2(micro_data, tmp_path, capsys, key, raw):
    """Every out-of-domain or non-finite value is rejected when the config
    loads: exit 2, the message names the key, and nothing is written."""
    rc = micro_train(micro_data, tmp_path / "run", [f"{key}={raw}"])
    assert rc == 2
    assert f"error: {key} = " in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_check_message_names_key_and_domain():
    with pytest.raises(ConfigError, match=r"^lr = inf: must be finite and > 0$"):
        check("lr", math.inf)
    with pytest.raises(ConfigError, match=r"^beta1 = nan: must be finite and lie in \[0, 1\)$"):
        check("beta1", math.nan)
    with pytest.raises(ConfigError, match=r"^ssim_window = 4: must be odd >= 1$"):
        check("ssim_window", 4)
    with pytest.raises(ConfigError, match=r"^split_mode = 'kfold': must be one of loso \| fixed$"):
        check("split_mode", "kfold")
    check("dataset", "anything goes")


@pytest.mark.parametrize("key, raw", [
    ("epochs", 2.7), ("epochs", math.inf), ("epochs", math.nan), ("batch_size", True),
    ("ssim_window", False), ("lr", True), ("lambda1", False),
], ids=lambda v: repr(v))
def test_numbers_are_not_truncated(key, raw):
    """An int key rejects a bool and a non-integral float, and a float key a
    bool, naming the key, instead of storing int(raw) or float(raw)."""
    with pytest.raises(ConfigError, match=f"^config key {key} expects"):
        Config({key: raw})


def test_whole_numbers_and_strings_convert():
    cfg = Config({"epochs": 3.0, "lr": 1, "batch_size": "4", "min_lr": "1e-5"})
    assert (cfg.epochs, cfg.lr, cfg.batch_size, cfg.min_lr) == (3, 1.0, 4, 1e-5)
    assert type(cfg.epochs) is int and type(cfg.lr) is float
    with pytest.raises(ConfigError, match="^config key epochs expects int"):
        Config.load(overrides=["epochs=2.5"])


def test_config_file_key_set_twice_exit_2(micro_data, tmp_path, capsys):
    """A --config file that sets a key twice exits 2 naming the key; a --set
    still overrides the file, and the last of repeated --set values wins."""
    config = tmp_path / "run.cfg"
    config.write_text("lr = 0.5\nepochs = 3\nlr = 0.001\n")
    rc = cli.main(["train", "--manifest", str(micro_data), "--config", str(config),
                   "--out", str(tmp_path / "run")] + ARCH_SETS)
    err = capsys.readouterr().err
    assert rc == 2 and err.count("\n") == 1
    assert f"error: {config}: config key 'lr' set twice, again in 'lr = 0.001'" in err
    assert not (tmp_path / "run").exists()
    config.write_text("lr = 0.5\nepochs = 3\n")
    cfg = Config.load(config, ["lr=0.01", "epochs=4", "lr=0.002"])
    assert (cfg.lr, cfg.epochs) == (0.002, 4)


def test_model_config_extents_are_ints(tmp_path):
    """Whole floats become ints, so a checkpoint's metadata reloads."""
    geometry = (4, 5, 6, 3, 8, 8)
    mcfg = ModelConfig((4, 5.0, 6, 3, 8, 8), embed=8.0, heads=2)
    assert mcfg == ModelConfig(geometry, embed=8, heads=2)
    assert type(mcfg.embed) is int and type(mcfg.geometry[1]) is int
    Model(mcfg).save(tmp_path / "ckpt")
    assert Model.from_checkpoint(tmp_path / "ckpt").cfg == mcfg
    for key, raw in (("embed", 8.5), ("heads", True), ("attention_dropout", False)):
        with pytest.raises(ConfigError, match=f"^config key {key} expects"):
            ModelConfig(geometry, **{key: raw})
    with pytest.raises(ConfigError, match="^config key t_bins expects int, got 5.5$"):
        ModelConfig((4, 5.5, 6, 3, 8, 8))


def test_defaults_pass_their_own_check():
    for key, (default, *_rest) in SCHEMA.items():
        check(key, default)


def test_help_shows_each_domain():
    lines = {line.split()[0]: line for line in schema_help().splitlines()}
    assert set(lines) == set(SCHEMA)
    for key, (_default, typ, domain, _help) in SCHEMA.items():
        if isinstance(domain, tuple):
            assert "must be one of " + " | ".join(map(str, domain)) + ";" in lines[key]
        elif typ in (int, float):
            assert f"must {DOMAINS[domain][1]};" in lines[key] and domain in lines[key]


def test_lag_mode_short_span_is_an_empty_spectrogram(tmp_path, capsys):
    """The cross-key spectrogram check still catches an in-domain span_s
    whose window is shorter than one STFT frame."""
    raw = write_raw_tree(tmp_path / "raw")
    rc = cli.main(["preprocess", "--manifest-in", str(raw), "--out", str(tmp_path / "out"),
                   "--set", "pairing_mode=lag", "--set", "span_s=0.1"])
    assert rc == 2
    assert "empty 0x25 spectrogram" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_time_and_frequency_bins_derive_independently(tmp_path):
    """t_bins=5 with f_bins=0 keeps T = 5 and derives only F, in the run
    config's geometry and in what synth-data writes."""
    assert ModelConfig.from_run_config(Config({"t_bins": 5})).geometry[1:3] == (5, 25)
    assert ModelConfig.from_run_config(Config({"f_bins": 6})).geometry[1:3] == (20, 6)
    assert ModelConfig.from_run_config(Config()).geometry[1:3] == (20, 25)
    rc = cli.main(["synth-data", "--subjects", "1", "--pairs", "1", "--out", str(tmp_path),
                   "--set", "t_bins=5", "--set", "channels=2", "--set", "depth=2",
                   "--set", "height=8", "--set", "width=8"])
    assert rc == 0
    assert read_manifest(tmp_path / "manifest.txt").geometry == (2, 5, 25, 2, 8, 8)


RUNS = itertools.count()


@settings(max_examples=20, deadline=None)
@given(
    lr=st.floats(1e-5, 1e-1),
    min_lr=st.floats(0.0, 1e-3),
    weight_decay=st.floats(0.0, 0.1),
    grad_clip=st.floats(0.0, 5.0),
    batch_size=st.integers(1, 6),
    lambdas=st.tuples(st.sampled_from([0.0, 0.3, 1.0]), st.sampled_from([0.0, 0.5])),
    ssim_window=st.sampled_from([1, 3, 7, 9]),
    attention_dropout=st.floats(0.0, 0.9),
    seed=st.integers(0, 2**32),
)
def test_in_domain_configs_never_crash(micro_data, lr, min_lr, weight_decay, grad_clip,
                                       batch_size, lambdas, ssim_window, attention_dropout,
                                       seed):
    """In-domain values train or are rejected by a cross-key check (min_lr >
    lr, both loss weights 0, window wider than the 8x8 plane) with exit 2
    and nothing written; never a traceback (exit 1)."""
    out = micro_data.parent.parent / f"prop{next(RUNS)}"
    rc = micro_train(micro_data, out, [
        f"lr={lr!r}", f"min_lr={min_lr!r}", f"weight_decay={weight_decay!r}",
        f"grad_clip={grad_clip!r}", f"batch_size={batch_size}", f"lambda1={lambdas[0]}",
        f"lambda2={lambdas[1]}", f"ssim_window={ssim_window}",
        f"attention_dropout={attention_dropout!r}", f"seed={seed}",
    ])
    assert rc in (0, 2, 4)
    assert rc != 2 or not out.exists()
    assert rc != 0 or (out / "last.ckpt/index.txt").exists()
