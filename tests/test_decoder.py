"""Decoder: scan orderings, selective scan, VSS blocks, and the U-Net.

The decoder works on channel-last [H, W, C] grids and [L, C] sequences."""

import numpy as np
import pytest

from eeg2vol import autodiff as ad
from eeg2vol.decoder import (
    Decoder,
    S6_PARAMS,
    VssBlock,
    patch_expand,
    patch_merge,
    s6_scan,
    scan_expand,
    scan_merge,
)
from eeg2vol.errors import ConfigError, DimensionError, NumericError
from eeg2vol.layers import ParamStore
from eeg2vol.model import ModelConfig

from conftest import (
    S6,
    fd_grad_check,
    rel_err,
    s6_scan_reference,
    s6_worst_vs_reference,
    sigmoid,
    tmean,
    tsum,
)


def random_s6_params(channels, state, seed=0, scale=0.3):
    rng = np.random.default_rng(seed)
    return S6(
        a_log=ad.Tensor(
            np.log(np.tile(np.arange(1.0, state + 1.0), (channels, 1))),
            requires_grad=True,
        ),
        w_delta=ad.Tensor(rng.standard_normal((channels, channels)) * scale, True),
        b_delta=ad.Tensor(rng.standard_normal(channels) * scale, True),
        w_b=ad.Tensor(rng.standard_normal((state, channels)) * scale, True),
        w_c=ad.Tensor(rng.standard_normal((state, channels)) * scale, True),
        d_skip=ad.Tensor(rng.standard_normal(channels) * scale, True),
    )


# ---------------------------------------------------------------------------
# scan expand / merge
# ---------------------------------------------------------------------------

def test_scan_expand_2x2_directions():
    a, b, c, d = 1.0, 2.0, 3.0, 4.0
    x = ad.Tensor(np.array([[[a], [b]], [[c], [d]]]))
    d1, d2, d3, d4 = [s.data[:, 0] for s in scan_expand(x)]
    np.testing.assert_array_equal(d1, [a, b, c, d])
    np.testing.assert_array_equal(d2, [d, c, b, a])
    np.testing.assert_array_equal(d3, [b, a, d, c])
    np.testing.assert_array_equal(d4, [c, d, a, b])


def test_scan_expand_single_cell():
    seqs = scan_expand(ad.Tensor(np.array([[[7.0]]])))
    for s in seqs:
        np.testing.assert_array_equal(s.data, [[7.0]])


def test_scan_expand_reversal_pairs():
    rng = np.random.default_rng(0)
    x = ad.Tensor(rng.standard_normal((4, 5, 3)))
    d1, d2, d3, d4 = [s.data for s in scan_expand(x)]
    np.testing.assert_array_equal(d2, d1[::-1])
    np.testing.assert_array_equal(d4, d3[::-1])


def test_merge_of_expand_is_four_times_identity_all_extents():
    rng = np.random.default_rng(1)
    for h in range(1, 17):
        for w in range(1, 17):
            x = ad.Tensor(rng.standard_normal((h, w, 2)))
            merged = scan_merge(scan_expand(x), h, w)
            np.testing.assert_array_equal(merged.data, 4.0 * x.data)


def test_merge_three_zero_plus_one_expansion():
    rng = np.random.default_rng(2)
    x = ad.Tensor(rng.standard_normal((3, 4, 2)))
    seqs = scan_expand(x)
    zero = ad.Tensor(np.zeros((12, 2)))
    merged = scan_merge([seqs[0], zero, zero, zero], 3, 4)
    np.testing.assert_array_equal(merged.data, x.data)
    merged = scan_merge([zero, zero, seqs[2], zero], 3, 4)
    np.testing.assert_array_equal(merged.data, x.data)


def test_merge_reassembly_oracle():
    """Cell (i, j) sums the four positions that visit it: row-major i*w + j
    in direction 1, its reverse in 2, the W-mirrored i*w + (w-1-j) in 3 and
    its reverse in 4."""
    rng = np.random.default_rng(3)
    h, w = 3, 5
    seq_data = [rng.standard_normal((h * w, 2)) for _ in range(4)]
    merged = scan_merge([ad.Tensor(s) for s in seq_data], h, w).data
    d1, d2, d3, d4 = seq_data
    last = h * w - 1
    want = np.zeros((h, w, 2))
    for i in range(h):
        for j in range(w):
            row_major = i * w + j
            mirrored = i * w + (w - 1 - j)
            want[i, j] = (
                d1[row_major] + d2[last - row_major]
                + d3[mirrored] + d4[last - mirrored]
            )
    np.testing.assert_allclose(merged, want, atol=1e-15)


def test_merge_length_mismatch():
    with pytest.raises(DimensionError):
        scan_merge([ad.Tensor(np.zeros((4, 1)))] * 4, 3, 3)


# ---------------------------------------------------------------------------
# selective scan
# ---------------------------------------------------------------------------

def test_s6_memoryless_limit():
    channels, state, length = 2, 3, 6
    params = random_s6_params(channels, state, seed=4)
    params.a_log.data[:] = 40.0  # abar = exp(-huge) -> exactly 0
    params.d_skip.data[:] = 0.0
    rng = np.random.default_rng(5)
    u = rng.standard_normal((length, channels)) * 0.5
    out = s6_scan(ad.Tensor(u), *params).data
    # with no carried state: y_t = <C_t, delta_t * B_t * u_t>
    delta = np.logaddexp(0.0, u @ params.w_delta.data.T + params.b_delta.data)
    b_seq = u @ params.w_b.data.T
    c_seq = u @ params.w_c.data.T
    want = np.einsum(
        "ls,ln,ls,ln->ln", c_seq, delta, b_seq, u
    )
    assert np.max(np.abs(out - want)) < 1e-12


def test_s6_zero_input_gives_zero_output():
    params = random_s6_params(3, 4, seed=6)
    out = s6_scan(ad.Tensor(np.zeros((8, 3))), *params)
    np.testing.assert_array_equal(out.data, np.zeros((8, 3)))


def test_s6_blocked_matches_sequential():
    """The sequential-kernel s6_scan against the blocked-kernel oracle."""
    params = random_s6_params(3, 4, seed=7)
    rng = np.random.default_rng(8)
    u = ad.Tensor(rng.standard_normal((32, 3)) * 0.5)
    seq = s6_scan(u, *params).data
    blk = s6_scan_reference(u, params, mode="blocked").data
    assert np.max(np.abs(seq - blk)) < 1e-10


def test_s6_empty_sequence():
    params = random_s6_params(2, 2)
    with pytest.raises(DimensionError):
        s6_scan(ad.Tensor(np.zeros((0, 2))), *params)


def test_s6_gradients():
    params = random_s6_params(2, 2, seed=9)
    rng = np.random.default_rng(10)
    u = ad.Tensor(rng.standard_normal((5, 2)) * 0.5, requires_grad=True)
    leaves = [u, params.a_log, params.w_delta, params.b_delta, params.w_b,
              params.w_c, params.d_skip]
    fd_grad_check(lambda: tmean(sigmoid(s6_scan(u, *params))), leaves)


@pytest.mark.parametrize("mode", ["sequential", "blocked"])
@pytest.mark.parametrize(
    "length",
    [1, 37, ad.CHUNK - 1, ad.CHUNK + 1, 2 * ad.CHUNK + 37, 256, 1024, 4096],
)
def test_s6_fused_matches_unfused_reference(length, mode):
    params = random_s6_params(3, 4, seed=length)
    rng = np.random.default_rng(length)
    u = ad.Tensor(rng.standard_normal((length, 3)) * 0.5, requires_grad=True)
    assert s6_worst_vs_reference(u, params, mode, seed=length) < 1e-10


def test_s6_tape_holds_no_state_sized_tensor():
    """Memory bounded by design: no [L, channels, state] tensor is kept."""
    channels, state, length = 8, 4, 64
    params = random_s6_params(channels, state, seed=23)
    u = ad.Tensor(np.random.default_rng(24).standard_normal((length, channels)), True)
    with ad.Tape() as tape:
        s6_scan(u, *params)
    assert tape.nodes
    largest = max(out.data.size for out, _inputs, _backward in tape.nodes)
    assert largest <= channels * length


def node_names(tape):
    return [fn.__qualname__.split(".")[0] for _out, _inputs, fn in tape.nodes]


def test_s6_scan_records_one_node():
    """The fused selective scan, which takes the delta, B and C projections in."""
    params = random_s6_params(3, 2, seed=27)
    u = ad.Tensor(np.random.default_rng(28).standard_normal((7, 3)), True)
    with ad.Tape() as tape:
        s6_scan(u, *params)
    assert node_names(tape) == ["selective_scan"]


def test_scan_merge_records_one_node():
    seqs = [ad.Tensor(np.zeros((6, 2)), requires_grad=True) for _ in range(4)]
    with ad.Tape() as tape:
        scan_merge(seqs, 2, 3)
    assert node_names(tape) == ["cross_merge"]


@pytest.mark.filterwarnings("ignore:invalid value")
def test_s6_nan_token_raises():
    params = random_s6_params(2, 3, seed=25)
    u = np.random.default_rng(26).standard_normal((6, 2))
    u[4, 1] = np.nan
    with pytest.raises(NumericError, match=r"discretized transition left \[0, 1\]"):
        s6_scan(ad.Tensor(u), *params)


# ---------------------------------------------------------------------------
# VSS block
# ---------------------------------------------------------------------------

def make_block(width=2, state=2, seed=0):
    store = ParamStore()
    return VssBlock(width, state, np.random.default_rng(seed), store, "blk"), store


def test_vss_zero_out_proj_is_identity():
    block, store = make_block()
    store["blk.out_proj.weight"].data[:] = 0.0
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, 3, 2))
    out = block.forward(ad.Tensor(x))
    np.testing.assert_array_equal(out.data, x)


def test_vss_preserves_shape():
    block, _store = make_block(width=3)
    x = ad.Tensor(np.random.default_rng(12).standard_normal((4, 6, 3)))
    assert block.forward(x).shape == (4, 6, 3)


def test_vss_matches_compositional_oracle():
    """Recompose the block from its four sub-operations called directly."""
    block, store = make_block(width=2, state=2, seed=13)
    rng = np.random.default_rng(14)
    x = rng.standard_normal((3, 3, 2))
    out = block.forward(ad.Tensor(x)).data

    p = {k: v.data for k, v in store.params.items()}

    def ln(tokens, gain, shift, eps=1e-5):
        mu = tokens.mean(axis=-1, keepdims=True)
        var = ((tokens - mu) ** 2).mean(axis=-1, keepdims=True)
        return (tokens - mu) / np.sqrt(var + eps) * gain + shift

    normed = ln(x, p["blk.ln.gain"], p["blk.ln.shift"])
    main = normed @ p["blk.in_proj.weight"].T + p["blk.in_proj.bias"]
    pre_gate = normed @ p["blk.gate.weight"].T + p["blk.gate.bias"]
    gate = pre_gate * (0.5 * (1.0 + np.tanh(0.5 * pre_gate)))
    seqs = [s.data for s in scan_expand(ad.Tensor(main))]
    scanned = [
        s6_scan(ad.Tensor(seq), *(store[f"blk.dir{d}.{n}"] for n in S6_PARAMS)).data
        for d, seq in enumerate(seqs)
    ]
    merged = scan_merge([ad.Tensor(s) for s in scanned], 3, 3).data
    merged = ln(merged, p["blk.out_ln.gain"], p["blk.out_ln.shift"])
    want = x + (merged * gate) @ p["blk.out_proj.weight"].T + p["blk.out_proj.bias"]
    assert np.max(np.abs(out - want)) < 1e-12


# ---------------------------------------------------------------------------
# patch merge / expand
# ---------------------------------------------------------------------------

def test_patch_merge_expand_are_inverse():
    rng = np.random.default_rng(15)
    x = ad.Tensor(rng.standard_normal((4, 6, 3)))
    round_trip = patch_expand(patch_merge(x))
    np.testing.assert_array_equal(round_trip.data, x.data)


def test_patch_merge_stacks_neighborhoods():
    x = ad.Tensor(np.arange(16.0).reshape(4, 4, 1))
    merged = patch_merge(x).data
    assert merged.shape == (2, 2, 4)
    # each output channel holds one corner of every 2x2 neighborhood, in
    # (row offset, column offset) order
    np.testing.assert_array_equal(merged[..., 0], [[0, 2], [8, 10]])
    np.testing.assert_array_equal(merged[..., 1], [[1, 3], [9, 11]])
    np.testing.assert_array_equal(merged[..., 2], [[4, 6], [12, 14]])


# ---------------------------------------------------------------------------
# U-Net
# ---------------------------------------------------------------------------

def test_unet_micro_shapes_and_range():
    cfg = ModelConfig((1, 1, 4, 3, 8, 8), embed=4, vss_blocks=1, state_dim=2)
    dec = Decoder(cfg, np.random.default_rng(16))
    rng = np.random.default_rng(17)
    out = dec.decode(ad.Tensor(rng.standard_normal((8, 8, 4)) * 0.3))
    assert out.shape == (8, 8, 3)
    assert np.all(out.data > 0.0) and np.all(out.data < 1.0)


def test_unet_divisibility_config_error():
    with pytest.raises(ConfigError, match="divisible"):
        ModelConfig((1, 1, 4, 3, 10, 8), embed=4)


def test_unet_gradients_spot_check():
    cfg = ModelConfig((1, 1, 4, 2, 4, 4), embed=4, vss_blocks=1, state_dim=2)
    dec = Decoder(cfg, np.random.default_rng(21))
    rng = np.random.default_rng(22)
    x = ad.Tensor(rng.standard_normal((4, 4, 4)) * 0.3)  # [H, W, embed]
    leaves = [
        dec.store["dec.head.weight"],
        dec.store["dec.merge0.weight"],
        dec.store["dec.up0.block0.gate.bias"],
    ]
    fd_grad_check(lambda: tmean(dec.decode(x)), leaves)


def test_unet_scan_shapes_follow_model_config(micro_model, monkeypatch):
    """Level i scans embed * 2**i channels of state_dim over its
    (H / 2**i)(W / 2**i) plane: the [C, S, L] linear_scan shapes that the
    traced train-noddi check in perfbench/ expects at noddi geometry."""
    cfg = micro_model.cfg
    seen = set()
    linear_scan = ad.linear_scan

    def recording_scan(a, x, *args, **kwargs):
        seen.add(a.shape)
        return linear_scan(a, x, *args, **kwargs)

    monkeypatch.setattr(ad, "linear_scan", recording_scan)
    micro_model.forward(np.random.default_rng(27).standard_normal(cfg.geometry[:3]))
    h, w = cfg.geometry[4:]
    assert seen == {
        (cfg.embed * 2**i, cfg.state_dim, (h // 2**i) * (w // 2**i))
        for i in range(Decoder.LEVELS + 1)
    }


def test_rel_err_sanity():
    assert rel_err(1.0, 1.0) == 0.0
