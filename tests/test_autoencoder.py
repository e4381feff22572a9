"""Tests for the GRU sequence autoencoder: training, round trips,
checkpointing, and the numeric gradient check."""

import dataclasses

import numpy as np
import pytest

from restfuzz import autoencoder as ae

from .conftest import chain_by_names
from restfuzz.seedgen import build_case


def tiny_hp(**overrides):
    base = dict(
        hidden_dim=16,
        embedding_dim=8,
        steps=30,
        batch_size=2,
        max_seq_len=64,
        rng_seed=7,
        shuffle=False,
    )
    base.update(overrides)
    return ae.Hyperparams(**base)


def test_overfit_reconstruction_exact(overfit_model, two_seed_sequences):
    m = overfit_model
    for x in two_seed_sequences:
        assert ae.decode(m, ae.encode(m, x)) == x.tokens
    assert ae.reconstruction_accuracy(m, two_seed_sequences) == 1.0


def test_training_is_deterministic(two_seed_sequences):
    m1 = ae.train(two_seed_sequences, tiny_hp())
    m2 = ae.train(two_seed_sequences, tiny_hp())
    assert m1.loss_history == m2.loss_history
    assert sorted(m1.params) == sorted(m2.params)
    for k in m1.params:
        assert np.array_equal(m1.params[k], m2.params[k]), k


def test_cyclic_batching_ignores_corpus_duplication(two_seed_sequences):
    # with shuffle off and batch_size 2, [a, b] and [a, b, a, b] yield the
    # exact same batch stream, so training must land on identical weights
    m1 = ae.train(two_seed_sequences, tiny_hp())
    m2 = ae.train(list(two_seed_sequences) * 2, tiny_hp())
    for k in m1.params:
        assert np.array_equal(m1.params[k], m2.params[k]), k


def test_exact_reconstructions_counts_every_seed_of_the_overfit_model(
    overfit_model, two_seed_sequences
):
    assert ae.exact_reconstructions(overfit_model, two_seed_sequences) == 2
    reversed_seed = two_seed_sequences[1].tokens[::-1]  # never trained on
    plain = [x.tokens for x in two_seed_sequences] + [reversed_seed]
    assert ae.exact_reconstructions(overfit_model, plain) == 2
    assert ae.exact_reconstructions(overfit_model, []) == 0


def test_loss_history_trends_down(overfit_model):
    hist = overfit_model.loss_history
    assert len(hist) == overfit_model.hp.steps
    head = sum(hist[:50]) / 50
    tail = sum(hist[-50:]) / 50
    assert tail < head / 2


def test_numeric_gradient_check(two_seed_sequences):
    hp = tiny_hp(hidden_dim=4, embedding_dim=4, steps=5, dtype="float64")
    m = ae.train(two_seed_sequences, hp)
    err = ae.numeric_gradient_check(m, two_seed_sequences[1], n_samples=80)
    assert err <= 1e-3, "max relative gradient error %.2e" % err


@pytest.fixture(scope="module")
def three_lengths(ref_grammar, two_seed_sequences):
    """Sequences of three different lengths, shortest first."""
    g = ref_grammar
    chain = chain_by_names(g, 2, ("create-project", "list-branches"))
    x3 = build_case(g, chain, [["testString"], []]).seq
    seqs = sorted([*two_seed_sequences, x3], key=lambda x: len(x.tokens))
    assert len({len(x.tokens) for x in seqs}) == 3
    return seqs


def test_numeric_gradient_check_padded_batch(three_lengths):
    hp = tiny_hp(hidden_dim=4, embedding_dim=4, steps=5, batch_size=3, dtype="float64")
    m = ae.train(three_lengths, hp)
    err = ae.numeric_gradient_check(m, three_lengths[::-1], n_samples=80)
    assert err <= 1e-3, "max relative gradient error %.2e" % err


def _loss_grads(m, seqs):
    batch = ae._prepare_batch([x.tokens for x in seqs], m.hp.max_seq_len, m.hp.np_dtype())
    loss, _, grads = ae._forward_backward(m.params, m.hp, batch)
    return loss, grads


def test_batch_gradient_is_the_length_weighted_mean(three_lengths):
    # a padded position that leaked into the sums, or a row un-sorted
    # wrongly, would break the decomposition over sequences
    a, b = three_lengths[0], three_lengths[2]
    m = ae.train(three_lengths, tiny_hp(steps=5, dtype="float64"))
    wa, wb = len(a.tokens) + 1, len(b.tokens) + 1
    (la, ga), (lb, gb) = _loss_grads(m, [a]), _loss_grads(m, [b])
    loss, grads = _loss_grads(m, [a, b])  # the row sort swaps them
    assert loss == pytest.approx((wa * la + wb * lb) / (wa + wb), rel=1e-10)
    for k, g in grads.items():
        want = (wa * ga[k] + wb * gb[k]) / (wa + wb)
        assert np.abs(g - want).max() <= 1e-10 * np.abs(want).max(), k


def _reference_step(p, side, x, h):
    """Plain GRU cell: h' and the values the reference backward reads."""
    H = h.shape[1]
    xW, hU = x @ p[side + "_W"] + p[side + "_b"], h @ p[side + "_U"]
    u = 1 / (1 + np.exp(-(xW[:, :H] + hU[:, :H])))
    r = 1 / (1 + np.exp(-(xW[:, H : 2 * H] + hU[:, H : 2 * H])))
    c = np.tanh(xW[:, 2 * H :] + r * hU[:, 2 * H :])
    return (1 - u) * c + u * h, (x, h, hU, u, r, c)


def _reference_loss_grads(p, hp, batch):
    """Per-step padded reference: every row runs every step, the encoder
    masks padded steps and the loss weighs them 0."""
    enc_ids, enc_mask, dec_ids, targets, weights = batch
    H, E = hp.hidden_dim, hp.embedding_dim
    B, T = enc_ids.shape
    rows = np.arange(B)

    def step(x, h, side):
        return _reference_step(p, side, x, h)

    def backstep(dh, cache, side):
        x, h, hU, u, r, c = cache
        dc = dh * (1 - u) * (1 - c * c)
        dxW = np.concatenate([dh * (h - c) * u * (1 - u), dc * hU[:, 2 * H :] * r * (1 - r), dc], 1)
        dhU = np.concatenate([dxW[:, : 2 * H], dc * r], 1)
        g[side + "_W"] += x.T @ dxW
        g[side + "_U"] += h.T @ dhU
        g[side + "_b"] += dxW.sum(0)
        return dxW @ p[side + "_W"].T, dh * u + dhU @ p[side + "_U"].T

    g = {k: np.zeros_like(v) for k, v in p.items()}
    h, enc = np.zeros((B, H)), []
    for t in range(T):
        h_new, cache = step(p["enc_emb"][enc_ids[:, t]], h, "enc")
        m = enc_mask[:, t : t + 1]
        enc.append((cache, m))
        h = m * h_new + (1 - m) * h
    z, dec = h, []
    for t in range(T):
        x = p["dec_emb"][dec_ids[:, t]]
        h, cache = step(np.concatenate([x, z], 1) if hp.z_per_step else x, h, "dec")
        dec.append((cache, h))
    loss, dh, dz = 0.0, np.zeros((B, H)), np.zeros((B, H))
    for t in reversed(range(T)):
        cache, h_t = dec[t]
        logp = h_t @ p["out_W"] + p["out_b"]
        logp -= logp.max(1, keepdims=True)
        logp -= np.log(np.exp(logp).sum(1, keepdims=True))
        w = weights[:, t] / weights.sum()
        loss -= (logp[rows, targets[:, t]] * w).sum()
        dl = np.exp(logp)
        dl[rows, targets[:, t]] -= 1
        dl *= w[:, None]
        g["out_W"] += h_t.T @ dl
        g["out_b"] += dl.sum(0)
        dx, dh = backstep(dh + dl @ p["out_W"].T, cache, "dec")
        np.add.at(g["dec_emb"], dec_ids[:, t], dx[:, :E])
        if hp.z_per_step:
            dz += dx[:, E:]
    dh = dh + dz
    for t in reversed(range(T)):
        cache, m = enc[t]
        dx, dh_prev = backstep(dh * m, cache, "enc")
        dh = dh_prev + dh * (1 - m)
        np.add.at(g["enc_emb"], enc_ids[:, t], dx)
    return loss, g


@pytest.mark.parametrize("z_per_step", [True, False])
def test_forward_backward_matches_per_step_reference(three_lengths, z_per_step):
    hp = tiny_hp(steps=5, batch_size=3, dtype="float64", z_per_step=z_per_step)
    m = ae.train(three_lengths, hp)
    seqs = [three_lengths[i] for i in (1, 0, 2, 0)]
    batch = ae._prepare_batch([x.tokens for x in seqs], hp.max_seq_len, hp.np_dtype())
    loss, _, grads = ae._forward_backward(m.params, hp, batch)
    ref_loss, ref_grads = _reference_loss_grads(m.params, hp, batch)
    assert loss == pytest.approx(ref_loss, rel=1e-10)
    assert sorted(grads) == sorted(ref_grads)
    for k, g in grads.items():
        assert g.shape == ref_grads[k].shape and g.dtype == ref_grads[k].dtype, k
        assert np.abs(g - ref_grads[k]).max() <= 1e-10 * np.abs(ref_grads[k]).max(), k


def _reference_encode(p, hp, tokens):
    """Encode with the reference cell, one token at a time."""
    h = np.zeros((1, hp.hidden_dim), dtype=hp.np_dtype())
    for t in [tok + ae.N_SPECIALS for tok in tokens] + [ae.EOS]:
        h, _ = _reference_step(p, "enc", p["enc_emb"][[t]], h)
    return h[0]


def test_encode_is_bit_identical_to_a_plain_reference_cell(overfit_model, three_lengths):
    # pins the forward arithmetic that the fuzzer's mutations depend on
    m = overfit_model
    assert m.hp.dtype == "float32"
    for x in three_lengths:
        got = ae.encode(m, x).vector
        want = _reference_encode(m.params, m.hp, x.tokens)
        assert got.dtype == want.dtype == np.float32
        assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype,tol", [("float64", 1e-12), ("float32", 1e-5)])
def test_training_forward_agrees_with_encode(monkeypatch, three_lengths, dtype, tol):
    m = ae.train(three_lengths, tiny_hp(steps=5, batch_size=3, dtype=dtype))
    seqs = [three_lengths[i] for i in (1, 0, 2)]
    batch = ae._prepare_batch([x.tokens for x in seqs], m.hp.max_seq_len, m.hp.np_dtype())
    initial_states = []
    forward = ae._gru_forward

    def recording(xW, h0, *rest):
        initial_states.append(h0.copy())
        return forward(xW, h0, *rest)

    monkeypatch.setattr(ae, "_gru_forward", recording)
    ae._forward_backward(m.params, m.hp, batch, compute_grads=False)
    z = initial_states[1]  # the decoder starts from z, rows sorted longest first
    for row, x in zip(z, sorted(seqs, key=lambda x: -len(x.tokens))):
        want = ae.encode(m, x).vector
        assert row.dtype == want.dtype
        assert np.abs(row - want).max() <= tol * np.abs(want).max()


def test_checkpoint_round_trip(tmp_path, overfit_model, two_seed_sequences):
    path = str(tmp_path / "model.npz")
    ae.save_model(overfit_model, path)
    m = ae.load_model(path)
    assert m.hp == overfit_model.hp
    assert m.vocab_size == overfit_model.vocab_size
    assert m.grammar_hash == overfit_model.grammar_hash
    assert m.trained_steps == overfit_model.trained_steps
    assert m.loss_history == pytest.approx(overfit_model.loss_history)
    for k in overfit_model.params:
        assert np.array_equal(m.params[k], overfit_model.params[k]), k
    x = two_seed_sequences[0]
    assert ae.decode(m, ae.encode(m, x)) == x.tokens


def test_checkpoint_rejects_unknown_version(tmp_path, overfit_model):
    path = str(tmp_path / "model.npz")
    ae.save_model(overfit_model, path)
    data = dict(np.load(path))
    import json

    header = json.loads(bytes(data["header"]).decode("utf-8"))
    header["version"] = 99
    data["header"] = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **data)
    with pytest.raises(ValueError, match="version"):
        ae.load_model(path)


def test_encode_rejects_wrong_grammar_hash(overfit_model, two_seed_sequences):
    x = dataclasses.replace(two_seed_sequences[0], grammar_hash="f" * 64)
    with pytest.raises(ValueError, match="hash"):
        ae.encode(overfit_model, x)


def test_encode_rejects_out_of_vocab_tokens(overfit_model):
    with pytest.raises(ValueError, match="vocabulary"):
        ae.encode(overfit_model, [overfit_model.vocab_size])
    with pytest.raises(ValueError, match="vocabulary"):
        ae.encode(overfit_model, [-1])


def test_decode_terminates_on_random_embeddings(overfit_model):
    m = overfit_model
    rng = np.random.default_rng(11)
    for _ in range(20):
        z = rng.standard_normal(m.hp.hidden_dim)
        toks = ae.decode(m, z)
        assert len(toks) <= m.hp.max_seq_len
        # decoded specials sit below zero, never collide with rule ids
        assert all(isinstance(t, int) and t > -ae.N_SPECIALS for t in toks)


def test_train_input_validation(ref_grammar, two_seed_sequences):
    with pytest.raises(ValueError, match="empty"):
        ae.train([], tiny_hp())
    with pytest.raises(ValueError, match="max_seq_len"):
        ae.train(two_seed_sequences, tiny_hp(max_seq_len=4))
    mixed = [
        two_seed_sequences[0],
        dataclasses.replace(two_seed_sequences[1], grammar_hash="0" * 64),
    ]
    with pytest.raises(ValueError, match="different grammars"):
        ae.train(mixed, tiny_hp())


def test_embedding_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        ae.Embedding(vector=np.array([1.0, np.nan]))


def test_encode_accepts_plain_token_lists(overfit_model, two_seed_sequences):
    x = two_seed_sequences[0]
    via_seq = ae.encode(overfit_model, x).vector
    via_list = ae.encode(overfit_model, list(x.tokens)).vector
    assert np.array_equal(via_seq, via_list)


def test_single_request_chain_trains_and_decodes(ref_grammar):
    # smallest possible corpus: one sequence, still must round-trip
    g = ref_grammar
    chain = chain_by_names(g, 2, ("create-project",))
    x = build_case(g, chain, [["testString"]]).seq
    m = ae.train([x], tiny_hp(hidden_dim=32, steps=500, batch_size=1))
    assert ae.decode(m, ae.encode(m, x)) == x.tokens
