"""Sequence autoencoder over rule-id token sequences.

A single-layer GRU encoder compresses a token sequence into its final
hidden state; a GRU decoder reconstructs the sequence from that state.
Everything (forward, backward, Adam) is written directly on numpy
arrays: the mutation engine needs tight control over the decoder's
starting state, and a from-scratch cell keeps the whole gradient path
inspectable and checkable by finite differences.

Token layout: 0=<pad>, 1=<sos>, 2=<eos>; grammar rule ``r`` maps to
token ``r + 3``.

GRU cell (single matrix per side, gates stacked [update|reset|cand]):

    xW = x @ W + b          hU = h @ U
    u  = sigmoid(xW_u + hU_u)
    r  = sigmoid(xW_r + hU_r)
    c  = tanh(xW_c + r * hU_c)
    h' = (1 - u) * c + u * h

The decoder sees the embedding summary both as its initial state and —
when ``z_per_step`` is on — concatenated to every input embedding.

Training runs each time loop on packed positions.  The batch rows are
sorted by length (stable) and only the positions inside a sequence are
kept, time-major, so step t runs ``_gru_step`` on the prefix of rows
still inside their sequence; padded positions, which carry weight 0,
are skipped rather than masked.  Everything that does not depend on h
is a batched GEMM: the input projections ``x @ W + b`` of all steps
(the decoder's z columns once per batch), the logits, and after the
backward loop, which stacks each step's gate gradients, ``dW``, ``dU``,
``db``, the output layer and the embedding gradients.  Encode and
decode run one sequence step by step.

At small batches numpy's per-call cost, not the arithmetic, bounds the
time loops, so both make few calls per step and write into buffers
allocated once per side.  Every forward step, in training as in encode
and decode, is the one ``_gru_step``: a GEMM into scratch, then [u | r]
through one sigmoid, r * hU_c, c and h', each written in place.  Its
arithmetic is the cell above op for op, so encode and decode give the
bits of a plain per-token cell.  The backward pass first turns the
forward cache into the factors of dh that do not depend on dh, once for
all positions; a backward step is then five products in three in-place
calls and one GEMM against a contiguous Uᵀ (see ``_gru_backward``).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, asdict

import numpy as np

PAD, SOS, EOS = 0, 1, 2
N_SPECIALS = 3

CHECKPOINT_VERSION = 1


@dataclass
class Hyperparams:
    batch_size: int = 32
    steps: int = 2000
    learning_rate: float = 0.001
    embedding_dim: int = 100
    hidden_dim: int = 256
    max_seq_len: int = 128
    rng_seed: int = 0
    z_per_step: bool = True
    shuffle: bool = True  # off = cyclic batches (reproducible corpora tests)
    dtype: str = "float32"

    def np_dtype(self):
        return np.dtype(self.dtype)


@dataclass
class Embedding:
    """Encoder summary vector (length = hidden_dim)."""

    vector: np.ndarray

    def __post_init__(self):
        self.vector = np.asarray(self.vector)
        if not np.all(np.isfinite(self.vector)):
            raise ValueError("embedding contains non-finite entries")


@dataclass
class Model:
    hp: Hyperparams
    vocab_size: int
    grammar_hash: str
    params: dict[str, np.ndarray]
    trained_steps: int = 0
    loss_history: list[float] = field(default_factory=list)


def _init_params(hp: Hyperparams, vocab_size: int, rng: np.random.Generator):
    dt = hp.np_dtype()
    E, H = hp.embedding_dim, hp.hidden_dim
    dec_in = E + (H if hp.z_per_step else 0)

    def glorot(shape):
        limit = np.sqrt(6.0 / (shape[0] + shape[1]))
        return rng.uniform(-limit, limit, size=shape).astype(dt)

    return {
        "enc_emb": (rng.normal(0.0, 0.1, size=(vocab_size, E))).astype(dt),
        "enc_W": glorot((E, 3 * H)),
        "enc_U": glorot((H, 3 * H)),
        "enc_b": np.zeros(3 * H, dtype=dt),
        "dec_emb": (rng.normal(0.0, 0.1, size=(vocab_size, E))).astype(dt),
        "dec_W": glorot((dec_in, 3 * H)),
        "dec_U": glorot((H, 3 * H)),
        "dec_b": np.zeros(3 * H, dtype=dt),
        "out_W": glorot((H, vocab_size)),
        "out_b": np.zeros(vocab_size, dtype=dt),
    }


def _gru_step(xW, h, U, hU, ur, rh, c, h_new):
    """One forward step on the input projection ``xW = x @ W + b``,
    written into the caller's buffers: ``hU`` (n, 3H) is scratch for
    h @ U, ``ur`` (n, 2H) receives [u | r], ``rh`` r * hU_c, ``c`` the
    candidate and ``h_new`` h', which must not overlap ``h``.  The
    arithmetic is the module docstring's, op for op, so encode, decode
    and the training forward get the same bits for the same inputs."""
    H = c.shape[1]
    np.matmul(h, U, out=hU)
    np.add(xW[:, : 2 * H], hU[:, : 2 * H], out=ur)
    np.negative(ur, out=ur)  # one sigmoid over both gates
    np.exp(ur, out=ur)
    ur += 1.0
    np.divide(1.0, ur, out=ur)
    u = ur[:, :H]
    np.multiply(ur[:, H:], hU[:, 2 * H :], out=rh)
    np.add(xW[:, 2 * H :], rh, out=c)
    np.tanh(c, out=c)
    np.subtract(1.0, u, out=h_new)
    h_new *= c
    h_new += u * h


def _gru_forward(xW, h0, U, hidden_dim, off, base):
    """Run one side over packed input projections.  Returns the stacked
    states S (the initial state, then each step's output) and the cache
    (UR, RH, C) of each position's [u | r], r * hU_c and candidate.  Step
    t reads its h_prev at ``S[base[t]:]`` and writes ``S[B + off[t]:]``."""
    B, N, H = h0.shape[0], xW.shape[0], hidden_dim
    dt = h0.dtype
    S = np.empty((B + N, H), dtype=dt)
    S[:B] = h0
    UR = np.empty((N, 2 * H), dtype=dt)
    RH, C = np.empty((N, H), dtype=dt), np.empty((N, H), dtype=dt)
    hU = np.empty((B, 3 * H), dtype=dt)
    off, base = off.tolist(), base.tolist()  # python ints slice faster
    for t in range(len(off) - 1):
        a, b = off[t], off[t + 1]
        h_prev = S[base[t] : base[t] + b - a]
        _gru_step(xW[a:b], h_prev, U, hU[: b - a], UR[a:b], RH[a:b], C[a:b], S[B + a : B + b])
    return S, (UR, RH, C)


def _gru_backward(dh, dS, S, cache, U, off, prev, G, Gc):
    """Backward through one side's time loop, in place: ``dh`` enters with
    the gradient at each row's final state (plus ``dS``, each position's
    output gradient, if given) and leaves with the initial state's; ``G``
    receives d(xW) and ``Gc`` the candidate slice of d(hU) per position,
    whose h_prev is ``S[prev]``.

    With dc = dh·(1-u)(1-c²), a position's gradients are dh times
    factors that do not depend on dh: G_u = dh·(h_prev-c)u(1-u),
    G_r = dc·hU_c·r(1-r), d(hU_c) = dc·r and dh_prev = dh·u + d(hU) @ Uᵀ.
    So before the loop, G is filled with [(h_prev-c)u(1-u) |
    (1-u)(1-c²)·hU_c·r(1-r) | (1-u)(1-c²)·r], C is overwritten with
    (1-u)(1-c²) and RH with u.  A step is then five products in three
    in-place calls (G's three blocks by dh, dc into Gc, dh·u) and one
    GEMM of G's rows, [G_u | G_r | dc·r], against a contiguous Uᵀ.  After
    the loop, G's last block and Gc are swapped through the dead C."""
    UR, RH, C = cache
    H = C.shape[1]
    u, r = UR[:, :H], UR[:, H:]
    np.subtract(S[prev], C, out=G[:, :H])
    G[:, :H] *= u
    np.subtract(1.0, u, out=Gc)  # Gc is scratch until the loop
    G[:, :H] *= Gc
    np.multiply(C, C, out=C)
    np.subtract(1.0, C, out=C)
    C *= Gc
    np.subtract(1.0, r, out=Gc)
    np.multiply(RH, Gc, out=G[:, H : 2 * H])
    G[:, H : 2 * H] *= C
    np.multiply(C, r, out=G[:, 2 * H :])
    np.copyto(RH, u)
    G3 = G.reshape(len(G), 3, H)
    UT = np.ascontiguousarray(U.T)
    dhU = np.empty_like(dh)
    off = off.tolist()
    for t in range(len(off) - 2, -1, -1):
        a, b = off[t], off[t + 1]
        d = dh[: b - a]
        if dS is not None:
            d += dS[a:b]
        G3[a:b] *= d[:, None]
        np.multiply(d, C[a:b], out=Gc[a:b])
        d *= RH[a:b]
        np.matmul(G[a:b], UT, out=dhU[: b - a])
        d += dhU[: b - a]
    np.copyto(C, Gc)
    np.copyto(Gc, G[:, 2 * H :])
    np.copyto(G[:, 2 * H :], C)


def _onehot(idx, n, dtype):
    """(n, len(idx)) selection matrix: ``_onehot(idx, n) @ X`` sums X's
    rows by index."""
    return (idx == np.arange(n)[:, None]).astype(dtype)


def _weight_grads(grads, p, side, x, ids, S, prev, G, Gc):
    """One side's weight and embedding gradients from its stacked gate
    gradients, one GEMM or reduction each."""
    H, E = Gc.shape[1], x.shape[1]
    h_prev = S[prev]
    grads[side + "_U"] = np.concatenate([h_prev.T @ G[:, : 2 * H], h_prev.T @ Gc], axis=1)
    grads[side + "_W"] = x.T @ G
    grads[side + "_b"] = G.sum(axis=0)
    emb = p[side + "_emb"]
    grads[side + "_emb"] = _onehot(ids, emb.shape[0], emb.dtype) @ (G @ p[side + "_W"][:E].T)


def _prepare_batch(token_lists, max_seq_len, dtype):
    """Build encoder/decoder id arrays for one batch.

    encoder input:   tokens + <eos>, padded
    decoder input:   <sos> + tokens, padded
    decoder target:  tokens + <eos>, padded (weight 0 on pads)
    """
    B = len(token_lists)
    T = max(len(t) for t in token_lists) + 1
    if T > max_seq_len + 1:
        raise ValueError("sequence longer than max_seq_len")
    enc_ids = np.zeros((B, T), dtype=np.int64)
    dec_ids = np.zeros((B, T), dtype=np.int64)
    targets = np.zeros((B, T), dtype=np.int64)
    weights = np.zeros((B, T), dtype=dtype)
    enc_mask = np.zeros((B, T), dtype=dtype)
    for i, toks in enumerate(token_lists):
        shifted = [t + N_SPECIALS for t in toks]
        n = len(shifted)
        enc_ids[i, :n] = shifted
        enc_ids[i, n] = EOS
        enc_mask[i, : n + 1] = 1.0
        dec_ids[i, 0] = SOS
        dec_ids[i, 1 : n + 1] = shifted
        targets[i, :n] = shifted
        targets[i, n] = EOS
        weights[i, : n + 1] = 1.0
    return enc_ids, enc_mask, dec_ids, targets, weights


def _forward_backward(params, hp: Hyperparams, batch, compute_grads=True):
    """Weighted cross-entropy loss over a batch; optionally gradients.
    Only positions inside each row's ``enc_mask`` length are computed:
    the rest must carry weight 0, as ``_prepare_batch`` gives them."""
    enc_ids, enc_mask, dec_ids, targets, weights = batch
    p, H, E = params, hp.hidden_dim, hp.embedding_dim
    dt = hp.np_dtype()
    B, T = enc_ids.shape
    # pack the positions inside each sequence time-major, rows sorted by
    # length: step t covers sorted rows [:n_t] at positions off[t]:off[t+1]
    lens = enc_mask.sum(axis=1).astype(np.int64)
    order = np.argsort(-lens, kind="stable")
    lens = lens[order]
    off = np.concatenate([[0], np.cumsum((lens[:, None] > np.arange(T)).sum(axis=0))])
    tt = np.repeat(np.arange(T), np.diff(off))
    rr = np.arange(off[-1]) - off[tt]  # sorted row of each position
    rows = order[rr]
    base = np.concatenate([[0], B + off[:-2]])
    enc_tok, dec_tok = enc_ids[rows, tt], dec_ids[rows, tt]
    tgt, w = targets[rows, tt], weights[rows, tt]

    enc_x = p["enc_emb"][enc_tok]
    S_enc, enc_cache = _gru_forward(
        enc_x @ p["enc_W"] + p["enc_b"], np.zeros((B, H), dtype=dt), p["enc_U"], H, off, base
    )
    z = S_enc[B + off[lens - 1] + np.arange(B)]

    # decoder (teacher forcing); z's input columns are projected once
    dec_x = p["dec_emb"][dec_tok]
    xW = dec_x @ p["dec_W"][:E] + p["dec_b"]
    if hp.z_per_step:
        xW += (z @ p["dec_W"][E:])[rr]
    S_dec, dec_cache = _gru_forward(xW, z, p["dec_U"], H, off, base)
    del xW  # not needed by the backward pass: free it before that peaks

    # weighted cross-entropy (stable log-softmax) at the packed positions
    logits = S_dec[B:] @ p["out_W"] + p["out_b"]
    pos = np.arange(len(tgt))
    m = logits.max(axis=1)
    ex = np.exp(logits - m[:, None])
    sumex = ex.sum(axis=1)
    total_w = float(weights.sum())
    loss = -float((((logits[pos, tgt] - m) - np.log(sumex)) * w).sum()) / total_w
    counted = w > 0
    acc = int((counted & (logits.argmax(axis=1) == tgt)).sum()) / max(int(counted.sum()), 1)
    if not compute_grads:
        return loss, acc, None

    dl = ex / sumex[:, None]
    dl[pos, tgt] -= 1.0
    dl *= (w / total_w)[:, None]
    grads = {"out_W": S_dec[B:].T @ dl, "out_b": dl.sum(axis=0)}
    prev = base[tt] + rr  # each position's h_prev in S
    G = np.empty((len(tgt), 3 * H), dtype=dt)  # d(xW), decoder then encoder
    Gc = np.empty((len(tgt), H), dtype=dt)
    dz = np.zeros((B, H), dtype=dt)  # decoder initial state was z
    _gru_backward(dz, dl @ p["out_W"].T, S_dec, dec_cache, p["dec_U"], off, prev, G, Gc)
    _weight_grads(grads, p, "dec", dec_x, dec_tok, S_dec, prev, G, Gc)
    if hp.z_per_step:
        Gz = _onehot(rr, B, dt) @ G
        grads["dec_W"] = np.concatenate([grads["dec_W"], z.T @ Gz])
        dz += Gz @ p["dec_W"][E:].T
    _gru_backward(dz, None, S_enc, enc_cache, p["enc_U"], off, prev, G, Gc)
    _weight_grads(grads, p, "enc", enc_x, enc_tok, S_enc, prev, G, Gc)
    return loss, acc, grads


class _Adam:
    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params, grads):
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for k, p in params.items():
            g = grads[k]
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * (g * g)
            mhat = self.m[k] / b1c
            vhat = self.v[k] / b2c
            p -= (self.lr * mhat / (np.sqrt(vhat) + self.eps)).astype(p.dtype)


def _corpus_tokens(corpus):
    out = []
    for rs in corpus:
        toks = rs.tokens if hasattr(rs, "tokens") else list(rs)
        out.append(list(toks))
    return out


def train(corpus, hp: Hyperparams, grammar_hash: str | None = None, log=None) -> Model:
    """Train on rule sequences (reconstruction objective)."""
    if not corpus:
        raise ValueError("empty training corpus")
    token_lists = _corpus_tokens(corpus)
    hashes = {rs.grammar_hash for rs in corpus if hasattr(rs, "grammar_hash")}
    if grammar_hash is None:
        if len(hashes) > 1:
            raise ValueError("corpus mixes sequences from different grammars")
        grammar_hash = hashes.pop() if hashes else ""
    longest = max(len(t) for t in token_lists)
    if longest > hp.max_seq_len:
        raise ValueError(
            "longest sequence (%d) exceeds max_seq_len (%d)" % (longest, hp.max_seq_len)
        )
    vocab = max(max(t) for t in token_lists if t) + 1 + N_SPECIALS
    rng = np.random.default_rng(hp.rng_seed)
    params = _init_params(hp, vocab, rng)
    opt = _Adam(params, hp.learning_rate)
    model = Model(hp=hp, vocab_size=vocab, grammar_hash=grammar_hash, params=params)

    n = len(token_lists)
    t_start = time.time()
    for step in range(hp.steps):
        if hp.shuffle:
            idx = rng.integers(0, n, size=hp.batch_size)
        else:
            base = step * hp.batch_size
            idx = [(base + j) % n for j in range(hp.batch_size)]
        batch_tokens = [token_lists[i] for i in idx]
        batch = _prepare_batch(batch_tokens, hp.max_seq_len, hp.np_dtype())
        loss, acc, grads = _forward_backward(params, hp, batch)
        if not np.isfinite(loss):
            raise FloatingPointError("non-finite loss at step %d" % step)
        opt.step(params, grads)
        model.loss_history.append(loss)
        if log and (step % 100 == 0 or step == hp.steps - 1):
            log(
                "step %5d/%d  loss %.4f  batch-acc %.3f  (%.1fs)"
                % (step, hp.steps, loss, acc, time.time() - t_start)
            )
    model.trained_steps = hp.steps
    for k, v in params.items():
        if not np.all(np.isfinite(v)):
            raise FloatingPointError("non-finite parameter %r after training" % k)
    return model


def _check_hash(m: Model, x) -> None:
    xh = getattr(x, "grammar_hash", None)
    if xh is not None and m.grammar_hash and xh != m.grammar_hash:
        raise ValueError(
            "sequence grammar hash %s does not match model hash %s"
            % (xh[:12], m.grammar_hash[:12])
        )


def _row_buffers(hp: Hyperparams):
    """``_gru_step``'s buffers for one row: hU, ur, rh, c, h_new."""
    H, dt = hp.hidden_dim, hp.np_dtype()
    return [np.empty((1, k * H), dtype=dt) for k in (3, 2, 1, 1, 1)]


def encode(m: Model, x) -> Embedding:
    """Summarise a rule sequence as the encoder's final hidden state."""
    _check_hash(m, x)
    toks = x.tokens if hasattr(x, "tokens") else list(x)
    if any(t + N_SPECIALS >= m.vocab_size or t < 0 for t in toks):
        raise ValueError("token out of vocabulary")
    hp = m.hp
    ids = np.asarray([t + N_SPECIALS for t in toks] + [EOS], dtype=np.int64)
    h = np.zeros((1, hp.hidden_dim), dtype=hp.np_dtype())
    hU, ur, rh, c, h_new = _row_buffers(hp)
    for t in range(ids.shape[0]):
        xW = m.params["enc_emb"][ids[t : t + 1]] @ m.params["enc_W"] + m.params["enc_b"]
        _gru_step(xW, h, m.params["enc_U"], hU, ur, rh, c, h_new)
        h, h_new = h_new, h
    return Embedding(vector=h[0].copy())


def decode(m: Model, z) -> list[int]:
    """Greedy decode from an embedding into grammar rule ids."""
    vec = z.vector if isinstance(z, Embedding) else np.asarray(z)
    hp = m.hp
    h = vec.reshape(1, hp.hidden_dim).astype(hp.np_dtype())
    z_row = h.copy()
    hU, ur, rh, c, h_new = _row_buffers(hp)
    prev = SOS
    out: list[int] = []
    for _ in range(hp.max_seq_len):
        emb = m.params["dec_emb"][np.asarray([prev])]
        x = np.concatenate([emb, z_row], axis=1) if hp.z_per_step else emb
        xW = x @ m.params["dec_W"] + m.params["dec_b"]
        _gru_step(xW, h, m.params["dec_U"], hU, ur, rh, c, h_new)
        h, h_new = h_new, h
        logits = h @ m.params["out_W"] + m.params["out_b"]
        prev = int(logits[0].argmax())
        if prev == EOS:
            break
        # specials other than <eos> map below 0: clearly not rule ids
        out.append(prev - N_SPECIALS)
    return out


def reconstruction_accuracy(m: Model, sequences) -> float:
    """Greedy-decode token accuracy against the inputs themselves."""
    n_total = 0
    n_match = 0
    for rs in sequences:
        toks = rs.tokens if hasattr(rs, "tokens") else list(rs)
        got = decode(m, encode(m, rs))
        n_total += max(len(toks), len(got))
        n_match += sum(1 for a, b in zip(toks, got) if a == b)
    return n_match / max(n_total, 1)


def exact_reconstructions(m: Model, sequences) -> int:
    """How many sequences greedy-decode back to exactly their own tokens."""
    pairs = zip(sequences, _corpus_tokens(sequences))
    return sum(decode(m, encode(m, rs)) == toks for rs, toks in pairs)


def save_model(m: Model, path: str) -> None:
    header = json.dumps(
        {
            "version": CHECKPOINT_VERSION,
            "hp": asdict(m.hp),
            "vocab_size": m.vocab_size,
            "grammar_hash": m.grammar_hash,
            "trained_steps": m.trained_steps,
        }
    )
    arrays = dict(m.params)
    arrays["loss_history"] = np.asarray(m.loss_history, dtype=np.float64)
    arrays["header"] = np.frombuffer(header.encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)


def load_model(path: str) -> Model:
    data = np.load(path if str(path).endswith(".npz") else str(path) + ".npz")
    header = json.loads(bytes(data["header"]).decode("utf-8"))
    if header.get("version") != CHECKPOINT_VERSION:
        raise ValueError("unsupported checkpoint version %r" % header.get("version"))
    hp = Hyperparams(**header["hp"])
    params = {
        k: data[k] for k in data.files if k not in ("header", "loss_history")
    }
    return Model(
        hp=hp,
        vocab_size=header["vocab_size"],
        grammar_hash=header["grammar_hash"],
        params=params,
        trained_steps=header["trained_steps"],
        loss_history=list(data["loss_history"]),
    )


def numeric_gradient_check(
    m: Model, x, n_samples: int = 60, h: float = 1e-4, rng_seed: int = 0
) -> float:
    """Max relative error between analytic and central-difference
    gradients over sampled parameter coordinates.  ``x`` is one sequence,
    or a list of sequences checked as one padded batch."""
    single = hasattr(x, "tokens") or not x or np.isscalar(x[0])
    batch = _prepare_batch(_corpus_tokens([x] if single else x), m.hp.max_seq_len, m.hp.np_dtype())
    _, _, grads = _forward_backward(m.params, m.hp, batch)

    def loss_only():
        loss, _, _ = _forward_backward(m.params, m.hp, batch, compute_grads=False)
        return loss

    rng = np.random.default_rng(rng_seed)
    worst = 0.0
    names = sorted(m.params)
    for _ in range(n_samples):
        name = names[int(rng.integers(0, len(names)))]
        p = m.params[name]
        flat_idx = int(rng.integers(0, p.size))
        idx = np.unravel_index(flat_idx, p.shape)
        orig = p[idx]
        p[idx] = orig + h
        lp = loss_only()
        p[idx] = orig - h
        lm = loss_only()
        p[idx] = orig
        numeric = (lp - lm) / (2.0 * h)
        analytic = float(grads[name][idx])
        rel = abs(analytic - numeric) / (abs(analytic) + 1e-8)
        worst = max(worst, rel)
    return worst
