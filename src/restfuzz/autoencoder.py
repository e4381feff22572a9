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

The decoder sees the embedding summary both as its initial state and
concatenated to every input embedding.

Training runs each time loop depth by depth on packed positions (after
Appleyard et al., arXiv:1604.01946, and the dynamic batching of Looks
et al., ICLR 2017); padded positions, which carry weight 0, are skipped
rather than masked.  Each side is a trie whose depth-t nodes run as one
``_gru_step`` (see ``_Layout``).  An encoder state depends only on the
tokens up to it, so the encoder runs each distinct prefix of the batch
once and each row's z is its leaf's state; the decoder starts each row
from its own z, so its trie shares nothing.  Nodes of a depth are
ordered by their smallest member row, so only the depths where a prefix
splits gather their h_prev.  Everything that does not depend on h is a
batched GEMM: the input projections ``x @ W + b`` of all positions (the
decoder's z columns once per batch), the logits, and after the backward
loop, which stacks each position's gate gradients, ``dW``, ``dU``,
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

A batch drawn with replacement from a small corpus repeats sequences, so
``_prepare_batch`` keeps each distinct sequence once and weighs its
positions by its multiplicity: the GRUs run each distinct row once, and
the loss, gradients and token accuracy are those of the full batch up to
float rounding.  Adam keeps the parameters and their gradients in flat
buffers, which ``Model.params`` and ``_Adam.grads`` view: the backward
pass writes each gradient into its view, overwriting the last step's,
and a step walks the buffers in fixed-size chunks in place, so no step
allocates a buffer the size of the whole parameter set.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields, asdict
from typing import NamedTuple

import numpy as np

PAD, SOS, EOS = 0, 1, 2
N_SPECIALS = 3

CHECKPOINT_VERSION = 3


@dataclass
class Hyperparams:
    """Training settings.  Each step draws ``batch_size`` sequences from
    the corpus at random, with replacement."""

    batch_size: int = 32
    steps: int = 2000
    learning_rate: float = 0.001
    embedding_dim: int = 100
    hidden_dim: int = 256
    max_seq_len: int = 128
    rng_seed: int = 0
    dtype: str = "float32"

    def __post_init__(self):
        # steps=0 is legal: it keeps the untrained initial model
        sizes = ("batch_size", "hidden_dim", "embedding_dim", "max_seq_len", "steps", "rng_seed")
        for name, low in zip(sizes, (1, 1, 1, 1, 0, 0)):
            if getattr(self, name) < low:
                raise ValueError("%s must be >= %d, got %r" % (name, low, getattr(self, name)))
        if not self.learning_rate > 0:  # NaN included
            raise ValueError("learning_rate must be > 0, got %r" % self.learning_rate)

    def np_dtype(self):
        return np.dtype(self.dtype)


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

    def glorot(shape):
        limit = np.sqrt(6.0 / (shape[0] + shape[1]))
        return rng.uniform(-limit, limit, size=shape).astype(dt)

    return {
        "enc_emb": (rng.normal(0.0, 0.1, size=(vocab_size, E))).astype(dt),
        "enc_W": glorot((E, 3 * H)),
        "enc_U": glorot((H, 3 * H)),
        "enc_b": np.zeros(3 * H, dtype=dt),
        "dec_emb": (rng.normal(0.0, 0.1, size=(vocab_size, E))).astype(dt),
        "dec_W": glorot((E + H, 3 * H)),
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


def _gru_forward(xW, h0, U, lay):
    """Run one side over its packed input projections in the node order
    of ``lay`` (see ``_Layout``).  Returns the stacked states S (the
    initial states, then each position's output) and the cache (UR, RH,
    C) of each position's [u | r], r * hU_c and candidate.  Depth t
    writes ``S[len(h0) + off[t]:]``.  Its h_prev is the first
    ``off[t+1] - off[t]`` states that depth t-1 wrote (h0's for depth 0),
    or, at a split depth, the gather ``S[prev]``."""
    B, N, H = h0.shape[0], xW.shape[0], h0.shape[1]
    dt = h0.dtype
    S = np.empty((B + N, H), dtype=dt)
    S[:B] = h0
    UR = np.empty((N, 2 * H), dtype=dt)
    RH, C = np.empty((N, H), dtype=dt), np.empty((N, H), dtype=dt)
    hU = np.empty((B, 3 * H), dtype=dt)
    off, prev, splits = lay.off, lay.prev, lay.splits
    lo = 0  # S row of the first node of depth t-1
    for t in range(len(off) - 1):
        a, b = off[t], off[t + 1]
        h_prev = S[prev[a:b]] if t in splits else S[lo : lo + b - a]
        _gru_step(xW[a:b], h_prev, U, hU[: b - a], UR[a:b], RH[a:b], C[a:b], S[B + a : B + b])
        lo = B + a
    return S, (UR, RH, C)


def _gru_backward(dleaf, dS, h_prev, cache, U, lay, G, Gc):
    """Backward through one side's time loop.  ``dleaf`` holds the
    gradient at each leaf's state, in the order of ``lay.leaves``, and
    ``dS``, if given, each position's output gradient; ``h_prev`` is
    each position's input state.  ``G`` receives d(xW) and ``Gc`` the
    candidate slice of d(hU) per position.  Returns the gradient at the
    initial states that depth 0 read.

    ``dh`` holds the gradient at each node of the current depth.  A step
    turns ``dh[:n_t]`` into its parents' gradient in place, since each
    parent sits in its child's slot, except at a split depth, which
    sums its nodes into their parents with one GEMM.  Leaves come last
    in their depth: their ``dleaf`` is copied in when the loop reaches
    it.

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
    np.subtract(h_prev, C, out=G[:, :H])
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
    dh = np.empty_like(dleaf)  # no depth has more nodes than there are leaves
    dhU = np.empty_like(dh)
    off, splits, leaves = lay.off, lay.splits, lay.leaves
    for t in range(len(off) - 2, -1, -1):
        a, b = off[t], off[t + 1]
        if t in leaves:
            k0, k1 = leaves[t]
            dh[b - a - (k1 - k0) : b - a] = dleaf[k0:k1]
        d = dh[: b - a]
        if dS is not None:
            d += dS[a:b]
        G3[a:b] *= d[:, None]
        np.multiply(d, C[a:b], out=Gc[a:b])
        d *= RH[a:b]
        np.matmul(G[a:b], UT, out=dhU[: b - a])
        d += dhU[: b - a]
        if t in splits:
            fold = splits[t]
            np.matmul(fold, d, out=dhU[: len(fold)])
            dh[: len(fold)] = dhU[: len(fold)]
    np.copyto(C, Gc)
    np.copyto(Gc, G[:, 2 * H :])
    np.copyto(G[:, 2 * H :], C)
    return dh[: off[1]]


def _onehot(idx, n, dtype):
    """(n, len(idx)) selection matrix: ``_onehot(idx, n) @ X`` sums X's
    rows by index."""
    return (idx == np.arange(n)[:, None]).astype(dtype)


def _weight_grads(grads, p, side, x, ids, h_prev, G, Gc):
    """One side's weight and embedding gradients from its stacked gate
    gradients, one GEMM or reduction each, written into ``grads``' arrays
    (the input rows of ``W``; the decoder's z rows are the caller's)."""
    H, E = Gc.shape[1], x.shape[1]
    np.concatenate([h_prev.T @ G[:, : 2 * H], h_prev.T @ Gc], axis=1, out=grads[side + "_U"])
    np.matmul(x.T, G, out=grads[side + "_W"][:E])
    G.sum(axis=0, out=grads[side + "_b"])
    emb = p[side + "_emb"]
    sel = _onehot(ids, emb.shape[0], emb.dtype)
    np.matmul(sel, G @ p[side + "_W"][:E].T, out=grads[side + "_emb"])


def _prepare_batch(token_lists, max_seq_len, dtype):
    """Build encoder/decoder id arrays for one batch.

    encoder input:   tokens + <eos>, padded
    decoder input:   <sos> + tokens, padded
    decoder target:  tokens + <eos>, padded (weight 0 on pads)

    Equal token lists become one row, in first-seen order, whose weights
    are the list's multiplicity: the weighted loss and its gradients are
    the same sums with the repeats folded in, so each distinct sequence
    runs through the GRUs once.
    """
    counts: dict[tuple, int] = {}
    for toks in token_lists:
        key = tuple(toks)
        counts[key] = counts.get(key, 0) + 1
    B = len(counts)
    T = max(len(t) for t in counts) + 1
    if T > max_seq_len + 1:
        raise ValueError("sequence longer than max_seq_len")
    enc_ids = np.zeros((B, T), dtype=np.int64)
    dec_ids = np.zeros((B, T), dtype=np.int64)
    targets = np.zeros((B, T), dtype=np.int64)
    weights = np.zeros((B, T), dtype=dtype)
    enc_mask = np.zeros((B, T), dtype=dtype)
    for i, (toks, k) in enumerate(counts.items()):
        shifted = [t + N_SPECIALS for t in toks]
        n = len(shifted)
        enc_ids[i, :n] = shifted
        enc_ids[i, n] = EOS
        enc_mask[i, : n + 1] = 1.0
        dec_ids[i, 0] = SOS
        dec_ids[i, 1 : n + 1] = shifted
        targets[i, :n] = shifted
        targets[i, n] = EOS
        weights[i, : n + 1] = k
    return enc_ids, enc_mask, dec_ids, targets, weights


class _Layout(NamedTuple):
    """Where one side's positions sit: a trie of nodes run depth by depth.

    Depth t's nodes are positions ``off[t]:off[t+1]``, ordered by their
    smallest member row, so a depth's leaves come last and, unless a
    prefix splits there, its parents are the first nodes of depth t-1
    in the same order.  ``prev`` is the row of S holding each position's
    h_prev.  ``splits`` maps each split depth to the (parents, nodes)
    0/1 matrix that sums the nodes' dh into their parents.  ``leaves``
    maps each depth that ends rows to the range of its leaves in
    ``dleaf``, which numbers the leaves deepest first."""

    off: list
    prev: np.ndarray
    splits: dict
    leaves: dict


def _layout(off, prev, n_h0, leaf_depths, split_depths, dtype):
    """The ``_Layout`` of positions ``off`` whose h_prev is ``S[prev]``,
    with ``n_h0`` initial states in front, given each leaf's depth,
    deepest first, and the depths where a prefix splits."""
    leaves = {}
    for k, t in enumerate(leaf_depths):
        leaves[t] = (leaves.get(t, (k,))[0], k + 1)
    splits = {}
    for t in split_depths:
        a, b = off[t - 1], off[t]
        k0, k1 = leaves.get(t - 1, (0, 0))
        splits[t] = _onehot(prev[b : off[t + 1]] - (n_h0 + a), b - a - (k1 - k0), dtype)
    return _Layout(off, prev, splits, leaves)


def _prefix_trie(ids, lens, dtype):
    """Returns the encoder's layout over the length-sorted rows ``ids``
    (B, T), each position's depth and first member row, the row of S
    holding each row's z, and the (leaves, rows) 0/1 matrix that sums
    the rows' dz into their leaves (None if every row is its own leaf).

    Row i heads its node from depth s_i on, the first depth at which it
    differs from every row before it; until then it shares the node of
    p_i, the first row that agrees with it longest.  Rows with equal
    tokens never head a node: they share one leaf."""
    B, T = ids.shape
    rows = np.arange(B)
    ne = ids[:, None] != ids
    first_diff = np.where(ne.any(axis=2), ne.argmax(axis=2), T)
    first_diff *= rows[:, None] > rows  # only rows before count
    s, p = first_diff.max(axis=1), first_diff.argmax(axis=1)
    depth = np.arange(T)[:, None]
    head = (depth >= s) & (depth < lens)  # (T, B): row heads a node
    count = np.cumsum(head).reshape(T, B)  # nodes so far, time-major
    tt, hr = np.nonzero(head)
    prev = count[tt - 1, np.where(tt == s[hr], p[hr], hr)] + (B - 1)
    off = [0] + count[:, -1].tolist()
    prev[: off[1]] = rows[: off[1]]  # depth 0 starts from h0
    ends = lens - 1
    lead = s <= ends  # rows that head their leaf
    lay = _layout(off, prev, B, ends[lead].tolist(), set(s[lead & (s > 0)].tolist()), dtype)
    leaf = np.where(lead, rows, p)  # the row heading each row's leaf
    fold = None if lead.all() else _onehot((np.cumsum(lead) - 1)[leaf], int(lead.sum()), dtype)
    return lay, tt, hr, count[ends, leaf] + (B - 1), fold


def _forward_backward(params, hp: Hyperparams, batch, compute_grads=True, out=None):
    """Weighted cross-entropy loss and weighted token accuracy over a
    batch; optionally gradients.  Only positions inside each row's
    ``enc_mask`` length are computed: the rest must carry weight 0, as
    ``_prepare_batch`` gives them.

    Each gradient is written, as it is computed, into its array of
    ``out``, a dict shaped like ``params``, and ``out`` is returned;
    without ``out`` they go to views of one new flat buffer (``_views``).
    ``train`` passes ``_Adam.grads``, so the gradients it gets back are
    overwritten by the next step's pass.

    The rows are sorted by length (stable).  The encoder runs their
    prefix trie and the decoder a trie that shares nothing (see
    ``_Layout``).  Each row's z is its encoder leaf's state, and on the
    way back that leaf's slot receives the sum of its rows' dz."""
    enc_ids, enc_mask, dec_ids, targets, weights = batch
    p, H, E = params, hp.hidden_dim, hp.embedding_dim
    dt = hp.np_dtype()
    B = enc_ids.shape[0]
    lens = enc_mask.sum(axis=1).astype(np.int64)
    order = np.argsort(-lens, kind="stable")
    lens = lens[order]
    T = int(lens[0])
    # decoder: a trie with no shared prefix, one node per row and depth
    off = np.concatenate([[0], np.cumsum((lens[:, None] > np.arange(T)).sum(axis=0))])
    tt = np.repeat(np.arange(T), np.diff(off))
    rr = np.arange(off[-1]) - off[tt]  # sorted row of each position
    prev = np.concatenate([[0], B + off[:-2]])[tt] + rr
    dec = _layout(off.tolist(), prev, B, (lens - 1).tolist(), (), dt)
    rows = order[rr]
    dec_tok, tgt, w = dec_ids[rows, tt], targets[rows, tt], weights[rows, tt]
    ids = enc_ids[order, :T]
    enc, enc_t, enc_r, z_at, fold = _prefix_trie(ids, lens, dt)
    enc_tok = ids[enc_r, enc_t]

    enc_x = p["enc_emb"][enc_tok]
    S_enc, enc_cache = _gru_forward(
        enc_x @ p["enc_W"] + p["enc_b"], np.zeros((B, H), dtype=dt), p["enc_U"], enc
    )
    z = S_enc[z_at]

    # decoder (teacher forcing); z's input columns are projected once
    dec_x = p["dec_emb"][dec_tok]
    xW = dec_x @ p["dec_W"][:E] + p["dec_b"]
    xW += (z @ p["dec_W"][E:])[rr]
    S_dec, dec_cache = _gru_forward(xW, z, p["dec_U"], dec)
    del xW  # not needed by the backward pass: free it before that peaks

    # weighted cross-entropy (stable log-softmax) at the packed positions
    logits = S_dec[B:] @ p["out_W"] + p["out_b"]
    pos = np.arange(len(tgt))
    m = logits.max(axis=1)
    ex = np.exp(logits - m[:, None])
    sumex = ex.sum(axis=1)
    total_w = float(weights.sum())
    loss = -float((((logits[pos, tgt] - m) - np.log(sumex)) * w).sum()) / total_w
    acc = float(w[logits.argmax(axis=1) == tgt].sum()) / total_w
    if not compute_grads:
        return loss, acc, None

    dl = ex / sumex[:, None]
    dl[pos, tgt] -= 1.0
    dl *= (w / total_w)[:, None]
    grads = _views(np.empty(sum(a.size for a in p.values()), dt), p) if out is None else out
    np.matmul(S_dec[B:].T, dl, out=grads["out_W"])
    dl.sum(axis=0, out=grads["out_b"])
    G = np.empty((len(tgt), 3 * H), dtype=dt)  # d(xW), decoder then encoder
    Gc = np.empty((len(tgt), H), dtype=dt)
    # the decoder's leaves are the rows' final states, which feed nothing
    h_prev = S_dec[dec.prev]
    dz = _gru_backward(
        np.zeros((B, H), dtype=dt), dl @ p["out_W"].T, h_prev, dec_cache, p["dec_U"], dec, G, Gc
    )
    _weight_grads(grads, p, "dec", dec_x, dec_tok, h_prev, G, Gc)
    Gz = _onehot(rr, B, dt) @ G
    np.matmul(z.T, Gz, out=grads["dec_W"][E:])
    dz += Gz @ p["dec_W"][E:].T
    G, Gc, h_prev = G[: len(enc_x)], Gc[: len(enc_x)], S_enc[enc.prev]
    dleaf = dz if fold is None else fold @ dz
    _gru_backward(dleaf, None, h_prev, enc_cache, p["enc_U"], enc, G, Gc)
    _weight_grads(grads, p, "enc", enc_x, enc_tok, h_prev, G, Gc)
    return loss, acc, grads


def _views(flat, like):
    """Views of ``flat``, laid end to end, shaped like ``like``'s arrays."""
    ends = np.cumsum([a.size for a in like.values()])
    return {k: flat[e - a.size : e].reshape(a.shape) for (k, a), e in zip(like.items(), ends)}


class _Adam:
    """Adam over one flat copy of the parameters.  The constructor moves
    ``params`` into that buffer and rebinds each entry to a view of it;
    ``grads`` views the flat gradient buffer ``g`` the same way, for the
    backward pass to fill, so the next fill overwrites a step's gradients.
    ``step()`` reads ``g`` and walks the flat buffers in chunks of
    ``CHUNK`` elements with the two chunk-sized scratch rows of ``tmp``,
    so it allocates nothing.  The update is the per-array
    ``p -= lr * (m / b1c) / (sqrt(v / b2c) + eps)``, op for op."""

    CHUNK = 65536

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.flat = np.concatenate([p.ravel() for p in params.values()])
        params.update(_views(self.flat, params))
        self.m, self.v = np.zeros_like(self.flat), np.zeros_like(self.flat)
        self.g = np.empty_like(self.flat)
        self.grads = _views(self.g, params)
        self.tmp = np.empty((2, min(self.CHUNK, self.flat.size)), self.flat.dtype)

    def step(self):
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for a in range(0, self.flat.size, self.CHUNK):
            p, m, v, g = (x[a : a + self.CHUNK] for x in (self.flat, self.m, self.v, self.g))
            tmp, g2 = self.tmp[:, : len(p)]
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=tmp)
            m += tmp
            np.multiply(g, g, out=g2)
            v *= self.beta2
            g2 *= 1.0 - self.beta2
            v += g2
            np.divide(m, b1c, out=tmp)
            tmp *= self.lr
            np.divide(v, b2c, out=g2)
            np.sqrt(g2, out=g2)
            g2 += self.eps
            tmp /= g2
            p -= tmp


def train(corpus, hp: Hyperparams, grammar_hash: str = "", log=None) -> Model:
    """Train on a list of rule sequences (reconstruction objective).
    ``grammar_hash`` names the corpus's grammar in the checkpoint header."""
    if not corpus:
        raise ValueError("empty training corpus")
    token_lists = [x.tokens for x in corpus]
    longest = max(len(t) for t in token_lists)
    if longest > hp.max_seq_len:
        raise ValueError(
            "longest sequence (%d) exceeds max_seq_len (%d)" % (longest, hp.max_seq_len)
        )
    vocab = max(max(t) for t in token_lists if t) + 1 + N_SPECIALS
    rng = np.random.default_rng(hp.rng_seed)
    params = _init_params(hp, vocab, rng)
    # params now view opt.flat; each backward pass overwrites opt.grads
    opt = _Adam(params, hp.learning_rate)
    model = Model(hp=hp, vocab_size=vocab, grammar_hash=grammar_hash, params=params)

    n = len(token_lists)
    t_start = time.time()
    for step in range(hp.steps):
        idx = rng.integers(0, n, size=hp.batch_size)
        batch_tokens = [token_lists[i] for i in idx]
        batch = _prepare_batch(batch_tokens, hp.max_seq_len, hp.np_dtype())
        loss, acc, _ = _forward_backward(params, hp, batch, out=opt.grads)
        if not np.isfinite(loss):
            raise FloatingPointError("non-finite loss at step %d" % step)
        opt.step()
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


def _row_buffers(hp: Hyperparams):
    """``_gru_step``'s buffers for one row: hU, ur, rh, c, h_new."""
    H, dt = hp.hidden_dim, hp.np_dtype()
    return [np.empty((1, k * H), dtype=dt) for k in (3, 2, 1, 1, 1)]


def in_vocabulary(m: Model, x) -> bool:
    """Whether every rule id of the rule sequence ``x`` has a token in
    ``m``'s vocabulary, which ``train`` sized from its corpus."""
    return all(0 <= t < m.vocab_size - N_SPECIALS for t in x.tokens)


def encode(m: Model, x) -> np.ndarray:
    """Summarise a rule sequence as the encoder's final hidden state."""
    if not in_vocabulary(m, x):
        raise ValueError("token out of vocabulary")
    hp = m.hp
    ids = np.asarray([t + N_SPECIALS for t in x.tokens] + [EOS], dtype=np.int64)
    h = np.zeros((1, hp.hidden_dim), dtype=hp.np_dtype())
    hU, ur, rh, c, h_new = _row_buffers(hp)
    for t in range(ids.shape[0]):
        xW = m.params["enc_emb"][ids[t : t + 1]] @ m.params["enc_W"] + m.params["enc_b"]
        _gru_step(xW, h, m.params["enc_U"], hU, ur, rh, c, h_new)
        h, h_new = h_new, h
    return h[0].copy()


def decode(m: Model, z: np.ndarray) -> list[int]:
    """Greedy decode from an embedding into grammar rule ids."""
    hp = m.hp
    h = z.reshape(1, hp.hidden_dim).astype(hp.np_dtype())
    z_row = h.copy()
    hU, ur, rh, c, h_new = _row_buffers(hp)
    prev = SOS
    out: list[int] = []
    # a large z saturates the gates: exp overflows to inf, and 1/(1+inf)
    # is the right value 0
    with np.errstate(over="ignore"):
        for _ in range(hp.max_seq_len):
            emb = m.params["dec_emb"][np.asarray([prev])]
            xW = np.concatenate([emb, z_row], axis=1) @ m.params["dec_W"] + m.params["dec_b"]
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
    """Greedy-decode token accuracy of rule sequences against their own
    tokens."""
    n_total = 0
    n_match = 0
    for rs in sequences:
        toks = rs.tokens
        got = decode(m, encode(m, rs))
        n_total += max(len(toks), len(got))
        n_match += sum(1 for a, b in zip(toks, got) if a == b)
    return n_match / max(n_total, 1)


def exact_reconstructions(m: Model, sequences) -> int:
    """How many rule sequences greedy-decode back to exactly their own
    tokens."""
    return sum(decode(m, encode(m, x)) == x.tokens for x in sequences)


def checkpoint_path(path) -> str:
    """A checkpoint path ends in ``.npz``; ``np.savez`` would append it."""
    return str(path) if str(path).endswith(".npz") else str(path) + ".npz"


def save_model(m: Model, path: str) -> str:
    """Write ``m`` to ``path`` (``.npz`` appended when missing) and return
    the path written."""
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
    path = checkpoint_path(path)
    np.savez(path, **arrays)
    return path


def load_model(path: str) -> Model:
    data = np.load(checkpoint_path(path))
    header = json.loads(bytes(data["header"]).decode("utf-8"))
    if header.get("version") != CHECKPOINT_VERSION:
        raise ValueError("unsupported checkpoint version %r" % header.get("version"))
    unknown = sorted(set(header["hp"]) - {f.name for f in fields(Hyperparams)})
    if unknown:
        names = ", ".join(map(repr, unknown))
        raise ValueError("unknown hyperparameter %s in checkpoint header" % names)
    hp = Hyperparams(**header["hp"])
    params = {
        k: data[k] for k in data.files if k not in ("header", "loss_history")
    }
    for k, v in params.items():
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite parameter %r in checkpoint" % k)
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
    gradients over sampled parameter coordinates.  ``x`` is one rule
    sequence, or a list of them checked as one padded batch."""
    seqs = x if isinstance(x, list) else [x]
    batch = _prepare_batch([s.tokens for s in seqs], m.hp.max_seq_len, m.hp.np_dtype())
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
