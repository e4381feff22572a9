"""Set-up, timed sessions and correctness checks of the three workloads.

Every fuzz session goes through the real CLI path
(``cli.main(["fuzz", ...])``) against an in-process reference target
with a fixed ``--max-cases`` and a wall-clock budget far above what
those cases need, so the case count always ends the session.  Every
session of one run uses the same RNG seed, so all of them must leave
the same fingerprint.  ``train-default`` calls ``autoencoder.train`` at
default ``Hyperparams`` for a fixed number of steps, with no target
running.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import time
from collections import Counter
from dataclasses import dataclass

from restfuzz import autoencoder, cli, grammar, seedgen, target
from restfuzz.coverage import CoverageBitmap, fetch_manifest
from restfuzz.execution import TargetConfig, replay_transcript, reset_target_state

from tracing import Tracer

# fuzz workloads map to a strategy; train-default has none
WORKLOADS = {"fuzz-byte": "byte", "fuzz-learned": "learned", "train-default": None}

# the README's quick-start corpus and model
SEED_MAX_LEN = 3
SEED_DICT_VALUES = 2
QUICK_START_TRAIN = [
    "--batch-size", "4", "--hidden-dim", "48", "--embedding-dim", "24",
    "--max-seq-len", "96", "--seed", "3",
]
NO_BUDGET_S = "1000000"


@dataclass(frozen=True)
class Sizes:
    fuzz_cases: int  # --max-cases of every fuzz session
    train_steps: int  # default-size steps per training call
    quick_start_steps: int  # steps of the quick-start model trained in set-up
    setups: int  # least set-ups per run; setup_s is their median
    setup_min_s: float  # keep setting up until this much time has passed
    warmup: bool  # one discarded session before the timed phase

    def tag(self) -> str:
        return "c%d-t%d-q%d" % (self.fuzz_cases, self.train_steps, self.quick_start_steps)


FULL = Sizes(
    fuzz_cases=400, train_steps=5, quick_start_steps=300, setups=3, setup_min_s=2.0, warmup=True
)
SMOKE = Sizes(
    fuzz_cases=12, train_steps=1, quick_start_steps=10, setups=1, setup_min_s=0.0, warmup=False
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class SessionResult:
    wall_s: float
    attempted: int  # fuzz cases, or training steps
    failed: int  # transport_error cases, or steps without a finite loss
    rate: float  # cases (or training sequences) per second
    fingerprint: dict
    faults: frozenset = frozenset()  # catalog ids seen in crash windows
    reports: int = 0
    blocks_covered: int = 0
    train_ms_per_step: float = 0.0
    tracer: Tracer | None = None


class Bench:
    """One workload in one work directory; holds the live target."""

    def __init__(self, workload: str, seed: int, sizes: Sizes, work_dir: str):
        self.strategy = WORKLOADS[workload]
        self.seed = seed
        self.sizes = sizes
        self.work_dir = work_dir
        self.failures: list[str] = []
        self.server = None
        self.cfg = None
        self.grammar = None
        self.seeds_dir = None
        self.checkpoint = None
        self.sequences = None
        self.seeds_kept = 0
        self.quick_start_losses = None
        self.manifest: list[str] = []
        self._sessions = 0

    def fail(self, message: str) -> None:
        self.failures.append(message)

    # -- set-up ------------------------------------------------------------

    def setup(self, index: int, tracer: Tracer | None = None) -> float:
        """Start a target, build the validated quick-start corpus and,
        for fuzz-learned, train the quick-start model.  Returns seconds."""
        self.close()
        base = os.path.join(self.work_dir, "setup-%d" % index)
        os.makedirs(base)
        with tracer or contextlib.nullcontext():
            t0 = time.perf_counter()
            self.server = target.serve()
            self.cfg = TargetConfig(base_url=self.server.base_url)
            g = grammar.load_grammar(grammar.packaged_reference_grammar())
            corpus = seedgen.generate_seeds(
                g,
                max_len=SEED_MAX_LEN,
                dict_values_per_type=SEED_DICT_VALUES,
                validate_cfg=self.cfg,
            )
            seeds_dir = os.path.join(base, "seeds")
            seedgen.write_corpus(corpus, seeds_dir)
            checkpoint = None
            sequences = None
            if self.strategy == "learned":
                checkpoint = os.path.join(base, "model.npz")
                argv = ["train", "--seeds-dir", seeds_dir, "--checkpoint", checkpoint,
                        "--steps", str(self.sizes.quick_start_steps)] + QUICK_START_TRAIN
                self._cli(argv)
            elif self.strategy is None:
                sequences = [tc.seq for _, tc in seedgen.load_corpus(seeds_dir, g)]
                self.server.stop()  # training runs with no sockets
                self.server = None
            took = time.perf_counter() - t0
        self.grammar, self.seeds_dir, self.checkpoint = g, seeds_dir, checkpoint
        self.sequences = sequences
        self._check_setup(len(corpus.seeds))
        return took

    def _check_setup(self, seeds_kept: int) -> None:
        if self.seeds_kept and seeds_kept != self.seeds_kept:
            self.fail("set-ups kept %d and %d seeds" % (self.seeds_kept, seeds_kept))
        self.seeds_kept = seeds_kept
        if self.checkpoint is not None:
            losses = autoencoder.load_model(self.checkpoint).loss_history
            self._check_losses("quick-start training", losses)
            losses = [float(x) for x in losses]
            if self.quick_start_losses not in (None, losses):
                self.fail("quick-start loss history differs between set-ups")
            self.quick_start_losses = losses
        if self.server is not None:
            self.manifest = fetch_manifest(self.cfg)

    def _check_losses(self, what: str, losses) -> None:
        bad = [i for i, x in enumerate(losses) if not math.isfinite(x)]
        if bad:
            self.fail("%s: non-finite loss at steps %s" % (what, bad[:5]))

    def _cli(self, argv: list[str]) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError("restfuzz %s exited %d: %s" % (argv[0], rc, out.getvalue()))
        return out.getvalue()

    def reconstruction(self) -> float:
        """Greedy reconstruction accuracy of the quick-start model on the
        corpus (0 when the workload has no model)."""
        if self.checkpoint is None:
            return 0.0
        model = autoencoder.load_model(self.checkpoint)
        sequences = [tc.seq for _, tc in seedgen.load_corpus(self.seeds_dir, self.grammar)]
        return autoencoder.reconstruction_accuracy(model, sequences)

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    # -- sessions ----------------------------------------------------------

    def session(self, tracer: Tracer | None = None) -> SessionResult:
        self._sessions += 1
        if self.strategy is None:
            result = self._train_session(tracer)
        else:
            result = self._fuzz_session(tracer)
        result.tracer = tracer
        return result

    def _fuzz_session(self, tracer: Tracer | None) -> SessionResult:
        n = self.sizes.fuzz_cases
        out_dir = os.path.join(self.work_dir, "session-%d" % self._sessions)
        argv = [
            "fuzz", "--strategy", self.strategy, "--target", self.cfg.base_url,
            "--seeds-dir", self.seeds_dir, "--budget", NO_BUDGET_S,
            "--max-cases", str(n), "--seed", str(self.seed), "--out", out_dir,
        ]
        if self.checkpoint is not None:
            argv += ["--checkpoint", self.checkpoint]
        verdicts = Counter()
        execute = cli.execute_test_case

        def counted(*args, **kwargs):
            result = execute(*args, **kwargs)
            verdicts[result.verdict] += 1
            return result

        cli.execute_test_case = counted
        try:
            with tracer or contextlib.nullcontext():
                t0 = time.perf_counter()
                self._cli(argv)
                wall = time.perf_counter() - t0
        finally:
            cli.execute_test_case = execute
        result = self._check_fuzz_session(out_dir, wall, verdicts)
        shutil.rmtree(out_dir)
        return result

    def _check_fuzz_session(self, out_dir: str, wall: float, verdicts: Counter) -> SessionResult:
        n = self.sizes.fuzz_cases
        with open(os.path.join(out_dir, cli.SESSION_JSON), encoding="utf-8") as fh:
            session = json.load(fh)
        if session["tests_executed"] != n:
            self.fail("tests_executed %d != max_cases %d" % (session["tests_executed"], n))
        with open(os.path.join(out_dir, cli.BUGS_JSON), encoding="utf-8") as fh:
            bugs = json.load(fh)
        with open(os.path.join(out_dir, cli.MUTATION_LOG), "rb") as fh:
            log_sha = _sha256(fh.read())
        stripped = [{k: v for k, v in bug.items() if k != "transcript"} for bug in bugs]
        fault_of_block = {b["block"]: b["id"] for b in target.injected_bug_catalog()}
        faults = set()
        for bug in bugs:
            window = CoverageBitmap.from_hex(len(self.manifest), bug["bitmap"])
            hit = {fault_of_block[self.manifest[i]] for i in window.indices()
                   if self.manifest[i] in fault_of_block}
            if len(hit) != 1:
                self.fail("%s: crash window holds %d catalog faults" % (bug["bug_id"], len(hit)))
            faults |= hit
            transcript = os.path.join(out_dir, cli.BUG_DIR, bug["bug_id"] + ".txt")
            with open(transcript, encoding="latin-1") as fh:
                text = fh.read()
            reset_target_state(self.cfg)
            outcome = replay_transcript(text, self.cfg)
            if not outcome.reproduced:
                self.fail("%s does not replay: expected %s got %s"
                          % (bug["bug_id"], outcome.expected, outcome.actual))
        fingerprint = {
            "tests_executed": session["tests_executed"],
            "blocks_covered": session["blocks_covered"],
            "bugs_found": session["bugs_found"],
            "mutations_log_sha256": log_sha,
            "bugs_json_sha256": _sha256(json.dumps(stripped, sort_keys=True).encode()),
        }
        attempted = sum(verdicts.values())
        return SessionResult(
            wall_s=wall,
            attempted=attempted,
            failed=verdicts["transport_error"],
            rate=attempted / wall,
            fingerprint=fingerprint,
            faults=frozenset(faults),
            reports=len(bugs),
            blocks_covered=session["blocks_covered"],
        )

    def _train_session(self, tracer: Tracer | None) -> SessionResult:
        steps = self.sizes.train_steps
        hp = autoencoder.Hyperparams(steps=steps, rng_seed=self.seed)
        losses: list[float] = []
        with tracer or contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                model = autoencoder.train(
                    self.sequences, hp, grammar_hash=self.grammar.grammar_hash()
                )
                losses = [float(x) for x in model.loss_history]
            except FloatingPointError as exc:
                self.fail("default training: %s" % exc)
            wall = time.perf_counter() - t0
        self._check_losses("default training", losses)
        failed = steps - sum(1 for x in losses if math.isfinite(x))
        return SessionResult(
            wall_s=wall,
            attempted=steps,
            failed=failed,
            rate=steps * hp.batch_size / wall,
            fingerprint={"loss_history": losses},
            train_ms_per_step=1000.0 * wall / steps,
        )


def code_hash(paths: list[str]) -> str:
    """sha256 over every file below ``paths`` (sorted, path + bytes), so
    stored fingerprints are compared only against the same code."""
    h = hashlib.sha256()
    for top in paths:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, top).encode())
                with open(path, "rb") as fh:
                    h.update(_sha256(fh.read()).encode())
    return h.hexdigest()
