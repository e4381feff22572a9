"""Command-line front end tying the pipeline together.

Subcommands:

* ``seeds``   generate (and optionally validate) a seed corpus
* ``train``   fit the sequence autoencoder on a corpus, write a checkpoint
* ``fuzz``    run a fuzz session with the byte, tree or learned strategy
* ``distill`` minimize a corpus to the coverage-preserving subset
* ``replay``  re-send a recorded transcript and compare status codes
* ``report``  emit coverage-over-time and bug-table files for sessions

Configuration comes from an optional key=value file plus flags; flags
win.  All artifacts are plain files under the session directory.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from . import autoencoder as ae
from . import mutation as mu
from .coverage import (
    BugDeduplicator,
    CorpusEntry,
    CoverageAccumulator,
    CoverageBitmap,
    distill,
    fetch_and_reset_coverage,
    fetch_manifest,
    reset_coverage,
)
from .execution import (
    DEFAULT_AUTH_VALUE,
    TargetConfig,
    TransportError,
    execute_test_case,
    replay_transcript,
    reset_target_state,
)
from .grammar import load_grammar, packaged_reference_grammar
from .parsing import ParseError, TestCase
from .seedgen import generate_seeds, load_corpus, write_corpus

STRATEGIES = ("byte", "tree", "learned")

EVENTS_CSV = "events.csv"
MUTATION_LOG = "mutations.log"
BUGS_JSON = "bugs.json"
SESSION_JSON = "session.json"
BUG_DIR = "bugs"
CSV_HEADER = "elapsed_s,cumulative_new_blocks,tests_executed,bugs_found"

CONFIG_KEYS = {
    "target.base_url",
    "target.token",
    "grammar.path",
    "seeds.dir",
    "seeds.max_len",
    "seeds.dict_values",
    "seeds.budget",
    "seeds.validate",
    "model.checkpoint",
    "train.steps",
    "train.batch_size",
    "train.hidden_dim",
    "train.embedding_dim",
    "train.learning_rate",
    "train.max_seq_len",
    "train.rng_seed",
    "fuzz.strategy",
    "fuzz.budget_s",
    "fuzz.n_scales",
    "fuzz.rng_seed",
    "fuzz.mutate_dependencies",
    "fuzz.noise_norm",
    "fuzz.max_cases",
    "fuzz.out_dir",
}


class CliError(Exception):
    """Fatal usage or environment problem; message goes to stderr."""


def load_config(path: str | None) -> dict:
    """Parse a key=value config file; '#' starts a comment line."""
    cfg: dict[str, str] = {}
    if path is None:
        return cfg
    if not os.path.exists(path):
        raise CliError("config file not found: %s" % path)
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliError("%s:%d: expected key=value" % (path, line_no))
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise CliError("%s:%d: unknown config key %r" % (path, line_no, key))
            cfg[key] = value.strip()
    return cfg


def _get(cfg: dict, flag_value, key: str, default, cast=str):
    """Flag > config file > default."""
    if flag_value is not None:
        return flag_value
    if key in cfg:
        raw = cfg[key]
        if cast is bool:
            low = raw.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise CliError("config key %s: not a boolean: %r" % (key, raw))
        try:
            return cast(raw)
        except ValueError as exc:
            raise CliError("config key %s: %s" % (key, exc)) from None
    return default


def _target_config(cfg: dict, args) -> TargetConfig:
    return TargetConfig(
        base_url=_get(cfg, args.target, "target.base_url", "http://127.0.0.1:8000"),
        auth_value=_get(cfg, args.token, "target.token", DEFAULT_AUTH_VALUE),
    )


def _grammar(cfg: dict, args):
    path = _get(cfg, args.grammar, "grammar.path", packaged_reference_grammar())
    if not os.path.exists(path):
        raise CliError("grammar file not found: %s" % path)
    return load_grammar(path)


def _seeds_dir(cfg: dict, args) -> str:
    return _get(cfg, args.seeds_dir, "seeds.dir", "seeds")


def _load_seeds(cfg: dict, args, g):
    """The seed corpus; an unreadable or empty corpus or an unparsable
    seed file is a ``CliError``."""
    seeds_dir = _seeds_dir(cfg, args)
    try:
        seeds = load_corpus(seeds_dir, g)
    except OSError as exc:
        raise CliError("cannot read seeds: %s" % exc) from None
    except ParseError as exc:
        raise CliError("bad seed file %s" % exc) from None
    if not seeds:
        raise CliError("no seeds found in %s; run `seeds` first" % seeds_dir)
    return seeds


# -- seeds ------------------------------------------------------------------


def cmd_seeds(args) -> int:
    cfg = load_config(args.config)
    g = _grammar(cfg, args)
    out_dir = _seeds_dir(cfg, args)
    max_len = _get(cfg, args.max_len, "seeds.max_len", 3, int)
    dict_values = _get(cfg, args.dict_values, "seeds.dict_values", 2, int)
    budget = _get(cfg, args.budget_seeds, "seeds.budget", None, int)
    validate = _get(cfg, None if not args.no_validate else False, "seeds.validate", True, bool)
    validate_cfg = _target_config(cfg, args) if validate else None
    try:
        corpus = generate_seeds(
            g,
            max_len=max_len,
            dict_values_per_type=dict_values,
            budget=budget,
            validate_cfg=validate_cfg,
            log=print,
        )
    except (TransportError, OSError) as exc:
        raise CliError(
            "seed validation needs a reachable target (%s); "
            "pass --no-validate to skip" % exc
        ) from None
    finally:
        if validate_cfg is not None:
            validate_cfg.close()
    write_corpus(corpus, out_dir)
    print(
        "wrote %d seeds to %s (max_len=%d dict_values=%d%s)"
        % (
            len(corpus.seeds),
            out_dir,
            max_len,
            dict_values,
            " partial" if corpus.partial else "",
        )
    )
    return 0


# -- train ------------------------------------------------------------------


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    g = _grammar(cfg, args)
    seeds = _load_seeds(cfg, args, g)
    sequences = [tc.seq for _, tc in seeds]
    hp = ae.Hyperparams(
        steps=_get(cfg, args.steps, "train.steps", 2000, int),
        batch_size=_get(cfg, args.batch_size, "train.batch_size", 32, int),
        hidden_dim=_get(cfg, args.hidden_dim, "train.hidden_dim", 256, int),
        embedding_dim=_get(cfg, args.embedding_dim, "train.embedding_dim", 100, int),
        learning_rate=_get(cfg, args.learning_rate, "train.learning_rate", 0.001, float),
        max_seq_len=_get(cfg, args.max_seq_len, "train.max_seq_len", 128, int),
        rng_seed=_get(cfg, args.seed, "train.rng_seed", 0, int),
    )
    checkpoint = _get(cfg, args.checkpoint, "model.checkpoint", "model.npz")
    t0 = time.monotonic()
    try:
        model = ae.train(sequences, hp, grammar_hash=g.grammar_hash(), log=print)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    took = time.monotonic() - t0
    ae.save_model(model, checkpoint)
    line = "trained %d steps on %d sequences in %.1fs; checkpoint %s" % (
        hp.steps,
        len(sequences),
        took,
        checkpoint,
    )
    if args.eval:
        line += "; reconstruction=%.4f; exact=%d/%d" % (
            ae.reconstruction_accuracy(model, sequences),
            ae.exact_reconstructions(model, sequences),
            len(sequences),
        )
    print(line)
    return 0


# -- fuzz -------------------------------------------------------------------


def _byte_flip(plan, req_idx, rng):
    """Request-text transform flipping one byte of request ``req_idx``
    as sent, with ``mutate_bytes``, and recording the flip on ``plan``."""
    before = 0  # sent bytes of the requests ahead of the flipped one

    def transform(text, idx):
        nonlocal before
        if idx != req_idx:
            before += len(text)
            return text
        out = mu.mutate_bytes(text, rng)
        pos = next(k for k in range(len(text)) if out[k] != text[k])
        plan.byte_noise = [(before + pos, ord(out[pos]))]
        return out

    return transform


def _byte_case_stream(seeds, rng):
    """Cycle seeds forever; each visit picks one request whose text is
    byte-flipped after dependency resolution, just before it is sent."""
    i = 0
    while True:
        seed_id, tc = seeds[i % len(seeds)]
        plan = mu.MutationPlan(seed_id, -1, -1, mu.CASE_BYTE)
        req_idx = int(rng.integers(0, len(tc.requests)))
        yield seed_id, tc, _byte_flip(plan, req_idx, rng), plan
        i += 1


def _tree_case_stream(seeds, g, rng, mutate_dependencies):
    """Cycle seeds; each visit flips one random leaf.  A mutant keeps its
    seed's shape (see ``apply_plan``), so it reuses the seed's views."""
    i = 0
    while True:
        seed_id, tc = seeds[i % len(seeds)]
        mutant, plan = mu.mutate_tree_random(
            tc.seq, g, rng, seed_id, mutate_dependencies=mutate_dependencies
        )
        yield seed_id, TestCase(mutant, tc.requests), None, plan
        i += 1


def _learned_case_stream(seeds, g, model, rng, n_scales, noise_norm, mutate_dependencies):
    """Cycle seeds; each visit perturbs the embedding afresh and yields
    every planned mutation before moving on."""
    i = 0
    while True:
        seed_id, tc = seeds[i % len(seeds)]
        i += 1
        pr = mu.perturb_and_select(
            model, tc.seq, rng, n_scales=n_scales, noise_norm=noise_norm
        )
        plans = mu.plan_learned_mutations(
            tc.seq, pr, g, seed_id, rng, mutate_dependencies=mutate_dependencies
        )
        for plan in plans:
            mutant = mu.apply_plan(tc.seq, plan, g)
            yield seed_id, TestCase(mutant, tc.requests), None, plan


def _unreachable(target, exc) -> CliError:
    return CliError("target unreachable at %s (%s)" % (target.base_url, exc))


def _connect(target) -> int:
    """Reset the target's state and return its coverage width."""
    try:
        reset_target_state(target)
        return len(fetch_manifest(target))
    except (TransportError, OSError) as exc:
        raise _unreachable(target, exc) from None


def _run_case(tc, g, target, width, case_id, transform=None):
    """Reset target state and coverage, then execute ``tc`` with one
    coverage window per answered request.  Returns the result and the
    union of its windows, whose width must be the manifest's."""
    reset_target_state(target)
    reset_coverage(target)
    result = execute_test_case(
        tc,
        g,
        target,
        case_id=case_id,
        request_text_transform=transform,
        per_request_bitmaps=fetch_and_reset_coverage,
    )
    bitmap = CoverageBitmap.empty(width)
    for rec in result.records:
        if rec.bitmap is not None:
            if rec.bitmap.width != width:
                raise TransportError(
                    "coverage window of %d blocks, manifest lists %d" % (rec.bitmap.width, width)
                )
            bitmap = bitmap | rec.bitmap
    return result, bitmap


def cmd_fuzz(args) -> int:
    cfg = load_config(args.config)
    g = _grammar(cfg, args)
    strategy = _get(cfg, args.strategy, "fuzz.strategy", None)
    if strategy not in STRATEGIES:
        raise CliError(
            "unknown or missing strategy %r (choose from %s)"
            % (strategy, "/".join(STRATEGIES))
        )
    budget_s = _get(cfg, args.budget, "fuzz.budget_s", 300.0, float)
    n_scales = _get(cfg, args.n_scales, "fuzz.n_scales", mu.DEFAULT_N_SCALES, int)
    rng_seed = _get(cfg, args.seed, "fuzz.rng_seed", 0, int)
    mutate_dependencies = _get(
        cfg,
        True if args.mutate_dependencies else None,
        "fuzz.mutate_dependencies",
        False,
        bool,
    )
    noise_norm = _get(cfg, args.noise_norm, "fuzz.noise_norm", "z")
    max_cases = _get(cfg, args.max_cases, "fuzz.max_cases", 0, int)
    out_dir = _get(cfg, args.out, "fuzz.out_dir", "session-%s" % strategy)

    seeds = _load_seeds(cfg, args, g)

    model = None
    if strategy == "learned":
        checkpoint = _get(cfg, args.checkpoint, "model.checkpoint", "model.npz")
        if not os.path.exists(checkpoint):
            raise CliError(
                "learned strategy needs a model checkpoint (missing: %s); "
                "run `train` first" % checkpoint
            )
        model = ae.load_model(checkpoint)
        if model.grammar_hash and model.grammar_hash != g.grammar_hash():
            raise CliError("checkpoint %s was trained on a different grammar" % checkpoint)

    target = _target_config(cfg, args)
    try:
        width = _connect(target)

        rng = np.random.default_rng(rng_seed)
        if strategy == "byte":
            stream = _byte_case_stream(seeds, rng)
        elif strategy == "tree":
            stream = _tree_case_stream(seeds, g, rng, mutate_dependencies)
        else:
            stream = _learned_case_stream(
                seeds, g, model, rng, n_scales, noise_norm, mutate_dependencies
            )

        os.makedirs(out_dir, exist_ok=True)
        os.makedirs(os.path.join(out_dir, BUG_DIR), exist_ok=True)
        acc = CoverageAccumulator(width)
        dedup = BugDeduplicator()
        bugs: list[dict] = []
        rows: list[tuple[float, int, int, int]] = []
        tests = 0
        lost = None
        t0 = time.monotonic()

        log_path = os.path.join(out_dir, MUTATION_LOG)
        with open(log_path, "w", encoding="latin-1") as log_fh:
            log_fh.write("# seed\tleaf\tcase\trule\tnoise\tstatus\n")
            while True:
                elapsed = time.monotonic() - t0
                if elapsed >= budget_s:
                    break
                if max_cases and tests >= max_cases:
                    break
                seed_id, tc, transform, plan = next(stream)
                case_id = "%s-%06d" % (strategy, tests)
                try:
                    result, bitmap = _run_case(tc, g, target, width, case_id, transform)
                except (TransportError, OSError) as exc:
                    lost = exc  # keep the artifacts of the cases already run
                    break
                acc.add(bitmap)
                tests += 1
                status = result.statuses[-1] if result.records else 0
                log_fh.write(mu.format_mutation_log(plan, status) + "\n")
                report = dedup.add(result)
                if report is not None:
                    bug_id = "bug-%03d" % len(dedup.reports)
                    transcript = os.path.join(BUG_DIR, bug_id + ".txt")  # session-relative
                    with open(os.path.join(out_dir, transcript), "w", encoding="latin-1") as fh:
                        fh.write(report.transcript)
                    bugs.append(
                        {
                            "bug_id": bug_id,
                            "bitmap": report.bitmap.hex(),
                            "statuses": report.statuses,
                            "seed": seed_id,
                            "case": report.first_case_id,
                            "mutation": mu.format_mutation_log(plan).replace("\t", " "),
                            "transcript": transcript,
                        }
                    )
                rows.append((time.monotonic() - t0, acc.count(), tests, len(bugs)))

        with open(os.path.join(out_dir, EVENTS_CSV), "w", encoding="utf-8") as fh:
            fh.write(CSV_HEADER + "\n")
            for elapsed, blocks, n, nbugs in rows:
                fh.write("%.3f,%d,%d,%d\n" % (elapsed, blocks, n, nbugs))
        with open(os.path.join(out_dir, BUGS_JSON), "w", encoding="utf-8") as fh:
            json.dump(bugs, fh, indent=2)
            fh.write("\n")
        session = {
            "strategy": strategy,
            "rng_seed": rng_seed,
            "budget_s": budget_s,
            "max_cases": max_cases,
            "n_scales": n_scales,
            "noise_norm": noise_norm,
            "mutate_dependencies": mutate_dependencies,
            "n_seeds": len(seeds),
            "grammar_hash": g.grammar_hash(),
            "block_count": width,
            "tests_executed": tests,
            "blocks_covered": acc.count(),
            "bugs_found": len(bugs),
        }
        with open(os.path.join(out_dir, SESSION_JSON), "w", encoding="utf-8") as fh:
            json.dump(session, fh, indent=2)
            fh.write("\n")
        if lost is not None:
            raise _unreachable(target, lost)
        print(
            "%s: %d cases in %.1fs, %d/%d blocks, %d deduped bugs -> %s"
            % (strategy, tests, time.monotonic() - t0, acc.count(), width, len(bugs), out_dir)
        )
        return 0
    finally:
        target.close()


# -- distill ----------------------------------------------------------------


def cmd_distill(args) -> int:
    cfg = load_config(args.config)
    g = _grammar(cfg, args)
    seeds = _load_seeds(cfg, args, g)
    target = _target_config(cfg, args)
    try:
        width = _connect(target)
        acc = CoverageAccumulator(width)
        entries = []
        for seed_id, tc in seeds:
            _result, bitmap = _run_case(tc, g, target, width, seed_id)
            acc.add(bitmap)
            entries.append(CorpusEntry(case_id=seed_id, bitmap=bitmap))
    except (TransportError, OSError) as exc:
        raise _unreachable(target, exc) from None
    finally:
        target.close()
    kept = distill(entries)
    out_path = args.out or os.path.join(_seeds_dir(cfg, args), "distilled.txt")
    with open(out_path, "w", encoding="utf-8") as fh:
        for e in kept:
            fh.write(e.case_id + "\n")
    print(
        "distilled %d seeds to %d (union %d blocks) -> %s"
        % (len(entries), len(kept), acc.count(), out_path)
    )
    return 0


# -- replay -----------------------------------------------------------------


def cmd_replay(args) -> int:
    cfg = load_config(args.config)
    target = _target_config(cfg, args)
    if not os.path.exists(args.transcript):
        raise CliError("transcript not found: %s" % args.transcript)
    with open(args.transcript, "r", encoding="latin-1") as fh:
        text = fh.read()
    try:
        if not args.no_reset:
            reset_target_state(target)
        outcome = replay_transcript(text, target)
    except (TransportError, OSError) as exc:
        raise _unreachable(target, exc) from None
    finally:
        target.close()
    for i, (want, got) in enumerate(zip(outcome.expected, outcome.actual)):
        print("request %d: expected %03d got %03d %s" % (i, want, got, "ok" if want == got else "MISMATCH"))
    print("reproduced" if outcome.reproduced else "NOT reproduced")
    return 0 if outcome.reproduced else 1


# -- report -----------------------------------------------------------------


def cmd_report(args) -> int:
    sessions = []
    for d in args.session:
        meta_path = os.path.join(d, SESSION_JSON)
        if not os.path.exists(meta_path):
            raise CliError("no %s in %s (not a fuzz session directory?)" % (SESSION_JSON, d))
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        sessions.append((d, meta))
    out_dir = args.out or args.session[0]
    os.makedirs(out_dir, exist_ok=True)

    coverage_path = os.path.join(out_dir, "report_coverage.csv")
    with open(coverage_path, "w", encoding="utf-8") as out:
        out.write("strategy," + CSV_HEADER + "\n")
        for d, meta in sessions:
            events = os.path.join(d, EVENTS_CSV)
            if not os.path.exists(events):
                raise CliError("no %s in %s" % (EVENTS_CSV, d))
            with open(events, "r", encoding="utf-8") as fh:
                next(fh)  # header
                for line in fh:
                    out.write("%s,%s" % (meta["strategy"], line))

    bug_rows = []
    for d, meta in sessions:
        bugs_path = os.path.join(d, BUGS_JSON)
        if os.path.exists(bugs_path):
            with open(bugs_path, "r", encoding="utf-8") as fh:
                for bug in json.load(fh):
                    bug_rows.append((d, meta, bug))
    import csv  # only the report writes CSV; a fuzz run skips the import

    bugs_csv = os.path.join(out_dir, "report_bugs.csv")
    with open(bugs_csv, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(
            ["strategy", "bug_id", "statuses", "seed", "mutation", "bitmap_blocks", "transcript"]
        )
        for d, meta, bug in bug_rows:
            out.writerow(
                [
                    meta["strategy"],
                    bug["bug_id"],
                    "|".join(str(s) for s in bug["statuses"]),
                    bug["seed"],
                    bug["mutation"],
                    CoverageBitmap.from_hex(meta["block_count"], bug["bitmap"]).count(),
                    os.path.join(d, bug["transcript"]),
                ]
            )

    print("coverage series: %s" % coverage_path)
    print("bug table:       %s (%d rows)" % (bugs_csv, len(bug_rows)))
    for _, meta, bug in bug_rows:
        print(
            "  %-8s %s statuses=%s seed=%s %s"
            % (
                meta["strategy"],
                bug["bug_id"],
                "|".join(str(s) for s in bug["statuses"]),
                bug["seed"],
                bug["mutation"],
            )
        )
    return 0


# -- argument parsing -------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="restfuzz",
        description="Stateful REST API fuzzer with learned, tree and byte mutation strategies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--grammar", help="grammar file (default: bundled reference grammar)")
        p.add_argument("--target", help="target base URL")
        p.add_argument("--token", help="auth token sent with every request")
        p.add_argument("--seeds-dir", help="seed corpus directory")

    p = sub.add_parser("seeds", help="generate a seed corpus")
    common(p)
    p.add_argument("--max-len", type=int, help="maximum requests per seed chain")
    p.add_argument("--dict-values", type=int, help="dictionary values per fuzzable type")
    p.add_argument("--budget-seeds", type=int, help="cap on number of seeds written")
    p.add_argument("--no-validate", action="store_true", help="skip execution-based validation")
    p.set_defaults(func=cmd_seeds)

    p = sub.add_parser("train", help="train the autoencoder on a corpus")
    common(p)
    p.add_argument("--checkpoint", help="model checkpoint path to write")
    p.add_argument("--steps", type=int, help="training steps")
    p.add_argument("--batch-size", type=int)
    p.add_argument("--hidden-dim", type=int)
    p.add_argument("--embedding-dim", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--max-seq-len", type=int)
    p.add_argument("--seed", type=int, help="rng seed")
    p.add_argument(
        "--eval",
        action="store_true",
        help="report reconstruction accuracy and exactly decoded seeds after training",
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("fuzz", help="run a fuzz session")
    common(p)
    p.add_argument("--strategy", choices=STRATEGIES, help="mutation strategy")
    p.add_argument("--budget", type=float, help="wall-clock budget in seconds")
    p.add_argument("--max-cases", type=int, help="stop after this many executed cases (0 = no cap)")
    p.add_argument("--seed", type=int, help="rng seed")
    p.add_argument("--n-scales", type=int, help="noise scales tried per perturbation")
    p.add_argument("--noise-norm", choices=("z", "delta"), help="noise normalisation mode")
    p.add_argument("--mutate-dependencies", action="store_true", help="allow producer/consumer leaves as targets")
    p.add_argument("--checkpoint", help="model checkpoint (learned strategy)")
    p.add_argument("--out", help="session output directory")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("distill", help="minimize a corpus by coverage")
    common(p)
    p.add_argument("--out", help="file to write kept seed ids to")
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("replay", help="re-send a recorded transcript")
    common(p)
    p.add_argument("transcript", help="transcript file from a fuzz session")
    p.add_argument("--no-reset", action="store_true", help="do not reset target state first")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("report", help="emit coverage and bug tables for sessions")
    p.add_argument("--session", nargs="+", required=True, help="fuzz session directories")
    p.add_argument("--out", help="directory for report files (default: first session)")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
