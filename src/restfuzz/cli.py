"""Command-line front end tying the pipeline together.

Subcommands:

* ``seeds``   generate (and optionally validate) a seed corpus
* ``train``   fit the sequence autoencoder on a corpus, write a checkpoint
* ``fuzz``    run a fuzz session with the byte, tree or learned strategy
* ``distill`` minimize a corpus to the coverage-preserving subset
* ``replay``  re-send a recorded transcript and compare status codes
* ``report``  emit coverage-over-time and bug-table files for sessions

Each option is one row of ``CONFIG_KEYS``: its flag wins over its key in
an optional key=value config file, which wins over its default.  All
artifacts are plain files under the session directory.
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
    CoverageDataError,
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
from .seedgen import check_seed_settings, generate_seeds, load_corpus, write_corpus

STRATEGIES = ("byte", "tree", "learned")

EVENTS_CSV = "events.csv"
MUTATION_LOG = "mutations.log"
BUGS_JSON = "bugs.json"
SESSION_JSON = "session.json"
BUG_DIR = "bugs"
CSV_HEADER = "elapsed_s,cumulative_new_blocks,tests_executed,bugs_found"

# config key -> (flag, type, default, help).  A command takes the flags of
# the keys it reads (see ``build_parser``); a bool flag stores the opposite
# of its default, and a tuple type lists a string's choices.  A train.* key
# names the ``Hyperparams`` field whose default it takes.
CONFIG_KEYS = {
    "target.base_url": ("--target", str, "http://127.0.0.1:8000", "target base URL"),
    "target.token": ("--token", str, DEFAULT_AUTH_VALUE, "auth token sent on side-channel "
                     "requests; case requests carry the grammar's own auth header"),
    "grammar.path": ("--grammar", str, packaged_reference_grammar(),
                     "grammar file (default: bundled reference grammar)"),
    "seeds.dir": ("--seeds-dir", str, "seeds", "seed corpus directory"),
    "seeds.max_len": ("--max-len", int, 3, "maximum requests per seed chain"),
    "seeds.dict_values": ("--dict-values", int, 2, "dictionary values per fuzzable type"),
    "seeds.budget": ("--budget-seeds", int, None, "cap on number of seeds written"),
    "seeds.validate": ("--no-validate", bool, True, "skip execution-based validation"),
    "model.checkpoint": ("--checkpoint", str, "model.npz",
                         "model checkpoint path (.npz is appended when missing)"),
    "train.steps": ("--steps", int, ae.Hyperparams.steps, "training steps"),
    "train.batch_size": ("--batch-size", int, ae.Hyperparams.batch_size, None),
    "train.hidden_dim": ("--hidden-dim", int, ae.Hyperparams.hidden_dim, None),
    "train.embedding_dim": ("--embedding-dim", int, ae.Hyperparams.embedding_dim, None),
    "train.learning_rate": ("--learning-rate", float, ae.Hyperparams.learning_rate, None),
    "train.max_seq_len": ("--max-seq-len", int, ae.Hyperparams.max_seq_len, None),
    "train.rng_seed": ("--seed", int, ae.Hyperparams.rng_seed, "rng seed"),
    "fuzz.strategy": ("--strategy", STRATEGIES, None, "mutation strategy"),
    "fuzz.budget_s": ("--budget", float, 300.0, "wall-clock budget in seconds"),
    "fuzz.n_scales": ("--n-scales", int, mu.DEFAULT_N_SCALES,
                      "noise scales tried per perturbation"),
    "fuzz.rng_seed": ("--seed", int, 0, "rng seed"),
    "fuzz.max_cases": ("--max-cases", int, 0, "stop after this many executed cases (0 = no cap)"),
    "fuzz.out_dir": ("--out", str, None, "session output directory (default: session-STRATEGY)"),
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


def _options(args) -> dict:
    """The value of each config key the command reads, by ``_get``."""
    cfg = load_config(args.config)
    opt = {}
    for key in args.config_keys:
        _flag, cast, default, _help = CONFIG_KEYS[key]
        cast = str if isinstance(cast, tuple) else cast  # choices are strings
        opt[key] = _get(cfg, getattr(args, key), key, default, cast)
    return opt


def _target_config(opt: dict) -> TargetConfig:
    return TargetConfig(base_url=opt["target.base_url"], auth_value=opt["target.token"])


def _grammar(opt: dict):
    path = opt["grammar.path"]
    if not os.path.exists(path):
        raise CliError("grammar file not found: %s" % path)
    return load_grammar(path)


def _load_seeds(opt: dict, g):
    """The seed corpus; an unreadable or empty corpus or an unparsable
    seed file is a ``CliError``."""
    seeds_dir = opt["seeds.dir"]
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
    opt = _options(args)
    g = _grammar(opt)
    try:
        check_seed_settings(opt["seeds.max_len"], opt["seeds.dict_values"], opt["seeds.budget"])
        os.makedirs(opt["seeds.dir"], exist_ok=True)  # before any validation request
    except ValueError as exc:
        raise CliError(str(exc)) from None
    except OSError as exc:
        raise CliError("cannot write seeds: %s" % exc) from None
    validate_cfg = _target_config(opt) if opt["seeds.validate"] else None
    try:
        corpus = generate_seeds(
            g,
            max_len=opt["seeds.max_len"],
            dict_values_per_type=opt["seeds.dict_values"],
            budget=opt["seeds.budget"],
            validate_cfg=validate_cfg,
            log=print,
        )
    except (TransportError, OSError) as exc:
        raise CliError(
            "seed validation needs a reachable target (%s); "
            "pass --no-validate to skip" % exc
        ) from None
    except ValueError as exc:
        raise CliError(str(exc)) from None
    finally:
        if validate_cfg is not None:
            validate_cfg.close()
    try:
        write_corpus(corpus, opt["seeds.dir"])
    except OSError as exc:
        raise CliError("cannot write seeds: %s" % exc) from None
    print(
        "wrote %d seeds to %s (max_len=%d dict_values=%d%s)"
        % (
            len(corpus.seeds),
            opt["seeds.dir"],
            opt["seeds.max_len"],
            opt["seeds.dict_values"],
            " partial" if corpus.partial else "",
        )
    )
    return 0


# -- train ------------------------------------------------------------------


def cmd_train(args) -> int:
    opt = _options(args)
    g = _grammar(opt)
    seeds = _load_seeds(opt, g)
    sequences = [tc.seq for _, tc in seeds]
    hp_fields = {k.split(".")[1]: v for k, v in opt.items() if k.startswith("train.")}
    t0 = time.monotonic()
    try:
        hp = ae.Hyperparams(**hp_fields)
        model = ae.train(sequences, hp, grammar_hash=g.grammar_hash(), log=print)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    took = time.monotonic() - t0
    checkpoint = ae.save_model(model, opt["model.checkpoint"])
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


def _tree_case_stream(seeds, g, rng):
    """Cycle seeds; each visit flips one random leaf.  A mutant keeps its
    seed's shape (see ``apply_plan``), so it reuses the seed's views."""
    i = 0
    while True:
        seed_id, tc = seeds[i % len(seeds)]
        mutant, plan = mu.mutate_tree_random(tc.seq, g, rng, seed_id)
        yield seed_id, TestCase(mutant, tc.requests), None, plan
        i += 1


def _learned_case_stream(seeds, g, model, rng, n_scales):
    """Cycle seeds; each visit perturbs the embedding afresh and yields
    every planned mutation before moving on."""
    i = 0
    while True:
        seed_id, tc = seeds[i % len(seeds)]
        i += 1
        pr = mu.perturb_and_select(model, tc.seq, rng, n_scales=n_scales)
        for plan in mu.plan_learned_mutations(tc.seq, pr, g, seed_id, rng):
            mutant = mu.apply_plan(tc.seq, plan, g)
            yield seed_id, TestCase(mutant, tc.requests), None, plan


def _unreachable(target, exc) -> CliError:
    if isinstance(exc, CoverageDataError):
        return CliError("bad coverage data from %s (%s)" % (target.base_url, exc))
    return CliError("target unreachable at %s (%s)" % (target.base_url, exc))


def _connect(target) -> int:
    """Reset the target's state, clear its coverage and return its
    coverage width.  The target clears its bitmap with each window it
    sends, so this one clear per session only guards against a target
    that holds blocks from before it."""
    try:
        reset_target_state(target)
        reset_coverage(target)
        return len(fetch_manifest(target))
    except (TransportError, OSError) as exc:
        raise _unreachable(target, exc) from None


def _run_case(tc, g, target, width, case_id, transform=None):
    """Reset target state, then execute ``tc`` with the coverage window
    that each answer carries (a missing or malformed one is a
    ``CoverageDataError``).  Returns the result and the union of its
    windows, whose width must be the manifest's."""
    reset_target_state(target)
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
                raise CoverageDataError(
                    "coverage window of %d blocks, manifest lists %d" % (rec.bitmap.width, width)
                )
            bitmap = bitmap | rec.bitmap
    return result, bitmap


def cmd_fuzz(args) -> int:
    opt = _options(args)
    g = _grammar(opt)
    strategy = opt["fuzz.strategy"]
    if strategy not in STRATEGIES:
        raise CliError(
            "unknown or missing strategy %r (choose from %s)"
            % (strategy, "/".join(STRATEGIES))
        )
    budget_s = opt["fuzz.budget_s"]
    n_scales = opt["fuzz.n_scales"]
    rng_seed = opt["fuzz.rng_seed"]
    max_cases = opt["fuzz.max_cases"]
    if not budget_s > 0:  # NaN included: it would never run out
        raise CliError("budget_s must be > 0, got %r" % budget_s)
    if n_scales < 1:
        raise CliError("n_scales must be >= 1, got %d" % n_scales)
    if rng_seed < 0:
        raise CliError("rng_seed must be >= 0, got %d" % rng_seed)
    if max_cases < 0:
        raise CliError("max_cases must be >= 0 (0 = no cap), got %d" % max_cases)
    out_dir = opt["fuzz.out_dir"] or "session-%s" % strategy

    seeds = _load_seeds(opt, g)

    model = None
    if strategy == "learned":
        checkpoint = opt["model.checkpoint"]
        try:
            model = ae.load_model(checkpoint)
        except FileNotFoundError:
            raise CliError(
                "learned strategy needs a model checkpoint (missing: %s); "
                "run `train` first" % checkpoint
            ) from None
        except (OSError, ValueError, KeyError) as exc:
            raise CliError("cannot load checkpoint %s: %s" % (checkpoint, exc)) from None
        if model.grammar_hash and model.grammar_hash != g.grammar_hash():
            raise CliError("checkpoint %s was trained on a different grammar" % checkpoint)

    target = _target_config(opt)
    try:
        width = _connect(target)

        rng = np.random.default_rng(rng_seed)
        if strategy == "byte":
            stream = _byte_case_stream(seeds, rng)
        elif strategy == "tree":
            stream = _tree_case_stream(seeds, g, rng)
        else:
            stream = _learned_case_stream(seeds, g, model, rng, n_scales)

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
    opt = _options(args)
    g = _grammar(opt)
    seeds = _load_seeds(opt, g)
    out_path = args.out or os.path.join(opt["seeds.dir"], "distilled.txt")
    if os.path.isdir(out_path) or not os.path.isdir(os.path.dirname(out_path) or "."):
        raise CliError("cannot write %s: not a file in an existing directory" % out_path)
    target = _target_config(opt)
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
    target = _target_config(_options(args))
    try:
        with open(args.transcript, "r", encoding="latin-1") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise CliError("transcript not found: %s" % args.transcript) from None
    except OSError as exc:
        raise CliError("cannot read transcript: %s" % exc) from None
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

    def command(name, func, help_text, *reads):
        """Subcommand ``name`` with ``--config`` and a flag for each config
        key that is, or is under, one of ``reads``."""
        keys = [k for k in CONFIG_KEYS if any(k == r or k.startswith(r + ".") for r in reads)]
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func, config_keys=keys)
        if keys:
            p.add_argument("--config", help="key=value config file")
        for key in keys:
            flag, cast, default, flag_help = CONFIG_KEYS[key]
            if cast is bool:
                p.add_argument(flag, dest=key, action="store_const", const=not default,
                               help=flag_help)
            elif isinstance(cast, tuple):
                p.add_argument(flag, dest=key, choices=cast, help=flag_help)
            else:
                p.add_argument(flag, dest=key, type=cast, help=flag_help)
        return p

    command("seeds", cmd_seeds, "generate a seed corpus", "target", "grammar", "seeds")
    p = command("train", cmd_train, "train the autoencoder on a corpus",
                "grammar", "seeds.dir", "model", "train")
    p.add_argument(
        "--eval",
        action="store_true",
        help="report reconstruction accuracy and exactly decoded seeds after training",
    )
    command("fuzz", cmd_fuzz, "run a fuzz session",
            "target", "grammar", "seeds.dir", "model", "fuzz")
    p = command("distill", cmd_distill, "minimize a corpus by coverage",
                "target", "grammar", "seeds.dir")
    p.add_argument("--out", help="file to write kept seed ids to")
    p = command("replay", cmd_replay, "re-send a recorded transcript", "target")
    p.add_argument("transcript", help="transcript file from a fuzz session")
    p.add_argument("--no-reset", action="store_true", help="do not reset target state first")
    p = command("report", cmd_report, "emit coverage and bug tables for sessions")
    p.add_argument("--session", nargs="+", required=True, help="fuzz session directories")
    p.add_argument("--out", help="directory for report files (default: first session)")
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
