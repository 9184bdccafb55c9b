#!/usr/bin/env python
"""Fault-injection smoke for the WAL recovery path (CI crash-recovery lane).

The harness SIGKILLs a real ``pis update --wal`` subprocess at randomized
write-ahead-log offsets — via the ``REPRO_CRASH_AFTER_WAL_RECORDS`` hook in
:mod:`repro.store.wal` — and then asserts that ``pis recover`` lands on a
state *byte-identical* to an uninterrupted run that stopped at the same
committed record:

* kill after record 1 (clean)  -> recover == "remove batch only" reference
* kill after record 2 (clean)  -> recover == full-update reference
* kill mid-record   (torn)     -> recover == previous committed prefix

Every (kill point, crash mode) combination is exercised at least
once per run; the trial order and a few extra repetitions are drawn from a
seeded RNG so different CI runs walk different schedules (pass the GitHub
``run_id`` as ``--seed``).  Beyond the byte comparison each recovered pair
must answer queries exactly like its reference.

The work directory is left on disk (``--workdir``, default
``crash_smoke_workdir``) so CI can upload it as an artifact when a trial
fails.  Exit status is non-zero on any mismatch.
"""

from __future__ import annotations

import argparse
import itertools
import os
import random
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
CRASH_ENV_VAR = "REPRO_CRASH_AFTER_WAL_RECORDS"
CRASH_MODE_ENV_VAR = "REPRO_CRASH_MODE"

#: the scripted durable update: one remove batch, then one add batch
REMOVE_IDS = "1,4"
UPDATE_RECORDS = 2


def run_pis(arguments, cwd, env=None, expect=0):
    """Run ``python -m repro.cli`` in *cwd*; assert the exit status."""
    environment = dict(os.environ, PYTHONHASHSEED="0")
    environment["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + environment.get(
        "PYTHONPATH", ""
    )
    environment.update(env or {})
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", *arguments],
        cwd=cwd,
        env=environment,
        capture_output=True,
        text=True,
        timeout=300,
    )
    if expect is not None and result.returncode != expect:
        raise AssertionError(
            f"pis {' '.join(map(str, arguments))} exited {result.returncode}, "
            f"expected {expect}\nstdout:\n{result.stdout}\nstderr:\n{result.stderr}"
        )
    return result


def copy_pair(source: Path, target: Path) -> None:
    """Copy the db/engine JSON pair (never the WAL) into a fresh directory."""
    target.mkdir(parents=True, exist_ok=True)
    for name in ("db.json", "engine.json"):
        shutil.copyfile(source / name, target / name)


def run_update(pair_dir: Path, records: int, env=None, expect=0):
    """Durable update in *pair_dir*: the remove batch, then (optionally) adds."""
    arguments = [
        "update",
        "--database",
        "db.json",
        "--engine",
        "engine.json",
        "--remove",
        REMOVE_IDS,
    ]
    if records >= 2:
        # delta.json lives at the top of the smoke workdir
        arguments += ["--add", str(pair_dir.parent / "delta.json")]
    arguments.append("--wal")
    return run_pis(arguments, pair_dir, env=env, expect=expect)


def query_answers(workdir: Path) -> str:
    """Deterministic query transcript for the pair in *workdir*.

    Wall-clock fields (``prune=...s``, the batch summary line) are stripped
    so the comparison is about answers and candidate counts only.
    """
    result = run_pis(
        [
            "query",
            "--database",
            "db.json",
            "--engine",
            "engine.json",
            "--edges",
            "4",
            "--count",
            "3",
            "--sigma",
            "2.0",
            "--seed",
            "11",
        ],
        workdir,
    )
    lines = []
    for line in result.stdout.splitlines():
        if line.startswith("batch:"):
            continue
        lines.append(re.sub(r" (prune|verify)=[0-9.]+s", "", line))
    return "\n".join(lines)


def build_base(workdir: Path) -> None:
    """Generate the seed database/delta and the base engine."""
    run_pis(
        ["generate", "--count", "24", "--seed", "3", "--output", "db.json"], workdir
    )
    run_pis(
        ["generate", "--count", "5", "--seed", "9", "--output", "delta.json"], workdir
    )
    base = workdir / "base"
    base.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(workdir / "db.json", base / "db.json")
    run_pis(
        [
            "index",
            "--database",
            "db.json",
            "--max-edges",
            "3",
            "--engine-output",
            str(base / "engine.json"),
        ],
        workdir,
    )


def build_references(workdir: Path) -> dict:
    """Uninterrupted reference states per number of committed records.

    ``committed == 0`` is the base pair normalized through one recover
    checkpoint (which stamps the WAL position into both files), so a torn
    first record — whose recovery commits nothing — compares equal to it.
    """
    references = {}
    for committed in range(UPDATE_RECORDS + 1):
        reference = workdir / f"ref{committed}"
        copy_pair(workdir / "base", reference)
        if committed == 0:
            run_pis(
                ["recover", "--database", "db.json", "--engine", "engine.json"],
                reference,
            )
        else:
            run_update(reference, committed)
        references[committed] = {
            "dir": reference,
            "answers": query_answers(reference),
        }
    return references


def run_trial(workdir, references, kill_at, crash_mode, label) -> None:
    """One fault-injection trial; raises AssertionError on any mismatch."""
    trial = workdir / label
    copy_pair(workdir / "base", trial)

    env = {CRASH_ENV_VAR: str(kill_at)}
    if crash_mode == "torn":
        env[CRASH_MODE_ENV_VAR] = "torn"
    killed = run_update(trial, UPDATE_RECORDS, env=env, expect=None)
    if killed.returncode != -signal.SIGKILL:
        raise AssertionError(
            f"[{label}] expected SIGKILL, got exit {killed.returncode}\n"
            f"stdout:\n{killed.stdout}\nstderr:\n{killed.stderr}"
        )

    committed = kill_at if crash_mode == "clean" else kill_at - 1
    recovery = run_pis(
        ["recover", "--database", "db.json", "--engine", "engine.json"], trial
    )
    marker = f"recovered to WAL record {committed}"
    if marker not in recovery.stdout:
        raise AssertionError(
            f"[{label}] recover output lacks {marker!r}:\n{recovery.stdout}"
        )

    reference = references[committed]
    for name in ("db.json", "engine.json"):
        recovered_bytes = (trial / name).read_bytes()
        reference_bytes = (reference["dir"] / name).read_bytes()
        if recovered_bytes != reference_bytes:
            raise AssertionError(
                f"[{label}] {name} diverges from the committed={committed} "
                f"reference after recovery"
            )
    answers = query_answers(trial)
    if answers != reference["answers"]:
        raise AssertionError(
            f"[{label}] recovered pair answers queries differently from the "
            f"committed={committed} reference:\n{answers}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seed",
        type=int,
        default=int(os.environ.get("REPRO_SMOKE_SEED", "0")),
        help="trial-schedule seed (CI passes the workflow run id)",
    )
    parser.add_argument(
        "--extra-trials",
        type=int,
        default=2,
        help="randomized trials beyond the exhaustive sweep",
    )
    parser.add_argument(
        "--workdir",
        type=Path,
        default=Path("crash_smoke_workdir"),
        help="work directory, kept on disk for CI artifact upload",
    )
    arguments = parser.parse_args(argv)

    workdir = arguments.workdir.resolve()
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)

    rng = random.Random(arguments.seed)
    combos = list(itertools.product(range(1, UPDATE_RECORDS + 1), ("clean", "torn")))
    trials = list(combos)
    trials.extend(rng.choice(combos) for _ in range(arguments.extra_trials))
    rng.shuffle(trials)

    print(f"crash-recovery smoke: seed={arguments.seed}, workdir={workdir}")
    build_base(workdir)
    references = build_references(workdir)

    for number, (kill_at, crash_mode) in enumerate(trials, start=1):
        label = f"trial{number:02d}_kill{kill_at}_{crash_mode}"
        print(
            f"[{number}/{len(trials)}] SIGKILL after "
            f"{kill_at} record(s), mode={crash_mode} ... ",
            end="",
            flush=True,
        )
        run_trial(workdir, references, kill_at, crash_mode, label)
        print("ok")

    print(f"all {len(trials)} trials recovered byte-identically")
    return 0


if __name__ == "__main__":
    sys.exit(main())
