#!/usr/bin/env python3
"""Determinism harness CLI: run example scenarios twice and diff them.

Runs each named scenario (or all of them) twice under the same seed,
record-by-record diffs the two kernel event streams, and compares the
scenario fingerprints. Exits nonzero on the first nondeterministic
scenario, printing where the streams diverge.

With ``REPRO_AUDIT=1`` the second run of each scenario also executes under
the invariant auditor, so CI gets conservation-law checking and the
bit-for-bit audited-vs-unaudited comparison for free: the audited event
stream must equal the unaudited one.

``--digests FILE`` writes, and ``--check-digests FILE`` compares, each
scenario's event count, label-free stream digest
(:func:`repro.audit.determinism.stream_digest`) and the digest of the
fingerprint ``run_fn()`` returned (:func:`fingerprint_digest`). The committed
``tools/determinism_digests.json`` makes "bit-identical event stream"
checkable across commits: a change that moves, adds or removes one kernel
event fails the check and has to regenerate the file knowingly — and a
regeneration that leaves every ``fingerprint_sha256`` where it was moved
events, not results. The check
prints the interpreter and numpy the file was generated on beside the
running ones, and a mismatch under a different pair says so.

Usage:
    python tools/check_determinism.py                       # all scenarios
    python tools/check_determinism.py quickstart fitness_app
    python tools/check_determinism.py --seed 13 --json out.json
    python tools/check_determinism.py --check-digests tools/determinism_digests.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

import numpy

# resolved, so code objects carry the same path as an installed or
# PYTHONPATH import (tools/census.py matches functions by that path)
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.audit.determinism import (  # noqa: E402
    check_determinism,
    first_divergence,
    record_scenario,
)
from repro.audit.scenarios import EXAMPLE_SCENARIOS  # noqa: E402


def _canonical(name: str) -> str:
    """Accept 'quickstart', 'quickstart.py', or 'examples/quickstart.py'."""
    base = os.path.basename(name)
    return base if base.endswith(".py") else base + ".py"


def run_one(name: str, seed: int, audit: bool) -> dict:
    scenario = EXAMPLE_SCENARIOS[name]
    report = check_determinism(scenario, seed=seed, name=name)
    result = report.as_dict()
    result["fingerprint_sha256"] = fingerprint_digest(report.fingerprints[0])
    if report.ok and audit:
        # third run under the auditor: stream must match the unaudited runs
        # bit for bit, and the run must end with zero violations.
        # strip REPRO_AUDIT for the baseline so homes built inside the
        # scenario don't auto-enable auditing — the comparison must be
        # genuinely unaudited vs audited.
        saved = os.environ.pop("REPRO_AUDIT", None)
        try:
            plain = record_scenario(scenario, seed)
        finally:
            if saved is not None:
                os.environ["REPRO_AUDIT"] = saved
        violations: list = []

        def audited_scenario(s: int):
            home, run_fn = scenario(s)
            auditor = home.enable_audit()

            def run_and_check():
                fingerprint = run_fn()
                # quiesce invariants (live_count==0, zero in-flight) only
                # hold when the kernel actually drained; a run stopped at a
                # time limit (e.g. a perpetual heartbeat process) gets the
                # instantaneous conservation checks instead.
                if home.kernel.pending_events == 0:
                    auditor.check_quiesce()
                else:
                    auditor.check_now()
                violations.extend(v.describe() for v in auditor.violations)
                return fingerprint

            return home, run_and_check

        audited = record_scenario(audited_scenario, seed)
        divergence = first_divergence(plain.events, audited.events)
        result["audited_stream_identical"] = divergence is None
        result["audited_fingerprint_identical"] = (
            plain.fingerprint == audited.fingerprint
        )
        result["audit_violations"] = violations
        if divergence is not None:
            result["ok"] = False
            result["divergence"] = (
                "audited run perturbed the event stream:\n"
                + divergence.describe()
            )
        if plain.fingerprint != audited.fingerprint or violations:
            result["ok"] = False
    return result


def environment() -> dict:
    """What a digest may depend on besides the source: float formatting
    and hashing are the interpreter's, the RNG streams are numpy's."""
    return {"python": platform.python_version(), "numpy": numpy.__version__}


def describe_environment(env: dict) -> str:
    return f"python {env['python']} / numpy {env['numpy']}"


def fingerprint_digest(fingerprint) -> str:
    """SHA-256 of a scenario's JSON-able fingerprint (keys sorted, floats
    by ``repr``): what the run *computed* — counters, exact latency lists —
    beside the event stream that computed it."""
    text = json.dumps(fingerprint, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_entry(result: dict) -> dict:
    """What the digest file keeps of one scenario's result."""
    return {"events": result["event_count"], "sha256": result["stream_digest"],
            "fingerprint_sha256": result["fingerprint_sha256"]}


def digest_mismatch(result: dict, expected: dict | None) -> str | None:
    """Why *result* disagrees with its committed digest entry, if it does."""
    if expected is None:
        return "no committed digest for this scenario"
    got = digest_entry(result)
    reasons = []
    if (got["events"], got["sha256"]) != (expected["events"], expected["sha256"]):
        reasons.append(f"event stream differs from the committed digest:"
                       f" expected {expected['events']} events"
                       f" {expected['sha256'][:16]}, got {got['events']} events"
                       f" {got['sha256'][:16]}")
    if got["fingerprint_sha256"] != expected.get("fingerprint_sha256"):
        reasons.append(f"results differ from the committed fingerprint:"
                       f" expected {str(expected.get('fingerprint_sha256'))[:16]},"
                       f" got {got['fingerprint_sha256'][:16]}")
    return "\n".join(reasons) or None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenarios", nargs="*",
                        help="scenario names (default: all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json", metavar="PATH",
                        help="write a JSON report for CI artifacts")
    parser.add_argument("--digests", metavar="PATH",
                        help="write each scenario's event count,"
                             " label-free stream digest and fingerprint"
                             " digest")
    parser.add_argument("--check-digests", metavar="PATH",
                        help="fail when a scenario's event count, stream"
                             " digest or fingerprint digest differs from"
                             " this file")
    parser.add_argument("--list", action="store_true",
                        help="list available scenarios and exit")
    args = parser.parse_args(argv)

    if args.list:
        for name in EXAMPLE_SCENARIOS:
            print(name)
        return 0

    names = [_canonical(n) for n in args.scenarios] or list(EXAMPLE_SCENARIOS)
    unknown = [n for n in names if n not in EXAMPLE_SCENARIOS]
    if unknown:
        parser.error(
            f"unknown scenario(s) {unknown}; choose from"
            f" {sorted(EXAMPLE_SCENARIOS)}"
        )

    committed = None
    regenerate_hint = None
    if args.check_digests:
        with open(args.check_digests, encoding="utf-8") as fh:
            committed = json.load(fh)
        if committed["seed"] != args.seed:
            parser.error(f"{args.check_digests} was generated with --seed"
                         f" {committed['seed']}, not {args.seed}")
        running = environment()
        recorded = {key: committed.get(key, "unknown") for key in running}
        print(f"{args.check_digests}: generated on"
              f" {describe_environment(recorded)}; running on"
              f" {describe_environment(running)}")
        if recorded != running:
            regenerate_hint = (
                f"the digests were generated on"
                f" {describe_environment(recorded)}: regenerate on"
                f" {describe_environment(running)} (--digests) and compare"
                " the files before reading this as a moved event stream")

    audit = bool(os.environ.get("REPRO_AUDIT"))
    results = []
    failed = 0
    for name in names:
        result = run_one(name, args.seed, audit)
        results.append(result)
        if committed is not None:
            mismatch = digest_mismatch(result, committed["scenarios"].get(name))
            if mismatch:
                result["ok"] = False
                result["divergence"] = "\n".join(filter(
                    None, [result["divergence"], mismatch, regenerate_hint]))
        status = "PASS" if result["ok"] else "FAIL"
        extra = ""
        if audit and "audited_stream_identical" in result:
            extra = " [audited run bit-identical]" if (
                result["audited_stream_identical"]
                and result["audited_fingerprint_identical"]
            ) else " [AUDIT PERTURBED THE RUN]"
        print(f"{status}  {name}: {result['event_count']} events"
              f" (seed {args.seed}){extra}")
        if not result["ok"]:
            failed += 1
            if result["divergence"]:
                print(result["divergence"])
            for line in result.get("audit_violations", []):
                print(f"  audit violation: {line}")

    if args.json:
        parent = os.path.dirname(args.json)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "audit": audit,
                       "results": results}, fh, indent=2)
        print(f"report written to {args.json}")

    if failed:
        print(f"\n{failed}/{len(names)} scenario(s) nondeterministic"
              + (" or off the committed digests" if committed else ""))
        return 1
    if args.digests:
        with open(args.digests, "w", encoding="utf-8") as fh:
            json.dump({
                "seed": args.seed,
                **environment(),
                "scenarios": {r["scenario"]: digest_entry(r) for r in results},
            }, fh, indent=2)
            fh.write("\n")
        print(f"digests written to {args.digests}")
    print(f"\nall {len(names)} scenario(s) deterministic"
          + (" and on the committed digests" if committed else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
