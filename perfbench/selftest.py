"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

Shows that the known answers are the right ones and that the checks bite:
the cli DSL strings spell the constructed corpus, the sweep ops make the
same reports as full_verification, a deliberately wrong expected answer
counts as a wrong verdict, a digest that differs from the recorded one
fails the run, and the tracer puts back every function it re-bound.
Exits 1 if any check fails.
"""

import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from epschar import cli, corpus, covers, verify  # noqa: E402

FAILURES = []


def check(name, ok):
    print("%-60s %s" % (name, "ok" if ok else "FAIL"), flush=True)
    if not ok:
        FAILURES.append(name)


def dsl_spells_corpus():
    data = corpus.kummer_corpus() + corpus.artin_schreier_corpus()
    same = len(data) == len(workloads.CORPUS_DSL) and all(
        covers.cover_to_json(cli.cover_from_dsl(spec)) == covers.cover_to_json(cover)
        for spec, cover in zip(workloads.CORPUS_DSL, data)
    )
    check("cli DSL strings spell the constructed corpus", same)


def sweep_ops_match_full_verification():
    data = corpus.synthetic_corpus(workloads.SWEEP_CORPUS_COUNT, seed=workloads.SWEEP_CORPUS_SEED)
    # the cheapest covers keep this quick; the decomposition is the same for all
    for index in range(0, len(data), 7):
        reports = [op.run()[0] for op in workloads.sweep_reports(index, data[index])]
        expected = [rep.to_json_obj() for rep in verify.full_verification(data[index])]
        check("sweep ops of cover %d = full_verification" % index, reports == expected)


def wrong_expected_answer_is_caught():
    with tempfile.TemporaryDirectory(dir=HERE) as scratch:
        blocks = workloads.cli_cases(scratch)
        flipped = [[(argv, 0 if argv[-1].endswith("integrality.json") else status)
                    for argv, status in block] for block in blocks]
        wrong = sum(op.run()[1] for op in workloads.build_cli(0, scratch, blocks=flipped)
                    if "integrality" in op.key)
        check("cli: expecting exit 0 from the integrality datum is wrong", wrong == 1)
        right = sum(op.run()[1] for op in workloads.build_cli(0, scratch, blocks=blocks)
                    if "integrality" in op.key or "kummer:p=5,n=3" in op.key)
        check("cli: the recorded exit statuses are right", right == 0)
    answer = workloads._stickelberger_answer
    try:
        workloads._stickelberger_answer = lambda p, c: answer(p, c) + 1
        op = workloads._gauss_op(5, 2, 7)
        check("gauss: a shifted known valuation is wrong", op.run()[1] is True)
    finally:
        workloads._stickelberger_answer = answer
    check("gauss: the known valuation is right", workloads._gauss_op(5, 2, 7).run()[1] is False)


def digest_mismatch_fails_the_run():
    recorded = run.recorded_digest
    try:
        run.recorded_digest = lambda workload, seed: "0" * 64
        correct, *_ = run.untraced_run("cli", 0, seconds=0)
        check("a digest that differs from the recorded one fails the run", correct is False)
    finally:
        run.recorded_digest = recorded


def tracer_restores_originals():
    t = tracer.Tracer()
    before = {target: tracer._resolve(target)[2] for _, target, _ in tracer.TARGETS}
    t.install()
    wrapped = all(tracer._resolve(target)[2] is not before[target] for target in before)
    with tempfile.TemporaryDirectory(dir=HERE) as scratch:
        ops = workloads.build_cli(0, scratch)[:5]
        for i, op in enumerate(ops):
            span = t.begin_op(i)
            op.run()
            t.end_op(span)
    t.uninstall()
    spans = len(t.start)
    ops[0].run()
    check("tracer re-binds every target", wrapped)
    check("tracer restores every re-bound name", t.restored())
    check("no spans after the tracer is removed", len(t.start) == spans)
    self_s, calls, in_ops = t.self_times()
    total_ops = sum(
        t.end[i] - t.start[i] for i in range(spans) if t.names[t.name[i]] == tracer.OP_SPAN
    )
    check("self times inside ops add up to the op spans", abs(in_ops - total_ops) < 1e-6)


def main():
    dsl_spells_corpus()
    sweep_ops_match_full_verification()
    wrong_expected_answer_is_caught()
    digest_mismatch_fails_the_run()
    tracer_restores_originals()
    print("%d failure(s)" % len(FAILURES))
    sys.exit(1 if FAILURES else 0)


if __name__ == "__main__":
    main()
