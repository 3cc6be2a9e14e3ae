"""EXP-X3 - the headline claim: genuine quality only under the key.

A counterfeiter with the stolen protected model grid-searches every
process-setting combination; the bench prints the score matrix and
asserts that genuine-grade parts appear exactly at the key conditions.
"""

from repro.obfuscade import CounterfeiterSimulator, Obfuscator
from repro.obfuscade.quality import QualityGrade


def run_attack(print_job):
    protected = Obfuscator(seed=7).protect_tensile_bar()
    simulator = CounterfeiterSimulator(chain=print_job.chain)
    return protected, simulator.attack(protected)


def test_x3_key_uniqueness(benchmark, report, print_job):
    protected, result = benchmark.pedantic(
        run_attack, args=(print_job,), rounds=1, iterations=1
    )

    lines = [f"key: {protected.key.describe()}", ""]
    lines.append(
        f"{'resolution':12s} {'orientation':12s} {'grade':20s} "
        f"{'score':>6s} {'is key?':>8s}"
    )
    for resolution, orientation, grade, score, matches in result.summary_rows():
        lines.append(
            f"{resolution:12s} {orientation:12s} {grade:20s} {score:>6.2f} "
            f"{str(matches):>8s}"
        )
    lines.append("")
    lines.append(f"attempts: {result.n_attempts}")
    lines.append(f"genuine-grade prints: {len(result.successful)}")
    lines.append(f"all genuine prints used the key: {result.key_only_success}")
    report("X3 key uniqueness", lines)

    assert result.key_only_success
    assert result.successful
    for attempt in result.attempts:
        if not attempt.matches_key:
            assert attempt.report.grade is not QualityGrade.GENUINE
            assert attempt.report.score < 0.5
