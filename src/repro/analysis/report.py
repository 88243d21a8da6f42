"""One-command reproduction report.

:func:`build_report` runs the complete reproduction — all six paper
examples, the three invariance theorems, the improvement study and the
cross-heuristic comparison — and returns a self-contained Markdown
report of paper-vs-measured values.  ``python -m repro report -o
report.md`` regenerates it from the shell; the ``quick`` flag shrinks
the ensembles for smoke runs.

The report is *evidence*, not assertion: every value is computed fresh
by the same public APIs the tests use.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

from repro.analysis.invariance import verify_invariance
from repro.analysis.study import (
    format_comparison_table,
    format_improvement_table,
    heuristic_comparison,
    improvement_study,
)
from repro.analysis.tables import render_comparison, render_etc_table
from repro.core.iterative import IterativeResult, IterativeScheduler
from repro.core.metrics import compare_iterative
from repro.core.seeding import SeededIterativeScheduler
from repro.etc.generation import Consistency, Heterogeneity
from repro.etc.witness import (
    KPB_EXAMPLE_PERCENT,
    SWA_EXAMPLE_HIGH_THRESHOLD,
    SWA_EXAMPLE_LOW_THRESHOLD,
    kpb_example_etc,
    mct_met_example_etc,
    minmin_example_etc,
    sufferage_example_etc,
    swa_example_etc,
)
from repro.etc.matrix import ETCMatrix
from repro.heuristics import KPercentBest, Sufferage, SwitchingAlgorithm, get_heuristic
from repro.heuristics.base import Heuristic

__all__ = [
    "PaperExample",
    "PAPER_EXAMPLES",
    "ExampleOutcome",
    "paper_example_outcomes",
    "build_report",
]


@dataclass(frozen=True)
class PaperExample:
    """One of the paper's six worked examples and its prose values.

    ``name`` is the ``repro trace --example`` key; ``make_heuristic``
    and ``make_etc`` build a fresh heuristic and witness matrix.
    ``expected_first_iteration`` is ``None`` for the heuristics whose
    mapping the paper proves unchanged by iteration.
    """

    name: str
    label: str
    section: str
    tables: str
    make_heuristic: Callable[[], Heuristic]
    make_etc: Callable[[], ETCMatrix]
    expected_original: dict[str, float]
    expected_first_iteration: dict[str, float] | None


#: The worked examples, read by ``repro paper``, ``repro trace
#: --example`` and the report.
PAPER_EXAMPLES: tuple[PaperExample, ...] = (
    PaperExample(
        "min-min", "Min-Min", "§3.2", "Tables 1-3",
        partial(get_heuristic, "min-min"), minmin_example_etc,
        {"m1": 5.0, "m2": 2.0, "m3": 4.0}, None,
    ),
    PaperExample(
        "mct", "MCT", "§3.3", "Tables 4-6",
        partial(get_heuristic, "mct"), mct_met_example_etc,
        {"m1": 4.0, "m2": 3.0, "m3": 3.0}, None,
    ),
    PaperExample(
        "met", "MET", "§3.4", "Tables 7-8",
        partial(get_heuristic, "met"), mct_met_example_etc,
        {"m1": 4.0, "m2": 3.0, "m3": 3.0}, None,
    ),
    PaperExample(
        "swa", "SWA", "§3.5", "Tables 9-11",
        partial(
            SwitchingAlgorithm,
            low=SWA_EXAMPLE_LOW_THRESHOLD,
            high=SWA_EXAMPLE_HIGH_THRESHOLD,
        ),
        swa_example_etc,
        {"m1": 6.0, "m2": 5.0, "m3": 5.0},
        {"m2": 4.0, "m3": 6.5},
    ),
    PaperExample(
        "kpb", "K-percent Best", "§3.6", "Tables 12-14",
        partial(KPercentBest, percent=KPB_EXAMPLE_PERCENT), kpb_example_etc,
        {"m1": 6.0, "m2": 5.0, "m3": 5.5},
        {"m2": 7.0, "m3": 3.0},
    ),
    PaperExample(
        "sufferage", "Sufferage", "§3.7", "Tables 15-17",
        Sufferage, sufferage_example_etc,
        {"m1": 10.0, "m2": 9.5, "m3": 9.5},
        {"m2": 10.5, "m3": 8.5},
    ),
)


@dataclass(frozen=True)
class ExampleOutcome:
    """Measured outcome of one paper example under deterministic ties."""

    label: str
    tables: str
    expected_original: dict[str, float]
    expected_first_iteration: dict[str, float] | None
    result: IterativeResult

    @property
    def original_ok(self) -> bool:
        return self.result.original.finish_times() == self.expected_original

    @property
    def first_iteration_ok(self) -> bool:
        if self.expected_first_iteration is None:
            # invariant heuristics: first iteration must simply not change
            return not self.result.mapping_changed()
        if self.result.num_iterations < 2:
            return False
        return (
            self.result.iterations[1].finish_times()
            == self.expected_first_iteration
        )

    @property
    def ok(self) -> bool:
        return self.original_ok and self.first_iteration_ok


def paper_example_outcomes() -> list[ExampleOutcome]:
    """Run all six worked examples and compare against the prose values."""
    return [
        ExampleOutcome(
            label=f"{example.label} ({example.section})",
            tables=example.tables,
            expected_original=example.expected_original,
            expected_first_iteration=example.expected_first_iteration,
            result=IterativeScheduler(example.make_heuristic()).run(
                example.make_etc()
            ),
        )
        for example in PAPER_EXAMPLES
    ]


def _fmt_finish(finish: dict[str, float]) -> str:
    return ", ".join(f"{m}={v:g}" for m, v in finish.items())


def build_report(quick: bool = False, seed: int = 0) -> str:
    """Run the full reproduction and return a Markdown report."""
    instances = 5 if quick else 20
    tasks, machines = (15, 4) if quick else (30, 8)
    lines: list[str] = []
    add = lines.append

    add("# Reproduction report")
    add("")
    add("Generated by `repro.analysis.report.build_report` — every value")
    add("below was computed fresh by this run.")
    add("")

    # ------------------------------------------------------------ examples
    add("## Worked examples (deterministic ties)")
    add("")
    add("| example | paper original CTs | measured | paper 1st-iter CTs | measured | verdict |")
    add("|---|---|---|---|---|---|")
    for outcome in paper_example_outcomes():
        measured_orig = _fmt_finish(outcome.result.original.finish_times())
        if outcome.expected_first_iteration is None:
            expected_iter = "identical mappings (theorem)"
            measured_iter = (
                "identical" if not outcome.result.mapping_changed() else "CHANGED"
            )
        else:
            expected_iter = _fmt_finish(outcome.expected_first_iteration)
            measured_iter = _fmt_finish(
                outcome.result.iterations[1].finish_times()
            )
        verdict = "match" if outcome.ok else "MISMATCH"
        add(
            f"| {outcome.label} ({outcome.tables}) | "
            f"{_fmt_finish(outcome.expected_original)} | {measured_orig} | "
            f"{expected_iter} | {measured_iter} | {verdict} |"
        )
    add("")

    # ------------------------------------------------------------ theorems
    add("## Invariance theorems (E18-E20)")
    add("")
    for name in ("min-min", "mct", "met"):
        report = verify_invariance(
            name,
            num_instances=instances,
            num_tasks=tasks,
            num_machines=machines,
            rng=seed,
        )
        add(f"* `{report}`")
    add("")

    # ------------------------------------------------------------ study
    add("## Improvement study (E23, deterministic ties)")
    add("")
    add("```")
    add(
        format_improvement_table(
            improvement_study(
                num_tasks=tasks,
                num_machines=machines,
                instances=instances,
                tie_policies=("deterministic",),
                seed=seed,
            )
        )
    )
    add("```")
    add("")

    # ------------------------------------------------------------ seeding
    add("## Seeding extension (E22)")
    add("")
    for heuristic_factory, etc in (
        (Sufferage, sufferage_example_etc()),
        (lambda: KPercentBest(percent=KPB_EXAMPLE_PERCENT), kpb_example_etc()),
    ):
        plain = IterativeScheduler(heuristic_factory()).run(etc)
        seeded = SeededIterativeScheduler(heuristic_factory()).run(etc)
        add(
            f"* {plain.heuristic_name}: plain makespans {plain.makespans()} "
            f"-> seeded {seeded.makespans()}"
        )
    add("")

    # ------------------------------------------------------------ comparison
    add("## Cross-heuristic comparison (E24)")
    add("")
    add("```")
    add(
        format_comparison_table(
            heuristic_comparison(
                ("genitor", "min-min", "mct", "met", "sufferage", "olb"),
                num_tasks=tasks,
                num_machines=machines,
                instances=instances,
                heterogeneities=(Heterogeneity.HIHI,),
                consistencies=(Consistency.INCONSISTENT,),
                seed=seed,
                heuristic_kwargs={
                    "genitor": {
                        "iterations": 200 if quick else 1500,
                        "population_size": 20 if quick else 40,
                    }
                },
            )
        )
    )
    add("```")
    add("")

    # ------------------------------------------------------------ appendix
    add("## Appendix — witness matrices")
    add("")
    for title, etc in (
        ("Table 1 (Min-Min)", minmin_example_etc()),
        ("Table 4 (MCT/MET)", mct_met_example_etc()),
        ("Table 9 (SWA)", swa_example_etc()),
        ("Table 12 (KPB)", kpb_example_etc()),
        ("Table 15 (Sufferage)", sufferage_example_etc()),
    ):
        add(f"### {title}")
        add("")
        add("```")
        add(render_etc_table(etc))
        add("```")
        add("")
    sufferage_result = IterativeScheduler(Sufferage()).run(sufferage_example_etc())
    add("### Sufferage example, original vs iterative")
    add("")
    add("```")
    add(render_comparison(compare_iterative(sufferage_result)))
    add("```")
    return "\n".join(lines)
