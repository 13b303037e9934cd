"""Run the full solve/score loop offline against a scripted mock backend.

No network, no credentials: the mock plays back canned responses of
varying quality, and the harness extracts, normalizes, scores, selects,
and aggregates exactly as it would for a real endpoint. Run with:

    python3 demos/04_mock_solver_run.py
"""

from rewritebench.core import Alphabet
from rewritebench.evaluator import EvalRecord, aggregate_pbe, breakdown_reports
from rewritebench.gateway import (
    MockChatBackend,
    PbeTask,
    SolverConfig,
    solve_with_budget,
)
from rewritebench.proposer import GeneratorParams, generate_dataset


def main() -> None:
    params = GeneratorParams(
        n=2, alphabet=Alphabet.from_string("abcde"),
        l_min=2, l_max=5, L_min=2, L_max=3, s_min=1, s_max=2,
        D=12, tau=50_000, seed=3,
    )
    dataset = generate_dataset(params)
    config = SolverConfig(sampling_budget=3, max_in_flight=1)
    task = PbeTask(
        s_max=params.s_max, L_max=params.L_max,
        identity_symbol=params.alphabet.symbols[0],
    )

    records, instances = [], []
    for i, inst in enumerate(dataset.instances):
        listing = ", ".join(
            f"\"replace('{r.source}','{r.target}')\"" for r in inst.cascade
        )
        correct = f"```python\n[{listing}]\n```"
        # every third instance only ever gets refusals -> null predictions
        script = (["I refuse."] * 3 if i % 3 == 0
                  else ["hmm, thinking...", correct, correct])
        backend = MockChatBackend(script)
        selected, logs = solve_with_budget(
            inst, config, backend, task, sleep=lambda _: None
        )
        print(f"{inst.id}: {len(logs)} attempts, selected "
              f"#{selected.attempt_index} "
              f"(pass={selected.eval['passed']})")
        records.append(EvalRecord.from_dict(selected.eval))
        instances.append(inst)

    metrics = aggregate_pbe(records)
    print(f"\nPass@1 {metrics.pass_at_1:.3f}  Edit_Sim {metrics.edit_sim:.3f}"
          f"  Valid_Rate {metrics.valid_rate:.3f}"
          f"  Complexity {metrics.complexity:.2f}")

    bundle = breakdown_reports(records, instances)
    print("\npass rate by ground-truth cascade length:")
    for length, row in sorted(bundle.pass_rate_by_length.items()):
        print(f"  length {length}: {row['pass_rate']:.2f} "
              f"over {row['count']} instances")


if __name__ == "__main__":
    main()
