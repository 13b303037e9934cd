"""Generate a small balanced dataset and inspect its shape.

Walks through the generator end to end: parameters, rejection sampling
with category quotas, and the balance report. Run with:

    python3 demos/01_generate_dataset.py
"""

from rewritebench.core import Alphabet
from rewritebench.proposer import (
    GeneratorParams,
    generate_dataset,
    kl_balance_report,
)


def main() -> None:
    # A shrunken configuration so the demo finishes in a second or two:
    # 2 examples per instance, cascades of 2-3 rules over a 5-symbol
    # alphabet, 48 instances balanced across the 16 relation categories.
    params = GeneratorParams(
        n=2,
        alphabet=Alphabet.from_string("abcde"),
        l_min=2, l_max=5,
        L_min=2, L_max=3,
        s_min=1, s_max=2,
        D=48,
        tau=50_000,
        seed=42,
    )
    dataset = generate_dataset(params)
    print(f"accepted {len(dataset.instances)} instances "
          f"in {dataset.stats.attempts} sampling iterations")

    inst = dataset.instances[0]
    print("\nfirst instance:")
    print("  inputs: ", list(inst.inputs))
    print("  cascade:", [r.render() for r in inst.cascade])
    print("  outputs:", list(inst.outputs))
    print("  category:", inst.category,
          "edges:", [(e.i, e.kind, e.j) for e in inst.fb_edges])

    report = kl_balance_report(dataset)
    print("\ncategory counts:", report.category_counts)
    print("length counts:  ", report.length_counts)
    print(f"KL from uniform: {report.kl_nats:.4f} nats "
          "(0 means perfectly balanced)")


if __name__ == "__main__":
    main()
