"""Explore the feeding/bleeding calculus on hand-picked rule pairs.

Shows the symbolic classifier next to the witness oracle so you can see
both agreement and the known divergence cases. Run with:

    python3 demos/02_relation_calculus.py
"""

from rewritebench.core import RewriteRule, apply_rule
from rewritebench.relations import (
    bleeds,
    classify_bfcc,
    default_oracle_bound,
    feeds,
    oracle_bleeds,
    oracle_feeds,
)


def show(first: RewriteRule, second: RewriteRule) -> None:
    bound = default_oracle_bound(first, second)
    fw = oracle_feeds(first, second, bound)
    bw = oracle_bleeds(first, second, bound)
    print(f"{first.render()}  then  {second.render()}")
    print(f"  feeds:  symbolic={feeds(first, second)}  witness={fw!r}")
    if fw:
        print(f"          {fw!r} -> {apply_rule(first, fw)!r}")
    print(f"  bleeds: symbolic={bleeds(first, second)}  witness={bw!r}")
    print()


def main() -> None:
    print("== classic feeding: the first rule creates the second's pattern\n")
    show(RewriteRule("a", "bc"), RewriteRule("bc", "x"))

    print("== completion feeding through a shared unit\n")
    show(RewriteRule("bc", "dc"), RewriteRule("ad", "ed"))

    print("== classic bleeding: the first rule consumes the pattern\n")
    show(RewriteRule("ab", "x"), RewriteRule("a", "y"))

    print("== a known divergence: replacement multiplies an already-present")
    print("   substring, so a witness exists but the set-based classifier")
    print("   says no (occurrence counts are multiplicity-sensitive)\n")
    show(RewriteRule("bc", "cc"), RewriteRule("c", "a"))

    print("== whole-cascade classification\n")
    cascade = [RewriteRule("a", "bc"), RewriteRule("bc", "x"),
               RewriteRule("x", "a")]
    category, edges = classify_bfcc(cascade)
    print("cascade: ", [r.render() for r in cascade])
    print("category:", category, "(bits F, B, CF, CB)")
    print("edges:   ", [(e.i, e.kind, e.j) for e in edges])


if __name__ == "__main__":
    main()
