"""Brute-force Cayley-graph oracle as ground truth at desk scale.

Enumerates metric balls, runs a hyperbolicity estimator on the coned-off
graph, then crosschecks the certificate-based decision procedure against
exhaustive in-ball conjugacy classes.
"""

import itertools
import time
from pathlib import Path

from relconj import conjugacy, metric_oracle, tables
from relconj.presentation import parse_presentation

HERE = Path(__file__).resolve().parent

p = parse_presentation((HERE / "presentations" / "zxz2.txt").read_text())
t = tables.precompute(p)

print("Gamma-ball growth in Z * Z^2:")
for r in range(5):
    print(f"  radius {r}: {len(metric_oracle.ball(p, r).elements)} elements")

print("\nmetric estimates on the coned-off graph:")
for r in [0, 1, 2]:
    d = metric_oracle.estimate_delta(p, r)
    print(f"  radius {r}: thin-triangle delta >= {d} "
          f"(exhaustive over relative length <= {r})")

print("\nrelative vs Gamma length:")
for w in ["xxx", "axxa", "axaxax"]:
    print(f"  {w!r:9} |w|_Gamma={metric_oracle.gamma_length(p, w)} "
          f"|w|_rel={metric_oracle.relative_length(p, w)}")

print("\ncrosscheck decide against brute in-ball conjugacy classes:")
t0 = time.perf_counter()
classes = metric_oracle.conjugacy_classes(p, 3)
corpus = sorted(classes)
eng = conjugacy.ConjugacyEngine(p, t)
mismatches = 0
for u, v in itertools.product(corpus, corpus):
    cert = conjugacy.decide(p, t, u, v, engine=eng)
    if (cert.answer == "conjugate") != (classes[u] == classes[v]):
        mismatches += 1
        print(f"  MISMATCH {u!r} vs {v!r}")
n = len(corpus)
print(f"  {n} elements, {n * n} ordered pairs, {mismatches} mismatches, "
      f"{time.perf_counter() - t0:.1f}s")

print("\nbrute conjugator search (reference answers):")
pF = parse_presentation((HERE / "presentations" / "free2.txt").read_text())
for q, u, v, r in [(pF, "ab", "ba", 2), (p, "axxA", "xx", 2),
                   (p, "a", "x", 3)]:
    g = metric_oracle.brute_conjugate(q, u, v, r)
    print(f"  {u!r} ~ {v!r} within radius {r}: "
          f"{'g = %r' % g if g is not None else 'no conjugator found'}")
