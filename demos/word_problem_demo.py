"""Word problem via relative curve shortening, on Z * Z^2 and on two
presentations with relators.

Loads the presentation, shortens a few words step by step, and times the
solver on progressively longer trivial words to show the sub-quadratic
growth that makes the rewriting approach usable.  Then the same for
relators, where the rewriting is Dehn's algorithm: the order-five cyclic
group, and the genus-two surface group on products of relator conjugates.
"""

import random
import time
from pathlib import Path

from relconj import shortening, tables, words
from relconj.presentation import load_presentation, parse_presentation

HERE = Path(__file__).resolve().parent

p = parse_presentation((HERE / "presentations" / "zxz2.txt").read_text())
t = tables.precompute(p)
print(f"group {p.label}: hyperbolic {sorted(p.hyperbolic_generators)}, "
      f"parabolic Z^2 on {sorted(p.parabolics[0].generators)}")
print(f"working constants: delta={t.profile.delta}, "
      f"k={t.profile.k}")

for w in ["xyXY", "axXA", "xyX", "axyXYA", "aaxAA"]:
    res = shortening.shorten(p, w)
    if res.output == "":
        verdict = "trivial"
    elif res.output == w:
        verdict = "unchanged"
    else:
        verdict = f"shortens to {res.output!r}"
    print(f"  {w!r:12} -> {verdict} in {len(res.steps)} steps")
    for s in res.steps:
        print(f"      [{s.justification}] {s.before!r} -> {s.after!r} "
              f"at {s.start}..{s.end}")

print("\ncyclic shortening (conjugacy normal form):")
for w in ["axA", "xxxxyAXXXY", "yx"]:
    res = shortening.cyclic_shorten(p, w)
    print(f"  {w!r:14} -> alpha={res.output!r} conjugator={res.conjugator!r} "
          f"({res.iterations} end-run merges)")

print("\ntimings on random trivial words (insert g g^-1 pairs):")
rng = random.Random(0)
letters = sorted(p.alphabet)
for n in [512, 2048, 8192]:
    w = ""
    while len(w) < n:
        c = rng.choice(letters)
        i = rng.randrange(len(w) + 1)
        w = w[:i] + c + words.inverse(c) + w[i:]
    t0 = time.perf_counter()
    assert shortening.word_problem(p, w)
    print(f"  n={n:5d}: {(time.perf_counter() - t0) * 1000:7.1f} ms")

print("\nrelators: Dehn's algorithm on the order-five cyclic group <a | a^5>")
c5 = load_presentation(HERE / "presentations" / "c5.txt")
for w in ["aaa", "aaaaa"]:
    res = shortening.shorten(c5, w)
    print(f"  {w!r:12} -> {res.output!r} in {len(res.steps)} steps")
    for s in res.steps:
        print(f"      [{s.justification}] {s.before!r} -> {s.after!r} "
              f"at {s.start}..{s.end}")

print("\ntimings on products of relator conjugates in the genus-two surface "
      "group:")
surface = load_presentation(HERE / "presentations" / "surface2.txt")
relator = surface.relators[0]
rotations = [r[i:] + r[:i] for r in (relator, words.inverse(relator))
             for i in range(len(relator))]
for n in [4096, 16384, 65536]:
    parts, size = [], 0
    while size < n:
        g = "".join(rng.choice(surface.alphabet) for _ in range(rng.randint(0, 6)))
        parts.append(g + rng.choice(rotations) + words.inverse(g))
        size += len(parts[-1])
    w = "".join(parts)
    t0 = time.perf_counter()
    assert shortening.shorten(surface, w).output == ""
    print(f"  n={len(w):5d}: {(time.perf_counter() - t0) * 1000:7.1f} ms")
