"""Spans around calls into relconj's layers, recorded from the benchmark's
own files: nothing inside the package changes.  ``Instrumentation`` replaces
module attributes (``relconj.<module>.<function>`` and a few methods) with
wrappers, and every caller that looks the name up through its module sees
the wrapper.  ``uninstall`` puts the originals back, so untraced passes run
the program exactly as shipped.

Self time is computed as each span closes: its duration minus the time its
child spans covered.  Aggregates are kept for every span; the spans
themselves are kept in memory up to a cap and written out at exit.
"""

from __future__ import annotations

import json
import os
import time

SPAN_CAP = 200_000


class Tracer:
    def __init__(self, clock=time.perf_counter_ns, span_cap=SPAN_CAP):
        self.clock = clock
        self.span_cap = span_cap
        self.stack = []  # open frames: [name, start_ns, child_ns, span_index]
        self.stats = {}  # name -> [calls, total_ns, self_ns]
        self.edges = {}  # (parent name, name) -> calls
        self.counts = {}  # name -> summed extra count (e.g. letters)
        self.spans = []  # (name, start_ns, end_ns, parent_index, query)
        self.dropped = 0
        self.query = -1  # id of the query the spans belong to; -1 is set-up

    def enter(self, name):
        parent = self.stack[-1][3] if self.stack else -1
        if len(self.spans) < self.span_cap:
            index = len(self.spans)
            self.spans.append((name, 0, 0, parent, self.query))
        else:
            index = -1
            self.dropped += 1
        self.stack.append([name, self.clock(), 0, index])

    def exit(self, name=None):
        """Close the innermost span; name renames it, e.g. by its result."""
        end = self.clock()
        frame = self.stack.pop()
        name = frame[0] if name is None else name
        duration = end - frame[1]
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[2]
        if self.stack:
            parent = self.stack[-1]
            parent[2] += duration
            edge = (parent[0], name)
            self.edges[edge] = self.edges.get(edge, 0) + 1
        if frame[3] >= 0:
            old = self.spans[frame[3]]
            self.spans[frame[3]] = (name, frame[1], end, old[3], old[4])

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def calls(self, name):
        return self.stats.get(name, (0, 0, 0))[0]

    def ms(self, name, which=1):
        """Total (which=1) or self (which=2) milliseconds of a span name."""
        return self.stats.get(name, (0, 0, 0))[which] / 1e6

    def snapshot(self):
        """Aggregates and spans as plain data, for a child process to hand
        back."""
        return {"stats": self.stats,
                "edges": [[a, b, n] for (a, b), n in self.edges.items()],
                "counts": self.counts, "spans": self.spans,
                "dropped": self.dropped}

    def merge_file(self, path):
        """Fold in a child's snapshot and delete the file; the child's spans
        join this trace under the current query id."""
        with open(path) as fh:
            snap = json.load(fh)
        os.unlink(path)
        self.merge(snap)

    def merge(self, snap):
        for name, (calls, total, own) in snap["stats"].items():
            entry = self.stats.setdefault(name, [0, 0, 0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        for a, b, n in snap["edges"]:
            self.edges[(a, b)] = self.edges.get((a, b), 0) + n
        for name, n in snap["counts"].items():
            self.count(name, n)
        self.dropped += snap["dropped"]
        offset = len(self.spans)
        for name, start, end, parent, _ in snap["spans"]:
            if len(self.spans) >= self.span_cap:
                self.dropped += 1
                continue
            self.spans.append((name, start, end,
                               parent + offset if parent >= 0 else -1,
                               self.query))

    def write_spans(self, path):
        """One tab-separated line per span: index, name, start_ns, end_ns,
        parent index (-1 for a root), query id (-1 for set-up)."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\tquery\n")
            for i, (name, start, end, parent, query) in enumerate(self.spans):
                fh.write("%d\t%s\t%d\t%d\t%d\t%d\n"
                         % (i, name, start, end, parent, query))


def _wrap(tracer, fn, name, name_of=None, result_name=None, letters=False):
    def traced(*args, **kwargs):
        tracer.enter(name_of(args, kwargs) if name_of else name)
        if letters:
            tracer.count(name + ".letters", len(args[1]))
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.exit()
            raise
        tracer.exit(result_name(result) if result_name else None)
        return result

    traced.__wrapped__ = fn
    return traced


def _filtered_ball_name(args, kwargs):
    label = kwargs.get("label", args[4] if len(args) > 4 else "filtered ball")
    return "tables.enumerate_filtered_ball." + label


def _decide_name(cert):
    return "conjugacy.decide." + cert.answer


def targets():
    """(owner, attribute, span name, wrapper options) for every traced
    boundary.  The owners are relconj modules and classes, so callers that
    go through ``module.function`` or a method see the wrapper."""
    from relconj import (cli, conjugacy, metric_oracle, parabolic_oracles,
                         presentation, shortening, tables, words)

    out = [
        (words, "normalize", "words.normalize", {"letters": True}),
        (shortening, "shorten", "shortening.shorten", {}),
        (shortening, "cyclic_shorten", "shortening.cyclic_shorten", {}),
        (shortening, "word_problem", "shortening.word_problem", {}),
        (shortening, "find_violating_window",
         "shortening.find_violating_window", {}),
        (conjugacy, "decide", "conjugacy.decide",
         {"result_name": _decide_name}),
        (conjugacy, "classify", "conjugacy.classify", {}),
        (conjugacy.ConjugacyEngine, "core", "conjugacy.ConjugacyEngine.core",
         {}),
        (conjugacy.ConjugacyEngine, "cyclic",
         "conjugacy.ConjugacyEngine.cyclic", {}),
        (conjugacy.ConjugacyEngine, "classification",
         "conjugacy.ConjugacyEngine.classification", {}),
        (tables, "precompute", "tables.precompute", {}),
        (tables, "enumerate_filtered_ball", "tables.enumerate_filtered_ball",
         {"name_of": _filtered_ball_name}),
        (tables, "cyclic_canonical", "tables.cyclic_canonical", {}),
        (tables, "save_tables", "tables.save_tables", {}),
        (tables, "load_tables", "tables.load_tables", {}),
        (metric_oracle, "ball", "metric_oracle.ball", {}),
        (metric_oracle, "is_relative_geodesic",
         "metric_oracle.is_relative_geodesic", {}),
        (metric_oracle, "normal_form", "metric_oracle.normal_form", {}),
        (presentation, "load_presentation", "presentation.load_presentation",
         {}),
        # cli binds load_presentation by name at import time
        (cli, "load_presentation", "presentation.load_presentation", {}),
        (cli, "run", "cli.run", {}),
        (parabolic_oracles.ParabolicOracle, "geodesic_form",
         "parabolic_oracles.geodesic_form", {}),
    ]
    for cls in vars(parabolic_oracles).values():
        if (isinstance(cls, type)
                and issubclass(cls, parabolic_oracles.ParabolicOracle)
                and "conjugate" in vars(cls)
                and cls is not parabolic_oracles.ParabolicOracle):
            out.append((cls, "conjugate", "parabolic_oracles.conjugate", {}))
    return out


class Instrumentation:
    """Installs and removes the wrappers of ``targets()`` for one tracer."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.saved = []

    def install(self):
        for owner, attr, name, options in targets():
            original = vars(owner)[attr]
            self.saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(self.tracer, original, name, **options))

    def uninstall(self):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved = []
