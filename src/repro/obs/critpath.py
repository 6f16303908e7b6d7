"""Critical-path latency attribution over commit traces.

``repro.obs.critpath`` folds each committed op's span tree (the tracer
threads ``TraceCtx`` from the API root through PBFT phases, log apply,
sign/ship, the WAN hop, and the remote receive-apply — including
recovery and failover paths) into an **ordered segment decomposition**
answering the question the paper's latency claims hinge on: *which
milliseconds of this commit went where?*

Algorithm
---------
The decomposition window is the op's **semantic completion**: it opens
at the ``commit`` root's start and closes at the latest of the root's
end and the completion markers — the destination's ``receive.apply``
and the geo layer's ``geo.proofs`` — so a wide-area send is attributed
through its WAN hop and remote apply, while *redundant* machinery that
runs afterwards (backup daemons re-shipping an already-delivered
record) is deliberately outside the window: it is availability work,
not commit latency.

Within the window each trace is swept as a set of **elementary
intervals**: the sorted, de-duplicated start/end times of every span,
clamped to the window, cut it into intervals inside which the set of
covering spans is constant. Each interval is
attributed to the **deepest** covering span (ties broken by start time
then span id — deterministic), on the principle that the most specific
phase a commit is inside at an instant is the one that owns that
instant. The winning span maps to a segment name:

* the ``commit`` root's self-time is split into ``admission`` (before
  any deeper span has covered an instant) and ``finalize`` (after);
* ``pbft.consensus`` self-time splits the same way into
  ``pbft.dispatch`` (before its first covered descendant instant) and
  ``pbft.reply`` (after — the wait for the reply quorum);
* every other span contributes its own name (``pbft.prepare``,
  ``pbft.commit``, ``sign.collect``, ``wan.transmit``,
  ``geo.proofs``, ``pbft.view_change``, …);
* spans running at the *destination* of a wide-area hop — i.e. with a
  ``wan.transmit`` ancestor — get a ``remote.`` prefix so the source
  and destination PBFT rounds never alias;
* instants covered by **no** span land in ``unattributed`` — surfaced,
  never silently dropped.

Conservation invariant
----------------------
Because the elementary intervals partition the trace window exactly,
``sum(segments) + unattributed == end_to_end`` holds *by construction*
(up to float summation noise, recorded as ``conservation_error_ms``).
The interesting check is therefore not whether the sum matches but how
much of the window the tracer failed to explain: the acceptance bar is
an ``unattributed`` fraction ≤ 5% at p99 across a run
(:data:`UNATTRIBUTED_P99_BOUND`).

On top of the decomposition, :func:`attribute` computes per-segment
p50/p90/p99 latency budgets, a "which segment dominates the p99 tail"
ranking, and the conservation proof.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.spans import Span

#: Absolute slack allowed between ``sum(segments) + unattributed`` and
#: the end-to-end window (float summation noise only — the sweep is an
#: exact partition).
CONSERVATION_TOLERANCE_MS = 1e-6

#: Acceptance bar: at p99 across a run, at most this fraction of a
#: commit's end-to-end latency may remain unattributed.
UNATTRIBUTED_P99_BOUND = 0.05

#: Canonical display/report order for segments (unknown names sort
#: after these, alphabetically). Mirrors the lifecycle left to right.
SEGMENT_ORDER: Tuple[str, ...] = (
    "admission",
    "pbft.dispatch",
    "pbft.pre_prepare",
    "pbft.prepare",
    "pbft.commit",
    "pbft.view_change",
    "pbft.reply",
    "log.apply",
    "geo.proofs",
    "daemon.ship",
    "sign.collect",
    "wan.transmit",
    "remote.pbft.dispatch",
    "remote.pbft.pre_prepare",
    "remote.pbft.prepare",
    "remote.pbft.commit",
    "remote.pbft.view_change",
    "remote.pbft.reply",
    "remote.log.apply",
    "remote.receive.apply",
    "remote.geo.proofs",
    "finalize",
    "unattributed",
)

_ORDER_INDEX = {name: index for index, name in enumerate(SEGMENT_ORDER)}

#: Span names whose end extends the decomposition window past the
#: root's own end: the op is only semantically complete once the
#: destination applied the record and the geo proofs are in.
_COMPLETION_MARKERS = ("receive.apply", "geo.proofs")


def segment_sort_key(segment: str) -> Tuple[int, str]:
    """Sort key placing known segments in lifecycle order."""
    return (_ORDER_INDEX.get(segment, len(SEGMENT_ORDER)), segment)


@dataclasses.dataclass
class TraceDecomposition:
    """One committed op's latency, partitioned into segments.

    ``end_to_end_ms`` is the completion window (root start to the
    latest of root end and the receive-apply/geo-proof completion
    markers — for plain log commits this equals the root ``commit``
    span's duration, recorded separately as ``commit_ms``). The
    conservation invariant ``sum(segments.values()) + unattributed_ms
    == end_to_end_ms`` holds up to ``conservation_error_ms``.
    """

    trace_id: int
    start_ms: float
    end_ms: float
    end_to_end_ms: float
    commit_ms: float
    segments: Dict[str, float]
    unattributed_ms: float
    conservation_error_ms: float

    @property
    def unattributed_fraction(self) -> float:
        if self.end_to_end_ms <= 0.0:
            return 0.0
        return self.unattributed_ms / self.end_to_end_ms


def _effective_end(span: Span) -> float:
    """Closed end, or zero width for spans left open (they cannot
    cover any instant — their time shows up as unattributed or under
    their parent, never double counted)."""
    return span.end_ms if span.end_ms is not None else span.start_ms


def decompose(spans: Sequence[Span]) -> Optional[TraceDecomposition]:
    """Decompose one trace's spans; None when the trace has no closed
    ``commit`` root (op never committed, or the root was evicted)."""
    root = None
    for span in spans:
        if span.name == "commit" and span.parent_id is None:
            root = span
            break
    if root is None or root.end_ms is None:
        return None

    by_id = {span.span_id: span for span in spans}
    depths: Dict[int, int] = {}
    remote: Dict[int, bool] = {}

    def _depth(span: Span) -> int:
        cached = depths.get(span.span_id)
        if cached is not None:
            return cached
        if span.parent_id is None:
            depth = 0
        else:
            parent = by_id.get(span.parent_id)
            # Orphan (parent evicted): at least as deep as a direct
            # child of the root.
            depth = 1 if parent is None else _depth(parent) + 1
        depths[span.span_id] = depth
        return depth

    def _remote(span: Span) -> bool:
        """True when the span runs under a wide-area hop (it has a
        ``wan.transmit`` ancestor)."""
        cached = remote.get(span.span_id)
        if cached is not None:
            return cached
        if span.parent_id is None:
            result = False
        else:
            parent = by_id.get(span.parent_id)
            if parent is None:
                result = False
            else:
                result = parent.name == "wan.transmit" or _remote(parent)
        remote[span.span_id] = result
        return result

    t0 = root.start_ms
    t1 = root.end_ms
    for span in spans:
        if span.name in _COMPLETION_MARKERS:
            t1 = max(t1, _effective_end(span))
    boundaries = {t0, t1}
    for span in spans:
        end = _effective_end(span)
        if end <= t0 or span.start_ms >= t1:
            continue
        boundaries.add(min(max(span.start_ms, t0), t1))
        boundaries.add(min(max(end, t0), t1))
    cuts = sorted(boundaries)

    # Ancestor chains for the dispatch/reply split: which
    # pbft.consensus spans have already had a descendant own an
    # instant.
    def _ancestor_ids(span: Span) -> Tuple[int, ...]:
        out: List[int] = []
        current = span
        while current.parent_id is not None:
            parent = by_id.get(current.parent_id)
            if parent is None:
                break
            out.append(parent.span_id)
            current = parent
        return tuple(out)

    segments: Dict[str, float] = {}
    unattributed = 0.0
    seen_non_root = False
    consensus_child_seen: set = set()

    for a, b in zip(cuts, cuts[1:]):
        width = b - a
        if width <= 0.0:
            continue
        winner = None
        winner_key = None
        for span in spans:
            if span.start_ms <= a and _effective_end(span) >= b:
                key = (_depth(span), span.start_ms, span.span_id)
                if winner_key is None or key > winner_key:
                    winner, winner_key = span, key
        if winner is None:
            unattributed += width
            continue
        if winner is root:
            segment = "finalize" if seen_non_root else "admission"
        elif winner.name == "pbft.consensus":
            segment = (
                "pbft.reply"
                if winner.span_id in consensus_child_seen
                else "pbft.dispatch"
            )
            if _remote(winner):
                segment = "remote." + segment
        else:
            segment = winner.name
            if segment != "wan.transmit" and _remote(winner):
                segment = "remote." + segment
        segments[segment] = segments.get(segment, 0.0) + width
        if winner is not root:
            seen_non_root = True
            for ancestor_id in _ancestor_ids(winner):
                ancestor = by_id[ancestor_id]
                if ancestor.name == "pbft.consensus":
                    consensus_child_seen.add(ancestor_id)

    end_to_end = t1 - t0
    total = sum(segments.values()) + unattributed
    return TraceDecomposition(
        trace_id=root.trace_id,
        start_ms=t0,
        end_ms=t1,
        end_to_end_ms=end_to_end,
        commit_ms=root.end_ms - root.start_ms,
        segments=segments,
        unattributed_ms=unattributed,
        conservation_error_ms=abs(total - end_to_end),
    )


def decompose_all(spans: Iterable[Span]) -> List[TraceDecomposition]:
    """Decompose every committed trace in a span log (or any span
    iterable), in trace-id order."""
    traces: Dict[int, List[Span]] = {}
    for span in spans:
        traces.setdefault(span.trace_id, []).append(span)
    out: List[TraceDecomposition] = []
    for trace_id in sorted(traces):
        decomposition = decompose(traces[trace_id])
        if decomposition is not None:
            out.append(decomposition)
    return out


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of raw values (0.0 if empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def _stats(values: Sequence[float]) -> Dict[str, float]:
    return {
        "p50": percentile(values, 0.50),
        "p90": percentile(values, 0.90),
        "p99": percentile(values, 0.99),
        "mean": (sum(values) / len(values)) if values else 0.0,
        "max": max(values) if values else 0.0,
    }


def attribute(
    decompositions: Sequence[TraceDecomposition],
) -> Dict[str, Any]:
    """Fold per-trace decompositions into the run-level attribution
    report: per-segment percentile budgets, p99-tail dominance ranking,
    and the conservation proof. JSON-ready (console bundles consume
    this shape)."""
    ops = len(decompositions)
    e2e = [d.end_to_end_ms for d in decompositions]
    segment_names = sorted(
        {name for d in decompositions for name in d.segments},
        key=segment_sort_key,
    )
    # Zero-filled per-op series keep segment budgets comparable across
    # runs where a segment (e.g. pbft.view_change) appears rarely.
    series: Dict[str, List[float]] = {
        name: [d.segments.get(name, 0.0) for d in decompositions]
        for name in segment_names
    }
    unattributed_series = [d.unattributed_ms for d in decompositions]
    total_e2e = sum(e2e)

    segments = []
    for name in segment_names:
        values = series[name]
        entry = _stats(values)
        entry["segment"] = name
        entry["total_ms"] = sum(values)
        entry["share"] = entry["total_ms"] / total_e2e if total_e2e else 0.0
        entry["present_ops"] = sum(1 for v in values if v > 0.0)
        segments.append(entry)

    # p99 tail: which segment dominates the slowest ~1% of commits?
    threshold = percentile(e2e, 0.99)
    tail = [d for d in decompositions if d.end_to_end_ms >= threshold]
    tail_total = sum(d.end_to_end_ms for d in tail)
    ranking = []
    for name in segment_names + ["unattributed"]:
        contribution = sum(
            d.segments.get(name, 0.0)
            if name != "unattributed"
            else d.unattributed_ms
            for d in tail
        )
        if contribution <= 0.0:
            continue
        ranking.append(
            {
                "segment": name,
                "mean_ms": contribution / len(tail) if tail else 0.0,
                "share": contribution / tail_total if tail_total else 0.0,
            }
        )
    ranking.sort(key=lambda r: (-r["mean_ms"], r["segment"]))

    fractions = sorted(d.unattributed_fraction for d in decompositions)
    unattributed_p99_fraction = percentile(fractions, 0.99)
    max_error = max(
        (d.conservation_error_ms for d in decompositions), default=0.0
    )
    unattributed = _stats(unattributed_series)
    unattributed["total_ms"] = sum(unattributed_series)
    unattributed["p99_fraction"] = unattributed_p99_fraction

    return {
        "ops": ops,
        "end_to_end_ms": _stats(e2e),
        "segments": segments,
        "unattributed": unattributed,
        "tail": {
            "threshold_ms": threshold,
            "ops": len(tail),
            "dominant_segment": ranking[0]["segment"] if ranking else "",
            "ranking": ranking,
        },
        "conservation": {
            "checked_ops": ops,
            "max_error_ms": max_error,
            "tolerance_ms": CONSERVATION_TOLERANCE_MS,
            "unattributed_p99_fraction": unattributed_p99_fraction,
            "unattributed_p99_bound": UNATTRIBUTED_P99_BOUND,
            "ok": (
                ops > 0
                and max_error <= CONSERVATION_TOLERANCE_MS
                and unattributed_p99_fraction <= UNATTRIBUTED_P99_BOUND
            ),
        },
    }


def attribute_log(spans: Iterable[Span]) -> Dict[str, Any]:
    """Convenience: decompose every trace in a span log and attribute
    the result in one call."""
    return attribute(decompose_all(spans))
