"""Render a console bundle into one self-contained HTML replay.

:func:`render_html` embeds the ``repro.console/v2`` bundle as inline
JSON inside a single HTML document whose CSS and JavaScript are inlined
too — no network fetches, no CDN, no non-stdlib dependency anywhere.
The file opens offline in any browser and presents three views:

1. **Topology replay** — sites laid out on a ring (nodes clustered
   around their site, the gateway marked), with journal events animated
   as message flows at a virtual-time cursor driven by play / pause /
   step controls and a scrubber.
2. **Swimlanes** — per-node horizontal lanes over virtual time. Spans
   (when the bundle carries them) draw as phase-colored bars; without
   spans the journal events draw as ticks. Clicking a lane point moves
   the replay cursor.
3. **Auditor overlay** — per-node suspicion badges on the topology and
   a findings panel; selecting a finding jumps the cursor to its first
   evidence event and highlights every cited event in the log.
4. **Trace flame view** — per-trace span trees drawn depth-by-depth
   (v2 bundles with spans); a selector cycles through the recorded
   commit traces.
5. **Latency budget** — the critical-path segment decomposition from
   the bundle's ``latency`` section as share bars with p50/p99 budgets
   and the conservation line.
6. **Chaos ground truth** — when the bundle carries the injected fault
   plan (``chaos`` section), its windows shade the swimlanes and list
   beside the auditor's findings, so detection can be judged against
   what was actually injected.

Everything the page shows is computed from the embedded bundle at view
time; the Python side contributes only static markup (title, header
stats, the eviction banner) so the renderer stays a pure function of
the bundle.
"""

from __future__ import annotations

import html
import json
from typing import Any, Dict

from repro.obs.console.schema import check

#: Markers substituted into the page template. ``str.replace`` rather
#: than ``str.format`` so the CSS/JS braces need no escaping.
_TOKEN_TITLE = "@@TITLE@@"
_TOKEN_STATS = "@@STATS@@"
_TOKEN_BANNER = "@@BANNER@@"
_TOKEN_BUNDLE = "@@BUNDLE_JSON@@"
_TOKEN_NOSCRIPT = "@@NOSCRIPT@@"


def render_html(bundle: Dict[str, Any], validate: bool = True) -> str:
    """Render ``bundle`` into the self-contained HTML replay page."""
    if validate:
        check(bundle)
    journal = bundle.get("journal", {})
    topology = bundle.get("topology", {})
    audit = bundle.get("audit")
    title = html.escape(bundle.get("title", "operator console"))

    stats = [
        f"{journal.get('retained', 0)} events",
        f"{len(topology.get('nodes', []))} nodes",
        f"{len(topology.get('sites', []))} sites",
        f"{len(bundle.get('spans', []))} spans",
    ]
    if audit is not None:
        stats.append(f"{len(audit.get('findings', []))} findings")
        accused = audit.get("accused", [])
        if accused:
            stats.append("accused: " + ", ".join(accused))
    latency = bundle.get("latency")
    if latency is not None:
        stats.append(f"{latency.get('ops', 0)} ops attributed")
    chaos = bundle.get("chaos")
    if chaos is not None:
        stats.append(f"{len(chaos.get('actions', []))} injected faults")
    stats_html = " · ".join(html.escape(stat) for stat in stats)

    banner = ""
    dropped = journal.get("dropped", 0)
    if dropped:
        first = journal.get("first_event_id")
        banner = (
            '<div class="banner">&#9888; '
            f"{dropped} events evicted before this window "
            f"(first retained event id {first}); the replay below is "
            "incomplete.</div>"
        )

    noscript = _noscript_summary(bundle)
    # ``</`` would terminate the inline <script> block early if a
    # string value ever contained ``</script>``.
    bundle_json = json.dumps(bundle, sort_keys=True).replace("</", "<\\/")

    page = _PAGE_TEMPLATE
    page = page.replace(_TOKEN_TITLE, title)
    page = page.replace(_TOKEN_STATS, stats_html)
    page = page.replace(_TOKEN_BANNER, banner)
    page = page.replace(_TOKEN_NOSCRIPT, noscript)
    page = page.replace(_TOKEN_BUNDLE, bundle_json)
    return page


def write_html(bundle: Dict[str, Any], path: str) -> str:
    """Render and write the replay page; returns ``path``."""
    document = render_html(bundle)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(document)
    return path


def _noscript_summary(bundle: Dict[str, Any]) -> str:
    """Static fallback shown when JavaScript is unavailable."""
    topology = bundle.get("topology", {})
    journal = bundle.get("journal", {})
    lines = [
        "<ul>",
        f"<li>sites: {html.escape(', '.join(topology.get('sites', [])))}"
        "</li>",
        "<li>nodes: "
        + html.escape(
            ", ".join(n["id"] for n in topology.get("nodes", []))
        )
        + "</li>",
        f"<li>journal: {journal.get('retained', 0)} retained of "
        f"{journal.get('recorded', 0)} recorded "
        f"({journal.get('dropped', 0)} evicted)</li>",
    ]
    audit = bundle.get("audit")
    if audit is not None:
        for finding in audit.get("findings", []):
            lines.append(
                "<li>"
                + html.escape(
                    f"{finding['id']}: [{finding['kind']}] "
                    f"{finding['suspect']} — {finding['summary']}"
                )
                + "</li>"
            )
    chaos = bundle.get("chaos")
    if chaos is not None:
        for action in chaos.get("actions", []):
            lines.append(
                "<li>injected: "
                + html.escape(action.get("label", action.get("kind", "?")))
                + "</li>"
            )
    latency = bundle.get("latency")
    if latency is not None:
        e2e = latency.get("end_to_end_ms", {})
        lines.append(
            "<li>latency: "
            + html.escape(
                f"{latency.get('ops', 0)} ops, e2e p50 "
                f"{e2e.get('p50', 0.0):.3f} ms / p99 "
                f"{e2e.get('p99', 0.0):.3f} ms"
            )
            + "</li>"
        )
    lines.append("</ul>")
    return "\n".join(lines)


_PAGE_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>@@TITLE@@</title>
<style>
:root {
  --bg: #10141b; --panel: #171c26; --edge: #2a3244;
  --ink: #dfe6f2; --dim: #8b97ad; --accent: #5aa9ff;
  --ok: #46c28e; --warn: #e7b54a; --bad: #ef6b73;
}
* { box-sizing: border-box; }
body {
  margin: 0; background: var(--bg); color: var(--ink);
  font: 14px/1.45 ui-monospace, SFMono-Regular, Menlo, Consolas,
        monospace;
}
header { padding: 14px 18px 6px; }
header h1 { margin: 0; font-size: 18px; font-weight: 600; }
header .stats { color: var(--dim); margin-top: 4px; font-size: 12px; }
.banner {
  margin: 8px 18px; padding: 8px 12px; border-radius: 6px;
  background: #3a2d18; border: 1px solid var(--warn);
  color: var(--warn);
}
.controls {
  display: flex; align-items: center; gap: 10px;
  padding: 8px 18px; flex-wrap: wrap;
}
.controls button {
  background: var(--panel); color: var(--ink);
  border: 1px solid var(--edge); border-radius: 6px;
  padding: 4px 12px; font: inherit; cursor: pointer;
}
.controls button:hover { border-color: var(--accent); }
.controls input[type=range] { flex: 1; min-width: 160px; }
.controls .clock { color: var(--accent); min-width: 120px; }
.controls select {
  background: var(--panel); color: var(--ink);
  border: 1px solid var(--edge); border-radius: 6px; font: inherit;
}
main {
  display: grid; gap: 12px; padding: 0 18px 18px;
  grid-template-columns: minmax(0, 3fr) minmax(260px, 1fr);
}
section {
  background: var(--panel); border: 1px solid var(--edge);
  border-radius: 8px; overflow: hidden;
}
section h2 {
  margin: 0; padding: 8px 12px; font-size: 12px; font-weight: 600;
  color: var(--dim); text-transform: uppercase;
  letter-spacing: 0.08em; border-bottom: 1px solid var(--edge);
}
#topo-box svg, #lanes-box svg { display: block; width: 100%; }
#log {
  max-height: 420px; overflow-y: auto; font-size: 12px;
}
#log .ev {
  padding: 2px 10px; white-space: nowrap; overflow: hidden;
  text-overflow: ellipsis; cursor: pointer; color: var(--dim);
}
#log .ev:hover { color: var(--ink); }
#log .ev.past { color: var(--ink); }
#log .ev.now {
  background: #1f2a3d; color: var(--accent);
}
#log .ev.evidence {
  background: #3a2026; color: var(--bad);
}
#lanes-box { grid-column: 1 / -1; }
#audit-box { grid-column: 1 / -1; }
#flame-box { grid-column: 1 / -1; }
#flame-box .picker { padding: 6px 12px; }
#flame-box select {
  background: var(--panel); color: var(--ink); max-width: 100%;
  border: 1px solid var(--edge); border-radius: 6px; font: inherit;
}
#flame svg { display: block; width: 100%; }
#latency { padding: 8px 12px; font-size: 12px; }
#latency .seg { display: flex; align-items: center; gap: 8px;
  margin: 3px 0; }
#latency .seg .name { width: 170px; color: var(--dim);
  text-align: right; overflow: hidden; text-overflow: ellipsis;
  white-space: nowrap; }
#latency .seg .bar { flex: 1; height: 10px; background: #1d2433;
  border-radius: 3px; overflow: hidden; }
#latency .seg .bar i { display: block; height: 100%;
  background: var(--accent); }
#latency .seg.unattr .bar i { background: var(--warn); }
#latency .seg .num { width: 180px; color: var(--dim); }
#latency .conserve { margin-top: 8px; }
#latency .conserve.ok { color: var(--ok); }
#latency .conserve.bad { color: var(--bad); }
#chaos-list { padding: 8px 12px; }
#chaos-list .fault {
  border: 1px solid var(--edge); border-left: 3px solid var(--bad);
  border-radius: 6px; padding: 4px 10px; margin-bottom: 6px;
  cursor: pointer; color: var(--dim); font-size: 12px;
}
#chaos-list .fault:hover { color: var(--ink);
  border-color: var(--accent); }
.audit-grid { display: grid; gap: 0;
  grid-template-columns: minmax(0, 1fr) minmax(0, 1fr); }
.audit-grid h3 {
  margin: 0; padding: 6px 12px 0; font-size: 11px; font-weight: 600;
  color: var(--dim); text-transform: uppercase;
  letter-spacing: 0.08em;
}
#findings { padding: 8px 12px; }
#findings .finding {
  border: 1px solid var(--edge); border-radius: 6px;
  padding: 6px 10px; margin-bottom: 6px; cursor: pointer;
}
#findings .finding:hover { border-color: var(--accent); }
#findings .finding.selected { border-color: var(--bad); }
#findings .finding .fid { color: var(--dim); font-size: 11px; }
#findings .score { color: var(--bad); font-weight: 600; }
#findings .non-accusing .score { color: var(--warn); }
.empty { color: var(--dim); padding: 10px 12px; }
.legend {
  display: flex; gap: 12px; padding: 6px 12px; flex-wrap: wrap;
  color: var(--dim); font-size: 11px;
}
.legend span::before {
  content: ""; display: inline-block; width: 9px; height: 9px;
  border-radius: 2px; margin-right: 5px;
  background: var(--c, var(--dim));
}
</style>
</head>
<body>
<header>
  <h1>@@TITLE@@</h1>
  <div class="stats">@@STATS@@</div>
</header>
@@BANNER@@
<noscript>@@NOSCRIPT@@</noscript>
<div class="controls">
  <button id="btn-play">&#9654; play</button>
  <button id="btn-back" title="previous event">&#9198;</button>
  <button id="btn-step" title="next event">&#9197;</button>
  <select id="speed">
    <option value="10">10 ms/s</option>
    <option value="100" selected>100 ms/s</option>
    <option value="1000">1000 ms/s</option>
    <option value="5000">5000 ms/s</option>
  </select>
  <input id="scrub" type="range" min="0" max="1000" value="0">
  <span class="clock" id="clock">t = 0.000 ms</span>
</div>
<main>
  <section id="topo-box">
    <h2>topology replay</h2>
    <div id="topo"></div>
    <div class="legend" id="kind-legend"></div>
  </section>
  <section>
    <h2>event log</h2>
    <div id="log"></div>
  </section>
  <section id="lanes-box">
    <h2>swimlanes</h2>
    <div id="lanes"></div>
  </section>
  <section id="flame-box">
    <h2>trace flame view</h2>
    <div class="picker"><select id="trace-pick"></select></div>
    <div id="flame"></div>
  </section>
  <section id="latency-box">
    <h2>latency budget</h2>
    <div id="latency"></div>
  </section>
  <section id="audit-box">
    <h2>faults: detected vs injected</h2>
    <div class="audit-grid">
      <div>
        <h3>auditor findings</h3>
        <div id="findings"></div>
      </div>
      <div>
        <h3>injected ground truth</h3>
        <div id="chaos-list"></div>
      </div>
    </div>
  </section>
</main>
<script id="bundle" type="application/json">@@BUNDLE_JSON@@</script>
<script>
"use strict";
const DATA = JSON.parse(
  document.getElementById("bundle").textContent);
const EVENTS = DATA.journal.events;
const SPANS = DATA.spans || [];
const TOPO = DATA.topology;
const AUDIT = DATA.audit || null;
const LATENCY = DATA.latency || null;
const CHAOS = DATA.chaos || null;
const SVGNS = "http://www.w3.org/2000/svg";

// ---------------------------------------------------------------- utils
function el(tag, attrs, parent) {
  const node = document.createElementNS(SVGNS, tag);
  for (const key in attrs) node.setAttribute(key, attrs[key]);
  if (parent) parent.appendChild(node);
  return node;
}
function kindColor(kind) {
  const head = kind.split(".")[0];
  const palette = {
    pbft: "#5aa9ff", log: "#46c28e", daemon: "#e7b54a",
    reserve: "#e78a4a", sign: "#b48ef0", proof: "#4ad2c9",
    chain: "#6fd0e8", deploy: "#8b97ad", geo: "#e780c0",
    recovery: "#ef6b73", wan: "#d98ae0", commit: "#7fc4ff",
    receive: "#46c28e",
  };
  return palette[head] || "#9aa7bd";
}
function fmt(ms) { return ms.toFixed(3) + " ms"; }

// --------------------------------------------------------- time domain
let T0 = 0, T1 = 1;
if (EVENTS.length) {
  T0 = EVENTS[0].at_ms;
  T1 = EVENTS[EVENTS.length - 1].at_ms;
}
for (const span of SPANS) {
  T0 = Math.min(T0, span.start_ms);
  T1 = Math.max(T1, span.end_ms == null ? span.start_ms : span.end_ms);
}
if (T1 <= T0) T1 = T0 + 1;
let tCur = T0, playing = false;

// ------------------------------------------------------ topology layout
const W = 900, H = 520, CX = W / 2, CY = H / 2;
const sitePos = {};
TOPO.sites.forEach((site, index) => {
  const angle = (index / TOPO.sites.length) * 2 * Math.PI - Math.PI / 2;
  sitePos[site] = {
    x: CX + Math.cos(angle) * (W * 0.32),
    y: CY + Math.sin(angle) * (H * 0.33),
  };
});
const nodePos = {};
const bySite = {};
for (const node of TOPO.nodes) {
  (bySite[node.site] = bySite[node.site] || []).push(node);
}
for (const site in bySite) {
  const center = sitePos[site] ||
    { x: CX, y: CY };  // journal site absent from topology list
  bySite[site].forEach((node, index) => {
    const angle = (index / bySite[site].length) * 2 * Math.PI;
    nodePos[node.id] = {
      x: center.x + Math.cos(angle) * 46,
      y: center.y + Math.sin(angle) * 46,
    };
  });
}
function posOf(name) {
  if (nodePos[name]) return nodePos[name];
  if (sitePos[name]) return sitePos[name];
  return null;
}

// ----------------------------------------- flow derivation per event
function flowOf(event) {
  const args = event.args || {};
  const kind = event.kind;
  const at = event.node || event.participant;
  if (kind === "pbft.pre_prepare") return [args.leader, at];
  if (kind === "pbft.vote") return [args.src || args.voter, at];
  if (kind === "daemon.ship") return [at, args.destination];
  if (kind === "sign.response") return [args.signer, at];
  if (kind === "sign.spoofed") return [args.src, at];
  if (kind === "sign.invalid") return [args.signer, at];
  if (kind.indexOf("proof.") === 0) return [args.src || args.source, at];
  if (kind === "chain.advance") return [args.source, at];
  if (kind === "reserve.probe") return [at, args.destination];
  if (kind === "reserve.response") return [args.src, at];
  if (kind === "geo.mirror_timeout") return [args.target, at];
  return [null, at];  // pulse at the observer
}

// ----------------------------------------------------------- build svg
const topoSvg = el("svg", { viewBox: `0 0 ${W} ${H}` });
document.getElementById("topo").appendChild(topoSvg);
const edgeLayer = el("g", {}, topoSvg);
const flowLayer = el("g", {}, topoSvg);
const nodeLayer = el("g", {}, topoSvg);
for (const edge of TOPO.rtt_ms || []) {
  const a = sitePos[edge[0]], b = sitePos[edge[1]];
  if (!a || !b) continue;
  el("line", {
    x1: a.x, y1: a.y, x2: b.x, y2: b.y,
    stroke: "#222b3c", "stroke-width": 1.5,
  }, edgeLayer);
  el("text", {
    x: (a.x + b.x) / 2, y: (a.y + b.y) / 2 - 4,
    fill: "#47536b", "font-size": 10, "text-anchor": "middle",
  }, edgeLayer).textContent = edge[2] + " ms";
}
const suspicion = AUDIT ? AUDIT.suspicion : {};
for (const site of TOPO.sites) {
  const center = sitePos[site];
  el("text", {
    x: center.x, y: center.y + 4, fill: "#8b97ad",
    "font-size": 15, "font-weight": 600, "text-anchor": "middle",
  }, nodeLayer).textContent = site;
}
for (const node of TOPO.nodes) {
  const at = nodePos[node.id];
  const score = suspicion[node.id] || 0;
  const group = el("g", {}, nodeLayer);
  const dot = el("circle", {
    cx: at.x, cy: at.y, r: node.role === "gateway" ? 8 : 6,
    fill: score >= 0.5 ? "#ef6b73" : "#31415e",
    stroke: node.role === "gateway" ? "#e7b54a" : "#5aa9ff",
    "stroke-width": node.role === "gateway" ? 2.5 : 1.5,
  }, group);
  el("title", {}, dot).textContent =
    node.id + " (" + node.role + ")" +
    (score ? " — suspicion " + score.toFixed(1) : "");
  el("text", {
    x: at.x, y: at.y - 11, fill: "#8b97ad",
    "font-size": 9, "text-anchor": "middle",
  }, group).textContent = node.id;
  if (score > 0) {
    el("text", {
      x: at.x + 9, y: at.y + 12, fill: "#ef6b73",
      "font-size": 10, "font-weight": 700,
    }, group).textContent = score.toFixed(1);
  }
}

// --------------------------------------------------------- event log
const logBox = document.getElementById("log");
const logRows = [];
EVENTS.forEach((event, index) => {
  const row = document.createElement("div");
  row.className = "ev";
  row.textContent =
    "#" + event.event_id + " " + event.at_ms.toFixed(1) + " " +
    event.kind + " @" + (event.node || event.participant);
  row.title = JSON.stringify(event.args);
  row.onclick = () => setTime(event.at_ms);
  logBox.appendChild(row);
  logRows.push(row);
});
if (!EVENTS.length) {
  logBox.innerHTML = '<div class="empty">journal is empty</div>';
}

// ----------------------------------------------------------- legend
const seenKinds = [];
for (const event of EVENTS) {
  const head = event.kind.split(".")[0];
  if (seenKinds.indexOf(head) < 0) seenKinds.push(head);
}
const legend = document.getElementById("kind-legend");
for (const head of seenKinds) {
  const chip = document.createElement("span");
  chip.style.setProperty("--c", kindColor(head + "."));
  chip.textContent = head;
  legend.appendChild(chip);
}

// --------------------------------------------------------- swimlanes
const laneNames = TOPO.nodes.map((node) => node.id);
for (const span of SPANS) {
  const lane = span.node || span.participant;
  if (lane && laneNames.indexOf(lane) < 0) laneNames.push(lane);
}
const LH = 18, LPAD = 110;
const laneH = Math.max(80, laneNames.length * LH + 30);
const laneSvg = el("svg", { viewBox: `0 0 ${W} ${laneH}` });
document.getElementById("lanes").appendChild(laneSvg);
const laneIndex = {};
laneNames.forEach((name, index) => {
  laneIndex[name] = index;
  el("text", {
    x: LPAD - 8, y: index * LH + 26, fill: "#8b97ad",
    "font-size": 10, "text-anchor": "end",
  }, laneSvg).textContent = name;
  el("line", {
    x1: LPAD, y1: index * LH + 30, x2: W - 10, y2: index * LH + 30,
    stroke: "#1d2433",
  }, laneSvg);
});
function laneX(ms) {
  return LPAD + ((ms - T0) / (T1 - T0)) * (W - LPAD - 10);
}
function laneOf(name, participant) {
  if (name in laneIndex) return laneIndex[name];
  if (participant in laneIndex) return laneIndex[participant];
  return null;
}
for (const span of SPANS) {
  const lane = laneOf(span.node || span.participant, span.participant);
  if (lane === null) continue;
  const end = span.end_ms == null ? span.start_ms : span.end_ms;
  const x = laneX(span.start_ms);
  const width = Math.max(1.5, laneX(end) - x);
  const rect = el("rect", {
    x: x, y: lane * LH + 16, width: width, height: 10, rx: 2,
    fill: kindColor(span.category + "."), "fill-opacity": 0.8,
  }, laneSvg);
  el("title", {}, rect).textContent =
    span.name + " " + fmt(span.start_ms) + " → " + fmt(end) +
    " (trace " + span.trace_id + ")";
  rect.addEventListener("click", () => setTime(span.start_ms));
}
if (!SPANS.length) {
  for (const event of EVENTS) {
    const lane = laneOf(event.node, event.participant);
    if (lane === null) continue;
    const tick = el("rect", {
      x: laneX(event.at_ms) - 1, y: lane * LH + 17,
      width: 2, height: 8,
      fill: kindColor(event.kind), "fill-opacity": 0.85,
    }, laneSvg);
    el("title", {}, tick).textContent =
      "#" + event.event_id + " " + event.kind;
    tick.addEventListener("click", () => setTime(event.at_ms));
  }
}
const cursorLine = el("line", {
  x1: LPAD, y1: 8, x2: LPAD, y2: laneH - 8,
  stroke: "#5aa9ff", "stroke-width": 1.5,
}, laneSvg);
laneSvg.addEventListener("click", (click) => {
  const box = laneSvg.getBoundingClientRect();
  const frac = ((click.clientX - box.left) / box.width * W - LPAD) /
    (W - LPAD - 10);
  if (frac >= 0 && frac <= 1) setTime(T0 + frac * (T1 - T0));
});

// ---------------------------------------------------------- flame view
const tracePick = document.getElementById("trace-pick");
const flameBox = document.getElementById("flame");
const traceIds = [];
const spansByTrace = {};
for (const span of SPANS) {
  if (!(span.trace_id in spansByTrace)) {
    spansByTrace[span.trace_id] = [];
    traceIds.push(span.trace_id);
  }
  spansByTrace[span.trace_id].push(span);
}
function renderFlame(traceId) {
  const spans = spansByTrace[traceId] || [];
  const have = {};
  for (const span of spans) have[span.span_id] = span;
  const depth = {};
  function depthOf(span) {
    if (span.span_id in depth) return depth[span.span_id];
    depth[span.span_id] = 0;  // cycle guard
    const d = (span.parent_id != null && have[span.parent_id])
      ? depthOf(have[span.parent_id]) + 1 : 0;
    depth[span.span_id] = d;
    return d;
  }
  let f0 = Infinity, f1 = -Infinity, maxDepth = 0;
  for (const span of spans) {
    maxDepth = Math.max(maxDepth, depthOf(span));
    f0 = Math.min(f0, span.start_ms);
    f1 = Math.max(
      f1, span.end_ms == null ? span.start_ms : span.end_ms);
  }
  if (f1 <= f0) f1 = f0 + 1;
  const FH = 18;
  const height = (maxDepth + 1) * FH + 16;
  flameBox.innerHTML = "";
  const svg = el("svg", { viewBox: `0 0 ${W} ${height}` });
  flameBox.appendChild(svg);
  function fx(ms) { return 10 + ((ms - f0) / (f1 - f0)) * (W - 20); }
  for (const span of spans) {
    const end = span.end_ms == null ? span.start_ms : span.end_ms;
    const x = fx(span.start_ms);
    const width = Math.max(1.5, fx(end) - x);
    const y = depthOf(span) * FH + 8;
    const rect = el("rect", {
      x: x, y: y, width: width, height: FH - 4, rx: 2,
      fill: kindColor(span.name), "fill-opacity": 0.85,
      stroke: "#10141b", "stroke-width": 0.5,
    }, svg);
    el("title", {}, rect).textContent =
      span.name + " @" + (span.node || span.participant) + " " +
      fmt(span.start_ms) + " → " + fmt(end) +
      " (" + (end - span.start_ms).toFixed(3) + " ms)";
    rect.addEventListener("click", () => setTime(span.start_ms));
    if (width > 64) {
      const label = el("text", {
        x: x + 4, y: y + 10.5, fill: "#10141b", "font-size": 9,
        "pointer-events": "none",
      }, svg);
      label.textContent = span.name;
    }
  }
}
if (traceIds.length) {
  for (const id of traceIds) {
    const spans = spansByTrace[id];
    let t0 = Infinity, t1 = -Infinity, root = null;
    for (const span of spans) {
      t0 = Math.min(t0, span.start_ms);
      t1 = Math.max(
        t1, span.end_ms == null ? span.start_ms : span.end_ms);
      if (span.parent_id == null) root = span;
    }
    const option = document.createElement("option");
    option.value = id;
    option.textContent =
      "trace " + id + " — " + (root ? root.name : spans[0].name) +
      " " + (t1 - t0).toFixed(3) + " ms (" + spans.length + " spans)";
    tracePick.appendChild(option);
  }
  tracePick.onchange = () => renderFlame(tracePick.value);
  renderFlame(traceIds[0]);
} else {
  tracePick.style.display = "none";
  flameBox.innerHTML =
    '<div class="empty">no spans in this bundle</div>';
}

// ------------------------------------------------------ latency budget
const latencyBox = document.getElementById("latency");
if (LATENCY) {
  const e2e = LATENCY.end_to_end_ms || {};
  const head = document.createElement("div");
  head.textContent =
    LATENCY.ops + " ops — end-to-end p50 " +
    (e2e.p50 || 0).toFixed(3) + " ms · p90 " +
    (e2e.p90 || 0).toFixed(3) + " ms · p99 " +
    (e2e.p99 || 0).toFixed(3) + " ms";
  latencyBox.appendChild(head);
  const segments = LATENCY.segments || [];
  let maxShare = 0;
  for (const seg of segments) {
    maxShare = Math.max(maxShare, seg.share || 0);
  }
  for (const seg of segments) {
    const row = document.createElement("div");
    row.className = "seg";
    const name = document.createElement("span");
    name.className = "name";
    name.textContent = seg.segment;
    const bar = document.createElement("span");
    bar.className = "bar";
    const fill = document.createElement("i");
    fill.style.width =
      (maxShare ? (100 * (seg.share || 0)) / maxShare : 0) + "%";
    bar.appendChild(fill);
    const num = document.createElement("span");
    num.className = "num";
    num.textContent =
      (100 * (seg.share || 0)).toFixed(1) + "% · p50 " +
      seg.p50.toFixed(3) + " / p99 " + seg.p99.toFixed(3) + " ms";
    row.appendChild(name);
    row.appendChild(bar);
    row.appendChild(num);
    latencyBox.appendChild(row);
  }
  const conserve = document.createElement("div");
  const proof = LATENCY.conservation || {};
  conserve.className = "conserve " + (proof.ok ? "ok" : "bad");
  conserve.textContent =
    (proof.ok ? "✓ conservation holds" :
     "✗ conservation VIOLATED") +
    " — max error " + (proof.max_error_ms || 0).toExponential(2) +
    " ms, unattributed p99 fraction " +
    (proof.unattributed_p99_fraction || 0).toFixed(4) +
    " (bound " + (proof.unattributed_p99_bound || 0).toFixed(2) + ")";
  latencyBox.appendChild(conserve);
  const tail = LATENCY.tail || {};
  if (tail.dominant_segment) {
    const tailLine = document.createElement("div");
    tailLine.textContent =
      "p99 tail (≥ " + (tail.threshold_ms || 0).toFixed(3) +
      " ms, " + tail.ops + " ops) dominated by " +
      tail.dominant_segment;
    latencyBox.appendChild(tailLine);
  }
} else {
  latencyBox.innerHTML =
    '<div class="empty">no latency attribution in this bundle</div>';
}

// --------------------------------------------------- chaos ground truth
const chaosList = document.getElementById("chaos-list");
if (CHAOS && CHAOS.actions.length) {
  const shadeLayer = el("g", {});
  laneSvg.insertBefore(shadeLayer, laneSvg.firstChild);
  for (const action of CHAOS.actions) {
    const x0 = laneX(Math.max(T0, Math.min(T1, action.start)));
    const x1 = laneX(Math.max(T0, Math.min(T1, action.end)));
    const shade = el("rect", {
      x: x0, y: 4, width: Math.max(2, x1 - x0), height: laneH - 8,
      fill: "#ef6b73", "fill-opacity": 0.08,
      stroke: "#ef6b73", "stroke-opacity": 0.35,
      "stroke-dasharray": "3 3",
    }, shadeLayer);
    el("title", {}, shade).textContent = "injected: " + action.label;
    const card = document.createElement("div");
    card.className = "fault";
    card.textContent =
      action.label + " [" + action.start.toFixed(0) + ", " +
      action.end.toFixed(0) + ")";
    card.onclick = () => setTime(action.start);
    chaosList.appendChild(card);
  }
} else {
  chaosList.innerHTML = '<div class="empty">' + (CHAOS
    ? "plan injected no faults"
    : "no fault plan attached to this bundle") + "</div>";
}

// ------------------------------------------------------------- audit
const findingsBox = document.getElementById("findings");
let selectedFinding = null;
const evidenceIds = new Set();
if (AUDIT && AUDIT.findings.length) {
  AUDIT.findings.forEach((finding) => {
    const card = document.createElement("div");
    card.className = "finding" +
      (finding.suspect_kind === "replica" ||
       finding.suspect_kind === "daemon" ? "" : " non-accusing");
    card.id = finding.id;
    card.innerHTML =
      '<div class="fid">' + finding.id + "</div>" +
      "[" + finding.kind + "] " + finding.suspect_kind + " " +
      "<b>" + finding.suspect + "</b> " +
      '<span class="score">score ' + finding.score.toFixed(1) +
      "</span><br>" + finding.summary +
      ' <span class="fid">(' + finding.evidence_event_ids.length +
      " evidence events)</span>";
    card.onclick = () => selectFinding(finding, card);
    findingsBox.appendChild(card);
  });
} else {
  findingsBox.innerHTML = AUDIT
    ? '<div class="empty">no findings — clean run</div>'
    : '<div class="empty">no audit attached to this bundle</div>';
}
function selectFinding(finding, card) {
  evidenceIds.clear();
  const cards = findingsBox.querySelectorAll(".finding");
  for (const other of cards) other.classList.remove("selected");
  if (selectedFinding === finding.id) {
    selectedFinding = null;
  } else {
    selectedFinding = finding.id;
    card.classList.add("selected");
    for (const id of finding.evidence_event_ids) evidenceIds.add(id);
    const first = EVENTS.find(
      (event) => evidenceIds.has(event.event_id));
    if (first) {
      setTime(first.at_ms);
      const row = logRows[EVENTS.indexOf(first)];
      if (row) row.scrollIntoView({ block: "center" });
    }
  }
  refreshLog();
}

// ------------------------------------------------------ replay engine
const FLOW_WINDOW = 0.04 * (T1 - T0);
function drawFlows() {
  while (flowLayer.firstChild) {
    flowLayer.removeChild(flowLayer.firstChild);
  }
  for (const event of EVENTS) {
    if (event.at_ms > tCur || event.at_ms < tCur - FLOW_WINDOW) {
      continue;
    }
    const age = (tCur - event.at_ms) / FLOW_WINDOW;  // 0 fresh, 1 old
    const flow = flowOf(event);
    const to = posOf(flow[1]);
    if (!to) continue;
    const from = flow[0] ? posOf(flow[0]) : null;
    const color = kindColor(event.kind);
    if (from && (from.x !== to.x || from.y !== to.y)) {
      const x = from.x + (to.x - from.x) * (1 - age * 0.35);
      const y = from.y + (to.y - from.y) * (1 - age * 0.35);
      el("line", {
        x1: from.x, y1: from.y, x2: x, y2: y, stroke: color,
        "stroke-width": 1.5, "stroke-opacity": 0.75 * (1 - age),
      }, flowLayer);
      el("circle", {
        cx: x, cy: y, r: 3, fill: color,
        "fill-opacity": 1 - age,
      }, flowLayer);
    } else {
      el("circle", {
        cx: to.x, cy: to.y, r: 6 + age * 9, fill: "none",
        stroke: color, "stroke-opacity": 1 - age,
      }, flowLayer);
    }
  }
}
function refreshLog() {
  let current = -1;
  EVENTS.forEach((event, index) => {
    const row = logRows[index];
    row.className = "ev";
    if (evidenceIds.has(event.event_id)) {
      row.className += " evidence";
    } else if (event.at_ms <= tCur) {
      row.className += " past";
    }
    if (event.at_ms <= tCur) current = index;
  });
  if (current >= 0) logRows[current].className += " now";
}
const scrub = document.getElementById("scrub");
const clock = document.getElementById("clock");
function paint() {
  clock.textContent = "t = " + fmt(tCur);
  scrub.value = Math.round(((tCur - T0) / (T1 - T0)) * 1000);
  cursorLine.setAttribute("x1", laneX(tCur));
  cursorLine.setAttribute("x2", laneX(tCur));
  drawFlows();
  refreshLog();
}
function setTime(ms) {
  tCur = Math.max(T0, Math.min(T1, ms));
  paint();
}
const playBtn = document.getElementById("btn-play");
function setPlaying(on) {
  playing = on;
  playBtn.innerHTML = on ? "&#9208; pause" : "&#9654; play";
}
playBtn.onclick = () => {
  if (!playing && tCur >= T1) tCur = T0;
  setPlaying(!playing);
  lastFrame = null;
  if (playing) requestAnimationFrame(tick);
};
document.getElementById("btn-step").onclick = () => {
  setPlaying(false);
  const next = EVENTS.find((event) => event.at_ms > tCur);
  if (next) setTime(next.at_ms);
};
document.getElementById("btn-back").onclick = () => {
  setPlaying(false);
  let previous = null;
  for (const event of EVENTS) {
    if (event.at_ms < tCur) previous = event;
  }
  setTime(previous ? previous.at_ms : T0);
};
scrub.oninput = () => {
  setPlaying(false);
  setTime(T0 + (scrub.value / 1000) * (T1 - T0));
};
let lastFrame = null;
function tick(stamp) {
  if (!playing) return;
  if (lastFrame !== null) {
    const speed = Number(document.getElementById("speed").value);
    tCur += ((stamp - lastFrame) / 1000) * speed;
    if (tCur >= T1) { tCur = T1; setPlaying(false); }
    paint();
  }
  lastFrame = stamp;
  if (playing) requestAnimationFrame(tick);
}
paint();
</script>
</body>
</html>
"""
