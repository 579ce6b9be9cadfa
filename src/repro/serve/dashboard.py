"""Single-file HTML operator dashboard served at ``GET /dashboard``.

The page is deliberately self-contained (inline CSS + JS, no external
assets — the serving container has no static file tree) and renders one
document: the operator view from ``GET /view`` on the same origin
(:meth:`repro.serve.http.ServeApp.view`, which ``repro top`` renders
too) — fleet status, per-node breakers, per-tenant admission and SLO
burn, canvas sparklines of the view's series and the wall-clock perf
stage table.  One request per 2 s poll, so it works against any live
:class:`~repro.serve.http.ServeApp`, including virtual-clock CI smoke
runs.
"""

from __future__ import annotations

DASHBOARD_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro serve — live dashboard</title>
<style>
  body { font: 13px/1.5 ui-monospace, SFMono-Regular, Menlo, monospace;
         background: #101418; color: #d7dde3; margin: 1.2em; }
  h1 { font-size: 1.1em; margin: 0 0 .3em; }
  h2 { font-size: .95em; margin: 1.2em 0 .3em; color: #9fb3c8; }
  .muted { color: #64748b; }
  table { border-collapse: collapse; }
  th, td { padding: .15em .7em; text-align: right; border-bottom: 1px solid #1e293b; }
  th { color: #9fb3c8; font-weight: normal; }
  td:first-child, th:first-child { text-align: left; }
  .ok { color: #4ade80; } .warn { color: #facc15; } .bad { color: #f87171; }
  .spark { display: inline-block; margin: .3em 1em .3em 0; vertical-align: top; }
  .spark canvas { display: block; background: #0b0f13; border: 1px solid #1e293b; }
  .spark .label { color: #9fb3c8; font-size: .85em; }
  #err { color: #f87171; }
</style>
</head>
<body>
<h1>repro serve <span class="muted">live dashboard</span>
    <span id="status"></span></h1>
<div id="err"></div>
<div id="summary" class="muted"></div>
<h2>time series</h2>
<div id="sparks" class="muted">no time-series store attached</div>
<h2>tenants</h2>
<div id="tenants" class="muted">no tenancy configured</div>
<h2>breakers</h2>
<div id="breakers" class="muted">no health tracker configured</div>
<h2>wall-clock perf stages</h2>
<div id="perf" class="muted">no perf recorder attached</div>
<script>
"use strict";
const $ = (id) => document.getElementById(id);
const fmt = (v) => (typeof v === "number" && isFinite(v))
  ? (Math.abs(v) >= 100 ? v.toFixed(0) : v.toPrecision(3)) : String(v);

function statusClass(s) {
  return s === "ok" ? "ok" : (s === "degraded" ? "bad" : "warn");
}

function renderHealth(h) {
  $("status").innerHTML =
    ' — <span class="' + statusClass(h.status) + '">' + h.status + "</span>";
  const bits = [
    "t=" + fmt(h.now) + "s", "machines=" + h.machines,
    "accepted=" + h.accepted, "rejected=" + h.rejected,
    "machine-hours=" + fmt(h.machine_hours),
  ];
  if (h.cost_dollars !== undefined) bits.push("$" + fmt(h.cost_dollars));
  $("summary").textContent = bits.join("  |  ");
  if (h.breakers) {
    let rows = "<table><tr><th>node</th><th>state</th></tr>";
    for (const [node, state] of Object.entries(h.breakers)) {
      const cls = state === "closed" ? "ok" : (state === "open" ? "bad" : "warn");
      rows += "<tr><td>" + node + '</td><td class="' + cls + '">' +
        state + "</td></tr>";
    }
    $("breakers").innerHTML = rows + "</table>";
  }
}

function renderTenants(tenants) {
  if (!tenants) return;
  let rows = "<table><tr><th>tenant</th><th>offered</th><th>served</th>" +
    "<th>quota shed</th><th>brownout shed</th><th>good frac</th>" +
    "<th>burn fast/slow</th><th>alert</th></tr>";
  for (const [name, t] of Object.entries(tenants)) {
    const slo = t.slo || {};
    rows += "<tr><td>" + name + "</td><td>" + t.offered +
      "</td><td>" + t.served + "</td><td>" + t.quota_shed +
      "</td><td>" + t.brownout_shed +
      "</td><td>" + (slo.good_fraction !== undefined
                     ? (100 * slo.good_fraction).toFixed(2) + "%" : "-") +
      "</td><td>" + (slo.fast_burn !== undefined
                     ? fmt(slo.fast_burn) + "/" + fmt(slo.slow_burn) : "-") +
      '</td><td class="' + (slo.alerting ? "bad" : "ok") + '">' +
      (slo.alerting ? "FIRING" : "ok") + "</td></tr>";
  }
  $("tenants").innerHTML = rows + "</table>";
}

function sparkline(name, vals) {
  const w = 180, hgt = 42;
  const holder = document.createElement("div");
  holder.className = "spark";
  const canvas = document.createElement("canvas");
  canvas.width = w; canvas.height = hgt;
  const lo = Math.min(...vals), hi = Math.max(...vals), span = (hi - lo) || 1;
  const ctx = canvas.getContext("2d");
  ctx.strokeStyle = "#38bdf8"; ctx.lineWidth = 1.25; ctx.beginPath();
  vals.forEach((v, i) => {
    const x = vals.length > 1 ? (i / (vals.length - 1)) * (w - 4) + 2 : w / 2;
    const y = hgt - 4 - ((v - lo) / span) * (hgt - 8);
    i ? ctx.lineTo(x, y) : ctx.moveTo(x, y);
  });
  ctx.stroke();
  const label = document.createElement("div");
  label.className = "label";
  label.textContent = name + " = " + fmt(vals[vals.length - 1]);
  holder.appendChild(label); holder.appendChild(canvas);
  return holder;
}

function renderSparks(series) {
  const box = document.createElement("div");
  for (const [name, vals] of Object.entries(series || {})) {
    if (vals.length) box.appendChild(sparkline(name, vals));
  }
  if (box.childNodes.length) $("sparks").replaceChildren(box);
}

function renderPerf(perf) {
  if (!perf || !perf.stages.length) return;
  let rows = "<table><tr><th>stage</th><th>count</th><th>mean ms</th>" +
    "<th>p50 ms</th><th>p99 ms</th></tr>";
  for (const s of perf.stages) {
    rows += "<tr><td>" + s.name + "</td><td>" + s.count +
      "</td><td>" + fmt(s.mean_ms) + "</td><td>" + fmt(s.p50_ms) +
      "</td><td>" + fmt(s.p99_ms) + "</td></tr>";
  }
  $("perf").innerHTML = rows + '</table><div class="muted">overhead ' +
    fmt(perf.overhead_ms) + " ms</div>";
}

async function refresh() {
  try {
    const view = await (await fetch("/view")).json();
    renderHealth(view.health);
    renderTenants(view.tenants);
    renderSparks(view.series);
    renderPerf(view.perf);
    $("err").textContent = "";
  } catch (exc) {
    $("err").textContent = "poll failed: " + exc;
  }
}
refresh();
setInterval(refresh, 2000);
</script>
</body>
</html>
"""
